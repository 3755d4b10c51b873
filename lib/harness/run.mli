(** Single-run measurement record: everything Figures 5, 6 and 7 need. *)

type record = {
  workload : string;
  mode : Hb_minic.Codegen.mode;
  scheme : Hardbound.Encoding.scheme;
  output : string;
  instructions : int;
  uops : int;
  cycles : int;
  setbound_instrs : int;
  metadata_uops : int;
  check_uops : int;
  data_stalls : int;
  bb_stalls : int;
  tag_stalls : int;
  data_pages : int;   (** globals + heap + stack pages touched *)
  tag_pages : int;
  shadow_pages : int;
  ptr_loads_shadow : int;
  ptr_stores_shadow : int;
}

val measure :
  ?scheme:Hardbound.Encoding.scheme ->
  ?checked_deref_uop:bool ->
  mode:Hb_minic.Codegen.mode ->
  Hb_workloads.Workloads.t ->
  record
(** Run one workload to completion under one configuration.  Fails if the
    program does not exit cleanly.  The record holds simulated values
    only, so equal arguments give equal records. *)

val ratio : int -> int -> float

(** Figure 5's decomposition of a HardBound run against its baseline, as
    fractions of baseline cycles.  The four segments sum exactly to
    [total_overhead]. *)
type decomposition = {
  seg_setbound : float;
  seg_meta_uops : float;
  seg_meta_stalls : float;
  seg_pollution : float;
  total_overhead : float;
}

val decompose : baseline:record -> record -> decomposition

val decomposition_json : decomposition -> Hb_obs.Json.t
