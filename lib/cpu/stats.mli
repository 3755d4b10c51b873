(** Execution statistics.  The timing model follows Section 5.1 of the
    paper: in-order, at most one micro-operation per cycle;
    [cycles = uops + stall_cycles]. *)

type t = {
  mutable instructions : int;
  mutable uops : int;            (** 1/instruction + metadata/check uops *)
  mutable setbound_instrs : int;
  mutable metadata_uops : int;   (** uncompressed base/bound loads/stores *)
  mutable check_uops : int;      (** only under the Section 5.4 knob *)
  mutable loads : int;
  mutable stores : int;
  mutable checked_derefs : int;
  mutable ptr_loads : int;
  mutable ptr_loads_shadow : int;
  mutable ptr_stores : int;
  mutable ptr_stores_shadow : int;
  mutable stall_cycles : int;
  mutable charged_data_stalls : int;
      (** Charged-stall attribution: the tag cache is accessed in parallel
          with the L1 (Figure 4), so the pipeline is charged
          [max(data, tag)]; the data part lands here... *)
  mutable charged_tag_stalls : int;
      (** ...only the tag access's *excess* lands here... *)
  mutable charged_bb_stalls : int;
      (** ...and sequential base/bound accesses are fully charged here.
          The three sum exactly to [stall_cycles]. *)
  mutable enc_promotions : int;
      (** stores that widened a memory word's pointer encoding from the
          scheme's inline (narrow) form to the shadow-space (wide) form —
          bookkeeping for the timeline's transition telemetry; charges no
          cycles *)
  mutable enc_demotions : int;
      (** stores that narrowed a word's encoding back to the inline form *)
  mutable ptr_arith_promotions : int;
      (** pointer-propagating ALU ops whose result no longer fits the
          inline encoding (e.g. [p + 4] under Extern4, where only
          [ptr = base] compresses) *)
  mutable setbound_compressible : int;
      (** setbound results that fit the scheme's inline encoding
          (Section 4's common case) *)
}

val create : unit -> t

val cycles : t -> int
(** [uops + stall_cycles]. *)

val to_string : t -> string

val fields : t -> (string * int) list
(** Every field (plus derived [cycles]) as a flat association list — the
    [expect] side of [Hb_obs.Attr.check] / [Hb_obs.Flame.check]. *)

val to_json : t -> Hb_obs.Json.t
(** {!fields} as a flat JSON object. *)

val export : t -> Hb_obs.Metrics.t -> unit
(** Report every field into a metrics registry as [cpu.*] counters. *)

val check_invariants :
  ?window_sums:(string * int) list -> t -> (unit, string) result
(** The accounting identities the timing model promises:
    [charged_data + charged_tag + charged_bb = stall_cycles],
    [cycles = uops + stall_cycles], metadata/check micro-ops never
    exceed total micro-ops, and encoding transitions stay bounded by the
    stores/setbounds they ride on.  [window_sums] (the timeline's
    per-window delta sums) additionally must match {!fields} exactly on
    every shared key. *)
