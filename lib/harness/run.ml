(** Single-run measurement record: everything Figures 5, 6 and 7 need. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Encoding = Hardbound.Encoding
module Hierarchy = Hb_cache.Hierarchy
module Layout = Hb_mem.Layout
module Physmem = Hb_mem.Physmem

type record = {
  workload : string;
  mode : Codegen.mode;
  scheme : Encoding.scheme;
  output : string;
  instructions : int;
  uops : int;
  cycles : int;
  setbound_instrs : int;
  metadata_uops : int;
  check_uops : int;
  data_stalls : int;
  bb_stalls : int;      (* base/bound shadow-space stall cycles *)
  tag_stalls : int;     (* tag metadata cache stall cycles *)
  data_pages : int;     (* globals + heap + stack pages touched *)
  tag_pages : int;
  shadow_pages : int;
  ptr_loads_shadow : int;
  ptr_stores_shadow : int;
}

let measure ?(scheme = Encoding.Extern4) ?(checked_deref_uop = false)
    ~(mode : Codegen.mode) (w : Hb_workloads.Workloads.t) : record =
  let status, m = Build.run ~scheme ~checked_deref_uop ~mode w.source in
  (match status with
   | Machine.Exited 0 -> ()
   | st ->
     Hb_error.fail ~component:"harness" "%s [%s/%s]: %s" w.name
       (Codegen.mode_name mode) (Encoding.scheme_name scheme)
       (Machine.status_name st));
  let s = m.Machine.stats in
  let pages r = Physmem.pages_touched_in m.Machine.mem r in
  {
    workload = w.name;
    mode;
    scheme;
    output = Machine.output m;
    instructions = s.Stats.instructions;
    uops = s.Stats.uops;
    cycles = Stats.cycles s;
    setbound_instrs = s.Stats.setbound_instrs;
    metadata_uops = s.Stats.metadata_uops;
    check_uops = s.Stats.check_uops;
    data_stalls = s.Stats.charged_data_stalls;
    bb_stalls = s.Stats.charged_bb_stalls;
    tag_stalls = s.Stats.charged_tag_stalls;
    data_pages =
      pages Layout.Globals + pages Layout.Heap + pages Layout.Stack;
    tag_pages = pages Layout.Tag_space;
    shadow_pages = pages Layout.Shadow_space;
    ptr_loads_shadow = s.Stats.ptr_loads_shadow;
    ptr_stores_shadow = s.Stats.ptr_stores_shadow;
  }

let ratio a b = float_of_int a /. float_of_int b

(** Figure 5 decomposition of one HardBound run against its baseline, as
    fractions of baseline cycles. *)
type decomposition = {
  seg_setbound : float;
  seg_meta_uops : float;
  seg_meta_stalls : float;
  seg_pollution : float;  (* additional memory latency on ordinary data *)
  total_overhead : float;
}

let decompose ~(baseline : record) (hb : record) : decomposition =
  let b = float_of_int baseline.cycles in
  {
    seg_setbound = float_of_int hb.setbound_instrs /. b;
    seg_meta_uops = float_of_int (hb.metadata_uops + hb.check_uops) /. b;
    seg_meta_stalls = float_of_int (hb.bb_stalls + hb.tag_stalls) /. b;
    seg_pollution = float_of_int (hb.data_stalls - baseline.data_stalls) /. b;
    total_overhead = (float_of_int hb.cycles /. b) -. 1.0;
  }

module Json = Hb_obs.Json

let record_json (r : record) : Json.t =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("mode", Json.String (Codegen.mode_name r.mode));
      ("scheme", Json.String (Encoding.scheme_name r.scheme));
      ("instructions", Json.Int r.instructions);
      ("uops", Json.Int r.uops);
      ("cycles", Json.Int r.cycles);
      ("setbound_instrs", Json.Int r.setbound_instrs);
      ("metadata_uops", Json.Int r.metadata_uops);
      ("check_uops", Json.Int r.check_uops);
      ("data_stalls", Json.Int r.data_stalls);
      ("bb_stalls", Json.Int r.bb_stalls);
      ("tag_stalls", Json.Int r.tag_stalls);
      ("data_pages", Json.Int r.data_pages);
      ("tag_pages", Json.Int r.tag_pages);
      ("shadow_pages", Json.Int r.shadow_pages);
      ("ptr_loads_shadow", Json.Int r.ptr_loads_shadow);
      ("ptr_stores_shadow", Json.Int r.ptr_stores_shadow);
    ]

let decomposition_json (d : decomposition) : Json.t =
  Json.Obj
    [
      ("setbound", Json.Float d.seg_setbound);
      ("meta_uops", Json.Float d.seg_meta_uops);
      ("meta_stalls", Json.Float d.seg_meta_stalls);
      ("pollution", Json.Float d.seg_pollution);
      ("total_overhead", Json.Float d.total_overhead);
    ]
