(** Regeneration of the paper's evaluation tables and figures as text
    tables (same rows/series as the paper; absolute values differ because
    the substrate is ours, the shape is what must match — see
    EXPERIMENTS.md). *)

module Encoding = Hardbound.Encoding
module Codegen = Hb_minic.Codegen
module Json = Hb_obs.Json

let pct f = Printf.sprintf "%5.1f%%" (100.0 *. f)

let bprintf = Printf.bprintf

(* Per-scheme averages used by several figures' summary rows. *)
let scheme_averages totals =
  List.filter_map
    (fun scheme ->
      match Hashtbl.find_opt totals scheme with
      | Some l -> Some (scheme, Suite.mean l)
      | None -> None)
    [ Encoding.Extern4; Encoding.Intern4; Encoding.Intern11 ]

(* ---- Figure 5: runtime overhead decomposition ------------------------ *)

let figure5 (suite : Suite.per_workload list) : string =
  let b = Buffer.create 4096 in
  bprintf b
    "Figure 5: runtime overhead of HardBound by pointer encoding\n\
     (segments are fractions of baseline cycles; paper averages: \
     extern-4 9%%, intern-4 7%%, intern-11 5%%)\n\n";
  bprintf b "%-10s %-10s %9s %9s %9s %9s %9s\n" "benchmark" "encoding"
    "setbound" "meta-uops" "meta-stall" "pollution" "TOTAL";
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (w : Suite.per_workload) ->
      List.iter
        (fun (scheme, r) ->
          let d = Run.decompose ~baseline:w.Suite.baseline r in
          bprintf b "%-10s %-10s %9s %9s %9s %9s %9s\n" w.Suite.name
            (Encoding.scheme_name scheme) (pct d.Run.seg_setbound)
            (pct d.Run.seg_meta_uops) (pct d.Run.seg_meta_stalls)
            (pct d.Run.seg_pollution) (pct d.Run.total_overhead);
          let cur =
            match Hashtbl.find_opt totals scheme with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace totals scheme (d.Run.total_overhead :: cur))
        (Suite.hb_runs w);
      bprintf b "\n")
    suite;
  List.iter
    (fun (scheme, avg) ->
      bprintf b "average overhead %-10s %s\n" (Encoding.scheme_name scheme)
        (pct avg))
    (scheme_averages totals);
  Buffer.contents b

let figure5_json (suite : Suite.per_workload list) : Json.t =
  let totals = Hashtbl.create 8 in
  let workloads =
    List.map
      (fun (w : Suite.per_workload) ->
        let encodings =
          List.map
            (fun (scheme, (r : Run.record)) ->
              let d = Run.decompose ~baseline:w.Suite.baseline r in
              (let cur =
                 match Hashtbl.find_opt totals scheme with
                 | Some l -> l
                 | None -> []
               in
               Hashtbl.replace totals scheme (d.Run.total_overhead :: cur));
              let segs =
                match Run.decomposition_json d with
                | Json.Obj kvs -> kvs
                | _ -> []
              in
              Json.Obj
                (("scheme", Json.String (Encoding.scheme_name scheme))
                 :: ("cycles", Json.Int r.Run.cycles)
                 :: ("baseline_cycles", Json.Int w.Suite.baseline.Run.cycles)
                 :: segs))
            (Suite.hb_runs w)
        in
        Json.Obj
          [
            ("name", Json.String w.Suite.name);
            ("encodings", Json.List encodings);
          ])
      suite
  in
  Json.Obj
    [
      ("experiment", Json.String "fig5");
      ("workloads", Json.List workloads);
      ( "average_overhead",
        Json.Obj
          (List.map
             (fun (s, avg) -> (Encoding.scheme_name s, Json.Float avg))
             (scheme_averages totals)) );
    ]

(* ---- Figure 6: memory overhead (distinct 4KB pages touched) ---------- *)

let figure6 (suite : Suite.per_workload list) : string =
  let b = Buffer.create 4096 in
  bprintf b
    "Figure 6: extra distinct user pages touched (fraction of baseline \
     data pages), split into tag and base/bound metadata\n\
     (paper averages: extern-4 55%%, intern-11 10%%)\n\n";
  bprintf b "%-10s %-10s %7s %9s %9s %9s\n" "benchmark" "encoding" "base-pg"
    "tag" "basebound" "TOTAL";
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (w : Suite.per_workload) ->
      let base_pages = w.Suite.baseline.Run.data_pages in
      List.iter
        (fun (scheme, (r : Run.record)) ->
          let fb = float_of_int base_pages in
          let tag = float_of_int r.Run.tag_pages /. fb in
          let bb = float_of_int r.Run.shadow_pages /. fb in
          let extra_data =
            float_of_int (r.Run.data_pages - base_pages) /. fb
          in
          let total = tag +. bb +. extra_data in
          bprintf b "%-10s %-10s %7d %9s %9s %9s\n" w.Suite.name
            (Encoding.scheme_name scheme) base_pages (pct tag) (pct bb)
            (pct total);
          let cur =
            match Hashtbl.find_opt totals scheme with Some l -> l | None -> []
          in
          Hashtbl.replace totals scheme (total :: cur))
        (Suite.hb_runs w);
      bprintf b "\n")
    suite;
  List.iter
    (fun (scheme, avg) ->
      bprintf b "average extra pages %-10s %s\n" (Encoding.scheme_name scheme)
        (pct avg))
    (scheme_averages totals);
  Buffer.contents b

let figure6_json (suite : Suite.per_workload list) : Json.t =
  let totals = Hashtbl.create 8 in
  let workloads =
    List.map
      (fun (w : Suite.per_workload) ->
        let base_pages = w.Suite.baseline.Run.data_pages in
        let fb = float_of_int base_pages in
        let encodings =
          List.map
            (fun (scheme, (r : Run.record)) ->
              let tag = float_of_int r.Run.tag_pages /. fb in
              let bb = float_of_int r.Run.shadow_pages /. fb in
              let extra_data =
                float_of_int (r.Run.data_pages - base_pages) /. fb
              in
              let total = tag +. bb +. extra_data in
              (let cur =
                 match Hashtbl.find_opt totals scheme with
                 | Some l -> l
                 | None -> []
               in
               Hashtbl.replace totals scheme (total :: cur));
              Json.Obj
                [
                  ("scheme", Json.String (Encoding.scheme_name scheme));
                  ("tag_pages", Json.Int r.Run.tag_pages);
                  ("shadow_pages", Json.Int r.Run.shadow_pages);
                  ("data_pages", Json.Int r.Run.data_pages);
                  ("tag_frac", Json.Float tag);
                  ("basebound_frac", Json.Float bb);
                  ("total_frac", Json.Float total);
                ])
            (Suite.hb_runs w)
        in
        Json.Obj
          [
            ("name", Json.String w.Suite.name);
            ("baseline_pages", Json.Int base_pages);
            ("encodings", Json.List encodings);
          ])
      suite
  in
  Json.Obj
    [
      ("experiment", Json.String "fig6");
      ("workloads", Json.List workloads);
      ( "average_extra_pages",
        Json.Obj
          (List.map
             (fun (s, avg) -> (Encoding.scheme_name s, Json.Float avg))
             (scheme_averages totals)) );
    ]

(* ---- Figure 7: comparison with software-only schemes ----------------- *)

let rel (r : Run.record) (baseline : Run.record) =
  float_of_int r.Run.cycles /. float_of_int baseline.Run.cycles

let figure7 (suite : Suite.per_workload list) : string =
  let b = Buffer.create 4096 in
  bprintf b
    "Figure 7: relative runtimes. 'paper:' columns are transcribed from \
     the publication (we cannot rerun their hardware or binaries); 'sim:' \
     columns are measured on our simulator with our reimplemented \
     baselines. Overheads over 20%% are the paper's bold cells.\n\n";
  bprintf b
    "%-10s | %9s %9s | %9s %9s | %9s %9s %9s | %9s %9s %9s\n" "benchmark"
    "paper:JK" "paper:CC" "sim:OT" "sim:SF" "paper:HB4e" "paper:HB4i"
    "paper:HB11" "sim:HB4e" "sim:HB4i" "sim:HB11";
  let acc = Hashtbl.create 16 in
  let note key v =
    let cur = match Hashtbl.find_opt acc key with Some l -> l | None -> [] in
    Hashtbl.replace acc key (v :: cur)
  in
  List.iter
    (fun (w : Suite.per_workload) ->
      let base = w.Suite.baseline in
      let sim_ot =
        match w.Suite.objtable with Some r -> rel r base | None -> nan
      in
      let sim_sf =
        match w.Suite.softfat with Some r -> rel r base | None -> nan
      in
      let h4e = rel w.Suite.hb_extern4 base in
      let h4i = rel w.Suite.hb_intern4 base in
      let h11 = rel w.Suite.hb_intern11 base in
      note "ot" sim_ot;
      note "sf" sim_sf;
      note "h4e" h4e;
      note "h4i" h4i;
      note "h11" h11;
      bprintf b
        "%-10s | %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n"
        w.Suite.name
        (Paper_data.get Paper_data.jk_published w.Suite.name)
        (Paper_data.get Paper_data.ccured_published w.Suite.name)
        sim_ot sim_sf
        (Paper_data.get Paper_data.hardbound_extern4 w.Suite.name)
        (Paper_data.get Paper_data.hardbound_intern4 w.Suite.name)
        (Paper_data.get Paper_data.hardbound_intern11 w.Suite.name)
        h4e h4i h11)
    suite;
  let avg key = Suite.mean (Hashtbl.find acc key) in
  bprintf b
    "%-10s | %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n"
    "Average" 1.13 1.26 (avg "ot") (avg "sf") 1.09 1.07 1.05 (avg "h4e")
    (avg "h4i") (avg "h11");
  bprintf b
    "\nShape check: HardBound average overhead < both software schemes: %b\n"
    (avg "h4e" < avg "ot" && avg "h4e" < avg "sf");
  Buffer.contents b

let figure7_json (suite : Suite.per_workload list) : Json.t =
  let acc = Hashtbl.create 16 in
  let note key v =
    if not (Float.is_nan v) then begin
      let cur =
        match Hashtbl.find_opt acc key with Some l -> l | None -> []
      in
      Hashtbl.replace acc key (v :: cur)
    end
  in
  let workloads =
    List.map
      (fun (w : Suite.per_workload) ->
        let base = w.Suite.baseline in
        let opt key = function
          | Some r ->
            let v = rel r base in
            note key v;
            Json.Float v
          | None -> Json.Null
        in
        let hb key r =
          let v = rel r base in
          note key v;
          Json.Float v
        in
        Json.Obj
          [
            ("name", Json.String w.Suite.name);
            ( "sim",
              Json.Obj
                [
                  ("objtable", opt "ot" w.Suite.objtable);
                  ("softfat", opt "sf" w.Suite.softfat);
                  ("hb_extern4", hb "h4e" w.Suite.hb_extern4);
                  ("hb_intern4", hb "h4i" w.Suite.hb_intern4);
                  ("hb_intern11", hb "h11" w.Suite.hb_intern11);
                ] );
            ( "paper",
              Json.Obj
                [
                  ( "jk",
                    Json.Float
                      (Paper_data.get Paper_data.jk_published w.Suite.name) );
                  ( "ccured",
                    Json.Float
                      (Paper_data.get Paper_data.ccured_published
                         w.Suite.name) );
                  ( "hb_extern4",
                    Json.Float
                      (Paper_data.get Paper_data.hardbound_extern4
                         w.Suite.name) );
                  ( "hb_intern4",
                    Json.Float
                      (Paper_data.get Paper_data.hardbound_intern4
                         w.Suite.name) );
                  ( "hb_intern11",
                    Json.Float
                      (Paper_data.get Paper_data.hardbound_intern11
                         w.Suite.name) );
                ] );
          ])
      suite
  in
  let avg key =
    match Hashtbl.find_opt acc key with
    | Some l -> Json.Float (Suite.mean l)
    | None -> Json.Null
  in
  Json.Obj
    [
      ("experiment", Json.String "fig7");
      ("workloads", Json.List workloads);
      ( "sim_averages",
        Json.Obj
          [
            ("objtable", avg "ot");
            ("softfat", avg "sf");
            ("hb_extern4", avg "h4e");
            ("hb_intern4", avg "h4i");
            ("hb_intern11", avg "h11");
          ] );
    ]

(* ---- Section 5.4 ablation: bounds-check micro-op ---------------------- *)

let uop_ablation_report () : string * Json.t =
  let rows =
    List.map
      (fun (w : Hb_workloads.Workloads.t) ->
        let base = Run.measure ~mode:Codegen.Nochecks w in
        let free = Run.measure ~mode:Codegen.Hardbound w in
        let charged =
          Run.measure ~checked_deref_uop:true ~mode:Codegen.Hardbound w
        in
        (w.name, rel free base -. 1.0, rel charged base -. 1.0))
      Hb_workloads.Workloads.all
  in
  let deltas = List.map (fun (_, o1, o2) -> o2 -. o1) rows in
  let b = Buffer.create 1024 in
  bprintf b
    "Section 5.4 ablation: charging one extra micro-op per bounds check of \
     an uncompressed pointer (paper: average +~3%%, max +10%% on tsp)\n\n";
  bprintf b "%-10s %12s %12s %9s\n" "benchmark" "parallel-chk" "uop-chk"
    "delta";
  List.iter
    (fun (name, o1, o2) ->
      bprintf b "%-10s %12s %12s %9s\n" name (pct o1) (pct o2)
        (pct (o2 -. o1)))
    rows;
  bprintf b "average delta %s\n" (pct (Suite.mean deltas));
  let json =
    Json.Obj
      [
        ("experiment", Json.String "uop");
        ( "workloads",
          Json.List
            (List.map
               (fun (name, o1, o2) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("parallel_check_overhead", Json.Float o1);
                     ("uop_check_overhead", Json.Float o2);
                     ("delta", Json.Float (o2 -. o1));
                   ])
               rows) );
        ("average_delta", Json.Float (Suite.mean deltas));
      ]
  in
  (Buffer.contents b, json)

(* ---- Section 5.2: correctness sweep ----------------------------------- *)

let correctness_report () : string * Json.t =
  let b = Buffer.create 1024 in
  let open Hb_violations in
  let s = Runner.run_corpus () in
  bprintf b
    "Section 5.2: spatial-violation corpus under full HardBound\n\
     (paper: 286 pairs, all violations detected, no false positives)\n\n";
  bprintf b "cases:            %d\n" s.Runner.total;
  bprintf b "detected:         %d\n" s.Runner.detected;
  bprintf b "false positives:  %d\n" s.Runner.false_positives;
  if s.Runner.anomalies <> [] then begin
    bprintf b "ANOMALIES:\n";
    List.iter
      (fun (id, what) -> bprintf b "  %s: %s\n" id what)
      s.Runner.anomalies
  end
  else bprintf b "all violations detected, zero false positives\n";
  let json =
    Json.Obj
      [
        ("experiment", Json.String "correctness");
        ("cases", Json.Int s.Runner.total);
        ("detected", Json.Int s.Runner.detected);
        ("false_positives", Json.Int s.Runner.false_positives);
        ( "anomalies",
          Json.List
            (List.map
               (fun (id, what) ->
                 Json.Obj
                   [
                     ("id", Json.String id); ("what", Json.String what);
                   ])
               s.Runner.anomalies) );
      ]
  in
  (Buffer.contents b, json)

(* ---- Section 3.2: malloc-only mode ------------------------------------ *)

let malloc_only_report () : string * Json.t =
  let b = Buffer.create 1024 in
  let open Hb_violations in
  let cases = Gen.all_cases () in
  let heap_non_sub =
    List.filter
      (fun c -> c.Gen.region = Gen.Heap && c.Gen.idiom <> Gen.Sub_object)
      cases
  in
  let non_heap =
    List.filter (fun c -> c.Gen.region <> Gen.Heap) cases
  in
  let sub_heap =
    List.filter
      (fun c -> c.Gen.region = Gen.Heap && c.Gen.idiom = Gen.Sub_object)
      cases
  in
  let count cases =
    let s = Runner.run_corpus ~mode:Codegen.Hardbound_malloc_only ~cases () in
    (s.Runner.detected, s.Runner.total, s.Runner.false_positives)
  in
  let d1, t1, f1 = count heap_non_sub in
  let d2, t2, f2 = count non_heap in
  let d3, t3, f3 = count sub_heap in
  bprintf b
    "Section 3.2: malloc-only instrumentation (legacy binaries, only the \
     allocator sets bounds)\n\n";
  bprintf b "heap violations (non-sub-object): %d/%d detected, %d FPs\n" d1 t1 f1;
  bprintf b "heap sub-object violations:       %d/%d detected (needs compiler), %d FPs\n"
    d3 t3 f3;
  bprintf b "stack/global violations:          %d/%d detected (out of scope), %d FPs\n"
    d2 t2 f2;
  let subset detected total fps =
    Json.Obj
      [
        ("detected", Json.Int detected);
        ("cases", Json.Int total);
        ("false_positives", Json.Int fps);
      ]
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "malloc_only");
        ("heap_non_subobject", subset d1 t1 f1);
        ("heap_subobject", subset d3 t3 f3);
        ("stack_global", subset d2 t2 f2);
      ]
  in
  (Buffer.contents b, json)

(* ---- Section 2.1: red-zone tripwire baseline --------------------------- *)

let redzone_report () : string * Json.t =
  let b = Buffer.create 1024 in
  let open Hb_violations in
  bprintf b
    "Section 2.1 baseline: red-zone tripwire (valid/invalid bit per word, \
     write checking).  The paper's point: 'large overflows may jump over \
     the tripwire ... these schemes cannot guarantee the detection of all \
     spatial violations.'\n\n";
  let heap_writes mag =
    List.filter
      (fun c ->
        c.Gen.region = Gen.Heap && c.Gen.access = Gen.Write
        && c.Gen.boundary = Gen.Upper && c.Gen.magnitude = mag
        && c.Gen.idiom <> Gen.Sub_object)
      (Gen.all_cases ())
  in
  let run_subset cases =
    let detected = ref 0 and missed = ref 0 and fps = ref 0 in
    List.iter
      (fun (c : Gen.case) ->
        let classify src =
          match
            Hb_runtime.Build.run ~tripwire:true ~mode:Codegen.Nochecks
              ~max_instrs:5_000_000 src
          with
          | Hb_cpu.Machine.Exited 0, _ -> `Clean
          | Hb_cpu.Machine.Temporal_violation _, _ -> `Detected
          | st, _ -> `Other (Hb_cpu.Machine.status_name st)
        in
        (match classify c.Gen.bad with
         | `Detected -> incr detected
         | `Clean -> incr missed
         | `Other _ -> incr missed);
        match classify c.Gen.good with
        | `Clean -> ()
        | _ -> incr fps)
      cases;
    (!detected, !missed, !fps)
  in
  let d1, m1, f1 = run_subset (heap_writes 1) in
  bprintf b
    "small-stride heap write overflows (1 element past): %d/%d detected, \
     %d false positives\n"
    d1 (d1 + m1) f1;
  let d2, m2, f2 = run_subset (heap_writes 16) in
  bprintf b
    "large-stride heap write overflows (16 elements past): %d/%d detected \
     (the rest jumped the red zone), %d false positives\n"
    d2 (d2 + m2) f2;
  (* overhead of the hardware-tracked validity bits on one benchmark *)
  let w = Hb_workloads.Workloads.find "treeadd" in
  let base = Run.measure ~mode:Codegen.Nochecks w in
  let status, m =
    Hb_runtime.Build.run ~tripwire:true ~mode:Codegen.Nochecks w.source
  in
  let overhead =
    match status with
    | Hb_cpu.Machine.Exited 0 ->
      let trip_cycles = Hb_cpu.Stats.cycles m.Hb_cpu.Machine.stats in
      let o = Run.ratio trip_cycles base.Run.cycles -. 1.0 in
      bprintf b
        "\nhardware-tracked validity bits on treeadd: %s overhead (write \
         checks only, MemTracker-style)\n"
        (pct o);
      Json.Float o
    | st ->
      bprintf b "treeadd under tripwire: %s\n"
        (Hb_cpu.Machine.status_name st);
      Json.Null
  in
  let subset detected total fps =
    Json.Obj
      [
        ("detected", Json.Int detected);
        ("cases", Json.Int total);
        ("false_positives", Json.Int fps);
      ]
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "redzone");
        ("small_stride", subset d1 (d1 + m1) f1);
        ("large_stride", subset d2 (d2 + m2) f2);
        ("treeadd_overhead", overhead);
      ]
  in
  (Buffer.contents b, json)

(* ---- Section 6.2: temporal extension ----------------------------------- *)

let temporal_report () : string * Json.t =
  let b = Buffer.create 1024 in
  let run src =
    let status, _ =
      Hb_runtime.Build.run ~temporal:true ~mode:Codegen.Hardbound src
    in
    Hb_cpu.Machine.status_name status
  in
  bprintf b
    "Section 6.2 extension: temporal tracking (per-word allocation state \
     piggybacked on HardBound's metadata)\n\n";
  let uaf = {|
int main() {
  int *p;
  p = (int*)malloc(16);
  p[0] = 1;
  free((char*)p);
  return p[0];
}
|}
  in
  let uninit = {|
int main() {
  int *p;
  p = (int*)malloc(16);
  return p[2];
}
|}
  in
  let ok = {|
int main() {
  int *p;
  p = (int*)malloc(16);
  p[0] = 41;
  p[0] = p[0] + 1;
  free((char*)p);
  p = (int*)malloc(16);
  p[1] = 1;
  return p[1] - 1;
}
|}
  in
  let s_uaf = run uaf and s_uninit = run uninit and s_ok = run ok in
  bprintf b "use-after-free:      %s\n" s_uaf;
  bprintf b "uninitialized read:  %s\n" s_uninit;
  bprintf b "correct program:     %s\n" s_ok;
  let json =
    Json.Obj
      [
        ("experiment", Json.String "temporal");
        ("use_after_free", Json.String s_uaf);
        ("uninitialized_read", Json.String s_uninit);
        ("correct_program", Json.String s_ok);
      ]
  in
  (Buffer.contents b, json)
