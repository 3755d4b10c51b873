(* Harness tests: the measurement machinery behind Figures 5-7 must be
   internally consistent — segments sum to the total, records are
   transparent, printers contain every benchmark row. *)

module Run = Hb_harness.Run
module Suite = Hb_harness.Suite
module Figures = Hb_harness.Figures
module Paper_data = Hb_harness.Paper_data
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding

let treeadd = Hb_workloads.Workloads.find "treeadd"
let mst = Hb_workloads.Workloads.find "mst"

let test_decomposition_sums () =
  (* the four Figure-5 segments account exactly for the total overhead *)
  List.iter
    (fun (w : Hb_workloads.Workloads.t) ->
      let baseline = Run.measure ~mode:Codegen.Nochecks w in
      List.iter
        (fun scheme ->
          let hb = Run.measure ~scheme ~mode:Codegen.Hardbound w in
          let d = Run.decompose ~baseline hb in
          let sum =
            d.Run.seg_setbound +. d.Run.seg_meta_uops +. d.Run.seg_meta_stalls
            +. d.Run.seg_pollution
          in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s/%s segments sum to total" w.name
               (Encoding.scheme_name scheme))
            d.Run.total_overhead sum)
        [ Encoding.Extern4; Encoding.Intern11 ])
    [ treeadd; mst ]

let test_cycles_identity () =
  (* cycles = uops + charged stalls, and charged stalls split per class *)
  let r = Run.measure ~scheme:Encoding.Extern4 ~mode:Codegen.Hardbound treeadd in
  Alcotest.(check int) "uops >= instructions" 1
    (if r.Run.uops >= r.Run.instructions then 1 else 0);
  Alcotest.(check int) "cycles = uops + stalls" r.Run.cycles
    (r.Run.uops + r.Run.data_stalls + r.Run.bb_stalls + r.Run.tag_stalls)

let test_uop_identity () =
  let r = Run.measure ~mode:Codegen.Hardbound treeadd in
  Alcotest.(check int) "uops = instrs + metadata uops"
    r.Run.uops
    (r.Run.instructions + r.Run.metadata_uops + r.Run.check_uops)

let test_baseline_is_clean () =
  let r = Run.measure ~mode:Codegen.Nochecks treeadd in
  (* the record holds simulated values only: measuring twice is [=] *)
  Alcotest.(check bool) "record is deterministic" true
    (r = Run.measure ~mode:Codegen.Nochecks treeadd);
  Alcotest.(check int) "no setbounds" 0 r.Run.setbound_instrs;
  Alcotest.(check int) "no metadata uops" 0 r.Run.metadata_uops;
  Alcotest.(check int) "no tag stalls" 0 r.Run.tag_stalls;
  Alcotest.(check int) "no shadow stalls" 0 r.Run.bb_stalls;
  Alcotest.(check int) "no tag pages" 0 r.Run.tag_pages;
  Alcotest.(check int) "no shadow pages" 0 r.Run.shadow_pages

let test_checked_uop_monotone () =
  (* Section 5.4: charging the check uop can only slow things down *)
  let free = Run.measure ~mode:Codegen.Hardbound mst in
  let charged = Run.measure ~checked_deref_uop:true ~mode:Codegen.Hardbound mst in
  Alcotest.(check bool) "charged >= free" true
    (charged.Run.cycles >= free.Run.cycles);
  Alcotest.(check bool) "check uops counted" true
    (charged.Run.check_uops > 0)

let test_intern11_dominates () =
  (* intern-11 compresses a superset of the 4-bit codes: never more
     shadow traffic *)
  List.iter
    (fun (w : Hb_workloads.Workloads.t) ->
      let e4 = Run.measure ~scheme:Encoding.Extern4 ~mode:Codegen.Hardbound w in
      let i11 = Run.measure ~scheme:Encoding.Intern11 ~mode:Codegen.Hardbound w in
      Alcotest.(check bool)
        (w.name ^ ": intern-11 shadow traffic <= extern-4") true
        (i11.Run.ptr_loads_shadow + i11.Run.ptr_stores_shadow
         <= e4.Run.ptr_loads_shadow + e4.Run.ptr_stores_shadow))
    [ treeadd; mst ]

let test_paper_data_complete () =
  List.iter
    (fun table ->
      List.iter
        (fun b ->
          Alcotest.(check bool) ("published value for " ^ b) false
            (Float.is_nan (Paper_data.get table b)))
        Paper_data.benchmarks)
    [ Paper_data.jk_published; Paper_data.ccured_published;
      Paper_data.hardbound_extern4; Paper_data.hardbound_intern4;
      Paper_data.hardbound_intern11; Paper_data.ccured_sim_runtime ]

(* figure printers: run on a mini-suite (no software baselines, for speed)
   and check each benchmark appears with plausible values *)
let test_printers () =
  let mini =
    List.map
      (fun name ->
        let w = Hb_workloads.Workloads.find name in
        let baseline = Run.measure ~mode:Codegen.Nochecks w in
        let hb s = Run.measure ~scheme:s ~mode:Codegen.Hardbound w in
        {
          Suite.name;
          baseline;
          hb_extern4 = hb Encoding.Extern4;
          hb_intern4 = hb Encoding.Intern4;
          hb_intern11 = hb Encoding.Intern11;
          softfat = None;
          objtable = None;
        })
      [ "treeadd"; "mst" ]
  in
  let fig5 = Figures.figure5 mini in
  let fig6 = Figures.figure6 mini in
  let fig7 = Figures.figure7 mini in
  List.iter
    (fun s ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions treeadd" true (contains s "treeadd");
      Alcotest.(check bool) "mentions mst" true (contains s "mst"))
    [ fig5; fig6; fig7 ]

let test_temporal_report () =
  let s = fst (Figures.temporal_report ()) in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "uaf detected" true (contains s "use-after-free");
  Alcotest.(check bool) "clean exit present" true (contains s "exited(0)")

(* ---- performance-trajectory gate --------------------------------------- *)

module Json = Hb_obs.Json

(* One workload under the four tracked configurations. *)
let power_suite =
  lazy
    (let w = Hb_workloads.Workloads.find "power" in
     let hb s = Run.measure ~scheme:s ~mode:Codegen.Hardbound w in
     [
       {
         Suite.name = "power";
         baseline = Run.measure ~mode:Codegen.Nochecks w;
         hb_extern4 = hb Encoding.Extern4;
         hb_intern4 = hb Encoding.Intern4;
         hb_intern11 = hb Encoding.Intern11;
         softfat = None;
         objtable = None;
       };
     ])

(* Add [delta] to [field] of the run with config [config] in a snapshot
   document. *)
let doctor ~config ~field delta (doc : Json.t) =
  let rec go = function
    | Json.Obj kvs
      when List.assoc_opt "config" kvs = Some (Json.String config) ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | Json.Int n when k = field -> (k, Json.Int (n + delta))
             | _ -> (k, v))
           kvs)
    | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, go v)) kvs)
    | Json.List l -> Json.List (List.map go l)
    | j -> j
  in
  go doc

(* The gate is exact: one cycle, one uop or one instruction off the
   committed snapshot is reported, each on its own line. *)
let test_baseline_gate_exact () =
  let suite = Lazy.force power_suite in
  let snap = Suite.snapshot_json suite in
  (match Suite.check_baseline ~baseline:snap suite with
   | Ok () -> ()
   | Error msgs -> Alcotest.fail ("own snapshot: " ^ String.concat "; " msgs));
  let doctored =
    snap
    |> doctor ~config:"baseline" ~field:"cycles" 1
    |> doctor ~config:"hb-extern-4" ~field:"uops" (-1)
    |> doctor ~config:"hb-intern-11" ~field:"instructions" 1
  in
  match Suite.check_baseline ~baseline:doctored suite with
  | Ok () -> Alcotest.fail "a snapshot off by one count passed the gate"
  | Error msgs ->
    Alcotest.(check int) "one message per doctored count" 3 (List.length msgs);
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("reports " ^ needle) true
          (List.exists
             (fun m -> String.length m >= String.length needle
                       && String.sub m 0 (String.length needle) = needle)
             msgs))
      [ "power/baseline: cycles"; "power/hb-extern-4: uops";
        "power/hb-intern-11: instructions" ]

let () =
  let tc name f = Alcotest.test_case name `Slow f in
  Alcotest.run "harness"
    [
      ( "accounting",
        [
          tc "figure-5 segments sum to total" test_decomposition_sums;
          tc "cycle identity" test_cycles_identity;
          tc "uop identity" test_uop_identity;
          tc "baseline is metadata-free" test_baseline_is_clean;
          tc "check-uop ablation monotone" test_checked_uop_monotone;
          tc "intern-11 dominates extern-4" test_intern11_dominates;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "paper data complete" `Quick test_paper_data_complete;
          tc "figure printers" test_printers;
          tc "temporal report" test_temporal_report;
        ] );
      ( "gate",
        [
          tc "exact instruction/uop/cycle gate" test_baseline_gate_exact;
        ] );
    ]
