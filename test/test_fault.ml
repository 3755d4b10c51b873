(* Fault-injection subsystem tests: the seeded PRNG, machine snapshots,
   the watchdog, the injector, and full campaign determinism. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Snapshot = Hb_cpu.Snapshot
module Json = Hb_obs.Json
module Trace = Hb_obs.Trace
module Prng = Hb_fault.Prng
module Injector = Hb_fault.Injector
module Watchdog = Hb_fault.Watchdog
module Outcome = Hb_fault.Outcome
module Campaign = Hb_fault.Campaign

(* A workload small enough for sub-second campaigns yet doing real
   pointer work: builds a linked list on the heap, sums it, prints. *)
let little_src =
  {|
int main() {
  int *cells[40];
  int i;
  int sum;
  for (i = 0; i < 40; i++) {
    cells[i] = (int*)malloc(8);
    cells[i][0] = i * 3;
    cells[i][1] = i;
  }
  sum = 0;
  for (i = 0; i < 40; i++) {
    sum = sum + cells[i][0];
  }
  print_int(sum);
  return 0;
}
|}

let maker ?max_instrs () =
  let image, globals = Build.compile ~mode:Codegen.Hardbound little_src in
  let config = Build.config_for ?max_instrs Codegen.Hardbound in
  fun () -> Machine.create ~config ~globals image

(* ---- PRNG -------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Prng.next a) (Prng.next b)
  done;
  let c = Prng.create ~seed:43 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.next a <> Prng.next c then distinct := true
  done;
  Alcotest.(check bool) "different seed diverges" true !distinct

let test_prng_ranges () =
  let r = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let n = Prng.below r 17 in
    if n < 0 || n >= 17 then Alcotest.failf "below out of range: %d" n;
    let f = Prng.float r in
    if not (f >= 0. && f < 1.) then Alcotest.failf "float out of range: %g" f
  done;
  Alcotest.check_raises "below 0 rejected"
    (Invalid_argument "Prng.below: bound must be positive") (fun () ->
      ignore (Prng.below r 0))

(* ---- snapshot ---------------------------------------------------------- *)

(* snapshot m; step; restore; step must replay identically *)
let test_snapshot_roundtrip () =
  let mk = maker () in
  let m = mk () in
  for _ = 1 to 500 do
    Machine.step m
  done;
  let snap = Snapshot.capture m in
  let digests_of m =
    List.init 200 (fun _ ->
        Machine.step m;
        Snapshot.digest m)
  in
  let first = digests_of m in
  Snapshot.restore m snap;
  Alcotest.(check bool) "restore returns to captured state" true
    (Snapshot.equal snap (Snapshot.capture m));
  let second = digests_of m in
  Alcotest.(check bool) "replay after restore is identical" true
    (first = second);
  (* a fresh machine fast-forwarded by restore also replays identically *)
  let m2 = mk () in
  Snapshot.restore m2 snap;
  let third = digests_of m2 in
  Alcotest.(check bool) "replay on a fresh machine is identical" true
    (first = third)

let test_snapshot_diff () =
  let m = maker () () in
  for _ = 1 to 100 do
    Machine.step m
  done;
  let a = Snapshot.capture m in
  m.Machine.regs.(5) <- m.Machine.regs.(5) lxor 1;
  let b = Snapshot.capture m in
  Alcotest.(check bool) "corruption breaks equality" false (Snapshot.equal a b);
  Alcotest.(check bool) "diff names the register" true
    (List.exists
       (fun line ->
         (* reg 5 value line *)
         String.length line >= 5 && String.sub line 0 5 = "reg 5")
       (Snapshot.diff a b))

(* ---- watchdog & fuel --------------------------------------------------- *)

let spin_forever_src = {|
int main() {
  int x;
  x = 1;
  while (x) { x = 2; }
  return 0;
}
|}

let test_watchdog_hang () =
  let image, globals = Build.compile ~mode:Codegen.Hardbound spin_forever_src in
  let config = Build.config_for Codegen.Hardbound in
  let m = Machine.create ~config ~globals image in
  match Watchdog.run ~limit:10_000 m with
  | Watchdog.Hang { instrs } ->
    Alcotest.(check int) "watchdog fires exactly at its budget" 10_000 instrs
  | Watchdog.Completed st ->
    Alcotest.failf "expected a hang, got %s" (Machine.status_name st)

let test_watchdog_completion_matches_run () =
  let mk = maker () in
  let m1 = mk () and m2 = mk () in
  let st1 = Machine.run m1 in
  (match Watchdog.run ~limit:max_int m2 with
  | Watchdog.Completed st2 ->
    Alcotest.(check string) "watchdogged run agrees with Machine.run"
      (Machine.status_name st1) (Machine.status_name st2)
  | Watchdog.Hang _ -> Alcotest.fail "unexpected hang");
  Alcotest.(check string) "same output" (Machine.output m1)
    (Machine.output m2)

let test_out_of_fuel () =
  let m = maker ~max_instrs:100 () () in
  match Machine.run m with
  | Machine.Out_of_fuel ->
    Alcotest.(check int) "stopped at the fuel limit" 100
      m.Machine.stats.Stats.instructions
  | st -> Alcotest.failf "expected out-of-fuel, got %s" (Machine.status_name st)

(* ---- injector ---------------------------------------------------------- *)

let test_injector_sites () =
  let mk = maker () in
  List.iter
    (fun site ->
      let m = mk () in
      Machine.attach_tracer m (Trace.create ~capacity:8 ());
      for _ = 1 to 2_000 do
        Machine.step m
      done;
      let rng = Prng.create ~seed:11 in
      let i = Injector.inject rng m site in
      Alcotest.(check bool)
        (Injector.site_name site ^ " flips state")
        true
        (i.Injector.before <> i.Injector.after);
      (* exactly one bit flipped *)
      Alcotest.(check int)
        (Injector.site_name site ^ " flips one bit")
        (i.Injector.before lxor i.Injector.after)
        (1 lsl (i.Injector.bit mod 32));
      let tracer = Option.get m.Machine.tracer in
      let seen =
        List.exists
          (fun (e : Trace.event) ->
            match e.Trace.kind with
            | Trace.Fault_injected { site = s; _ } ->
              s = Injector.site_name site
            | _ -> false)
          (Trace.recent tracer)
      in
      Alcotest.(check bool)
        (Injector.site_name site ^ " emits a trace event")
        true seen)
    Injector.all_sites

(* The target scans peek: they run inside [Physmem.fold_pages], which
   forbids creating pages, and must not inflate the Figure-6 tag-page
   count — on a Nochecks machine there is no tag page at all. *)
let test_scan_creates_no_tag_pages () =
  List.iter
    (fun mode ->
      let image, globals = Build.compile ~mode little_src in
      let m = Machine.create ~config:(Build.config_for mode) ~globals image in
      for _ = 1 to 5_000 do
        Machine.step m
      done;
      let mem = m.Machine.mem in
      let tag_pages () =
        Hb_mem.Physmem.pages_touched_in mem Hb_mem.Layout.Tag_space
      in
      let before = tag_pages () in
      let pages = Hb_mem.Physmem.pages_touched mem in
      let tagged = Injector.tagged_data_words m in
      let backed = Injector.shadow_backed_words m in
      let name = Codegen.mode_name mode in
      Alcotest.(check int) (name ^ ": tag pages unchanged") before
        (tag_pages ());
      Alcotest.(check int) (name ^ ": no page created") pages
        (Hb_mem.Physmem.pages_touched mem);
      (* every word the peeked scan reports is tagged *)
      Array.iter
        (fun addr ->
          Alcotest.(check bool) (name ^ ": tagged word") true
            (Machine.read_tag m addr <> 0))
        tagged;
      Alcotest.(check bool) (name ^ ": backed words are tagged") true
        (Array.for_all (fun a -> Array.mem a tagged) backed);
      match mode with
      | Codegen.Nochecks ->
        Alcotest.(check int) "nochecks: no tag page" 0 before;
        Alcotest.(check int) "nochecks: nothing tagged" 0 (Array.length tagged)
      | _ ->
        Alcotest.(check bool) "hardbound: pointers in memory" true
          (Array.length tagged > 0))
    [ Codegen.Nochecks; Codegen.Hardbound ]

let test_spec_parsing () =
  (match Injector.parse_spec "mem,tag:0.5:9" with
  | Ok s ->
    Alcotest.(check int) "two sites" 2 (List.length s.Injector.sites);
    Alcotest.(check (float 0.)) "rate" 0.5 s.Injector.rate;
    Alcotest.(check int) "seed" 9 s.Injector.seed
  | Error e -> Alcotest.fail e);
  (match Injector.parse_spec "all:0:3" with
  | Ok s ->
    Alcotest.(check int) "all sites" 5 (List.length s.Injector.sites)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Injector.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "bogus:0:1"; "mem:2.0:1"; "mem:0:x"; "mem"; ":0:1" ]

(* ---- campaign ---------------------------------------------------------- *)

let campaign_cfg =
  { Campaign.default with Campaign.label = "little"; runs = 40; seed = 5 }

let test_campaign_deterministic () =
  let mk = maker () in
  let r1 = Campaign.run ~mk campaign_cfg in
  let r2 = Campaign.run ~mk campaign_cfg in
  Alcotest.(check string) "same seed, byte-identical JSON"
    (Json.to_string_pretty (Campaign.to_json r1))
    (Json.to_string_pretty (Campaign.to_json r2));
  let r3 =
    Campaign.run ~mk { campaign_cfg with Campaign.seed = 6 }
  in
  Alcotest.(check bool) "different seed, different plan" false
    (Json.to_string (Campaign.to_json r1) = Json.to_string (Campaign.to_json r3))

let test_campaign_partition () =
  let mk = maker () in
  let r = Campaign.run ~mk campaign_cfg in
  (* every run lands in exactly one taxonomy bucket *)
  Alcotest.(check int) "one record per run" campaign_cfg.Campaign.runs
    (List.length r.Campaign.records);
  let total =
    List.fold_left
      (fun acc o -> acc + Campaign.count r None o)
      0 Outcome.all
  in
  Alcotest.(check int) "outcome counts partition the runs"
    campaign_cfg.Campaign.runs total;
  (* the JSON report bins every injection into its timeline window *)
  (match Campaign.to_json r with
   | Json.Obj kvs ->
     (match List.assoc "runs" kvs with
      | Json.List recs ->
        List.iter
          (fun rec_json ->
            match rec_json with
            | Json.Obj fields ->
              (match
                 (List.assoc "at" fields, List.assoc "window" fields)
               with
               | Json.Int at, Json.Int w ->
                 Alcotest.(check int) "window = at / window_interval"
                   (at / campaign_cfg.Campaign.window_interval)
                   w
               | _ -> Alcotest.fail "at/window are not ints")
            | _ -> Alcotest.fail "run record is not an object")
          recs
      | _ -> Alcotest.fail "runs is not a list")
   | _ -> Alcotest.fail "campaign JSON is not an object");
  List.iter
    (fun (rec_ : Campaign.record) ->
      (match rec_.Campaign.outcome with
      | Outcome.Detected ->
        if rec_.Campaign.latency = None then
          Alcotest.fail "detected run must report a latency"
      | _ ->
        if rec_.Campaign.latency <> None then
          Alcotest.fail "only detected runs report a latency");
      if
        rec_.Campaign.at_instr < 1
        || rec_.Campaign.at_instr >= r.Campaign.golden_instrs
      then Alcotest.fail "injection point outside the golden run")
    r.Campaign.records

let test_campaign_detects_bounds_faults () =
  (* with enough bounds-metadata corruptions, some must trap *)
  let mk = maker () in
  let cfg =
    { campaign_cfg with
      Campaign.runs = 60;
      sites = [ Injector.Shadow_entry; Injector.Reg_bounds ] }
  in
  let r = Campaign.run ~mk cfg in
  Alcotest.(check bool) "bounds-metadata faults are detected" true
    (Campaign.count r None Outcome.Detected > 0)

let test_campaign_slow_path_matches_fast () =
  (* temporal mode disables snapshot fast-forward; the classification must
     still be a partition and the report deterministic *)
  let image, globals = Build.compile ~mode:Codegen.Hardbound little_src in
  let config = Build.config_for ~temporal:true Codegen.Hardbound in
  let mk () = Machine.create ~config ~globals image in
  let cfg = { campaign_cfg with Campaign.runs = 10 } in
  let r1 = Campaign.run ~mk cfg in
  let r2 = Campaign.run ~mk cfg in
  Alcotest.(check string) "temporal campaign is deterministic too"
    (Json.to_string_pretty (Campaign.to_json r1))
    (Json.to_string_pretty (Campaign.to_json r2))

let test_stochastic_rate_zero_is_masked () =
  let mk = maker () in
  let spec = { Injector.sites = Injector.all_sites; rate = 0.; seed = 3 } in
  let s = Campaign.stochastic_run ~mk spec in
  Alcotest.(check int) "no injections at rate 0" 0
    (List.length s.Campaign.injections);
  Alcotest.(check string) "uninjected run is masked" "masked"
    (Outcome.name s.Campaign.s_outcome)

(* An out-of-range config is a typed error before any run, so serial CLI
   campaigns, shards and daemon jobs share one rule. *)
let test_config_validation () =
  let mk = maker () in
  let ok = { campaign_cfg with Campaign.runs = 2 } in
  List.iter
    (fun (what, cfg) ->
      match Campaign.run ~mk cfg with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Hb_error.Hb_error _ -> ())
    [
      ("runs 0", { ok with Campaign.runs = 0 });
      ("no sites", { ok with Campaign.sites = [] });
      ("window 0", { ok with Campaign.window_interval = 0 });
      ("checkpoints -1", { ok with Campaign.checkpoints = -1 });
      ("budget -1", { ok with Campaign.violation_budget = -1 });
    ]

(* The campaign report for power (every injection site, seed 7) under
   each encoding, pinned as one MD5 each: an injected run's outcome,
   latency and divergence point depend on every simulated byte, so a
   codec or interpreter slip shows here.  Recorded before the
   interpreter was pre-decoded. *)
let test_campaign_report_pin () =
  let image, globals =
    Build.compile ~mode:Codegen.Hardbound
      (Hb_workloads.Workloads.find "power").Hb_workloads.Workloads.source
  in
  let cfg =
    { Campaign.default with
      Campaign.label = "power"; runs = 10; seed = 7;
      sites = Injector.all_sites }
  in
  let digest scheme =
    let config = Build.config_for ~scheme Codegen.Hardbound in
    let mk () = Machine.create ~config ~globals image in
    let report = Json.to_string_pretty (Campaign.to_json (Campaign.run ~mk cfg)) in
    (Hardbound.Encoding.scheme_name scheme, Digest.to_hex (Digest.string report))
  in
  Alcotest.(check (list (pair string string)))
    "report digest per encoding"
    [
      ("uncompressed", "38f6f736c36d85af40b5a19f3eff2537");
      ("extern-4", "3164c3850429ba149de2f3e08bc2a8e0");
      ("intern-4", "901b47b307ace08c1adadbf5336b2e41");
      ("intern-11", "9b1776ea71f8bc8824d6375c9148df9a");
    ]
    (List.map digest Hardbound.Encoding.all_schemes)

(* CI's smoke campaign, [hardbound_run --workload power --inject all:0:7
   --campaign 50], on the configuration the CLI builds for it: HardBound
   mode, extern-4, the default fuel and checkpoints, the abort policy
   and the policy's default violation budget.  CI also runs the CLI
   twice and [cmp]s the reports. *)
let test_campaign_cli_smoke () =
  let image, globals =
    Build.compile ~mode:Codegen.Hardbound
      (Hb_workloads.Workloads.find "power").Hb_workloads.Workloads.source
  in
  let config =
    Build.config_for ~scheme:Hardbound.Encoding.Extern4 ~temporal:false
      ~max_instrs:Build.default_fuel Codegen.Hardbound
  in
  let spec = Injector.spec_of_string "all:0:7" in
  let cfg =
    { Campaign.default with
      Campaign.label = "power";
      runs = 50;
      seed = spec.Injector.seed;
      sites = spec.Injector.sites;
      policy = Hb_recover.Policy.Abort;
      violation_budget = Hb_recover.Policy.default.Hb_recover.Policy.violation_budget }
  in
  let mk () = Machine.create ~config ~globals image in
  let r = Campaign.run ~mk cfg in
  Alcotest.(check int) "run records" 50 (List.length r.Campaign.records);
  (* every run lands in exactly one taxonomy bucket *)
  Alcotest.(check int) "buckets sum to the runs" 50
    (List.fold_left (fun n o -> n + Campaign.count r None o) 0 Outcome.all);
  (* pinned for workload=power, sites=all, seed=7, 50 runs: re-pin
     deliberately if the injector or planner changes *)
  Alcotest.(check int) "detected" 5 (Campaign.count r None Outcome.Detected)

let () =
  Alcotest.run "fault"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "diff" `Quick test_snapshot_diff;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "hang" `Quick test_watchdog_hang;
          Alcotest.test_case "completion" `Quick
            test_watchdog_completion_matches_run;
          Alcotest.test_case "out-of-fuel" `Quick test_out_of_fuel;
        ] );
      ( "injector",
        [
          Alcotest.test_case "sites" `Quick test_injector_sites;
          Alcotest.test_case "spec" `Quick test_spec_parsing;
          Alcotest.test_case "target scan creates no tag pages" `Quick
            test_scan_creates_no_tag_pages;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "partition" `Quick test_campaign_partition;
          Alcotest.test_case "detects-bounds-faults" `Quick
            test_campaign_detects_bounds_faults;
          Alcotest.test_case "temporal-slow-path" `Quick
            test_campaign_slow_path_matches_fast;
          Alcotest.test_case "stochastic-rate-zero" `Quick
            test_stochastic_rate_zero_is_masked;
          Alcotest.test_case "power report pin, every encoding" `Quick
            test_campaign_report_pin;
          Alcotest.test_case "config validation" `Quick
            test_config_validation;
          Alcotest.test_case "CLI smoke campaign: 50 runs, 5 detected" `Quick
            test_campaign_cli_smoke;
        ] );
    ]
