(* Calling-context profiler tests: the exclusive-sum accounting identity
   (per-context sums reconcile with the global Stats counters under every
   encoding), doctored-sum rejection, byte-determinism of the folded /
   speedscope / heat-map artifacts, depth clamping, snapshot-restore
   interplay with the shadow call stack, hostile frame names, metrics
   gauges, and campaign-observe read-onlyness. *)

module Json = Hb_obs.Json
module Flame = Hb_obs.Flame
module Cost = Hb_obs.Cost
module Metrics = Hb_obs.Metrics
module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Snapshot = Hb_cpu.Snapshot
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Campaign = Hb_fault.Campaign

(* Call-chain-heavy sample: recursion, a helper chain and heap traffic,
   so the shadow stack gets real depth and checks/metadata/stalls all
   land in distinct contexts. *)
let sample =
  {|
struct node { int v; struct node *l; struct node *r; };

struct node *build(int d) {
  struct node *n;
  n = (struct node *)malloc(sizeof(struct node));
  n->v = d;
  if (d <= 0) { n->l = 0; n->r = 0; return n; }
  n->l = build(d - 1);
  n->r = build(d - 1);
  return n;
}

int total(struct node *n) {
  if (n == 0) return 0;
  return n->v + total(n->l) + total(n->r);
}

int main() {
  struct node *t;
  t = build(6);
  print_int(total(t));
  return 0;
}
|}

let encodings =
  [
    ("uncompressed", Encoding.Uncompressed);
    ("extern-4", Encoding.Extern4);
    ("intern-4", Encoding.Intern4);
    ("intern-11", Encoding.Intern11);
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let build ~mode ~scheme () =
  Hardbound.Checker.reset_tally ();
  let image, globals = Hb_runtime.Build.compile ~mode sample in
  let config = Hb_runtime.Build.config_for ~scheme mode in
  Machine.create ~config ~globals image

let run_flame ?max_depth ~mode ~scheme () =
  let m = build ~mode ~scheme () in
  Machine.enable_flame ?max_depth m;
  (match Machine.run m with
   | Machine.Exited 0 -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  m

let flame_of m =
  match Machine.flame m with
  | Some cct -> cct
  | None -> Alcotest.fail "flame not enabled"

(* ---- accounting identity --------------------------------------------- *)

(* Exclusive sums across every context must equal the global counters,
   for the unprotected baseline and every encoding. *)
let test_exclusive_sums_reconcile () =
  let check_one name ~mode ~scheme =
    let m = run_flame ~mode ~scheme () in
    let cct = flame_of m in
    Alcotest.(check bool) (name ^ ": several contexts") true
      (Flame.contexts cct > 3);
    Alcotest.(check bool) (name ^ ": real call depth") true
      (Flame.max_depth_seen cct > 3);
    (match Flame.check cct ~expect:(Stats.fields m.Machine.stats) with
     | Ok () -> ()
     | Error e -> Alcotest.fail (name ^ ": " ^ e));
    match Stats.check_invariants m.Machine.stats with
    | Ok () -> ()
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  check_one "baseline" ~mode:Codegen.Nochecks ~scheme:Encoding.Uncompressed;
  List.iter
    (fun (name, scheme) ->
      check_one ("hardbound/" ^ name) ~mode:Codegen.Hardbound ~scheme)
    encodings

(* Doctored expectations and doctored node counters are both caught. *)
let test_leak_detected () =
  let m = run_flame ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  let cct = flame_of m in
  let doctored =
    List.map
      (fun (k, v) -> if k = "uops" then (k, v + 1) else (k, v))
      (Stats.fields m.Machine.stats)
  in
  (match Flame.check cct ~expect:doctored with
   | Ok () -> Alcotest.fail "doctored expectation passed Flame.check"
   | Error e ->
     Alcotest.(check bool) "error says exclusive-sum leak" true
       (contains e "exclusive-sum leak"));
  (* corrupt a context's accumulator: the identity must break *)
  let c = (Flame.current cct).Flame.cost in
  c.Cost.check_uops <- c.Cost.check_uops + 7;
  match Flame.check cct ~expect:(Stats.fields m.Machine.stats) with
  | Ok () -> Alcotest.fail "doctored context passed Flame.check"
  | Error e ->
    Alcotest.(check bool) "error names the leaking key" true
      (contains e "check_uops")

(* The tree is structurally sound: parents precede children, ids are
   dense, inclusive >= exclusive, root inclusive = total cycles. *)
let test_tree_structure () =
  let m = run_flame ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  let cct = flame_of m in
  let nodes = Flame.nodes cct in
  List.iteri
    (fun i (n : Flame.node) ->
      Alcotest.(check int) "ids are dense, creation order" i n.Flame.id;
      match n.Flame.parent with
      | None -> Alcotest.(check int) "only the root has no parent" 0 n.Flame.id
      | Some p ->
        Alcotest.(check bool) "parents precede children" true
          (p.Flame.id < n.Flame.id);
        Alcotest.(check int) "depth increments" (p.Flame.depth + 1)
          n.Flame.depth)
    nodes;
  let incl = Flame.inclusive cct in
  List.iter
    (fun (n : Flame.node) ->
      Alcotest.(check bool) "inclusive >= exclusive" true
        (incl.(n.Flame.id) >= Flame.exclusive_cycles n))
    nodes;
  Alcotest.(check int) "root inclusive = total cycles"
    (Stats.cycles m.Machine.stats)
    incl.(0)

(* ---- depth clamping ---------------------------------------------------- *)

(* With a tiny cap the recursion truncates, but the identity still
   holds: clamped charges land on the cap context, nothing is lost. *)
let test_truncation_keeps_identity () =
  let m =
    run_flame ~max_depth:2 ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 ()
  in
  let cct = flame_of m in
  Alcotest.(check bool) "pushes were truncated" true
    (Flame.truncations cct > 0);
  Alcotest.(check bool) "depth clamped to the cap" true
    (List.for_all (fun (n : Flame.node) -> n.Flame.depth <= 2)
       (Flame.nodes cct));
  (match Flame.check cct ~expect:(Stats.fields m.Machine.stats) with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* the full-depth run sees the same totals: clamping only coarsens
     attribution, never the sums *)
  let full = run_flame ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  Alcotest.(check (list (pair string int))) "clamped totals = full totals"
    (Flame.totals (flame_of full))
    (Flame.totals cct)

let test_max_depth_validation () =
  List.iter
    (fun bad ->
      match Flame.create ~max_depth:bad ~names:[| "f" |] ~root:"r" () with
      | exception Hb_error.Hb_error (_, msg) ->
        Alcotest.(check bool) "error names the depth cap" true
          (contains msg "max depth")
      | _ -> Alcotest.failf "max_depth %d accepted" bad)
    [ 0; -1 ]

(* ---- off by default / read-only ---------------------------------------- *)

let test_off_by_default_and_read_only () =
  let bare = build ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  (match Machine.run bare with
   | Machine.Exited 0 -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  Alcotest.(check bool) "no flame unless enabled" true
    (Machine.flame bare = None);
  (* enabling the profiler must not perturb a single counter *)
  let profiled = run_flame ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  Alcotest.(check (list (pair string int))) "stats identical with flame on"
    (Stats.fields bare.Machine.stats)
    (Stats.fields profiled.Machine.stats)

(* ---- artifact determinism --------------------------------------------- *)

let test_artifacts_deterministic () =
  let dump scheme =
    let m = run_flame ~mode:Codegen.Hardbound ~scheme () in
    let cct = flame_of m in
    ( Flame.folded cct,
      Json.to_string_pretty (Flame.speedscope ~name:"t" cct),
      Json.to_string_pretty
        (Flame.heatmap_json ~page_size:Hb_mem.Layout.page_size
           (Machine.heat_rows m)) )
  in
  List.iter
    (fun (name, scheme) ->
      let f1, s1, h1 = dump scheme and f2, s2, h2 = dump scheme in
      Alcotest.(check string) (name ^ ": folded byte-identical") f1 f2;
      Alcotest.(check string) (name ^ ": speedscope byte-identical") s1 s2;
      Alcotest.(check string) (name ^ ": heatmap byte-identical") h1 h2;
      (* folded lines: sorted, "stack count" shaped, counts sum to the
         total cycle count *)
      let m = run_flame ~mode:Codegen.Hardbound ~scheme () in
      let lines = Flame.folded_lines (flame_of m) in
      Alcotest.(check bool) (name ^ ": folded sorted") true
        (List.sort compare lines = lines);
      Alcotest.(check int) (name ^ ": folded sums to total cycles")
        (Stats.cycles m.Machine.stats)
        (List.fold_left (fun a (_, c) -> a + c) 0 lines))
    encodings

let test_speedscope_schema () =
  let m = run_flame ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  let cct = flame_of m in
  let doc = Json.of_string (Json.to_string (Flame.speedscope cct)) in
  (match Json.member "$schema" doc with
   | Some (Json.String s) ->
     Alcotest.(check bool) "speedscope schema url" true (contains s "speedscope")
   | _ -> Alcotest.fail "missing $schema");
  let frames =
    match
      Option.bind (Json.member "shared" doc) (Json.member "frames")
      |> Fun.flip Option.bind Json.to_list
    with
    | Some l -> l
    | None -> Alcotest.fail "missing shared.frames"
  in
  Alcotest.(check int) "one frame per context" (Flame.contexts cct)
    (List.length frames)

(* ---- heat map ---------------------------------------------------------- *)

let test_heat_rows () =
  let m = run_flame ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  let rows = Machine.heat_rows m in
  Alcotest.(check bool) "pages were touched" true (rows <> []);
  let regions =
    List.sort_uniq compare (List.map (fun r -> r.Flame.h_region) rows)
  in
  List.iter
    (fun want ->
      Alcotest.(check bool) ("heat map covers " ^ want) true
        (List.mem want regions))
    [ "heap"; "tag" ];
  List.iter
    (fun (r : Flame.heat_row) ->
      Alcotest.(check int) "addr = page * page_size"
        (r.Flame.h_page * Hb_mem.Layout.page_size)
        r.Flame.h_addr;
      Alcotest.(check bool) "touched rows carry traffic" true
        (r.Flame.h_accesses > 0 || r.Flame.h_checks > 0);
      if r.Flame.h_region = "tag" || r.Flame.h_region = "shadow" then
        Alcotest.(check int) "metadata space is never bounds-checked" 0
          r.Flame.h_checks)
    rows;
  let render = Flame.heatmap_render rows in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render shows " ^ needle) true
        (contains render needle))
    [ "heap"; "accesses" ]

(* ---- snapshot interplay ------------------------------------------------ *)

(* Capture mid-call-chain, restore: the shadow stack resets to the root
   (never materialized in the snapshot), and after running to completion
   both the flame identity and the Stats invariants still reconcile —
   restore rewound the global counters to exactly what the tree had
   accumulated. *)
let test_snapshot_restore_reconciles () =
  let m = build ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  Machine.enable_flame m;
  let cct = flame_of m in
  let steps = ref 0 in
  while Flame.depth cct < 3 && !steps < 100_000 do
    Machine.step m;
    incr steps
  done;
  Alcotest.(check bool) "captured mid-call-chain" true (Flame.depth cct >= 3);
  let snap = Snapshot.capture m in
  Snapshot.restore m snap;
  Alcotest.(check int) "restore clears the shadow stack" 0 (Flame.depth cct);
  (match Machine.run m with
   | Machine.Exited 0 -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  (match Flame.check cct ~expect:(Stats.fields m.Machine.stats) with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("post-restore: " ^ e));
  match Stats.check_invariants m.Machine.stats with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("post-restore: " ^ e)

(* ---- hostile frame names ----------------------------------------------- *)

let test_hostile_names () =
  let names = [| "ev\"il\\fn"; "a;b c\nd\te" |] in
  let cct = Flame.create ~names ~root:"ro\"ot;\\" () in
  let charge n =
    let c = (Flame.current cct).Flame.cost in
    c.Cost.uops <- n;
    c.Cost.instrs <- n
  in
  Flame.enter cct 0;
  charge 10;
  Flame.enter cct 1;
  charge 5;
  Flame.leave cct;
  Flame.leave cct;
  (* folded: the separator characters never leak into frame names *)
  List.iter
    (fun (stack, _) ->
      String.split_on_char ';' stack
      |> List.iter (fun frame ->
             Alcotest.(check bool) "no space in folded frame" false
               (String.contains frame ' '));
      Alcotest.(check bool) "no newline in folded stack" false
        (String.contains stack '\n'))
    (Flame.folded_lines cct);
  Alcotest.(check int) "folded frame count survives sanitizing" 3
    (List.fold_left
       (fun acc (stack, _) ->
         max acc (List.length (String.split_on_char ';' stack)))
       0 (Flame.folded_lines cct));
  (* speedscope: hostile names survive a JSON round-trip *)
  let doc = Json.to_string_pretty (Flame.speedscope cct) in
  match Json.of_string doc with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "speedscope did not round-trip"
  | exception Json.Parse_error e ->
    Alcotest.fail ("hostile names broke the JSON: " ^ e)

(* ---- metrics gauges ---------------------------------------------------- *)

let test_gauges () =
  let m = run_flame ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  let text = Metrics.to_prometheus (Machine.metrics m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposes " ^ needle) true (contains text needle))
    [ "hb_flame_contexts"; "hb_flame_max_depth"; "hb_flame_truncations" ]

(* ---- campaign observe -------------------------------------------------- *)

(* The observe hook sees every record with its machine, and the campaign
   report is byte-identical with and without it. *)
let test_campaign_observe_read_only () =
  let maker () =
    let image, globals = Hb_runtime.Build.compile ~mode:Codegen.Hardbound sample in
    let config = Hb_runtime.Build.config_for Codegen.Hardbound in
    fun () ->
      let m = Machine.create ~config ~globals image in
      Machine.enable_flame m;
      m
  in
  let cfg = { Campaign.default with Campaign.label = "flame"; runs = 12; seed = 9 } in
  let plain = Campaign.run ~mk:(maker ()) cfg in
  let seen = ref 0 in
  let folded = ref [] in
  let observe (r : Campaign.record) m =
    incr seen;
    let cct = flame_of m in
    List.iter
      (fun (stack, n) ->
        folded :=
          (Hb_fault.Outcome.name r.Campaign.outcome ^ ";" ^ stack, n)
          :: !folded)
      (Flame.folded_lines cct);
    Flame.reset cct
  in
  let observed = Campaign.run ~observe ~mk:(maker ()) cfg in
  Alcotest.(check int) "observe saw every run" cfg.Campaign.runs !seen;
  Alcotest.(check bool) "per-run trees were non-empty" true (!folded <> []);
  Alcotest.(check string) "report byte-identical with observe"
    (Json.to_string_pretty (Campaign.to_json plain))
    (Json.to_string_pretty (Campaign.to_json observed))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flame"
    [
      ( "identity",
        [
          tc "exclusive sums equal global counters for every encoding"
            test_exclusive_sums_reconcile;
          tc "doctored sums are rejected" test_leak_detected;
          tc "tree structure is sound" test_tree_structure;
        ] );
      ( "clamping",
        [
          tc "truncation keeps the identity" test_truncation_keeps_identity;
          tc "non-positive max_depth is a typed error" test_max_depth_validation;
        ] );
      ( "isolation",
        [ tc "off by default and read-only" test_off_by_default_and_read_only ]
      );
      ( "artifacts",
        [
          tc "folded/speedscope/heatmap byte-deterministic"
            test_artifacts_deterministic;
          tc "speedscope schema round-trips" test_speedscope_schema;
          tc "heat rows resolve regions and residency" test_heat_rows;
        ] );
      ( "snapshot",
        [
          tc "restore clears the stack and the identity survives"
            test_snapshot_restore_reconciles;
        ] );
      ("hostile", [ tc "hostile frame names are sanitized" test_hostile_names ]);
      ("metrics", [ tc "flame gauges exported" test_gauges ]);
      ( "campaign",
        [ tc "observe hook is read-only" test_campaign_observe_read_only ] );
    ]
