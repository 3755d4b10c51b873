(* Per-PC attribution tests: the accounting identities (per-PC and
   per-function sums equal the global Stats counters under every
   encoding), golden determinism of the attribution dump, the debug-map
   line rendering, differential reports summing exactly to the global
   deltas, and the Prometheus exposition format. *)

module Json = Hb_obs.Json
module Attr = Hb_obs.Attr
module Diff = Hb_obs.Diff
module Cost = Hb_obs.Cost
module Flame = Hb_obs.Flame
module Metrics = Hb_obs.Metrics
module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding

(* Small pointer-heavy sample workload: heap allocation, a linked
   traversal and array writes, so checks, metadata traffic and setbounds
   all fire. *)
let sample =
  {|
struct node { int v; struct node *next; };

struct node *push(struct node *head, int v) {
  struct node *n;
  n = (struct node *)malloc(sizeof(struct node));
  n->v = v;
  n->next = head;
  return n;
}

int total(struct node *head) {
  int s;
  s = 0;
  while (head != 0) { s = s + head->v; head = head->next; }
  return s;
}

int main() {
  struct node *head;
  int *a;
  int i;
  head = 0;
  a = (int *)malloc(32 * sizeof(int));
  for (i = 0; i < 32; i++) {
    a[i] = i * 3;
    head = push(head, a[i]);
  }
  print_int(total(head));
  return 0;
}
|}

let run_attr ~mode ~scheme () =
  Hardbound.Checker.reset_tally ();
  let image, globals = Hb_runtime.Build.compile ~mode sample in
  let config = Hb_runtime.Build.config_for ~scheme mode in
  let m = Machine.create ~config ~globals image in
  Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
  (match Machine.run m with
   | Machine.Exited 0 -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  m

let attr_of m =
  match Machine.attr m with
  | Some a -> a
  | None -> Alcotest.fail "attribution not enabled"

let encodings =
  [
    ("uncompressed", Encoding.Uncompressed);
    ("extern-4", Encoding.Extern4);
    ("intern-4", Encoding.Intern4);
    ("intern-11", Encoding.Intern11);
  ]

(* ---- accounting identities ------------------------------------------- *)

(* Per-PC and per-function sums must equal the global counters for every
   encoding (and the unprotected baseline), and the run must still satisfy
   the timing model's own invariants. *)
let test_sums_reconcile () =
  let check_one name ~mode ~scheme =
    let m = run_attr ~mode ~scheme () in
    let expect = Stats.fields m.Machine.stats in
    (match Stats.check_invariants m.Machine.stats with
     | Ok () -> ()
     | Error e -> Alcotest.fail (name ^ ": " ^ e));
    (match Attr.check (attr_of m) ~expect with
     | Ok () -> ()
     | Error e -> Alcotest.fail (name ^ ": " ^ e));
    let per_fn = Cost.sum (List.map snd (Attr.by_function (attr_of m))) in
    match Cost.check ~label:"per-function profile leak" per_fn ~expect with
    | Ok () -> ()
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  check_one "baseline" ~mode:Codegen.Nochecks ~scheme:Encoding.Uncompressed;
  List.iter
    (fun (name, scheme) ->
      check_one ("hardbound/" ^ name) ~mode:Codegen.Hardbound ~scheme)
    encodings

(* A trapping instruction is charged too: after a bounds violation the
   per-PC and per-context sums still equal the global counters. *)
let test_trap_charged () =
  Hardbound.Checker.reset_tally ();
  let mode = Codegen.Hardbound in
  let image, globals =
    Hb_runtime.Build.compile ~mode
      {|
int main() {
  int *p;
  int i;
  p = (int *)malloc(8 * sizeof(int));
  for (i = 0; i <= 8; i++) { p[i] = i; }
  return 0;
}
|}
  in
  let m =
    Machine.create ~config:(Hb_runtime.Build.config_for mode) ~globals image
  in
  Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
  Machine.enable_flame m;
  (match Machine.run m with
   | Machine.Bounds_violation _ -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  let expect = Stats.fields m.Machine.stats in
  List.iter
    (function Ok () -> () | Error e -> Alcotest.fail e)
    [
      Attr.check (attr_of m) ~expect;
      (match Machine.flame m with
       | Some cct -> Flame.check cct ~expect
       | None -> Error "flame not enabled");
    ]

(* ---- golden determinism ---------------------------------------------- *)

let test_dump_deterministic () =
  let dump () =
    let m = run_attr ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
    Json.to_string_pretty
      (Attr.to_json ~meta:[ ("label", Json.String "golden") ] (attr_of m))
  in
  let a = dump () and b = dump () in
  Alcotest.(check string) "identical runs dump byte-identically" a b;
  (* and the dump parses back as a diffable document *)
  let d = Diff.of_json (Json.of_string a) in
  Alcotest.(check string) "label survives" "golden" d.Diff.label;
  Alcotest.(check bool) "has sites" true (d.Diff.sites <> [])

(* ---- artifact pins ----------------------------------------------------- *)

(* MD5 digests of every attribution, profile and flame artifact, and of
   the metrics snapshot [hardbound_run --profile] exports, for a
   HardBound and an unchecked run.  The digests are constants, so a
   change to how the machine charges these costs has to leave every byte
   in place (the determinism tests above only compare two runs of one
   build). *)
let pinned_digests ~mode ~scheme name =
  Hardbound.Checker.reset_tally ();
  let image, globals =
    Hb_runtime.Build.compile ~mode (Hb_workloads.Workloads.find name).source
  in
  let config = Hb_runtime.Build.config_for ~scheme mode in
  let m = Machine.create ~config ~globals image in
  Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
  Machine.enable_flame m;
  (match Machine.run m with
   | Machine.Exited 0 -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  let a = attr_of m in
  let cct =
    match Machine.flame m with
    | Some f -> f
    | None -> Alcotest.fail "flame not enabled"
  in
  let reg = Machine.metrics m in
  Attr.export_profile a reg;
  List.map
    (fun (k, s) -> (k, Digest.to_hex (Digest.string s)))
    [
      ( "attr json",
        Json.to_string_pretty
          (Attr.to_json ~meta:[ ("label", Json.String name) ] a) );
      ("attr table", Attr.to_table ~top:0 a);
      ("profile table", Attr.function_table a);
      ("folded", Flame.folded cct);
      ("speedscope", Json.to_string_pretty (Flame.speedscope ~name cct));
      ("flame report", Flame.report ~top:max_int cct);
      ( "heatmap",
        Json.to_string_pretty
          (Flame.heatmap_json ~page_size:Hb_mem.Layout.page_size
             (Machine.heat_rows m)) );
      ("metrics", Json.to_string (Metrics.snapshot reg));
    ]

let test_pinned_artifacts () =
  let pin label got want =
    List.iter2
      (fun (k, d) (k', d') ->
        Alcotest.(check string) (label ^ " artifact") k' k;
        Alcotest.(check string) (label ^ " " ^ k) d' d)
      got want
  in
  pin "treeadd/hardbound/intern-4"
    (pinned_digests ~mode:Codegen.Hardbound ~scheme:Encoding.Intern4 "treeadd")
    [
      ("attr json", "718774e4d6ef0c8300a44f1320afd89a");
      ("attr table", "f857d345c8859690ba08d87d9f641aef");
      ("profile table", "be0d34e3ee96a40ee76f78bc3ff140f9");
      ("folded", "877bed08e5808ff5af7fe6d4f4694ebc");
      ("speedscope", "1e7cf95a18f6c7a6531653da17814656");
      ("flame report", "acc159063d9dc60ad237264d4735ee69");
      ("heatmap", "f18448b5db7b539ea6fc368346d8b322");
      ("metrics", "1a67fa75be95de47892bd7c92987e0b1");
    ];
  pin "power/nochecks"
    (pinned_digests ~mode:Codegen.Nochecks ~scheme:Encoding.Uncompressed
       "power")
    [
      ("attr json", "f0458516e1012967b91da0ce6c523b1d");
      ("attr table", "bd5a662e60cc57cb24052857d18101dd");
      ("profile table", "ff8df39150f1c86db45da8ddcbded525");
      ("folded", "3088ea7faa47647f07666246a00429fd");
      ("speedscope", "acfe40d449ab89879c4e59f3ce847ba6");
      ("flame report", "ecc54b3eac4a07c8abb7e18b42e25f68");
      ("heatmap", "24d284dd9f3b7ea542a5227378cbc373");
      ("metrics", "494db1761b5e89a51ef72258b11290f5");
    ]

(* ---- debug map / line rendering -------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_line_map () =
  let m = run_attr ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  let a = attr_of m in
  let rows = Attr.rows a in
  let fns = List.map (fun (r : Attr.row) -> r.Attr.fn) rows in
  List.iter
    (fun fn ->
      Alcotest.(check bool) ("attributed rows for " ^ fn) true
        (List.mem fn fns))
    [ "main"; "push"; "total"; "malloc" ];
  (* user code carries positive user-source lines; the runtime prelude
     renders as rt.N *)
  Alcotest.(check bool) "user fn has positive source line" true
    (List.exists
       (fun (r : Attr.row) -> r.Attr.fn = "push" && r.Attr.line > 0)
       rows);
  Alcotest.(check bool) "runtime lines render as rt." true
    (List.exists
       (fun (r : Attr.row) ->
         r.Attr.fn = "malloc" && contains r.Attr.loc "malloc:rt.")
       rows);
  (* user line numbers stay within the user source, i.e. the runtime
     prelude offset was subtracted *)
  let user_lines =
    List.filter_map
      (fun (r : Attr.row) ->
        if r.Attr.fn <> "malloc" && r.Attr.line > 0 then Some r.Attr.line
        else None)
      rows
  in
  let max_line = List.fold_left max 0 user_lines in
  let source_lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 sample
  in
  Alcotest.(check bool)
    (Printf.sprintf "max user line %d <= source lines %d" max_line
       source_lines)
    true
    (max_line <= source_lines);
  (* the table renders locations *)
  let table = Attr.to_table ~top:5 a in
  Alcotest.(check bool) "table shows a location" true (contains table ":")

(* ---- differential report --------------------------------------------- *)

let test_diff_totals () =
  let measure ~mode ~scheme label =
    let m = run_attr ~mode ~scheme () in
    let dump =
      Diff.of_json
        (Attr.to_json ~meta:[ ("label", Json.String label) ] (attr_of m))
    in
    (dump, m.Machine.stats)
  in
  let da, sa =
    measure ~mode:Codegen.Nochecks ~scheme:Encoding.Uncompressed "base"
  in
  let db, sb = measure ~mode:Codegen.Hardbound ~scheme:Encoding.Intern4 "hb" in
  let r = Diff.diff da db in
  Alcotest.(check string) "labels" "base->hb" (r.Diff.a_label ^ "->" ^ r.Diff.b_label);
  let t = r.Diff.total in
  (* the ranked table's total row must equal the global Stats deltas *)
  Alcotest.(check int) "cycle delta" (Stats.cycles sb - Stats.cycles sa)
    t.Diff.d_cycles;
  Alcotest.(check int) "A cycles" (Stats.cycles sa) t.Diff.a_cycles;
  Alcotest.(check int) "B cycles" (Stats.cycles sb) t.Diff.b_cycles;
  Alcotest.(check int) "instruction delta"
    (sb.Stats.instructions - sa.Stats.instructions)
    t.Diff.d_instrs;
  Alcotest.(check int) "uop delta" (sb.Stats.uops - sa.Stats.uops) t.Diff.d_uops;
  Alcotest.(check int) "metadata-uop delta"
    (sb.Stats.metadata_uops - sa.Stats.metadata_uops)
    t.Diff.d_meta;
  Alcotest.(check int) "setbound delta"
    (sb.Stats.setbound_instrs - sa.Stats.setbound_instrs)
    t.Diff.d_setbounds;
  Alcotest.(check int) "data-stall delta"
    (sb.Stats.charged_data_stalls - sa.Stats.charged_data_stalls)
    t.Diff.d_data;
  Alcotest.(check int) "tag-stall delta"
    (sb.Stats.charged_tag_stalls - sa.Stats.charged_tag_stalls)
    t.Diff.d_tag;
  Alcotest.(check int) "bb-stall delta"
    (sb.Stats.charged_bb_stalls - sa.Stats.charged_bb_stalls)
    t.Diff.d_bb;
  (* per-row deltas sum to the total row *)
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 r.Diff.deltas in
  Alcotest.(check int) "rows sum to total (cycles)" t.Diff.d_cycles
    (sum (fun d -> d.Diff.d_cycles));
  Alcotest.(check int) "rows sum to total (meta)" t.Diff.d_meta
    (sum (fun d -> d.Diff.d_meta));
  (* HardBound must actually cost something here, and the table says so *)
  Alcotest.(check bool) "overhead is positive" true (t.Diff.d_cycles > 0);
  let table = Diff.to_table ~top:5 r in
  Alcotest.(check bool) "table names the decomposition" true
    (contains table "Figure-5 decomposition");
  (* a dump diffed against itself is all zeros *)
  let self = Diff.diff da da in
  Alcotest.(check int) "self-diff is zero" 0 self.Diff.total.Diff.d_cycles

let test_diff_rejects_garbage () =
  List.iter
    (fun doc ->
      match Diff.of_json (Json.of_string doc) with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted non-dump: " ^ doc))
    [ "{}"; "{\"sites\": 3}"; "{\"sites\": [{\"fn\": \"f\"}]}" ]

(* ---- Prometheus exposition ------------------------------------------- *)

let test_prometheus_format () =
  let exposition m =
    let reg = Machine.metrics m in
    Attr.export_profile (attr_of m) reg;
    Metrics.to_prometheus reg
  in
  let m = run_attr ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  let text = exposition m in
  Alcotest.(check bool) "starts with a TYPE line" true
    (String.length text > 7 && String.sub text 0 7 = "# TYPE ");
  Alcotest.(check bool) "ends with EOF marker" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  Alcotest.(check bool) "cpu cycles exposed, name sanitized" true
    (contains text "cpu_cycles ");
  Alcotest.(check bool) "labelled cache series exposed" true
    (contains text "cache_misses{cache=\"L1D\"}");
  Alcotest.(check bool) "no raw dots in metric names" false
    (contains text "cpu.cycles");
  (* determinism: a second identical run exposes byte-identical text *)
  let m2 = run_attr ~mode:Codegen.Hardbound ~scheme:Encoding.Extern4 () in
  Alcotest.(check string) "deterministic exposition" text (exposition m2)

let test_prometheus_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~labels:[ ("op", "x") ] "lat.ency" in
  List.iter (Metrics.observe h) [ 0; 1; 3; 3; 100 ];
  let text = Metrics.to_prometheus reg in
  Alcotest.(check bool) "histogram TYPE" true
    (contains text "# TYPE lat_ency histogram");
  (* buckets are cumulative: 2 at le=1 (v<=1 lands in buckets 0/1), then
     the two 3s, then the 100, and +Inf equals the count *)
  Alcotest.(check bool) "le=4 bucket cumulative" true
    (contains text "lat_ency_bucket{op=\"x\",le=\"4\"} 4");
  Alcotest.(check bool) "+Inf bucket = count" true
    (contains text "lat_ency_bucket{op=\"x\",le=\"+Inf\"} 5");
  Alcotest.(check bool) "sum series" true (contains text "lat_ency_sum{op=\"x\"} 107");
  Alcotest.(check bool) "count series" true
    (contains text "lat_ency_count{op=\"x\"} 5")

(* ---- off by default --------------------------------------------------- *)

let test_attr_off_by_default () =
  Hardbound.Checker.reset_tally ();
  let mode = Codegen.Hardbound in
  let image, globals = Hb_runtime.Build.compile ~mode sample in
  let m = Machine.create ~config:(Hb_runtime.Build.config_for mode) ~globals image in
  (match Machine.run m with
   | Machine.Exited 0 -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  Alcotest.(check bool) "no attribution unless enabled" true
    (Machine.attr m = None)

(* ---- CLI row-count validation ----------------------------------------- *)

(* Both CLIs route --attr-top through this one validator: positive counts
   pass through, junk and non-positive counts are typed errors carrying a
   usage hint. *)
let test_parse_top () =
  Alcotest.(check int) "plain" 20 (Attr.parse_top "20");
  Alcotest.(check int) "whitespace tolerated" 7 (Attr.parse_top " 7 ");
  List.iter
    (fun bad ->
      match Attr.parse_top bad with
      | n -> Alcotest.failf "%S accepted as %d" bad n
      | exception Hb_error.Hb_error ((ctx : Hb_error.context), msg) ->
        Alcotest.(check string) "typed to the attr component" "attr"
          ctx.Hb_error.component;
        Alcotest.(check bool) "message names the flag" true
          (contains msg "--attr-top");
        Alcotest.(check bool) "message carries a usage hint" true
          (contains msg "positive row count"))
    [ "0"; "-3"; "xyz"; ""; "1.5" ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "attr"
    [
      ( "identities",
        [
          tc "per-PC and per-function sums equal Stats for every encoding"
            test_sums_reconcile;
          tc "a trapping instruction is charged" test_trap_charged;
        ] );
      ( "golden",
        [
          tc "attribution dump is byte-deterministic" test_dump_deterministic;
          tc "artifacts match their recorded digests" test_pinned_artifacts;
        ] );
      ( "lines",
        [ tc "debug map names functions and user lines" test_line_map ] );
      ( "diff",
        [
          tc "report totals equal global Stats deltas" test_diff_totals;
          tc "rejects documents that are not dumps" test_diff_rejects_garbage;
        ] );
      ( "prometheus",
        [
          tc "exposition format and determinism" test_prometheus_format;
          tc "cumulative histogram buckets" test_prometheus_histogram;
        ] );
      ( "defaults", [ tc "attribution off by default" test_attr_off_by_default ] );
      ( "validation",
        [ tc "--attr-top rejects junk and non-positive counts" test_parse_top ]
      );
    ]
