(* Observability tests: the JSON printer/parser round-trip, ring-buffer
   wraparound, sink file formats parsed back, metrics-snapshot
   determinism, and a golden check that the per-function profile names
   the program's real functions. *)

module Json = Hb_obs.Json
module Metrics = Hb_obs.Metrics
module Trace = Hb_obs.Trace
module Attr = Hb_obs.Attr
module Cost = Hb_obs.Cost
module Machine = Hb_cpu.Machine
module Codegen = Hb_minic.Codegen

(* ---- Json ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("string", Json.String "esc \" \\ \n \t \x01 end");
        ("list", Json.List [ Json.Int 1; Json.String "two"; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.List []) ]);
      ]
  in
  let compact = Json.to_string doc in
  Alcotest.(check bool)
    "compact form has no raw newline" false
    (String.contains compact '\n');
  Alcotest.(check bool) "compact round-trips" true
    (Json.of_string compact = doc);
  Alcotest.(check bool) "pretty round-trips" true
    (Json.of_string (Json.to_string_pretty doc) = doc);
  (match Json.member "int" doc with
   | Some j -> Alcotest.(check (option int)) "member/to_int" (Some (-42)) (Json.to_int j)
   | None -> Alcotest.fail "member lookup failed");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail ("parser accepted: " ^ bad))
    [ "{"; "[1,]"; "tru"; "\"open"; "1 2"; "{\"a\":}" ]

(* ---- Trace ring buffer ----------------------------------------------- *)

let ev i = Trace.Setbound { base = i; bound = i + 4; unsafe = false }

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit tr ~cycle:i ~pc:i ~fn:"f" (ev i)
  done;
  Alcotest.(check int) "all emissions counted" 10 (Trace.emitted tr);
  let window = Trace.recent tr in
  Alcotest.(check int) "window clipped to capacity" 4 (List.length window);
  Alcotest.(check (list int))
    "window is the newest events, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Trace.event) -> e.Trace.cycle) window);
  Alcotest.(check (list int))
    "sequence numbers are global" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Trace.event) -> e.Trace.seq) window);
  (* a partially-filled ring returns only what was emitted *)
  let tr2 = Trace.create ~capacity:8 () in
  Trace.emit tr2 ~cycle:1 ~pc:0 ~fn:"g" (ev 1);
  Alcotest.(check int) "partial window" 1 (List.length (Trace.recent tr2))

let test_sink_sees_every_event () =
  let seen = ref [] in
  let tr = Trace.create ~sink:(fun e -> seen := e :: !seen) ~capacity:2 () in
  for i = 0 to 5 do
    Trace.emit tr ~cycle:i ~pc:i ~fn:"f" (ev i)
  done;
  Alcotest.(check int) "sink not limited by capacity" 6 (List.length !seen)

(* ---- File sinks parse back ------------------------------------------- *)

let with_sink fmt k =
  let path = Filename.temp_file "hb_obs_test" ".json" in
  let sink = Trace.file_sink fmt path in
  for i = 0 to 9 do
    sink.Trace.write
      { Trace.seq = i; cycle = 2 * i; pc = i; fn = "fn" ^ string_of_int i;
        kind =
          (if i mod 2 = 0 then ev i
           else
             Trace.Cache_miss
               { cls = "data"; level = "L1D"; addr = i; penalty = 12 });
      }
  done;
  sink.Trace.close ();
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  k contents

let test_jsonl_sink_wellformed () =
  with_sink Trace.Jsonl (fun contents ->
      let lines =
        String.split_on_char '\n' contents
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per event" 10 (List.length lines);
      List.iteri
        (fun i line ->
          let j = Json.of_string line in
          Alcotest.(check (option int))
            (Printf.sprintf "line %d seq" i)
            (Some i)
            (Option.bind (Json.member "seq" j) Json.to_int))
        lines)

let test_chrome_sink_wellformed () =
  with_sink Trace.Chrome (fun contents ->
      match Json.to_list (Json.of_string contents) with
      | None -> Alcotest.fail "chrome trace is not a JSON array"
      | Some events ->
        Alcotest.(check int) "one record per event" 10 (List.length events);
        List.iter
          (fun e ->
            Alcotest.(check bool) "record has ph" true
              (Json.member "ph" e <> None);
            Alcotest.(check bool) "record has ts" true
              (Json.member "ts" e <> None))
          events)

(* ---- Metrics determinism --------------------------------------------- *)

let buggy = {|
int sum(int *a, int n) {
  int s;
  int i;
  s = 0;
  for (i = 0; i <= n; i++) { s = s + a[i]; }
  return s;
}

int main() {
  int *a;
  int i;
  a = (int*)malloc(10 * sizeof(int));
  for (i = 0; i < 10; i++) { a[i] = i; }
  print_int(sum(a, 9));
  return 0;
}
|}

let run_workload ?(profile = false) () =
  Hardbound.Checker.reset_tally ();
  let mode = Codegen.Hardbound in
  let image, globals = Hb_runtime.Build.compile ~mode buggy in
  let config = Hb_runtime.Build.config_for mode in
  let m = Machine.create ~config ~globals image in
  if profile then
    Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
  (match Machine.run m with
   | Machine.Exited 0 -> ()
   | st -> Alcotest.fail (Machine.status_name st));
  m

let test_metrics_deterministic () =
  let snap () =
    Json.to_string (Metrics.snapshot (Machine.metrics (run_workload ())))
  in
  let a = snap () and b = snap () in
  Alcotest.(check string) "identical runs snapshot identically" a b;
  (* and the snapshot itself is valid JSON with both sections *)
  let j = Json.of_string a in
  Alcotest.(check bool) "has counters" true (Json.member "counters" j <> None);
  Alcotest.(check bool) "has histograms" true
    (Json.member "histograms" j <> None)

let test_metrics_labels () =
  let reg = Metrics.create () in
  Metrics.set_counter reg ~labels:[ ("cache", "l1d") ] "cache.misses" 3;
  Metrics.set_counter reg ~labels:[ ("cache", "l2") ] "cache.misses" 5;
  let c = Metrics.counter reg ~labels:[ ("cache", "l1d") ] "cache.misses" in
  Metrics.inc ~by:2 c;
  match Json.member "counters" (Metrics.snapshot reg) with
  | Some (Json.List rows) ->
    let value_of lbl =
      List.find_map
        (fun r ->
          match (Json.member "labels" r, Json.member "value" r) with
          | Some (Json.Obj [ ("cache", Json.String l) ]), Some (Json.Int v)
            when l = lbl ->
            Some v
          | _ -> None)
        rows
    in
    Alcotest.(check (option int)) "same series found and bumped" (Some 5)
      (value_of "l1d");
    Alcotest.(check (option int)) "distinct series kept apart" (Some 5)
      (value_of "l2")
  | _ -> Alcotest.fail "counters section missing"

(* ---- OpenMetrics exposition: hostile labels, framing ------------------ *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_prometheus_escaping () =
  let reg = Metrics.create () in
  (* hostile label values: every character class the exposition format
     must escape (backslash, double quote, literal newline) *)
  Metrics.set_counter reg
    ~labels:[ ("path", "C:\\tmp\\\"weird\"\nfile") ]
    "io.reads" 7;
  Metrics.set_counter reg ~labels:[ ("plain", "ok") ] "io.reads" 1;
  let text = Metrics.to_prometheus reg in
  Alcotest.(check bool) "backslash doubled" true
    (contains_sub text "C:\\\\tmp\\\\");
  Alcotest.(check bool) "quotes escaped" true
    (contains_sub text "\\\"weird\\\"");
  Alcotest.(check bool) "newline escaped" true (contains_sub text "\\n");
  (* the raw newline must NOT survive inside a label value: every line
     of the exposition is either a comment, blank, or name{...} value *)
  List.iter
    (fun line ->
      if String.length line > 0 then
        Alcotest.(check bool)
          ("well-formed line: " ^ line)
          true
          (line.[0] = '#'
          || contains_sub line " "))
    (String.split_on_char '\n' text);
  (* exactly one EOF marker, at the very end *)
  let eof = "# EOF\n" in
  let n = String.length text and ne = String.length eof in
  Alcotest.(check bool) "ends with # EOF" true
    (n >= ne && String.sub text (n - ne) ne = eof);
  Alcotest.(check bool) "single EOF marker" true
    (not (contains_sub (String.sub text 0 (n - ne)) "# EOF"))

(* Golden exposition of a sparse-bucket histogram: cumulative [le]
   series over only the populated power-of-two buckets, the [+Inf]
   closer, [_sum]/[_count]/[_min]/[_max], hostile label values escaped —
   pinned byte-for-byte so the format cannot drift silently. *)
let test_histogram_golden_exposition () =
  let reg = Metrics.create () in
  let h =
    Metrics.histogram reg ~labels:[ ("op", "a\"b\\c\nd") ] "span.wall_ns"
  in
  List.iter (Metrics.observe h) [ 3; 700; 700; 5_000_000 ];
  let lbl = {|{op="a\"b\\c\nd"|} in
  let golden =
    String.concat "\n"
      [
        "# TYPE span_wall_ns histogram";
        Printf.sprintf {|span_wall_ns_bucket%s,le="4"} 1|} lbl;
        Printf.sprintf {|span_wall_ns_bucket%s,le="1024"} 3|} lbl;
        Printf.sprintf {|span_wall_ns_bucket%s,le="8388608"} 4|} lbl;
        Printf.sprintf {|span_wall_ns_bucket%s,le="+Inf"} 4|} lbl;
        Printf.sprintf {|span_wall_ns_sum%s} 5001403|} lbl;
        Printf.sprintf {|span_wall_ns_count%s} 4|} lbl;
        Printf.sprintf {|span_wall_ns_min%s} 3|} lbl;
        Printf.sprintf {|span_wall_ns_max%s} 5000000|} lbl;
        "# EOF";
        "";
      ]
  in
  Alcotest.(check string) "golden histogram exposition" golden
    (Metrics.to_prometheus reg)

(* The pinned non-positive semantics: v <= 0 folds into bucket 0
   (exposed as le="1") while sum/min/max see the raw value; an empty
   histogram reads _min/_max 0. *)
let test_observe_non_positive () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  Metrics.observe h (-5);
  Metrics.observe h 0;
  let text = Metrics.to_prometheus reg in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("exposition has: " ^ line) true
        (contains_sub text (line ^ "\n")))
    [
      {|lat_bucket{le="1"} 2|};
      {|lat_bucket{le="+Inf"} 2|};
      "lat_sum -5";
      "lat_count 2";
      "lat_min -5";
      "lat_max 0";
    ];
  (* no observation leaked past the le="1" clamp into a higher bucket *)
  Alcotest.(check bool) "only the clamp bucket and +Inf" false
    (contains_sub text {|lat_bucket{le="2"}|});
  let empty_reg = Metrics.create () in
  ignore (Metrics.histogram empty_reg "idle");
  let text = Metrics.to_prometheus empty_reg in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("empty histogram: " ^ line) true
        (contains_sub text (line ^ "\n")))
    [ {|idle_bucket{le="+Inf"} 0|}; "idle_count 0"; "idle_min 0"; "idle_max 0" ]

let test_prometheus_name_sanitization () =
  let reg = Metrics.create () in
  Metrics.set_counter reg "cache.l1d.misses" 3;
  let text = Metrics.to_prometheus reg in
  (* dotted registry names must come out as valid prometheus names *)
  Alcotest.(check bool) "dots become underscores" true
    (contains_sub text "cache_l1d_misses 3");
  Alcotest.(check bool) "no dotted name leaks" false
    (contains_sub text "cache.l1d")

(* ---- --profile golden: real function names ---------------------------- *)

let test_profile_names_functions () =
  let m = run_workload ~profile:true () in
  match Machine.attr m with
  | None -> Alcotest.fail "attribution not enabled"
  | Some p ->
    let rows = Attr.by_function p in
    let names = List.map fst rows in
    List.iter
      (fun fn ->
        Alcotest.(check bool) ("profile row for " ^ fn) true
          (List.mem fn names))
      [ "main"; "sum"; "malloc" ];
    (* cycles must reconcile with the machine's own counter *)
    let total =
      List.fold_left (fun a (_, c) -> a + Cost.cycles c) 0 rows
    in
    Alcotest.(check int) "profile cycles = stats cycles"
      (Hb_cpu.Stats.cycles m.Machine.stats)
      total;
    (* the flat table renders those names too *)
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    let table = Attr.function_table p in
    List.iter
      (fun fn ->
        Alcotest.(check bool) (fn ^ " in table") true (contains table fn))
      [ "main"; "sum" ]

(* The single JSON string escaper every emitter routes through (the
   printer, the Chrome-trace sinks in Host/Fleet, the speedscope export):
   hostile names must come back byte-identical through a parse. *)
let test_escape_to_hostile () =
  let escape s =
    let b = Buffer.create 32 in
    Json.escape_to b s;
    Buffer.contents b
  in
  (* the literal is a quoted JSON string that parses back to the input *)
  List.iter
    (fun s ->
      let lit = escape s in
      Alcotest.(check bool) "literal is quoted" true
        (String.length lit >= 2 && lit.[0] = '"'
        && lit.[String.length lit - 1] = '"');
      (* no raw control characters survive in the literal *)
      String.iter
        (fun c ->
          Alcotest.(check bool) "no raw control char" false (Char.code c < 0x20))
        lit;
      match Json.of_string lit with
      | Json.String back ->
        Alcotest.(check string) "round-trips byte-identical" s back
      | _ -> Alcotest.fail "escaped literal did not parse as a string")
    [
      "plain";
      "quo\"te";
      "back\\slash";
      "new\nline\rtab\t";
      "\x00\x01\x1f mixed \"\\ all";
      "trailing\\";
    ];
  (* the printer's String case is the same code path *)
  Alcotest.(check string) "printer agrees with escape_to"
    (escape "a\"b\\c\nd")
    (Json.to_string (Json.String "a\"b\\c\nd"))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "json",
        [
          tc "print/parse round-trip and rejects malformed" test_json_roundtrip;
          tc "escape_to handles hostile names" test_escape_to_hostile;
        ] );
      ( "trace",
        [
          tc "ring buffer wraparound" test_ring_wraparound;
          tc "sink sees every event" test_sink_sees_every_event;
          tc "jsonl sink parses back" test_jsonl_sink_wellformed;
          tc "chrome sink parses back" test_chrome_sink_wellformed;
        ] );
      ( "metrics",
        [
          tc "snapshot deterministic across identical runs"
            test_metrics_deterministic;
          tc "labelled series" test_metrics_labels;
          tc "openmetrics escaping of hostile labels + EOF framing"
            test_prometheus_escaping;
          tc "golden sparse-bucket histogram exposition"
            test_histogram_golden_exposition;
          tc "non-positive observations clamp to le=\"1\""
            test_observe_non_positive;
          tc "openmetrics name sanitization" test_prometheus_name_sanitization;
        ] );
      ( "profile",
        [ tc "names real functions, cycles reconcile" test_profile_names_functions ] );
    ]
