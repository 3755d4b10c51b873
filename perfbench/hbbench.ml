(* The benchmark's runner: one workload, one seed, one run.

     hbbench.exe --workload W --seed N --seconds S --trace 0|1

   Run it through perfbench/run.py, which builds it first.  With
   --trace 0 the last stdout line carries the end-to-end metrics; with
   --trace 1 it carries the per-layer metrics of a traced run, and the
   span trees go to the --out directory.  The line before it is the full
   record: metrics plus the stamp (nproc, OCaml version, commit, seed,
   encoding assignment) and per-item detail. *)

open Perfbench
module Json = Hb_obs.Json
module Host = Hb_obs.Host

let workloads = [ "olden-base"; "olden-hb"; "corpus"; "serve" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  source_digest : string;
  nproc : int;
  snapshot : string;
  outputs : string;
  out_dir : string;
  work_dir : string;
  write_outputs : string option;
}

let usage () =
  prerr_endline
    "usage: hbbench.exe --workload (olden-base|olden-hb|corpus|serve) --seed N \
     --seconds S --trace (0|1) [--commit C] [--source-digest D] [--nproc N] \
     [--snapshot FILE] [--outputs FILE] [--out DIR] [--work DIR] \
     | --write-outputs FILE";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.;
        trace = false;
        commit = "unknown";
        source_digest = "unknown";
        nproc = Domain.recommended_domain_count ();
        snapshot = "BENCH_hardbound.json";
        outputs = "perfbench/expected_outputs.json";
        out_dir = "perfbench/out";
        work_dir = "perfbench/work";
        write_outputs = None;
      }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of v }; go r
    | "--seconds" :: v :: r ->
      a := { !a with seconds = (match float_of_string_opt v with Some f -> f | None -> usage ()) };
      go r
    | "--trace" :: v :: r ->
      a := { !a with trace = (match v with "0" -> false | "1" -> true | _ -> usage ()) };
      go r
    | "--commit" :: v :: r -> a := { !a with commit = v }; go r
    | "--source-digest" :: v :: r -> a := { !a with source_digest = v }; go r
    | "--nproc" :: v :: r -> a := { !a with nproc = int_of v }; go r
    | "--snapshot" :: v :: r -> a := { !a with snapshot = v }; go r
    | "--outputs" :: v :: r -> a := { !a with outputs = v }; go r
    | "--out" :: v :: r -> a := { !a with out_dir = v }; go r
    | "--work" :: v :: r -> a := { !a with work_dir = v }; go r
    | "--write-outputs" :: v :: r -> a := { !a with write_outputs = Some v }; go r
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.write_outputs = None && not (List.mem !a.workload workloads) then usage ();
  !a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The baseline outputs the olden checks compare against, recorded from
   the current build: regenerate only with a deliberate model change. *)
let write_outputs path =
  let st = Stage.create ~traced:false "outputs" in
  let digests =
    List.map
      (fun (w : Hb_workloads.Workloads.t) ->
        let name = w.Hb_workloads.Workloads.name in
        let m =
          Layers.create st ~config:(Olden.machine_config Olden.Base name)
            (Layers.compile st ~mode:(Olden.mode Olden.Base) w.source)
        in
        ignore (Layers.run st m);
        (name, Json.String (Olden.output_digest m)))
      Hb_workloads.Workloads.all
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string_pretty (Json.Obj [ ("outputs", Json.Obj digests) ]) ^ "\n");
  close_out oc

(* One run of the workload: a fixed number of passes (olden, corpus) or
   job rounds (serve) for a given --seconds, one per [pass_s] of it.  On
   the 2-vCPU host it was tuned on a pass takes about 10 s on olden-base,
   30 s on olden-hb, 5 s on corpus and a round 2.5 s on serve;
   olden-base gets two passes per 10 s, so that its figures average over
   as much host time as the others'. *)
let run_workload a st check ~extra_setups =
  let expected () = Olden.load_expected ~snapshot:a.snapshot ~outputs:a.outputs in
  let passes ~pass_s = max 1 (int_of_float (Float.round (a.seconds /. pass_s))) in
  match a.workload with
  | "olden-base" ->
    ( Olden.run st check (expected ()) Olden.Base ~passes:(passes ~pass_s:5.) ~extra_setups,
      None )
  | "olden-hb" ->
    ( Olden.run st check (expected ()) Olden.Hb ~passes:(passes ~pass_s:30.) ~extra_setups,
      None )
  | "corpus" -> (Corpus.run st check ~passes:(passes ~pass_s:5.) ~extra_setups, None)
  | _ ->
    let dir = Filename.concat a.work_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
    let s, rows =
      Serve_wl.run st check ~dir ~seed:a.seed ~rounds:(passes ~pass_s:2.5) ~extra_setups
    in
    (s, Some rows)

let metrics_json rows =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       rows)

(* times scaled to the nominal host speed, rates inversely; [setup_s]
   comes scaled set-up by set-up *)
let end_to_end (s : Summary.t) =
  let f = s.Summary.time_factor in
  [
    ("wall_s", "s", s.Summary.wall_s *. f);
    ("setup_s", "s", s.setup_s);
    ("sim_ips", "instr/s", s.sim_ips /. s.sim_factor);
    ("items_per_s", "item/s", s.items_per_s /. f);
    ("peak_rss_mb", "MB", float_of_int s.peak_rss_kb /. 1024.);
  ]

(* the same as the host clock read them, for the record *)
let raw_metrics (s : Summary.t) =
  List.filter
    (fun (name, _, _) -> name <> "setup_s")
    (end_to_end { s with time_factor = 1.; sim_factor = 1. })

(* per-layer rows read off the traced pass *)
let layer_rows st =
  let tt = Stage.totals st in
  let ms name = 1e3 *. Stage.total_s tt name in
  let instrs = float_of_int (Stage.count st "cpu.instructions") in
  let run_s = Stage.total_s tt "cpu.run" in
  let counts unit keys =
    List.map (fun k -> (k, unit, float_of_int (Stage.count st k))) keys
  in
  [
    ("minic.parse_ms", "ms", ms "minic.parse");
    ("minic.typecheck_ms", "ms", ms "minic.typecheck");
    ("minic.codegen_ms", "ms", ms "minic.codegen");
    ("isa.link_ms", "ms", ms "isa.link");
    ("cpu.create_ms", "ms", ms "cpu.create");
    ("cpu.run_s", "s", run_s);
    ("cpu.ns_per_instr", "ns/instr", run_s *. 1e9 /. instrs);
    ( "cpu.alloc_words_per_instr",
      "word/instr",
      Stage.total_minor_words tt "cpu.run" /. instrs );
  ]
  @ counts "count"
      [
        "cpu.instructions"; "cpu.uops"; "cpu.cycles"; "core.checked_derefs";
        "core.metadata_uops"; "core.shadow_ptr_accesses"; "cache.mem_accesses";
        "cache.l1_misses"; "cache.tag_cache_misses";
      ]
  @ counts "page" [ "mem.tag_pages"; "mem.shadow_pages" ]
  @ counts "count" [ "violations.detected"; "violations.false_positives" ]

let check_tree what st =
  match Stage.finish st with
  | Ok () -> ()
  | Error msg ->
    Hb_error.fail ~component:"perfbench" "%s span tree fails Host.check: %s" what msg

let traced_run a check =
  (* the same run untraced, then traced: their ratio is the tracing
     overhead *)
  let untraced, _ =
    run_workload a (Stage.create ~traced:false a.workload) check ~extra_setups:0
  in
  let st = Stage.create ~traced:true a.workload in
  let traced, serve_rows = run_workload a st check ~extra_setups:0 in
  check_tree "workload" st;
  let probe = Stage.create ~traced:true "probes" in
  let probe_rows = Probes.run probe in
  let serve_rows =
    match serve_rows with
    | Some rows -> rows
    | None ->
      Serve_wl.probe probe check
        ~dir:(Filename.concat a.work_dir (Printf.sprintf "probe-%d" (Unix.getpid ())))
        ~seed:a.seed
  in
  check_tree "probe" probe;
  mkdir_p a.out_dir;
  let base = Filename.concat a.out_dir (Printf.sprintf "trace-%s-seed%d" a.workload a.seed) in
  Stage.write_trace st ~json:(base ^ ".json") ~chrome:(base ^ ".chrome.json");
  Stage.write_trace probe ~json:(base ^ "-probes.json") ~chrome:(base ^ "-probes.chrome.json");
  let overhead = traced.Summary.wall_s /. untraced.Summary.wall_s in
  (* how much of the first traced pass its per-stage spans account for,
     and what they come to against the untraced pass *)
  let coverage =
    match Stage.stage_cover st "pass" with
    | Some (pass_s, stages) ->
      [
        ("span_coverage", Json.Float (stages /. pass_s));
        ("stages_over_untraced_wall", Json.Float (stages /. untraced.Summary.wall_s));
      ]
    | None -> []
  in
  ( layer_rows st @ probe_rows @ serve_rows @ [ ("trace_overhead", "ratio", overhead) ],
    traced,
    coverage @ [ ("untraced_wall_s", Json.Float untraced.Summary.wall_s) ] )

let () =
  let a = parse_args () in
  match a.write_outputs with
  | Some path -> write_outputs path
  | None ->
    let check = Check.create () in
    let rows, summary, extra =
      if a.trace then traced_run a check
      else
        (* extra set-ups make setup_s a median of many even when one
           pass fills the run: olden's take 0.1 s, the others' a few ms *)
        let extra_setups = if a.workload = "olden-base" || a.workload = "olden-hb" then 14 else 49 in
        let st = Stage.create ~traced:false a.workload in
        let s, _ = run_workload a st check ~extra_setups in
        ( end_to_end s,
          s,
          [
            ("item_p50_s", Json.Float (s.Summary.item_p50_s *. s.Summary.time_factor));
            ("time_factor", Json.Float s.Summary.time_factor);
            ("sim_factor", Json.Float s.Summary.sim_factor);
            ( "reference_s",
              Json.List (List.rev_map (fun x -> Json.Float x) st.Stage.ref_samples) );
            ("raw_metrics", metrics_json (raw_metrics s));
          ] )
    in
    let stamp =
      [
        ("workload", Json.String a.workload);
        ("seed", Json.Int a.seed);
        ("seconds", Json.Float a.seconds);
        ("trace", Json.Bool a.trace);
        ("nproc", Json.Int a.nproc);
        ("ocaml", Json.String Sys.ocaml_version);
        ("commit", Json.String a.commit);
        ("source_digest", Json.String a.source_digest);
        ( "seed_scope",
          Json.String
            "olden-base, olden-hb and corpus run fixed programs the seed does \
             not change; on serve it orders the jobs, drawn from a fixed pool \
             of campaigns, and picks which tenant submits first" );
      ]
      @ (if a.workload = "olden-hb" then [ ("encoding_assignment", Olden.assignment_json) ]
         else [])
    in
    let record =
      Json.Obj
        (stamp
        @ [
            ("passes", Json.Int summary.Summary.passes);
            ("attempted", Json.Int check.Check.attempted);
            ("failed", Json.Int check.Check.failed);
            ("error_rate", Json.Float (Check.error_rate check));
            ( "failures",
              Json.List (List.rev_map (fun s -> Json.String s) check.Check.first_failures) );
            ("metrics", metrics_json rows);
          ]
        @ extra @ summary.Summary.notes)
    in
    mkdir_p a.out_dir;
    let path =
      Filename.concat a.out_dir
        (Printf.sprintf "%s-seed%d-trace%d.json" a.workload a.seed (Bool.to_int a.trace))
    in
    let oc = open_out path in
    output_string oc (Json.to_string_pretty record ^ "\n");
    close_out oc;
    print_endline (Json.to_string record);
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (check.Check.failed = 0));
              ("attempted", Json.Int check.Check.attempted);
              ("failed", Json.Int check.Check.failed);
              ("metrics", metrics_json rows);
            ]))
