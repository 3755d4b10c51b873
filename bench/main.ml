(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) from simulated counts, and gates those counts
   against the committed BENCH_hardbound.json.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --exp fig5   # one experiment
     dune exec bench/main.exe -- --list       # experiment index

   The simulator's host speed is benchmarked by perfbench
   (perfbench/README.md); the wall times the shard and serve experiments
   print are advisory. *)

module Figures = Hb_harness.Figures
module Suite = Hb_harness.Suite
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding

let experiments =
  [
    ("fig5", "Figure 5: HardBound runtime overhead by encoding");
    ("fig6", "Figure 6: memory (pages) overhead by encoding");
    ("fig7", "Figure 7: comparison vs software-only schemes");
    ("correctness", "Section 5.2: violation corpus sweep");
    ("uop", "Section 5.4: bounds-check micro-op ablation");
    ("malloc_only", "Section 3.2: malloc-only legacy mode");
    ("redzone", "Section 2.1: red-zone tripwire baseline");
    ("temporal", "Section 6.2: temporal-tracking extension");
    ("fault", "Fault-injection campaigns: checker detection coverage");
    ("recover", "Recovery policies: corpus detection matrix + clean overhead");
    ("attr", "Per-PC attribution: top hotspots + differential overhead");
    ("timeline", "Timeline: windowed phase samples + shadow census");
    ("flame", "Calling-context profiles: exclusive-sum identity per encoding");
    ("shard", "Sharded campaign engine: speedup vs worker count, \
               byte-identical merge");
    ("serve", "Simulation daemon: job round-trip latency, service \
               overhead vs direct campaign, byte-identical reports");
  ]

let banner title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title
    (String.make 72 '=')

module Json = Hb_obs.Json

(* The suite (36+ simulated runs) is collected once and shared by the
   figures that read it. *)
let suite =
  lazy
    (Suite.collect
       ~progress:(fun name -> Printf.eprintf "[suite] running %s...\n%!" name)
       ())

(* Structured results accumulated for --json FILE, one entry per
   experiment run. *)
let json_results : (string * Json.t) list ref = ref []

let note_json name j = json_results := (name, j) :: !json_results

let run_experiment name =
  match name with
  | "fig5" ->
    banner "Figure 5";
    print_string (Figures.figure5 (Lazy.force suite));
    note_json name (Figures.figure5_json (Lazy.force suite))
  | "fig6" ->
    banner "Figure 6";
    print_string (Figures.figure6 (Lazy.force suite));
    note_json name (Figures.figure6_json (Lazy.force suite))
  | "fig7" ->
    banner "Figure 7";
    print_string (Figures.figure7 (Lazy.force suite));
    note_json name (Figures.figure7_json (Lazy.force suite))
  | "correctness" ->
    banner "Section 5.2 correctness";
    let text, j = Figures.correctness_report () in
    print_string text;
    note_json name j
  | "uop" ->
    banner "Section 5.4 uop ablation";
    let text, j = Figures.uop_ablation_report () in
    print_string text;
    note_json name j
  | "malloc_only" ->
    banner "Section 3.2 malloc-only";
    let text, j = Figures.malloc_only_report () in
    print_string text;
    note_json name j
  | "redzone" ->
    banner "Section 2.1 red-zone tripwire";
    let text, j = Figures.redzone_report () in
    print_string text;
    note_json name j
  | "temporal" ->
    banner "Section 6.2 temporal extension";
    let text, j = Figures.temporal_report () in
    print_string text;
    note_json name j
  | "fault" ->
    banner "Fault-injection campaigns (hb_fault)";
    let module Campaign = Hb_fault.Campaign in
    let cfg =
      { Campaign.default with
        Campaign.runs = 150;
        seed = 2008;
        keep_run_records = false }
    in
    let reports =
      List.map
        (fun wl ->
          Printf.eprintf "[fault] campaign on %s...\n%!" wl;
          let r = Hb_harness.Resilience.campaign cfg wl in
          Printf.printf "%s: golden %s, %d instrs, %d runs\n%s\n" wl
            r.Campaign.golden_status r.Campaign.golden_instrs
            (List.length r.Campaign.records)
            (Campaign.coverage_table r);
          (wl, Campaign.to_json r))
        [ "power"; "perimeter" ]
    in
    note_json name (Json.Obj reports)
  | "recover" ->
    banner "Recovery policies (hb_recover)";
    let module Policy = Hb_recover.Policy in
    let module Recover = Hb_recover.Recover in
    let module Recovery = Hb_harness.Recovery in
    let module Machine = Hb_cpu.Machine in
    (* Detection matrix on a corpus sample: every 3rd case keeps the
       experiment under a minute while still crossing every idiom. *)
    let all = Hb_violations.Gen.all_cases () in
    let cases = List.filteri (fun i _ -> i mod 3 = 0) all in
    Printf.eprintf "[recover] matrix on %d of %d corpus cases x %d policies...\n%!"
      (List.length cases) (List.length all) (List.length Policy.all);
    let cells = Recovery.matrix ~cases () in
    print_string (Recovery.to_table cells);
    if not (Recovery.all_detected cells) then
      Hb_error.fail ~component:"bench"
        "recovery matrix: a bad case went undetected or a good case trapped";
    (* Clean-run overhead: a trap-free workload must cost exactly the
       same cycles under every policy — the supervisor only acts when a
       trap fires, so the default abort path's baseline is untouched. *)
    let treeadd = Hb_workloads.Workloads.find "treeadd" in
    let mode = Codegen.Hardbound in
    let image, globals = Hb_runtime.Build.compile ~mode treeadd.source in
    let clean_cycles policy =
      let config = Hb_runtime.Build.config_for ~scheme:Encoding.Extern4 mode in
      let m = Machine.create ~config ~globals image in
      let o =
        Recover.run ~line_base:Hb_runtime.Build.runtime_lines
          ~config:(Policy.with_policy policy) m
      in
      (match o.Recover.status with
       | Machine.Exited 0 when o.Recover.traps = [] -> ()
       | _ ->
         Hb_error.fail ~component:"bench" "treeadd not clean under %s: %s"
           (Policy.name policy) (Recover.summary o));
      Hb_cpu.Stats.cycles m.Machine.stats
    in
    let overhead = List.map (fun p -> (p, clean_cycles p)) Policy.all in
    Printf.printf "\nclean-run cycles (treeadd, extern-4) by policy:\n";
    List.iter
      (fun (p, c) -> Printf.printf "  %-10s %d\n" (Policy.name p) c)
      overhead;
    (match overhead with
     | (_, c0) :: rest ->
       if not (List.for_all (fun (_, c) -> c = c0) rest) then
         Hb_error.fail ~component:"bench"
           "recovery policies perturbed a trap-free run's cycle count"
     | [] -> ());
    note_json name
      (Json.Obj
         [
           ("matrix", Recovery.to_json cells);
           ( "clean_cycles",
             Json.Obj
               (List.map
                  (fun (p, c) -> (Policy.name p, Json.Int c))
                  overhead) );
         ])
  | "attr" ->
    banner "Per-PC attribution: hotspots and differential overhead";
    let module Machine = Hb_cpu.Machine in
    let module Attr = Hb_obs.Attr in
    let module Diff = Hb_obs.Diff in
    (* One attributed run; the attribution must reconcile with the global
       counters or the experiment itself is untrustworthy. *)
    let run_attr ~mode ~scheme (wl : Hb_workloads.Workloads.t) =
      let image, globals = Hb_runtime.Build.compile ~mode wl.source in
      let config = Hb_runtime.Build.config_for ~scheme mode in
      let m = Machine.create ~config ~globals image in
      Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
      (match Machine.run m with
       | Machine.Exited 0 -> ()
       | st ->
         Hb_error.fail ~component:"bench" "%s did not exit cleanly: %s"
           wl.name (Machine.status_name st));
      let a = Option.get (Machine.attr m) in
      (match Attr.check a ~expect:(Hb_cpu.Stats.fields m.Machine.stats) with
       | Ok () -> ()
       | Error msg -> Hb_error.fail ~component:"bench" "%s: %s" wl.name msg);
      a
    in
    let label wl cfg = Printf.sprintf "%s/%s" wl cfg in
    let dump lbl a =
      Diff.of_json (Attr.to_json ~meta:[ ("label", Json.String lbl) ] a)
    in
    let reports =
      List.map
        (fun (wl : Hb_workloads.Workloads.t) ->
          Printf.eprintf "[attr] attributing %s...\n%!" wl.name;
          let base =
            run_attr ~mode:Codegen.Nochecks ~scheme:Encoding.Uncompressed wl
          in
          let hb =
            run_attr ~mode:Codegen.Hardbound ~scheme:Encoding.Intern4 wl
          in
          let report =
            Diff.diff
              (dump (label wl.name "baseline") base)
              (dump (label wl.name "hb-intern-4") hb)
          in
          Printf.printf "---- %s: top sites under hardbound/intern-4 ----\n"
            wl.name;
          print_string (Attr.to_table ~top:10 hb);
          print_newline ();
          print_string (Diff.to_table ~top:10 report);
          print_newline ();
          (wl.name, Diff.to_json report))
        Hb_workloads.Workloads.all
    in
    note_json name (Json.Obj reports)
  | "timeline" ->
    banner "Timeline: windowed phase samples + shadow-metadata census";
    let module Machine = Hb_cpu.Machine in
    let module Timeline = Hb_obs.Timeline in
    (* One sampled run per workload; each must satisfy the window-sum
       identity (deltas reconcile with the global counters) or the
       telemetry itself is untrustworthy. *)
    let run_timeline (wl : Hb_workloads.Workloads.t) =
      let mode = Codegen.Hardbound in
      let image, globals = Hb_runtime.Build.compile ~mode wl.source in
      let config = Hb_runtime.Build.config_for ~scheme:Encoding.Extern4 mode in
      let m = Machine.create ~config ~globals image in
      Machine.enable_timeline ~interval:10_000 m;
      (match Machine.run m with
       | Machine.Exited 0 -> ()
       | st ->
         Hb_error.fail ~component:"bench" "%s did not exit cleanly: %s"
           wl.name (Machine.status_name st));
      Machine.timeline_flush m;
      let tl = Option.get (Machine.timeline m) in
      (match Timeline.check tl ~expect:(Machine.timeline_fields m) with
       | Ok () -> ()
       | Error msg -> Hb_error.fail ~component:"bench" "%s: %s" wl.name msg);
      tl
    in
    let reports =
      List.map
        (fun (wl : Hb_workloads.Workloads.t) ->
          Printf.eprintf "[timeline] sampling %s...\n%!" wl.name;
          let tl = run_timeline wl in
          let windows = Timeline.windows tl in
          Printf.printf "%s: %d windows of %d cycles\n" wl.name
            (List.length windows) (Timeline.interval tl);
          if wl.name = "treeadd" then print_string (Timeline.report tl);
          ( wl.name,
            Json.Obj
              [
                ("windows", Json.Int (List.length windows));
                ("sums", Json.Obj
                   (List.map
                      (fun (k, v) -> (k, Json.Int v))
                      (Timeline.sums tl)));
              ] ))
        Hb_workloads.Workloads.all
    in
    note_json name (Json.Obj reports)
  | "flame" ->
    banner "Calling-context profiles: exclusive-sum identity";
    let module Machine = Hb_cpu.Machine in
    let module Flame = Hb_obs.Flame in
    (* Every workload under every encoding: the calling-context tree's
       exclusive sums must reconcile with the global counters exactly, or
       the profiler's attribution is untrustworthy.  Compile once per
       workload; the image is encoding-independent. *)
    let mode = Codegen.Hardbound in
    let reports =
      List.map
        (fun (wl : Hb_workloads.Workloads.t) ->
          Printf.eprintf "[flame] profiling %s...\n%!" wl.name;
          let image, globals = Hb_runtime.Build.compile ~mode wl.source in
          let per_scheme =
            List.map
              (fun scheme ->
                let config = Hb_runtime.Build.config_for ~scheme mode in
                let m = Hb_cpu.Machine.create ~config ~globals image in
                Machine.enable_flame m;
                (match Machine.run m with
                 | Machine.Exited 0 -> ()
                 | st ->
                   Hb_error.fail ~component:"bench"
                     "%s did not exit cleanly: %s" wl.name
                     (Machine.status_name st));
                let cct = Option.get (Machine.flame m) in
                (match
                   Flame.check cct
                     ~expect:(Hb_cpu.Stats.fields m.Hb_cpu.Machine.stats)
                 with
                 | Ok () -> ()
                 | Error msg ->
                   Hb_error.fail ~component:"bench" "%s/%s: %s" wl.name
                     (Encoding.scheme_name scheme) msg);
                ( Encoding.scheme_name scheme,
                  Json.Obj
                    [
                      ("contexts", Json.Int (Flame.contexts cct));
                      ("max_depth", Json.Int (Flame.max_depth_seen cct));
                      ("truncations", Json.Int (Flame.truncations cct));
                    ] ))
              Encoding.all_schemes
          in
          Printf.printf "%-12s identity holds under %d encoding(s)\n" wl.name
            (List.length per_scheme);
          (wl.name, Json.Obj per_scheme))
        Hb_workloads.Workloads.all
    in
    note_json name (Json.Obj reports)
  | "shard" ->
    banner "Sharded campaign engine: speedup by worker count";
    (* Wall-clock speedup of the forked supervised engine over the serial
       runner, plus the property the engine is really about: the merged
       report must be byte-identical to the serial one at every worker
       count.  Speedup tracks physical cores — on a single-core host the
       honest answer is ~1x — and the numbers are printed, never a
       gate. *)
    let module Campaign = Hb_fault.Campaign in
    let module Clock = Hb_obs.Clock in
    let wl = "power" in
    let cfg = { Campaign.default with Campaign.runs = 40; seed = 7 } in
    let cores = Domain.recommended_domain_count () in
    let time f =
      let t0 = Clock.now_ns () in
      let r = f () in
      (r, Clock.elapsed_s ~t0)
    in
    Printf.eprintf "[shard] serial reference (%d runs on %s)...\n%!"
      cfg.Campaign.runs wl;
    let serial, serial_s =
      time (fun () -> Hb_harness.Resilience.campaign cfg wl)
    in
    let serial_doc = Json.to_string (Campaign.to_json serial) in
    Printf.printf "workload %s, %d runs, seed %d (host: %d core(s))\n\n" wl
      cfg.Campaign.runs cfg.Campaign.seed cores;
    Printf.printf "%-6s %10s %10s %10s\n" "jobs" "wall s" "speedup"
      "identical";
    Printf.printf "%-6s %10.2f %10s %10s\n" "serial" serial_s "-" "-";
    let rows =
      List.map
        (fun jobs ->
          Printf.eprintf "[shard] --jobs %d...\n%!" jobs;
          let shard_cfg =
            { Hb_shard.Supervisor.default with Hb_shard.Supervisor.jobs }
          in
          let report, secs =
            time (fun () ->
                Hb_harness.Resilience.sharded_campaign ~shard_cfg cfg wl)
          in
          if Json.to_string (Campaign.to_json report) <> serial_doc then
            Hb_error.fail ~component:"bench"
              "sharded report diverged from serial at --jobs %d" jobs;
          let speedup = if secs > 0.0 then serial_s /. secs else 0.0 in
          Printf.printf "%-6d %10.2f %9.2fx %10s\n" jobs secs speedup "yes";
          (jobs, secs, speedup))
        [ 1; 2; 4; 8 ]
    in
    let shard_json =
      Json.Obj
        [
          ("workload", Json.String wl);
          ("runs", Json.Int cfg.Campaign.runs);
          ("seed", Json.Int cfg.Campaign.seed);
          ("cores", Json.Int cores);
          ("serial_wall_s", Json.Float serial_s);
          ( "points",
            Json.List
              (List.map
                 (fun (jobs, secs, speedup) ->
                   Json.Obj
                     [
                       ("jobs", Json.Int jobs);
                       ("wall_s", Json.Float secs);
                       ("speedup", Json.Float speedup);
                       ("identical", Json.Bool true);
                     ])
                 rows) );
        ]
    in
    note_json name shard_json
  | "serve" ->
    banner "Simulation daemon: service overhead over direct campaigns";
    (* The daemon's whole deal is that serving a job costs bytes-wise
       nothing: the report a worker journals must equal the direct
       in-process campaign's byte for byte (a divergence fails the
       experiment).  The wall numbers — queue round-trip latency vs the
       direct run — are host-varying and advisory. *)
    let module Campaign = Hb_fault.Campaign in
    let module Clock = Hb_obs.Clock in
    let module Proto = Hb_serve.Proto in
    let module Queue = Hb_serve.Queue in
    let module Daemon = Hb_serve.Daemon in
    let specs =
      List.map
        (fun (wl, seed) ->
          { Proto.default with Proto.workload = wl; runs = 2; seed })
        [ ("power", 1); ("power", 2); ("perimeter", 3) ]
    in
    let time f =
      let t0 = Clock.now_ns () in
      let r = f () in
      (r, Clock.elapsed_s ~t0)
    in
    let direct spec =
      let image, globals =
        Hb_runtime.Build.compile ~mode:spec.Proto.mode (Proto.source spec)
      in
      let config =
        Hb_runtime.Build.config_for ~scheme:spec.Proto.scheme ~temporal:false
          ~max_instrs:Hb_runtime.Build.default_fuel spec.Proto.mode
      in
      Hardbound.Checker.reset_tally ();
      let mk () = Hb_cpu.Machine.create ~config ~globals image in
      Campaign.run ~mk (Proto.campaign_config spec)
    in
    Printf.eprintf "[serve] direct reference campaigns...\n%!";
    let directs =
      List.map
        (fun spec ->
          let report, secs = time (fun () -> direct spec) in
          (Json.to_string_pretty (Campaign.to_json report) ^ "\n", secs))
        specs
    in
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hb_bench_serve_%d" (Unix.getpid ()))
    in
    let rec rm p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
    in
    rm dir;
    Printf.eprintf "[serve] daemon round trips...\n%!";
    let d = Daemon.start (Daemon.default ~port:0 ~dir) in
    let lat, total_s =
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          time (fun () ->
              List.map
                (fun spec ->
                  let job, secs =
                    time (fun () ->
                        let job =
                          Queue.submit (Daemon.queue d) ~spec
                        in
                        let rec wait () =
                          match job.Queue.state with
                          | Queue.Done -> job
                          | Queue.Poisoned r | Queue.Failed r ->
                            Hb_error.fail ~component:"bench"
                              "daemon job died: %s" r
                          | _ ->
                            Unix.sleepf 0.02;
                            wait ()
                        in
                        wait ())
                  in
                  let got =
                    let path =
                      Filename.concat
                        (Queue.job_dir (Daemon.queue d) job.Queue.id)
                        "report.json"
                    in
                    let ic = open_in_bin path in
                    let n = in_channel_length ic in
                    let s = really_input_string ic n in
                    close_in ic;
                    s
                  in
                  (job.Queue.id, secs, got))
                specs))
    in
    rm dir;
    Printf.printf "%-6s %-10s %10s %10s %10s\n" "job" "workload" "direct s"
      "daemon s" "identical";
    let rows =
      List.map2
        (fun ((id, daemon_s, got), spec) (expect, direct_s) ->
          if got <> expect then
            Hb_error.fail ~component:"bench"
              "daemon report diverged from the direct campaign for job j%d"
              id;
          Printf.printf "%-6s %-10s %10.2f %10.2f %10s\n"
            (Printf.sprintf "j%d" id)
            spec.Proto.workload direct_s daemon_s "yes";
          (id, spec.Proto.workload, direct_s, daemon_s))
        (List.map2 (fun a b -> (a, b)) lat specs)
        directs
    in
    Printf.printf "\n%d jobs through the daemon in %.2f s wall\n"
      (List.length specs) total_s;
    note_json name
      (Json.Obj
         [
           ("experiment", Json.String "serve");
           ("jobs", Json.Int (List.length specs));
           ("total_wall_s", Json.Float total_s);
           ( "points",
             Json.List
               (List.map
                  (fun (id, wl, direct_s, daemon_s) ->
                    Json.Obj
                      [
                        ("job", Json.Int id);
                        ("workload", Json.String wl);
                        ("direct_wall_s", Json.Float direct_s);
                        ("daemon_wall_s", Json.Float daemon_s);
                        ("identical", Json.Bool true);
                      ])
                  rows) );
         ])
  | other ->
    Printf.eprintf "unknown experiment %s; use --list\n" other;
    exit 1

let write_json path =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (Json.Obj (List.rev !json_results)));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "[bench] wrote %s\n%!" path

let read_json path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Json.of_string s

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* peel off a `KEY FILE` option pair anywhere in the args *)
  let split_opt key args =
    let rec go acc = function
      | k :: path :: rest when k = key -> (Some path, List.rev_append acc rest)
      | x :: rest -> go (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let json_path, args = split_opt "--json" args in
  let baseline_write, args = split_opt "--baseline-write" args in
  let baseline_path, args = split_opt "--baseline" args in
  let gating = baseline_write <> None || baseline_path <> None in
  (match args with
   | [ "--list" ] ->
     List.iter (fun (k, d) -> Printf.printf "%-12s %s\n" k d) experiments
   | [ "--exp"; name ] -> run_experiment name
   | [] when gating -> ()
   | [] -> List.iter (fun (k, _) -> run_experiment k) experiments
   | _ ->
     prerr_endline
       "usage: main.exe [--list | --exp <name>] [--json FILE] \
        [--baseline FILE] [--baseline-write FILE]";
     exit 1);
  (* Perf-trajectory gate: record / compare the committed
     BENCH_hardbound.json snapshot (any instruction, uop or cycle count
     that differs fails). *)
  (match baseline_write with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc
       (Json.to_string_pretty (Suite.snapshot_json (Lazy.force suite)));
     output_char oc '\n';
     close_out oc;
     Printf.eprintf "[bench] wrote baseline %s\n%!" path);
  (match baseline_path with
   | None -> ()
   | Some path ->
     (match
        Suite.check_baseline ~baseline:(read_json path) (Lazy.force suite)
      with
      | Ok () ->
        Printf.printf
          "[bench] baseline %s: instructions, uops and cycles all identical\n"
          path
      | Error msgs ->
        List.iter (fun m -> Printf.eprintf "[bench] DRIFT %s\n" m) msgs;
        Printf.eprintf
          "[bench] simulated counts differ from %s; if intentional, \
           regenerate it with --baseline-write in the same change\n"
          path;
        exit 1));
  match json_path with None -> () | Some path -> write_json path
