(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) and runs Bechamel micro-benchmarks of the
   simulator's own hot paths.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --exp fig5   # one experiment
     dune exec bench/main.exe -- --list       # experiment index

   One Bechamel Test.make group corresponds to each paper table/figure:
   the group exercises the simulator paths that the experiment stresses. *)

module Figures = Hb_harness.Figures
module Suite = Hb_harness.Suite
module Run = Hb_harness.Run
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Meta = Hardbound.Meta

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
    ("host", "Host profiling: wall time / sim throughput / GC per config");
    ("shard", "Sharded campaign engine: speedup vs worker count, \
               byte-identical merge");
    ("serve", "Simulation daemon: job round-trip latency, service \
               overhead vs direct campaign, byte-identical reports");
    ("bechamel", "Micro-benchmarks of the simulator itself");
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

(* The shard experiment's speedup block, merged into the wall-trajectory
   point when --wall-append runs in the same invocation (wall-clock
   numbers belong on the host-varying channel, never in the gated
   simulated-cycle artifacts). *)
let shard_extra : (string * Json.t) list ref = ref []

let rec run_experiment name =
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
  | "host" ->
    banner "Host profiling: wall-clock cost of the measurement matrix";
    (* Host-varying numbers by nature — printed and reported through the
       host channel (Run.host_json / the wall trajectory), never through
       the simulated-cycle artifacts. *)
    let s = Lazy.force suite in
    Printf.printf "%-12s %-14s %10s %14s %14s %12s\n" "workload" "config"
      "wall ms" "sim instrs/s" "sim cycles/s" "gc major w";
    List.iter
      (fun (w : Suite.per_workload) ->
        List.iter
          (fun (config, (r : Run.record)) ->
            Printf.printf "%-12s %-14s %10.2f %14.0f %14.0f %12d\n"
              w.Suite.name config (Run.wall_ms r) (Run.sim_ips r)
              (Run.sim_cps r) r.Run.host.Run.gc_major_words)
          (Suite.snapshot_runs w))
      s;
    let wall ms = List.fold_left ( +. ) 0.0 ms in
    let total =
      wall
        (List.concat_map
           (fun w ->
             List.map (fun (_, r) -> Run.wall_ms r) (Suite.snapshot_runs w))
           s)
    in
    Printf.printf "\ntotal measured wall time: %.1f ms across %d runs\n"
      total
      (List.length s * 4);
    note_json name (Suite.wall_point ~label:"bench" s)
  | "shard" ->
    banner "Sharded campaign engine: speedup by worker count";
    (* Wall-clock speedup of the forked supervised engine over the serial
       runner, plus the property the engine is really about: the merged
       report must be byte-identical to the serial one at every worker
       count.  Speedup tracks physical cores — on a single-core host the
       honest answer is ~1x — and the numbers go to the advisory wall
       trajectory, never a gate. *)
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
    note_json name shard_json;
    shard_extra := [ ("shard", shard_json) ]
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
  | "bechamel" -> bechamel ()
  | other ->
    Printf.eprintf "unknown experiment %s; use --list\n" other;
    exit 1

(* ---- Bechamel micro-benchmarks ---------------------------------------- *)

and bechamel () =
  banner "Bechamel micro-benchmarks (simulator hot paths)";
  let open Bechamel in
  let open Toolkit in
  (* Figure 5's machinery: encode/decode and a full HardBound step loop *)
  let meta = Meta.make ~base:0x100000 ~size:16 in
  let enc_test scheme =
    Test.make
      ~name:("encode+decode " ^ Encoding.scheme_name scheme)
      (Staged.stage (fun () ->
           match Encoding.encode scheme ~value:0x100000 meta with
           | Encoding.Enc_inline { word; tag; aux } ->
             ignore (Encoding.decode scheme ~word ~tag ~aux)
           | Encoding.Enc_shadow { word; tag } ->
             ignore (Encoding.decode scheme ~word ~tag ~aux:0)
           | Encoding.Enc_non_pointer w ->
             ignore (Encoding.decode scheme ~word:w ~tag:0 ~aux:0)))
  in
  (* Figure 4's tag cache: hierarchy accesses *)
  let hier =
    Hb_cache.Hierarchy.create (Hb_cache.Hierarchy.default_params ~tag_bits:1)
  in
  let counter = ref 0 in
  let cache_test =
    Test.make ~name:"hierarchy access (data+tag)"
      (Staged.stage (fun () ->
           incr counter;
           let a = 0x100000 + (!counter * 4 land 0xFFFF) in
           ignore (Hb_cache.Hierarchy.access hier Hb_cache.Hierarchy.Data a);
           ignore
             (Hb_cache.Hierarchy.access hier Hb_cache.Hierarchy.Tag_meta a)))
  in
  (* whole-machine throughput on treeadd, baseline vs hardbound *)
  let treeadd = Hb_workloads.Workloads.find "treeadd" in
  let mk_machine ?(attr = false) ?(timeline = false) mode =
    let image, globals = Hb_runtime.Build.compile ~mode treeadd.source in
    fun () ->
      let config = Hb_runtime.Build.config_for mode in
      let m = Hb_cpu.Machine.create ~config ~globals image in
      if attr then
        Hb_cpu.Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
      if timeline then Hb_cpu.Machine.enable_timeline ~interval:10_000 m;
      (* run a slice: enough to measure steady-state step cost *)
      (try
         for _ = 1 to 200_000 do
           Hb_cpu.Machine.step m
         done
       with _ -> ());
      ()
  in
  let machine_tests =
    [
      Test.make ~name:"machine 200k steps (baseline)"
        (Staged.stage (mk_machine Codegen.Nochecks));
      Test.make ~name:"machine 200k steps (hardbound)"
        (Staged.stage (mk_machine Codegen.Hardbound));
      (* the attribution-off guarantee's counterpart: how much turning it
         ON costs relative to the row above *)
      Test.make ~name:"machine 200k steps (hardbound+attr)"
        (Staged.stage (mk_machine ~attr:true Codegen.Hardbound));
      (* ditto for sampling: the cost of the per-window census *)
      Test.make ~name:"machine 200k steps (hardbound+timeline)"
        (Staged.stage (mk_machine ~timeline:true Codegen.Hardbound));
    ]
  in
  let compile_test =
    Test.make ~name:"compile treeadd (full pipeline)"
      (Staged.stage (fun () ->
           ignore (Hb_runtime.Build.compile ~mode:Codegen.Hardbound
                     treeadd.source)))
  in
  let grouped =
    Test.make_grouped ~name:"hardbound"
      ([ enc_test Encoding.Uncompressed; enc_test Encoding.Extern4;
         enc_test Encoding.Intern4; enc_test Encoding.Intern11; cache_test;
         compile_test ]
      @ machine_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort compare rows in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "%-48s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-48s %12s\n" name "n/a")
    rows;
  note_json "bechamel"
    (Json.Obj
       [
         ("experiment", Json.String "bechamel");
         ( "ns_per_run",
           Json.Obj
             (List.map
                (fun (name, ols_result) ->
                  ( name,
                    match Analyze.OLS.estimates ols_result with
                    | Some (est :: _) -> Json.Float est
                    | _ -> Json.Null ))
                rows) );
       ])

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
  let wall_append, args = split_opt "--wall-append" args in
  let wall_label, args = split_opt "--wall-label" args in
  let trend_path, args = split_opt "--trend" args in
  let trend_json, args = split_opt "--trend-json" args in
  let gating =
    baseline_write <> None || baseline_path <> None || wall_append <> None
    || trend_path <> None
  in
  (match args with
   | [ "--list" ] ->
     List.iter (fun (k, d) -> Printf.printf "%-12s %s\n" k d) experiments
   | [ "--exp"; name ] -> run_experiment name
   | [] when gating -> ()
   | [] -> List.iter (fun (k, _) -> run_experiment k) experiments
   | _ ->
     prerr_endline
       "usage: main.exe [--list | --exp <name>] [--json FILE] \
        [--baseline FILE] [--baseline-write FILE] [--wall-append FILE] \
        [--wall-label LABEL] [--trend FILE [--trend-json OUT]]";
     exit 1);
  (* Wall-trend analysis of a committed trajectory: a pure function of
     the document (no suite collection), so it runs standalone in CI as
     a cheap advisory artifact. *)
  (match trend_path with
   | None ->
     if trend_json <> None then begin
       prerr_endline "error: --trend-json needs --trend FILE";
       exit 1
     end
   | Some path ->
     let trajectory = read_json path in
     print_string (Suite.trend_table ~trajectory ());
     (match trend_json with
      | None -> ()
      | Some out ->
        let oc = open_out out in
        output_string oc
          (Json.to_string_pretty (Suite.trend ~trajectory ()));
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "[bench] wrote wall-trend analysis %s\n%!" out));
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
  (* Host wall-clock trajectory: append a point per PR to BENCH_wall.json.
     Advisory by design — wall time depends on the machine that ran it,
     so out-of-band drift prints notes instead of failing. *)
  (match wall_append with
   | None -> ()
   | Some path ->
     let label = Option.value wall_label ~default:"local" in
     let prior =
       if Sys.file_exists path then Some (read_json path) else None
     in
     (match prior with
      | Some t ->
        List.iter
          (fun m -> Printf.eprintf "[bench] WALL %s\n" m)
          (Suite.wall_advisory ~trajectory:t (Lazy.force suite))
      | None -> ());
     let doc =
       Suite.append_wall ~extra:!shard_extra ~trajectory:prior ~label
         (Lazy.force suite)
     in
     let oc = open_out path in
     output_string oc (Json.to_string_pretty doc);
     output_char oc '\n';
     close_out oc;
     Printf.eprintf
       "[bench] appended wall point %S to %s (advisory trajectory, not a \
        gate)\n%!"
       label path);
  match json_path with None -> () | Some path -> write_json path
