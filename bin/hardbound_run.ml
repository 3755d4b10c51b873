(* Command-line driver: compile a MiniC source file (or assemble a .s
   file) and execute it on the simulated HardBound machine.

     dune exec bin/hardbound_run.exe -- prog.c
     dune exec bin/hardbound_run.exe -- prog.c --mode softfat --stats
     dune exec bin/hardbound_run.exe -- prog.s --asm --mode malloc-only
     dune exec bin/hardbound_run.exe -- prog.c --profile --trace t.jsonl

   Fault injection (see EXPERIMENTS.md, "Fault campaigns"):

     hardbound_run --workload power --inject all:0:7 --campaign 200 \
       --campaign-json report.json
     hardbound_run prog.c --inject mem,tag:1e-6:42 *)

open Cmdliner

module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Encoding = Hardbound.Encoding
module Stats = Hb_cpu.Stats
module Json = Hb_obs.Json
module Trace = Hb_obs.Trace
module Metrics = Hb_obs.Metrics
module Attr = Hb_obs.Attr
module Diff = Hb_obs.Diff
module Timeline = Hb_obs.Timeline
module Policy = Hb_recover.Policy
module Recover = Hb_recover.Recover
module Deadline = Hb_recover.Deadline
module Host = Hb_obs.Host
module Progress = Hb_obs.Progress
module Serve = Hb_obs.Serve
module Fleet = Hb_obs.Fleet
module Interrupt = Hb_recover.Interrupt
module Daemon = Hb_serve.Daemon
module Admission = Hb_serve.Admission

let mode_conv =
  let parse s =
    match Codegen.mode_of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown mode: " ^ s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Codegen.mode_name m))

let scheme_conv =
  let parse s =
    match Encoding.scheme_of_name s with
    | Some x -> Ok x
    | None -> Error (`Msg ("unknown encoding: " ^ s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Encoding.scheme_name s))

let file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"MiniC source file (or assembly with --asm); omit when using \
               --workload")

let workload =
  Arg.(value & opt (some string) None
       & info [ "workload" ] ~docv:"NAME"
           ~doc:"Run a named Olden workload instead of a source FILE")

let mode =
  Arg.(value & opt mode_conv Codegen.Hardbound
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Protection scheme: nochecks | hardbound | malloc-only | \
                 softfat | objtable")

let scheme =
  Arg.(value & opt scheme_conv Encoding.Extern4
       & info [ "scheme" ] ~docv:"ENC"
           ~doc:"Pointer encoding: uncompressed | extern-4 | intern-4 | \
                 intern-11")

let temporal =
  Arg.(value & flag
       & info [ "temporal" ] ~doc:"Enable the Section 6.2 temporal extension")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics")

let stats_format =
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "stats-format" ] ~docv:"FMT"
           ~doc:"Format for --stats output: text | json")

let asm =
  Arg.(value & flag
       & info [ "asm" ] ~doc:"Input is textual assembly, not MiniC")

let fuel =
  Arg.(value & opt int Hb_runtime.Build.default_fuel
       & info [ "fuel" ] ~docv:"N" ~doc:"Maximum instructions to execute")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Stream structured trace events to FILE (see --trace-format)")

let trace_format =
  Arg.(value
       & opt (enum [ ("jsonl", Trace.Jsonl); ("chrome", Trace.Chrome) ])
           Trace.Jsonl
       & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Event file format: jsonl (one JSON object per line) | \
                 chrome (trace_event array for chrome://tracing / Perfetto)")

let trace_events =
  Arg.(value & opt int 0
       & info [ "trace-events" ] ~docv:"N"
           ~doc:"Keep the last N trace events in memory for violation \
                 reports (attaches a tracer even without --trace)")

let trace_retires =
  Arg.(value & flag
       & info [ "trace-retires" ]
           ~doc:"Also emit one trace event per retired instruction \
                 (verbose; off by default)")

let profile =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print a per-function flat profile (cycles, stall \
                 decomposition, check micro-ops): the per-PC attribution \
                 summed by function")

let metrics_json =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"Write a JSON snapshot of every metric (stats, caches, \
                 checker tally, profile) to FILE")

let metrics_prom =
  Arg.(value & opt (some string) None
       & info [ "metrics-prom" ] ~docv:"FILE"
           ~doc:"Write the same metric snapshot in Prometheus/OpenMetrics \
                 text exposition format to FILE")

let attr_flag =
  Arg.(value & flag
       & info [ "attr" ]
           ~doc:"Print a per-PC cost attribution table (cycles, Figure-5 \
                 stall decomposition, check/metadata micro-ops per source \
                 line)")

let attr_json =
  Arg.(value & opt (some string) None
       & info [ "attr-json" ] ~docv:"FILE"
           ~doc:"Write the full per-PC attribution dump to FILE (implies \
                 attribution; feed two dumps to --diff)")

(* Validated by [Attr.parse_top]: zero/negative counts are a typed error
   with a usage hint, the same contract --sample-interval has. *)
let attr_top_conv =
  let parse s =
    match Attr.parse_top s with
    | n -> Ok n
    | exception Hb_error.Hb_error (ctx, msg) ->
      Error (`Msg (Hb_error.to_string (ctx, msg)))
  in
  Arg.conv (parse, Format.pp_print_int)

let attr_top =
  Arg.(value & opt attr_top_conv 10
       & info [ "attr-top" ] ~docv:"N"
           ~doc:"Rows shown in the --attr, --diff and --flame tables (must \
                 be positive)")

let timeline_flag =
  Arg.(value & flag
       & info [ "timeline" ]
           ~doc:"Print the windowed timeline phase report (per-window \
                 counter sparklines, windows x counters heatmap, shadow \
                 census evolution)")

let timeline_jsonl =
  Arg.(value & opt (some string) None
       & info [ "timeline-jsonl" ] ~docv:"FILE"
           ~doc:"Stream one JSON object per timeline window to FILE \
                 (implies sampling)")

let timeline_csv =
  Arg.(value & opt (some string) None
       & info [ "timeline-csv" ] ~docv:"FILE"
           ~doc:"Write the timeline windows as CSV to FILE (implies \
                 sampling)")

let sample_interval =
  Arg.(value & opt int 10_000
       & info [ "sample-interval" ] ~docv:"CYCLES"
           ~doc:"Timeline window width in simulated cycles (must be \
                 positive)")

let flame_flag =
  Arg.(value & flag
       & info [ "flame" ]
           ~doc:"Print a calling-context (flame) profile: the hottest call \
                 paths by exclusive simulated cycles, with check/metadata \
                 micro-ops, stalls and hierarchy misses per context")

let flame_folded =
  Arg.(value & opt (some string) None
       & info [ "flame-folded" ] ~docv:"FILE"
           ~doc:"Write FlameGraph folded stacks ('a;b;c cycles' lines, \
                 deterministic) to FILE; under --campaign the stacks are \
                 aggregated per outcome bucket (one flamegraph per outcome)")

let flame_chrome =
  Arg.(value & opt (some string) None
       & info [ "flame-chrome" ] ~docv:"FILE"
           ~doc:"Write the calling-context profile as speedscope JSON \
                 (loads in speedscope.app and Chrome-trace viewers) to \
                 FILE")

let heatmap_flag =
  Arg.(value & flag
       & info [ "heatmap" ]
           ~doc:"Print a per-page address-space heat map (program vs \
                 tag/shadow metadata access and bounds-check counts, per \
                 region)")

let heatmap_json =
  Arg.(value & opt (some string) None
       & info [ "heatmap-json" ] ~docv:"FILE"
           ~doc:"Write the per-page address-space heat map as JSON to FILE")

let diff_arg =
  Arg.(value & opt (some (pair ~sep:',' file file)) None
       & info [ "diff" ] ~docv:"A.json,B.json"
           ~doc:"Standalone mode: load two --attr-json dumps, print the \
                 ranked per-source-line overhead delta (B minus A) and the \
                 Figure-5 decomposition, and exit")

let inject_conv =
  let parse s =
    match Hb_fault.Injector.spec_of_string s with
    | spec -> Ok spec
    | exception Hb_error.Hb_error (ctx, msg) ->
      Error (`Msg (Hb_error.to_string (ctx, msg)))
  in
  Arg.conv
    ( parse,
      fun fmt (s : Hb_fault.Injector.spec) ->
        Format.fprintf fmt "%s:%g:%d"
          (String.concat ","
             (List.map Hb_fault.Injector.site_name s.Hb_fault.Injector.sites))
          s.Hb_fault.Injector.rate s.Hb_fault.Injector.seed )

let inject =
  Arg.(value & opt (some inject_conv) None
       & info [ "inject" ] ~docv:"SITES:RATE:SEED"
           ~doc:"Inject faults: SITES is a comma list of mem | tag | shadow \
                 | reg | regbounds (or 'all'); RATE is the per-instruction \
                 injection probability (single-run mode; campaigns inject \
                 exactly once per run and ignore it); SEED drives the \
                 deterministic PRNG")

let campaign =
  Arg.(value & opt int 0
       & info [ "campaign" ] ~docv:"N"
           ~doc:"Run a fault campaign of N single-injection runs against a \
                 golden reference and print the outcome taxonomy (requires \
                 a cleanly exiting program; use --inject to pick sites and \
                 seed)")

let campaign_json =
  Arg.(value & opt (some string) None
       & info [ "campaign-json" ] ~docv:"FILE"
           ~doc:"Write the deterministic campaign report (same seed in, \
                 byte-identical JSON out) to FILE")

let campaign_checkpoints =
  Arg.(value & opt int Hb_fault.Campaign.default.Hb_fault.Campaign.checkpoints
       & info [ "campaign-checkpoints" ] ~docv:"K"
           ~doc:"Golden-divergence checkpoints per run (0 or more)")

let policy_conv =
  let parse s =
    match Policy.of_name s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown violation policy %S (have: %s)" s
                 Policy.known))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Policy.name p))

let on_violation =
  Arg.(value & opt policy_conv Policy.Abort
       & info [ "on-violation" ] ~docv:"POLICY"
           ~doc:"What a bounds-violation trap does: abort (stop, the \
                 default) | report (log it, retire the access unchecked) \
                 | null-guard (squash it: loads read 0, stores drop) | \
                 rollback (restore the latest checkpoint and re-execute \
                 with the access suppressed)")

let violation_budget =
  Arg.(value & opt int Policy.default.Policy.violation_budget
       & info [ "violation-budget" ] ~docv:"N"
           ~doc:"Traps a continuing --on-violation policy may absorb \
                 before the run aborts anyway")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Write a crash-resilient campaign journal to FILE (one \
                 fsync'd JSON record per completed run); an interrupted \
                 campaign resumes from it with --resume")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume an interrupted campaign from its journal, \
                 executing only the runs it never recorded; give the same \
                 workload and campaign flags as the original invocation \
                 (the journal header is checked).  The final report is \
                 byte-identical to an uninterrupted campaign's")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Wall-clock budget: campaigns stop between runs and \
                 report the completed (resumable) prefix; single runs \
                 stop at the next instruction boundary with a partial \
                 report")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Partition the campaign plan across N forked worker \
                 processes (one crash-resilient journal shard each, at \
                 FILE.shardK when --journal/--resume give a FILE), \
                 supervised with a heartbeat watchdog; a worker that \
                 crashes or hangs is respawned up to 3 times, then the \
                 parent runs its slice inline.  The merged report is \
                 byte-identical to the serial run's; a resume must use \
                 the same N")

let serve_conv =
  let parse s =
    match Serve.parse_port s with
    | p -> Ok p
    | exception Hb_error.Hb_error (ctx, msg) ->
      Error (`Msg (Hb_error.to_string (ctx, msg)))
  in
  Arg.conv (parse, Format.pp_print_int)

let serve_arg =
  Arg.(value & opt (some serve_conv) None
       & info [ "serve" ] ~docv:"PORT"
           ~doc:"Serve a live status endpoint on 127.0.0.1:PORT for the \
                 duration of the run: GET /metrics (OpenMetrics \
                 exposition, hb_host_* gauges included), GET /progress \
                 (live campaign JSON) and GET /healthz.  Read-only: \
                 reports and journals stay byte-identical")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Print a live one-line campaign progress ticker \
                 (injection index, outcome tally, ETA) to stderr")

let fleet_arg =
  Arg.(value & flag
       & info [ "fleet" ]
           ~doc:"With --jobs N: every shard worker appends crash-tolerant \
                 telemetry snapshots (metrics dump, span tree, GC deltas, \
                 per-injection wall latencies) to a sidecar next to its \
                 journal shard, and the live endpoints serve the \
                 aggregated fleet view (worker-labeled hb_fleet_* series \
                 plus rollups on /metrics, a per-worker block on \
                 /progress).  Read-only: reports and journals stay \
                 byte-identical")

let fleet_chrome_arg =
  Arg.(value & opt (some string) None
       & info [ "fleet-chrome" ] ~docv:"FILE"
           ~doc:"With --jobs N: write one unified Chrome trace to FILE \
                 after the campaign — supervisor and worker tracks keyed \
                 by pid, with instant events for respawns, watchdog \
                 SIGKILLs and shard adoptions.  Implies --fleet")

let host_spans_arg =
  Arg.(value & opt (some string) None
       & info [ "host-spans" ] ~docv:"FILE"
           ~doc:"Write the hierarchical host wall-clock span profile \
                 (per-phase wall time, GC deltas, RSS checkpoints, \
                 simulated-throughput annotations) to FILE as JSON")

let host_chrome_arg =
  Arg.(value & opt (some string) None
       & info [ "host-chrome" ] ~docv:"FILE"
           ~doc:"Write the host span profile as a Chrome trace_event \
                 array to FILE (chrome://tracing / Perfetto)")

(* ---------------------------------------------------------------- *)
(* Daemon mode: hardbound_run --daemon PORT --queue-dir DIR          *)

let daemon_arg =
  Arg.(value & opt (some serve_conv) None
       & info [ "daemon" ] ~docv:"PORT"
           ~doc:"Run as a persistent simulation service on 127.0.0.1:PORT \
                 instead of a one-shot run: POST /jobs accepts campaign \
                 specs (see hb_client), acknowledged jobs are journaled \
                 under --queue-dir and survive a daemon crash, and the \
                 usual /metrics and /progress endpoints stay live.  A job \
                 gets 300 s unless its spec sets deadline_s, its worker is \
                 SIGKILLed 5 s past that, and it is poisoned after 3 failed \
                 attempts.  Job reports are byte-identical to the serial \
                 CLI's")

let queue_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "queue-dir" ] ~docv:"DIR"
           ~doc:"Daemon queue root: the fsync'd queue journal plus one \
                 jN/ artifact directory per job (required with --daemon)")

let daemon_workers_arg =
  Arg.(value & opt int 2
       & info [ "daemon-workers" ] ~docv:"N"
           ~doc:"Concurrent forked job workers (--daemon)")

let max_queued_arg =
  Arg.(value & opt int 64
       & info [ "max-queued" ] ~docv:"N"
           ~doc:"Admission bound on jobs queued or running; beyond it \
                 submissions get a typed 503 overloaded response with a \
                 Retry-After hint (--daemon)")

let max_per_tenant_arg =
  Arg.(value & opt int 32
       & info [ "max-per-tenant" ] ~docv:"N"
           ~doc:"Per-tenant fairness quota on jobs queued or running \
                 (--daemon)")

let mem_soft_kb_arg =
  Arg.(value & opt int 0
       & info [ "mem-soft-kb" ] ~docv:"KB"
           ~doc:"Shrink the worker pool when the daemon's resident set \
                 reaches KB; 0 disables (--daemon)")

let mem_hard_kb_arg =
  Arg.(value & opt int 0
       & info [ "mem-hard-kb" ] ~docv:"KB"
           ~doc:"Refuse new work when the daemon's resident set reaches \
                 KB; 0 disables (--daemon)")

let run_daemon ~port ~queue_dir ~workers ~max_queued ~max_per_tenant
    ~mem_soft_kb ~mem_hard_kb =
  let dir =
    match queue_dir with
    | Some d -> d
    | None ->
      Printf.eprintf "error: --daemon needs --queue-dir DIR (the queue \
                      journal is the crash-recovery source of truth)\n";
      exit 2
  in
  let admission =
    { (Admission.default ~workers) with
      Admission.max_queued; max_per_tenant; mem_soft_kb; mem_hard_kb }
  in
  let cfg =
    { (Daemon.default ~port ~dir) with
      Daemon.admission;
      log = Some (fun s -> Printf.eprintf "%s\n%!" s) }
  in
  Daemon.run cfg;
  0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Write [s] to [path], closing the channel even when the write raises
   (partial files on a full disk still get their descriptor back). *)
let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Attach the requested tracer to a freshly-created machine.  Returns the
   finalizer that flushes/closes the trace sink. *)
let setup_obs m ~trace_file ~trace_format ~trace_events ~trace_retires =
  let capacity = if trace_events > 0 then trace_events else 32 in
  match trace_file with
  | Some path ->
    let sink = Trace.file_sink trace_format path in
    Machine.attach_tracer m
      (Trace.create ~sink:sink.Trace.write ~retires:trace_retires ~capacity ());
    sink.Trace.close
  | None ->
    if trace_events > 0 || trace_retires then
      Machine.attach_tracer m (Trace.create ~retires:trace_retires ~capacity ());
    fun () -> ()

(* The machine's metrics registry, plus the per-function [profile.*]
   series when [--profile] asked for them (attribution alone exports
   none).  Every registry the run publishes is built here. *)
let machine_metrics m ~profile =
  let reg = Machine.metrics m in
  (match Machine.attr m with
   | Some a when profile -> Attr.export_profile a reg
   | _ -> ());
  reg

(* Everything printed after the run: status, violation report, stats,
   profile, attribution, metrics snapshots.  [machine_metrics] builds a
   fresh registry per call, so supervisor counters (hb.traps_total &c.)
   arrive via [extra_metrics], applied to each registry being dumped. *)
let report m status ~label ~mode ~scheme ~stats ~stats_format ~profile
    ~attr_show ~attr_json ~attr_top ~timeline_show ~metrics_json
    ~metrics_prom ~flame_show ~flame_folded ~flame_chrome ~heatmap_show
    ~heatmap_json ?(extra_metrics = fun (_ : Metrics.t) -> ()) () =
  print_string (Machine.output m);
  Printf.printf "\n[%s] (mode=%s, encoding=%s)\n"
    (Machine.status_name status) (Codegen.mode_name mode)
    (Encoding.scheme_name scheme);
  (match Machine.violation_report m with
   | Some r -> print_string r
   | None -> ());
  if stats then
    (match stats_format with
     | `Text -> print_endline (Stats.to_string m.Machine.stats)
     | `Json -> print_endline (Json.to_string_pretty (Stats.to_json m.Machine.stats)));
  (match Machine.attr m with
   | Some a when profile -> print_string (Attr.function_table a)
   | _ -> ());
  (* Per-PC attribution: table, dump, and the accounting identity — the
     per-PC sums must equal the global counters or the instrumentation
     itself is lying. *)
  let attr_leak =
    match Machine.attr m with
    | None -> None
    | Some a ->
      if attr_show then print_string (Attr.to_table ~top:attr_top a);
      (match attr_json with
       | None -> ()
       | Some path ->
         let meta =
           [
             ("label", Json.String label);
             ("mode", Json.String (Codegen.mode_name mode));
             ("scheme", Json.String (Encoding.scheme_name scheme));
             ("status", Json.String (Machine.status_name status));
           ]
         in
         write_file path
           (Json.to_string_pretty (Attr.to_json ~meta a) ^ "\n"));
      (match Attr.check a ~expect:(Stats.fields m.Machine.stats) with
       | Ok () -> None
       | Error msg -> Some msg)
  in
  (* Timeline: flush the final partial window, print the phase report,
     and enforce the same accounting identity the per-PC attribution
     enjoys — the window deltas must sum to the global totals. *)
  let timeline_leak =
    match Machine.timeline m with
    | None -> None
    | Some tl ->
      Machine.timeline_flush m;
      if timeline_show then print_string (Timeline.report tl);
      (match Timeline.check tl ~expect:(Machine.timeline_fields m) with
       | Ok () -> None
       | Error msg -> Some msg)
  in
  (* Calling-context profile: table, folded stacks, speedscope dump, the
     address-space heat map — and the exclusive-sum identity, enforced
     exactly like the attribution and timeline planes'. *)
  let flame_leak =
    match Machine.flame m with
    | None -> None
    | Some cct ->
      if flame_show then print_string (Hb_obs.Flame.report ~top:attr_top cct);
      (match flame_folded with
       | None -> ()
       | Some path -> write_file path (Hb_obs.Flame.folded cct));
      (match flame_chrome with
       | None -> ()
       | Some path ->
         write_file path
           (Json.to_string_pretty (Hb_obs.Flame.speedscope ~name:label cct)
            ^ "\n"));
      let rows = Machine.heat_rows m in
      if heatmap_show then print_string (Hb_obs.Flame.heatmap_render rows);
      (match heatmap_json with
       | None -> ()
       | Some path ->
         let meta =
           [
             ("label", Json.String label);
             ("mode", Json.String (Codegen.mode_name mode));
             ("scheme", Json.String (Encoding.scheme_name scheme));
           ]
         in
         write_file path
           (Json.to_string_pretty
              (Hb_obs.Flame.heatmap_json ~meta
                 ~page_size:Hb_mem.Layout.page_size rows)
            ^ "\n"));
      (match Hb_obs.Flame.check cct ~expect:(Stats.fields m.Machine.stats) with
       | Ok () -> None
       | Error msg -> Some msg)
  in
  let registry () =
    let reg = machine_metrics m ~profile in
    extra_metrics reg;
    reg
  in
  (match metrics_json with
   | None -> ()
   | Some path ->
     write_file path
       (Json.to_string_pretty (Metrics.snapshot (registry ())) ^ "\n"));
  (match metrics_prom with
   | None -> ()
   | Some path -> write_file path (Metrics.to_prometheus (registry ())));
  let code = match status with Machine.Exited n -> n | _ -> 42 in
  match (attr_leak, timeline_leak, flame_leak) with
  | None, None, None -> code
  | _ ->
    List.iter
      (function
        | Some msg -> Printf.eprintf "error: %s\n" msg
        | None -> ())
      [ attr_leak; timeline_leak; flame_leak ];
    if code = 0 then 3 else code

(* The host observability plane, wrapped around a whole invocation: the
   ambient span profiler (when a sink or the status endpoint wants it),
   the live HTTP endpoint, and the stderr ticker.  Everything here is a
   read-only side channel — the simulated artifacts cannot see it — and
   every piece is torn down through Fun.protect even when the run dies
   with Hb_error.  [live_reg] lets the single-run path publish the
   machine's own registry to /metrics once a machine exists. *)
let with_host_plane ~serve_port ~tick ~host_spans ~host_chrome ~fleet_on
    ~(pr : Progress.t) ~(live_reg : (unit -> Metrics.t) option ref) f =
  let want_profiler =
    host_spans <> None || host_chrome <> None || serve_port <> None
    (* the unified fleet trace wants a supervisor track even when no
       host sink was asked for *)
    || fleet_on
  in
  let prof = if want_profiler then Some (Host.install ()) else None in
  let server =
    match serve_port with
    | None -> None
    | Some port ->
      let metrics () =
        let reg =
          match !live_reg with Some mk -> mk () | None -> Metrics.create ()
        in
        Progress.export pr reg;
        Host.export_live reg;
        (* aggregated fleet view: worker-labeled series from the
           telemetry sidecars, once a sharded campaign installs the
           collector (a no-op before/without one) *)
        Fleet.export_live reg;
        Metrics.to_prometheus reg
      in
      let progress_json () =
        match (Progress.to_json pr, Fleet.live_json ()) with
        | Json.Obj fields, Some fleet ->
          Json.Obj (fields @ [ ("fleet", fleet) ])
        | j, _ -> j
      in
      let s = Serve.start ~port ~metrics ~progress:progress_json () in
      Printf.eprintf
        "serving /metrics /progress /healthz on http://127.0.0.1:%d\n%!"
        (Serve.port s);
      Some s
  in
  let stop_tick = if tick then Some (Progress.ticker pr) else None in
  Fun.protect
    ~finally:(fun () ->
      (match stop_tick with Some stop -> stop () | None -> ());
      (match server with Some s -> Serve.stop s | None -> ());
      match prof with
      | None -> ()
      | Some t ->
        Host.finish t;
        (match Host.check t with
         | Ok () -> ()
         | Error msg ->
           Printf.eprintf "host profile accounting: %s\n" msg);
        (match host_spans with
         | Some path -> Host.write_json path t
         | None -> ());
        (match host_chrome with
         | Some path -> Host.write_chrome path t
         | None -> ());
        Host.uninstall ())
    f

(* Fault-injection entry points: campaign mode (N single-fault runs
   classified against a golden reference) and stochastic single-run mode.
   Both need a machine *factory* rather than one machine; when --trace is
   given, every machine streams into the same sink. *)
let run_fault ~mk_plain ~label ~inject ~campaign ~campaign_json
    ~campaign_checkpoints ~policy ~violation_budget ~journal ~resume
    ~deadline ~jobs ~fleet ~trace_file ~trace_format ~trace_retires
    ~metrics_json ~progress ~flame_folded =
  let module Campaign = Hb_fault.Campaign in
  let module Injector = Hb_fault.Injector in
  let want_flame = flame_folded <> None in
  if want_flame && jobs > 1 then begin
    Printf.eprintf
      "error: --flame-folded aggregates in-process and cannot cross \
       --jobs worker forks; run the campaign with --jobs 1\n";
    exit 2
  end;
  if want_flame && campaign = 0 then begin
    Printf.eprintf
      "error: --flame-folded with --inject needs --campaign N (stochastic \
       single runs have no outcome buckets to aggregate)\n";
    exit 2
  end;
  let sink = ref None in
  let mk () =
    let m = mk_plain () in
    if want_flame then Machine.enable_flame m;
    (match trace_file with
     | None -> ()
     | Some path ->
       let s =
         match !sink with
         | Some s -> s
         | None ->
           let s = Trace.file_sink trace_format path in
           sink := Some s;
           s
       in
       Machine.attach_tracer m
         (Trace.create ~sink:s.Trace.write ~retires:trace_retires
            ~capacity:64 ()));
    m
  in
  let body () =
    if campaign > 0 then begin
    (* Graceful SIGTERM/SIGINT: the campaign loop polls the flag at its
       run boundaries and winds down through the deadline-partial path,
       so the journal is fsync'd/closed and the report below is a
       well-formed resumable partial. *)
    Interrupt.install ();
    let spec =
      match inject with
      | Some s -> s
      | None ->
        { Injector.sites = Injector.all_sites; rate = 0.;
          seed = Campaign.default.Campaign.seed }
    in
    let cfg =
      { Campaign.default with
        Campaign.label;
        runs = campaign;
        seed = spec.Injector.seed;
        sites = spec.Injector.sites;
        checkpoints = campaign_checkpoints;
        policy;
        violation_budget }
    in
    (* Per-outcome folded-stack aggregation: each fresh run's
       calling-context tree folds into its outcome's bucket (then resets
       for the next run, which restores over the same machine), so one
       campaign yields one flamegraph per outcome.  The observe hook is
       read-only — report and journal stay byte-identical with and
       without it (CI cmp-enforces this). *)
    let flame_buckets : (string, (string, int) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 8
    in
    let observe =
      if not want_flame then None
      else
        Some
          (fun (r : Campaign.record) (m : Machine.t) ->
            match Machine.flame m with
            | None -> ()
            | Some cct ->
              let bucket_name = Hb_fault.Outcome.name r.Campaign.outcome in
              let bucket =
                match Hashtbl.find_opt flame_buckets bucket_name with
                | Some b -> b
                | None ->
                  let b = Hashtbl.create 64 in
                  Hashtbl.replace flame_buckets bucket_name b;
                  b
              in
              List.iter
                (fun (stack, cycles) ->
                  let prev =
                    match Hashtbl.find_opt bucket stack with
                    | Some n -> n
                    | None -> 0
                  in
                  Hashtbl.replace bucket stack (prev + cycles))
                (Hb_obs.Flame.folded_lines cct);
              Hb_obs.Flame.reset cct)
    in
    let report =
      if jobs > 1 then
        (* sharded: fork [jobs] workers, one journal shard each,
           supervised; the merged report is byte-identical to serial *)
        let scfg =
          { Hb_shard.Supervisor.default with
            Hb_shard.Supervisor.jobs;
            log = Some (fun s -> Printf.eprintf "%s\n%!" s) }
        in
        Hb_shard.Shard.run ?journal ?resume
          ~deadline:(Deadline.of_secs deadline) ~progress ~cfg:scfg ~fleet
          ~mk cfg
      else
        Campaign.run ?journal ?resume ~deadline:(Deadline.of_secs deadline)
          ~progress ?observe ~mk cfg
    in
    (match flame_folded with
     | None -> ()
     | Some path ->
       (* outcome bucket as the root frame: 'detected;main;f;g 123' —
          sorted, so the file is byte-identical for identical campaigns *)
       let lines =
         List.sort compare
           (Hashtbl.fold
              (fun outcome bucket acc ->
                Hashtbl.fold
                  (fun stack cycles acc ->
                    (outcome ^ ";" ^ stack, cycles) :: acc)
                  bucket acc)
              flame_buckets [])
       in
       let b = Buffer.create 1024 in
       List.iter
         (fun (stack, cycles) -> Printf.bprintf b "%s %d\n" stack cycles)
         lines;
       write_file path (Buffer.contents b));
    Printf.printf
      "campaign %s: %d runs, seed %d, golden %s (%d instrs, %d output \
       bytes)\n\n"
      label campaign cfg.Campaign.seed report.Campaign.golden_status
      report.Campaign.golden_instrs report.Campaign.golden_output_bytes;
    print_string (Campaign.coverage_table report);
    let interrupted =
      Interrupt.requested () && report.Campaign.deadline_expired
    in
    let resume_hint =
      match (journal, resume) with
      | Some p, _ | _, Some p -> Printf.sprintf " (resume with --resume %s)" p
      | None, None -> ""
    in
    if interrupted then
      Printf.printf "interrupted by %s: %d of %d runs completed%s\n"
        (Interrupt.signal_name ())
        (List.length report.Campaign.records)
        cfg.Campaign.runs resume_hint
    else if report.Campaign.deadline_expired then
      Printf.printf "deadline expired: %d of %d runs completed%s\n"
        (List.length report.Campaign.records)
        cfg.Campaign.runs resume_hint;
    (match campaign_json with
     | None -> ()
     | Some path ->
       write_file path
         (Json.to_string_pretty (Campaign.to_json report) ^ "\n"));
    (match metrics_json with
     | None -> ()
     | Some path ->
       let reg = Metrics.create () in
       Campaign.export_metrics report reg;
       write_file path (Json.to_string_pretty (Metrics.snapshot reg) ^ "\n"));
    if interrupted then Interrupt.exit_code else 0
  end
  else begin
    let spec = Option.get inject in
    let s = Campaign.stochastic_run ~mk spec in
    List.iter
      (fun (at, i) ->
        Printf.printf "injected @%-10d %s\n" at (Injector.describe i))
      s.Campaign.injections;
    Printf.printf "%d injections over %d instrs: %s (%s)\n"
      (List.length s.Campaign.injections)
      s.Campaign.s_instrs
      (Hb_fault.Outcome.name s.Campaign.s_outcome)
      s.Campaign.s_status;
    0
  end
  in
  (* Close the trace sink (Chrome traces need their closing bracket) even
     when a run aborts through [Hb_error]. *)
  Fun.protect
    ~finally:(fun () ->
      match !sink with Some s -> s.Trace.close () | None -> ())
    body

let run file workload mode scheme temporal stats stats_format asm fuel
    trace_file trace_format trace_events trace_retires profile
    metrics_json metrics_prom attr_flag attr_json attr_top
    timeline_flag timeline_jsonl timeline_csv sample_interval
    flame_flag flame_folded flame_chrome heatmap_flag heatmap_json diff_pair
    inject campaign campaign_json campaign_checkpoints policy
    violation_budget journal resume deadline jobs fleet_flag fleet_chrome
    serve_port progress_flag host_spans host_chrome daemon_port queue_dir
    daemon_workers max_queued max_per_tenant mem_soft_kb mem_hard_kb =
  try
    match daemon_port with
    | Some port ->
      run_daemon ~port ~queue_dir ~workers:daemon_workers ~max_queued
        ~max_per_tenant ~mem_soft_kb ~mem_hard_kb
    | None ->
    match diff_pair with
    | Some (a_path, b_path) ->
      (* Standalone differential report: no program runs. *)
      let r = Diff.diff (Diff.load a_path) (Diff.load b_path) in
      print_string (Diff.to_table ~top:attr_top r);
      0
    | None ->
    let pr = Progress.create () in
    let live_reg : (unit -> Metrics.t) option ref = ref None in
    let fleet =
      { Fleet.sidecars = fleet_flag || fleet_chrome <> None;
        chrome = fleet_chrome }
    in
    with_host_plane ~serve_port ~tick:progress_flag ~host_spans
      ~host_chrome ~fleet_on:(Fleet.active fleet) ~pr ~live_reg
    @@ fun () ->
    let want_attr = profile || attr_flag || attr_json <> None in
    let source, label, asm =
      match (file, workload) with
      | Some _, Some _ ->
        Printf.eprintf "error: give either FILE or --workload, not both\n";
        exit 2
      | None, None ->
        Printf.eprintf "error: need a FILE argument or --workload NAME\n";
        exit 2
      | Some f, None -> (read_file f, Filename.basename f, asm)
      | None, Some w ->
        ((Hb_workloads.Workloads.find w).Hb_workloads.Workloads.source, w,
         false)
    in
    let config =
      Hb_runtime.Build.config_for ~scheme ~temporal ~max_instrs:fuel mode
    in
    let image, globals, line_base =
      if asm then
        (Hb_isa.Program.link (Hb_isa.Parser.parse_program source), "", 0)
      else
        Host.span "compile" @@ fun () ->
        let image, globals = Hb_runtime.Build.compile ~mode source in
        (image, globals, Hb_runtime.Build.runtime_lines)
    in
    Hardbound.Checker.reset_tally ();
    if resume <> None && campaign <= 0 then begin
      Printf.eprintf
        "error: --resume needs the original campaign flags (at least \
         --campaign N) so the journal header can be checked\n";
      exit 2
    end;
    if jobs > 1 && campaign <= 0 then begin
      Printf.eprintf "error: --jobs needs a campaign (--campaign N)\n";
      exit 2
    end;
    if jobs > 1 && trace_file <> None then begin
      Printf.eprintf
        "error: --trace is not supported with --jobs > 1 (forked \
         workers would interleave writes into one sink)\n";
      exit 2
    end;
    if Fleet.active fleet && jobs <= 1 then begin
      Printf.eprintf
        "error: --fleet/--fleet-chrome need a sharded campaign \
         (--jobs N with N > 1); the single-process plane is \
         --host-spans/--host-chrome/--serve\n";
      exit 2
    end;
    if campaign > 0 || inject <> None then begin
      if
        flame_flag || flame_chrome <> None || heatmap_flag
        || heatmap_json <> None
      then begin
        Printf.eprintf
          "error: fault campaigns support --flame-folded only (one \
           aggregated flamegraph per outcome bucket); --flame, \
           --flame-chrome and the heat map are single-run reports\n";
        exit 2
      end;
      run_fault
        ~mk_plain:(fun () -> Machine.create ~config ~globals image)
        ~label ~inject ~campaign ~campaign_json ~campaign_checkpoints
        ~policy ~violation_budget ~journal ~resume ~deadline ~jobs ~fleet
        ~trace_file ~trace_format ~trace_retires ~metrics_json ~progress:pr
        ~flame_folded
    end
    else begin
    let m = Machine.create ~config ~globals image in
    (* publish this machine to the live endpoint: /metrics scrapes its
       registry, /progress reads its instruction/cycle counters *)
    live_reg := Some (fun () -> machine_metrics m ~profile);
    Progress.set_poll pr (fun () ->
        let s = m.Machine.stats in
        (s.Stats.instructions, Stats.cycles s));
    let close_trace =
      setup_obs m ~trace_file ~trace_format ~trace_events ~trace_retires
    in
    if want_attr then Machine.enable_attr ~line_base m;
    let want_flame =
      flame_flag || flame_folded <> None || flame_chrome <> None
      || heatmap_flag || heatmap_json <> None
    in
    if want_flame then Machine.enable_flame m;
    let want_timeline =
      timeline_flag || timeline_jsonl <> None || timeline_csv <> None
    in
    if want_timeline then begin
      Machine.enable_timeline ~interval:sample_interval m;
      match Machine.timeline m with
      | None -> ()
      | Some tl ->
        (match timeline_jsonl with
         | Some path -> Timeline.add_sink tl (Timeline.jsonl_sink path)
         | None -> ());
        (match timeline_csv with
         | Some path -> Timeline.add_sink tl (Timeline.csv_sink path)
         | None -> ())
    end;
    (* The trace sink must be closed (Chrome traces need their closing
       bracket) even when the run dies with Hb_error / Sys_error — and
       the timeline's JSONL/CSV writers get the same guarantee. *)
    let finalize () =
      close_trace ();
      match Machine.timeline m with
      | Some tl -> Timeline.close_sinks tl
      | None -> ()
    in
    Fun.protect ~finally:finalize (fun () ->
        let supervisor = ref (fun (_ : Metrics.t) -> ()) in
        let status =
          Host.span "run" @@ fun () ->
          let st =
          (* a non-abort policy (or a wall-clock budget) routes the run
             through the trap supervisor; it is bit-identical to
             [Machine.run] until a trap fires or the deadline hits *)
          if policy <> Policy.Abort || deadline <> None then begin
            let rcfg =
              { Policy.default with Policy.policy; violation_budget }
            in
            let o =
              Recover.run ~deadline:(Deadline.of_secs deadline) ~line_base
                ~config:rcfg m
            in
            List.iter
              (fun h ->
                Printf.printf "trap: %s\n" (Recover.describe_handled h))
              o.Recover.traps;
            if o.Recover.traps <> [] || o.Recover.deadline_expired then
              print_endline (Recover.summary o);
            supervisor := Recover.export_metrics o;
            o.Recover.status
          end
          else Machine.run m
          in
          let s = m.Machine.stats in
          Host.annotate_live "instrs" s.Stats.instructions;
          Host.annotate_live "cycles" (Stats.cycles s);
          st
        in
        report m status ~label ~mode ~scheme ~stats ~stats_format ~profile
          ~attr_show:attr_flag ~attr_json ~attr_top
          ~timeline_show:timeline_flag ~metrics_json ~metrics_prom
          ~flame_show:flame_flag ~flame_folded ~flame_chrome
          ~heatmap_show:heatmap_flag ~heatmap_json
          ~extra_metrics:(fun reg -> !supervisor reg) ())
    end
  with
  | Hb_minic.Driver.Compile_error msg ->
    Printf.eprintf "compile error: %s\n" msg;
    1
  | Hb_isa.Parser.Parse_error (line, msg) ->
    Printf.eprintf "assembly parse error at line %d: %s\n" line msg;
    1
  | Hb_error.Hb_error (ctx, msg) ->
    (* typed simulator error: unknown workload, bad address, campaign
       preconditions, ... — rendered with its pc/instr/addr context *)
    Printf.eprintf "error: %s\n" (Hb_error.to_string (ctx, msg));
    1
  | Json.Parse_error msg ->
    (* --diff fed something that is not an attribution dump *)
    Printf.eprintf "error: %s\n" msg;
    1
  | Sys_error msg ->
    (* unreadable input, unwritable --trace / --metrics-json path, ... *)
    Printf.eprintf "error: %s\n" msg;
    1

let cmd =
  let doc = "compile and run a program on the simulated HardBound machine" in
  Cmd.v
    (Cmd.info "hardbound_run" ~doc)
    Term.(const run $ file $ workload $ mode $ scheme $ temporal $ stats
          $ stats_format $ asm $ fuel $ trace_file $ trace_format
          $ trace_events $ trace_retires $ profile
          $ metrics_json $ metrics_prom $ attr_flag $ attr_json $ attr_top
          $ timeline_flag $ timeline_jsonl $ timeline_csv $ sample_interval
          $ flame_flag $ flame_folded $ flame_chrome $ heatmap_flag
          $ heatmap_json $ diff_arg $ inject $ campaign $ campaign_json
          $ campaign_checkpoints $ on_violation $ violation_budget
          $ journal_arg $ resume_arg $ deadline_arg $ jobs_arg $ fleet_arg
          $ fleet_chrome_arg $ serve_arg $ progress_arg $ host_spans_arg
          $ host_chrome_arg
          $ daemon_arg $ queue_dir_arg $ daemon_workers_arg $ max_queued_arg
          $ max_per_tenant_arg $ mem_soft_kb_arg $ mem_hard_kb_arg)

let () = exit (Cmd.eval' cmd)
