(* Run a named Olden benchmark under a chosen protection scheme and print
   its output plus the measurement record the figures are built from.

     dune exec bin/olden.exe -- list
     dune exec bin/olden.exe -- treeadd
     dune exec bin/olden.exe -- em3d --mode softfat
     dune exec bin/olden.exe -- bh --scheme intern-11 *)

module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Encoding = Hardbound.Encoding
module Run = Hb_harness.Run
module Policy = Hb_recover.Policy
module Recover = Hb_recover.Recover
module Host = Hb_obs.Host
module Attr = Hb_obs.Attr
module Flame = Hb_obs.Flame
module Layout = Hb_mem.Layout
module Physmem = Hb_mem.Physmem

let usage () =
  prerr_endline
    "usage: olden <name|list> [--mode MODE] [--scheme ENC]\n\
     \             [--on-violation POLICY] [--violation-budget N]\n\
     \             [--host-spans FILE] [--host-chrome FILE]\n\
     \             [--campaign N] [--seed S] [--jobs J]\n\
     \             [--max-worker-restarts K] [--journal FILE]\n\
     \             [--resume FILE] [--campaign-json FILE]\n\
     \             [--fleet] [--fleet-chrome FILE]\n\
     \             [--attr] [--attr-top N]\n\
     \             [--flame] [--flame-folded FILE] [--flame-chrome FILE]\n\
     \             [--heatmap] [--heatmap-json FILE]\n\
     modes: nochecks hardbound malloc-only softfat objtable\n\
     encodings: uncompressed extern-4 intern-4 intern-11\n\
     policies: abort report null-guard rollback";
  exit 1

(* host span profile sinks, parsed alongside the benchmark flags *)
let spans_file = ref None
let chrome_file = ref None

(* fault-campaign mode: N single-injection runs against the golden
   reference, optionally sharded across forked workers *)
let campaign_runs = ref 0
let campaign_seed = ref Hb_fault.Campaign.default.Hb_fault.Campaign.seed
let jobs = ref 1
let max_worker_restarts =
  ref Hb_shard.Supervisor.default.Hb_shard.Supervisor.max_worker_restarts
let journal_file = ref None
let resume_file = ref None
let campaign_json = ref None

(* fleet telemetry plane for sharded campaigns: worker sidecars plus an
   optional post-run unified Chrome trace *)
let fleet_flag = ref false
let fleet_chrome = ref None

(* per-run observability: per-PC attribution and the calling-context
   (flame) profiler with its artifact sinks *)
let attr_flag = ref false
let attr_top = ref 10
let flame_flag = ref false
let flame_folded = ref None
let flame_chrome = ref None
let heatmap_flag = ref false
let heatmap_json = ref None

let want_obs () =
  !attr_flag || !flame_flag || !flame_folded <> None || !flame_chrome <> None
  || !heatmap_flag || !heatmap_json <> None

let want_flame () =
  !flame_flag || !flame_folded <> None || !flame_chrome <> None
  || !heatmap_flag || !heatmap_json <> None

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let enable_obs m =
  if !attr_flag then
    Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
  if want_flame () then Machine.enable_flame m

(* Post-run observability report: attribution table, flame report and
   artifact sinks, heat map — plus their accounting identities (per-PC
   sums and per-context exclusive sums must both equal the global
   counters).  Returns true when an identity leaked so the caller can
   exit non-zero, exactly like hardbound_run. *)
let obs_report ~label m =
  let leaked = ref false in
  let complain = function
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      leaked := true
  in
  (match Machine.attr m with
   | None -> ()
   | Some a ->
     if !attr_flag then print_string (Attr.to_table ~top:!attr_top a);
     complain (Attr.check a ~expect:(Stats.fields m.Machine.stats)));
  (match Machine.flame m with
   | None -> ()
   | Some cct ->
     if !flame_flag then print_string (Flame.report ~top:!attr_top cct);
     (match !flame_folded with
      | Some p -> write_file p (Flame.folded cct)
      | None -> ());
     (match !flame_chrome with
      | Some p ->
        write_file p
          (Hb_obs.Json.to_string_pretty (Flame.speedscope ~name:label cct)
           ^ "\n")
      | None -> ());
     let rows = Machine.heat_rows m in
     if !heatmap_flag then print_string (Flame.heatmap_render rows);
     (match !heatmap_json with
      | Some p ->
        write_file p
          (Hb_obs.Json.to_string_pretty
             (Flame.heatmap_json
                ~meta:[ ("label", Hb_obs.Json.String label) ]
                ~page_size:Layout.page_size rows)
           ^ "\n")
      | None -> ());
     complain (Flame.check cct ~expect:(Stats.fields m.Machine.stats)));
  !leaked

let main () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse name mode scheme policy budget = function
    | [] -> (name, mode, scheme, policy, budget)
    | "--mode" :: m :: rest -> (
      match Codegen.mode_of_name m with
      | Some mode -> parse name mode scheme policy budget rest
      | None -> usage ())
    | "--scheme" :: s :: rest -> (
      match Encoding.scheme_of_name s with
      | Some sc -> parse name mode sc policy budget rest
      | None -> usage ())
    | "--on-violation" :: p :: rest -> (
      match Policy.of_name p with
      | Some pol -> parse name mode scheme pol budget rest
      | None -> usage ())
    | "--violation-budget" :: n :: rest -> (
      match int_of_string_opt n with
      | Some b when b >= 0 -> parse name mode scheme policy b rest
      | _ -> usage ())
    | "--host-spans" :: f :: rest ->
      spans_file := Some f;
      parse name mode scheme policy budget rest
    | "--host-chrome" :: f :: rest ->
      chrome_file := Some f;
      parse name mode scheme policy budget rest
    | "--campaign" :: n :: rest -> (
      match int_of_string_opt n with
      | Some r when r > 0 ->
        campaign_runs := r;
        parse name mode scheme policy budget rest
      | _ -> usage ())
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some s ->
        campaign_seed := s;
        parse name mode scheme policy budget rest
      | None -> usage ())
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        parse name mode scheme policy budget rest
      | _ -> usage ())
    | "--max-worker-restarts" :: n :: rest -> (
      match int_of_string_opt n with
      | Some k when k >= 0 ->
        max_worker_restarts := k;
        parse name mode scheme policy budget rest
      | _ -> usage ())
    | "--journal" :: f :: rest ->
      journal_file := Some f;
      parse name mode scheme policy budget rest
    | "--resume" :: f :: rest ->
      resume_file := Some f;
      parse name mode scheme policy budget rest
    | "--campaign-json" :: f :: rest ->
      campaign_json := Some f;
      parse name mode scheme policy budget rest
    | "--fleet" :: rest ->
      fleet_flag := true;
      parse name mode scheme policy budget rest
    | "--fleet-chrome" :: f :: rest ->
      fleet_chrome := Some f;
      parse name mode scheme policy budget rest
    | "--attr" :: rest ->
      attr_flag := true;
      parse name mode scheme policy budget rest
    | "--attr-top" :: n :: rest ->
      (* shared validator: zero/negative is a typed error with a usage
         hint, same as hardbound_run's --attr-top *)
      attr_top :=
        (try Hb_obs.Attr.parse_top n
         with Hb_error.Hb_error (ctx, msg) ->
           Printf.eprintf "error: %s\n" (Hb_error.to_string (ctx, msg));
           exit 1);
      parse name mode scheme policy budget rest
    | "--flame" :: rest ->
      flame_flag := true;
      parse name mode scheme policy budget rest
    | "--flame-folded" :: f :: rest ->
      flame_folded := Some f;
      parse name mode scheme policy budget rest
    | "--flame-chrome" :: f :: rest ->
      flame_chrome := Some f;
      parse name mode scheme policy budget rest
    | "--heatmap" :: rest ->
      heatmap_flag := true;
      parse name mode scheme policy budget rest
    | "--heatmap-json" :: f :: rest ->
      heatmap_json := Some f;
      parse name mode scheme policy budget rest
    | n :: rest when name = None -> parse (Some n) mode scheme policy budget rest
    | _ -> usage ()
  in
  let name, mode, scheme, policy, budget =
    parse None Codegen.Hardbound Encoding.Extern4 Policy.Abort
      Policy.default.Policy.violation_budget args
  in
  let fleet =
    { Hb_obs.Fleet.sidecars = !fleet_flag || !fleet_chrome <> None;
      chrome = !fleet_chrome }
  in
  if Hb_obs.Fleet.active fleet && !jobs <= 1 then begin
    prerr_endline
      "error: --fleet/--fleet-chrome need a sharded campaign (--jobs J \
       with J > 1)";
    exit 1
  end;
  if
    !spans_file <> None || !chrome_file <> None
    (* the unified fleet trace wants a supervisor track *)
    || Hb_obs.Fleet.active fleet
  then begin
    let t = Host.install () in
    (* the supervised path leaves via [exit]; at_exit still dumps *)
    at_exit (fun () ->
        Host.finish t;
        (match Host.check t with
         | Ok () -> ()
         | Error msg -> Printf.eprintf "host profile accounting: %s\n" msg);
        (match !spans_file with Some p -> Host.write_json p t | None -> ());
        (match !chrome_file with
         | Some p -> Host.write_chrome p t
         | None -> ()))
  end;
  match name with
  | None -> usage ()
  | Some "list" ->
    List.iter
      (fun (w : Hb_workloads.Workloads.t) ->
        Printf.printf "%-10s %s\n" w.name w.description)
      Hb_workloads.Workloads.all
  | Some n ->
    let w =
      try Hb_workloads.Workloads.find n
      with Hb_error.Hb_error (ctx, msg) ->
        Printf.eprintf "error: %s\n" (Hb_error.to_string (ctx, msg));
        exit 1
    in
    if !campaign_runs > 0 && want_obs () then begin
      prerr_endline
        "error: --attr/--flame/--heatmap are single-run reports; for \
         campaign flamegraphs use hardbound_run --campaign with \
         --flame-folded";
      exit 1
    end;
    if !campaign_runs > 0 then begin
      (* fault-campaign mode: deterministic report, optionally sharded
         across forked supervised workers *)
      let module Campaign = Hb_fault.Campaign in
      let module Interrupt = Hb_recover.Interrupt in
      (* SIGTERM/SIGINT wind down through the deadline-partial path: the
         journal is closed well-formed and the report below is the
         completed, resumable prefix *)
      Interrupt.install ();
      let cfg =
        { Campaign.default with
          Campaign.runs = !campaign_runs;
          seed = !campaign_seed;
          policy;
          violation_budget = budget }
      in
      let report =
        try
          if !jobs > 1 then
            let shard_cfg =
              { Hb_shard.Supervisor.default with
                Hb_shard.Supervisor.jobs = !jobs;
                max_worker_restarts = !max_worker_restarts;
                log = Some (fun s -> Printf.eprintf "%s\n%!" s) }
            in
            Hb_harness.Resilience.sharded_campaign ~scheme ~mode
              ?journal:!journal_file ?resume:!resume_file ~shard_cfg ~fleet
              cfg n
          else
            Hb_harness.Resilience.campaign ~scheme ~mode
              ?journal:!journal_file ?resume:!resume_file cfg n
        with Hb_error.Hb_error (ctx, msg) ->
          Printf.eprintf "error: %s\n" (Hb_error.to_string (ctx, msg));
          exit 1
      in
      Printf.printf "campaign %s: %d runs, seed %d, jobs %d\n\n" n
        !campaign_runs !campaign_seed !jobs;
      print_string (Campaign.coverage_table report);
      let interrupted =
        Interrupt.requested () && report.Campaign.deadline_expired
      in
      if interrupted then
        Printf.printf "interrupted by %s: %d of %d runs completed%s\n"
          (Interrupt.signal_name ())
          (List.length report.Campaign.records)
          !campaign_runs
          (match (!journal_file, !resume_file) with
           | Some p, _ | _, Some p ->
             Printf.sprintf " (resume with --resume %s)" p
           | None, None -> "");
      (match !campaign_json with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc
          (Hb_obs.Json.to_string_pretty (Campaign.to_json report) ^ "\n");
        close_out oc);
      exit (if interrupted then Interrupt.exit_code else 0)
    end;
    if policy <> Policy.Abort then begin
      (* supervised run: traps route through the recovery policy instead
         of terminating the benchmark *)
      let image, globals =
        Host.span "compile" @@ fun () ->
        Hb_runtime.Build.compile ~mode w.source
      in
      let config = Hb_runtime.Build.config_for ~scheme mode in
      let m = Machine.create ~config ~globals image in
      enable_obs m;
      let rcfg =
        { Policy.default with Policy.policy; violation_budget = budget }
      in
      let o =
        Host.span "run" @@ fun () ->
        Recover.run ~line_base:Hb_runtime.Build.runtime_lines ~config:rcfg m
      in
      print_string (Machine.output m);
      List.iter
        (fun h -> Printf.printf "trap: %s\n" (Recover.describe_handled h))
        o.Recover.traps;
      print_endline (Recover.summary o);
      Printf.printf "mode=%s encoding=%s policy=%s [%s]\n"
        (Codegen.mode_name mode) (Encoding.scheme_name scheme)
        (Policy.name policy) (Machine.status_name o.Recover.status);
      let leaked = obs_report ~label:n m in
      let code =
        match o.Recover.status with Machine.Exited c -> c | _ -> 42
      in
      exit (if leaked && code = 0 then 3 else code)
    end;
    if want_obs () then begin
      (* Observability run: [Run.measure] never exposes its machine, so
         build one inline (same compile / config / fuel) and report from
         it — the stats lines below match the measured path's exactly. *)
      let image, globals =
        Host.span "compile" @@ fun () ->
        Hb_runtime.Build.compile ~mode w.source
      in
      let config = Hb_runtime.Build.config_for ~scheme mode in
      let m = Machine.create ~config ~globals image in
      enable_obs m;
      let status = Host.span "run" @@ fun () -> Machine.run m in
      (match status with
       | Machine.Exited 0 -> ()
       | st ->
         Hb_error.fail ~component:"olden" "%s [%s/%s]: %s" n
           (Codegen.mode_name mode) (Encoding.scheme_name scheme)
           (Machine.status_name st));
      let s = m.Machine.stats in
      let pages r = Physmem.pages_touched_in m.Machine.mem r in
      print_string (Machine.output m);
      Printf.printf
        "\nmode=%s encoding=%s\ninstructions  %d\nuops          %d\n\
         cycles        %d\nsetbounds     %d\nmetadata uops %d\n\
         stalls        data %d / tag %d / base-bound %d\n\
         pages         data %d / tag %d / shadow %d\n"
        (Codegen.mode_name mode)
        (Encoding.scheme_name scheme)
        s.Stats.instructions s.Stats.uops (Stats.cycles s)
        s.Stats.setbound_instrs s.Stats.metadata_uops
        s.Stats.charged_data_stalls s.Stats.charged_tag_stalls
        s.Stats.charged_bb_stalls
        (pages Layout.Globals + pages Layout.Heap + pages Layout.Stack)
        (pages Layout.Tag_space) (pages Layout.Shadow_space);
      if obs_report ~label:n m then exit 3
    end
    else begin
      let r = Run.measure ~scheme ~mode w in
      print_string r.Run.output;
      Printf.printf
        "\nmode=%s encoding=%s\ninstructions  %d\nuops          %d\n\
         cycles        %d\nsetbounds     %d\nmetadata uops %d\n\
         stalls        data %d / tag %d / base-bound %d\n\
         pages         data %d / tag %d / shadow %d\n"
        (Codegen.mode_name mode)
        (Encoding.scheme_name scheme)
        r.Run.instructions r.Run.uops r.Run.cycles r.Run.setbound_instrs
        r.Run.metadata_uops r.Run.data_stalls r.Run.tag_stalls r.Run.bb_stalls
        r.Run.data_pages r.Run.tag_pages r.Run.shadow_pages
    end

let () = main ()
