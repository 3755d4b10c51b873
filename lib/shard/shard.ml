(** Multi-process sharded campaign runner: the public face of [hb_shard].

    [run] partitions a campaign's seed-pure plan across [jobs] forked
    {!Worker} processes, supervises them ({!Supervisor}: heartbeat
    watchdog, bounded respawn, degradation, typed escalation), and
    {!Merge}s the shard journals back into a report byte-identical to
    {!Hb_fault.Campaign.run}'s for the same config.

    Journal semantics mirror the serial runner's: [~journal] writes one
    crash-resilient shard file per worker next to the base path
    ([base.shardK]) and, on completion, the merged serial-format journal
    at [base] itself; [~resume] picks all of them back up — killing any
    subset of workers (or the whole tree) at any byte still converges to
    the identical report.  A resume must use the same [jobs] (the shard
    headers pin the partition). *)

module Campaign = Hb_fault.Campaign
module Outcome = Hb_fault.Outcome
module Journal = Hb_recover.Journal
module Deadline = Hb_recover.Deadline
module Host = Hb_obs.Host
module Progress = Hb_obs.Progress
module Fleet = Hb_obs.Fleet

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let default = Supervisor.default

let run ?journal ?resume ?(deadline = Deadline.none) ?progress
    ?(cfg = default) ?(fleet = Fleet.disabled) ~mk
    (ccfg : Campaign.config) : Campaign.report =
  Partition.validate ~jobs:cfg.Supervisor.jobs;
  let jobs = cfg.Supervisor.jobs in
  if journal <> None && resume <> None then
    Hb_error.fail ~component:"shard"
      "--journal and --resume are exclusive (a resumed campaign appends to \
       the journals it resumes from)";
  let base, temp =
    match (journal, resume) with
    | Some p, _ -> (p, false)
    | _, Some p -> (p, false)
    | None, None -> (Filename.temp_file "hb-shard" ".jsonl", true)
  in
  (match progress with
  | Some p -> (
    match (journal, resume) with
    | Some path, _ -> Progress.set_journal p path
    | _, Some path -> Progress.set_resume p path
    | _ -> ())
  | None -> ());
  (* a fresh --journal run must not silently resume stale shard files
     (or their telemetry sidecars) from an earlier campaign at the same
     path *)
  if resume = None then
    List.iter
      (fun shard ->
        let p = Partition.shard_path ~base ~shard in
        remove_if_exists p;
        remove_if_exists (Fleet.sidecar_path p))
      (List.init jobs (fun k -> k));
  let sidecars =
    List.init jobs (fun shard ->
        Fleet.sidecar_path (Partition.shard_path ~base ~shard))
  in
  (* the ambient fleet collector gives the supervisor's lifecycle hooks
     and the serving thread's aggregation callbacks a common home; it is
     torn down with the run so back-to-back in-process campaigns never
     see each other's events *)
  if Fleet.active fleet then Fleet.install ~sidecars;
  Fun.protect
    ~finally:(fun () -> if Fleet.active fleet then Fleet.uninstall ())
  @@ fun () ->
  (* prior records from a partial base journal (e.g. an interrupted
     serial run being resumed sharded); a complete base journal
     reconstructs with zero execution, exactly like the serial path *)
  let finished_base () =
    if resume = None then None
    else
      match Journal.read_or_empty base with
      | [] -> None
      | _ :: _ ->
        let header, prior, done_ = Campaign.load_journal base in
        Campaign.check_header base header ccfg;
        if done_ then begin
          if List.length prior <> ccfg.Campaign.runs then
            Hb_error.fail ~component:"campaign"
              "%s: journal is marked done but holds %d of %d run records"
              base (List.length prior) ccfg.Campaign.runs;
          Some (Campaign.report_of_header ~cfg:ccfg base header prior)
        end
        else None
  in
  match finished_base () with
  | Some report -> report
  | None ->
    let extra =
      if resume = None then []
      else
        match Journal.read_or_empty base with
        | [] -> []
        | _ :: _ ->
          let _, prior, _ = Campaign.load_journal base in
          prior
    in
    let golden = Campaign.prepare ~mk ccfg in
    (* everything already acknowledged anywhere (base + shard files)
       counts as prior: tallied now, never re-counted by the supervisor,
       excluded from the throughput estimate *)
    let initial =
      try Merge.gather ~cfg:ccfg ~golden ~jobs ~base ~extra ()
      with Hb_error.Hb_error _ -> extra
    in
    (match progress with
    | Some p ->
      Progress.begin_campaign p ~label:ccfg.Campaign.label
        ~total:ccfg.Campaign.runs ~prior:(List.length initial);
      List.iter
        (fun (r : Campaign.record) ->
          Progress.seed_outcome p ~outcome:(Outcome.name r.Campaign.outcome))
        initial
    | None -> ());
    Host.span "runs" (fun () ->
        Host.annotate_live "runs"
          (ccfg.Campaign.runs - List.length initial);
        Supervisor.run ~mk ~cfg:ccfg ~golden ~base ~extra:initial ~deadline
          ?progress cfg);
    let report, complete =
      Host.span "merge" (fun () ->
          Merge.merged_report ~cfg:ccfg ~golden ~jobs ~base ~extra ())
    in
    if complete then begin
      (* leave the base journal as a normal done campaign journal, so a
         later --resume (serial or sharded) reconstructs instantly *)
      if not temp then Merge.write_merged ~cfg:ccfg ~golden ~base report;
      match progress with Some p -> Progress.finish p | None -> ()
    end;
    (* the unified cross-process trace reads the sidecars back, so it
       must land before any temp cleanup; the ambient host profiler (if
       the CLI installed one) supplies the supervisor track *)
    (match fleet.Fleet.chrome with
    | Some path ->
      Fleet.write_chrome
        ?host:(Host.active ())
        ~events:(Fleet.events ()) ~sidecars path
    | None -> ());
    if temp then begin
      remove_if_exists base;
      List.iter
        (fun shard ->
          let p = Partition.shard_path ~base ~shard in
          remove_if_exists p;
          remove_if_exists (Fleet.sidecar_path p))
        (List.init jobs (fun k -> k))
    end;
    report
