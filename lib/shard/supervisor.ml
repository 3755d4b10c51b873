(** Worker supervision: respawn, degrade, escalate.

    The parent runs one {!Worker} per shard through a {!Pool},
    which reaps exits and SIGKILLs any worker whose shard journal stops
    growing (every run appends, and heartbeats cover the gaps) for the
    heartbeat timeout; dead workers respawn after the pool's backoff.  A
    respawned worker re-reads its own journal and replays the
    acknowledged prefix, so no run is ever executed twice.  When a shard
    exhausts its respawn budget the parent adopts the slice and runs it
    inline — graceful degradation to fewer workers.  A worker that dies
    with a *typed* error ({!Pool.Error}) ends the campaign: retrying a
    config mismatch or corrupt journal cannot succeed, so the supervisor
    kills the remaining workers and escalates the journaled message as
    an [Hb_error] carrying a resume hint. *)

module Campaign = Hb_fault.Campaign
module Outcome = Hb_fault.Outcome
module Deadline = Hb_recover.Deadline
module Journal = Hb_recover.Journal
module Interrupt = Hb_recover.Interrupt
module Clock = Hb_obs.Clock
module Progress = Hb_obs.Progress
module Fleet = Hb_obs.Fleet

type config = {
  jobs : int;
  max_worker_restarts : int;
      (* respawns per shard before the parent adopts its slice *)
  heartbeat_timeout_s : float;
      (* shard-journal silence after which a worker counts as hung *)
  backoff_base_s : float;
  backoff_cap_s : float;
  log : (string -> unit) option;
      (* supervision events ("worker 2 pid 1234 spawned", ...); the CLI
         wires stderr, tests capture, default drops *)
}

let default =
  {
    jobs = 2;
    max_worker_restarts = 3;
    heartbeat_timeout_s = 60.;
    backoff_base_s = 0.25;
    backoff_cap_s = 5.;
    log = None;
  }

let poll_interval_s = 0.05

type state =
  | Running  (* in the pool, which holds its pid and liveness *)
  | Waiting of { at_ns : int64 }  (* backoff before the next respawn *)
  | Done
  | Partial  (* deadline expired before the slice completed *)
  | Exhausted  (* respawn budget spent; parent will adopt the slice *)
  | Failed of string  (* typed worker error; campaign must escalate *)

type slot = {
  shard : int;
  path : string;
  mutable state : state;
  mutable restarts : int;
  row : Progress.worker option;
}

let terminal = function
  | Done | Partial | Exhausted | Failed _ -> true
  | Running | Waiting _ -> false

let logf scfg fmt =
  Printf.ksprintf
    (fun s -> match scfg.log with Some f -> f s | None -> ())
    fmt

let set_row_state slot s =
  match slot.row with None -> () | Some r -> r.Progress.state <- s

let set_row_pid slot pid =
  match slot.row with Some r -> r.Progress.pid <- pid | None -> ()

let respawn_or_exhaust scfg pool ~deadline slot why =
  set_row_pid slot None;
  if Deadline.expired deadline then begin
    (* the worker would only exit partial anyway *)
    logf scfg "[shard] worker %d %s after deadline; marking partial"
      slot.shard why;
    slot.state <- Partial;
    set_row_state slot "partial"
  end
  else
    match Pool.retry pool ~attempt:(slot.restarts + 1) with
    | None ->
      logf scfg
        "[shard] worker %d %s; respawn budget (%d) exhausted, parent will \
         adopt the slice"
        slot.shard why scfg.max_worker_restarts;
      Fleet.event ~kind:"exhaust" ~shard:slot.shard why;
      slot.state <- Exhausted;
      set_row_state slot "exhausted"
    | Some backoff -> (
      slot.restarts <- slot.restarts + 1;
      logf scfg "[shard] worker %d %s; respawn %d/%d in %.2fs" slot.shard why
        slot.restarts scfg.max_worker_restarts backoff;
      slot.state <-
        Waiting { at_ns = Int64.add (Clock.now_ns ()) (Clock.ns_of_s backoff) };
      set_row_state slot "respawning";
      match slot.row with
      | Some r -> r.Progress.restarts <- slot.restarts
      | None -> ())

let spawn scfg pool ~mk ~cfg ~golden ~deadline slot =
  (* the forked worker's only output channels are its shard journal and
     its exit class *)
  let child () =
    match
      Worker.run_inline ~mk ~cfg ~golden ~jobs:scfg.jobs ~shard:slot.shard
        ~path:slot.path ~fleet:(Fleet.installed ()) ~deadline ()
    with
    | report ->
      if report.Campaign.deadline_expired then Pool.Partial else Pool.Ok
    | exception Hb_error.Hb_error (ctx, msg) ->
      (* best effort: leave the typed error in the journal, where
         [journaled_error] reads it back *)
      (try
         let w = Journal.append_to slot.path in
         Journal.append w
           (Merge.error_json ~shard:slot.shard
              ~msg:(Hb_error.to_string (ctx, msg)));
         Journal.close w
       with _ -> ());
      Pool.Error
  in
  match
    Pool.spawn pool slot ~watch:slot.path ~timeout_s:scfg.heartbeat_timeout_s
      child
  with
  | Ok pid ->
    logf scfg "[shard] worker %d pid %d spawned (attempt %d)" slot.shard pid
      (slot.restarts + 1);
    Fleet.event
      ~kind:(if slot.restarts = 0 then "spawn" else "respawn")
      ~shard:slot.shard ~pid
      (Printf.sprintf "attempt %d" (slot.restarts + 1));
    slot.state <- Running;
    set_row_state slot "running";
    set_row_pid slot (Some pid)
  | Error why -> respawn_or_exhaust scfg pool ~deadline slot why

(* Recover the journaled shard-error message for a worker that exited
   with the typed-error code; tolerate an unreadable journal (the error
   may have struck before anything was written). *)
let journaled_error ~(ccfg : Campaign.config) ~jobs slot =
  match
    Merge.read_shard ~cfg:ccfg ~jobs ~shard:slot.shard slot.path
  with
  | { Merge.closed = Merge.Error msg; _ } -> msg
  | _ | (exception Hb_error.Hb_error _) ->
    Printf.sprintf "worker %d failed with a typed error before it could be \
                    journaled" slot.shard

let wake scfg pool ~mk ~cfg ~golden ~deadline slot =
  match slot.state with
  | Waiting { at_ns } ->
    if Deadline.expired deadline then begin
      slot.state <- Partial;
      set_row_state slot "partial"
    end
    else if Clock.now_ns () >= at_ns then
      spawn scfg pool ~mk ~cfg ~golden ~deadline slot
  | Running | Done | Partial | Exhausted | Failed _ -> ()

let ended scfg pool ~cfg ~deadline (slot, pid, ending) =
  match ending with
  | Pool.Hung silent ->
    logf scfg "[shard] worker %d pid %d silent for %.1fs; killed" slot.shard
      pid silent;
    Fleet.event ~kind:"watchdog_kill" ~shard:slot.shard ~pid
      (Printf.sprintf "silent %.1fs" silent);
    respawn_or_exhaust scfg pool ~deadline slot "hung (watchdog)"
  | Pool.Exited Pool.Ok ->
    logf scfg "[shard] worker %d pid %d done" slot.shard pid;
    slot.state <- Done;
    set_row_state slot "done";
    set_row_pid slot None
  | Pool.Exited Pool.Partial ->
    slot.state <- Partial;
    set_row_state slot "partial"
  | Pool.Exited Pool.Error ->
    slot.state <- Failed (journaled_error ~ccfg:cfg ~jobs:scfg.jobs slot);
    set_row_state slot "failed"
  | Pool.Exited (Pool.Crashed reason) ->
    respawn_or_exhaust scfg pool ~deadline slot reason

(* Refresh the shared progress tracker from the shard journals: per-slot
   completion counts and the global outcome tally.  Read-only and
   throttled; a parse failure here must never kill the campaign.  [seen]
   is pre-seeded with the base journal's prior indices (already tallied
   by the caller), so it both deduplicates the tally and is the
   completed count. *)
let refresh_progress ~(ccfg : Campaign.config) ~jobs ~seen progress slots =
  match progress with
  | None -> ()
  | Some p ->
    List.iter
      (fun slot ->
        match
          Merge.read_shard ~cfg:ccfg ~jobs ~shard:slot.shard slot.path
        with
        | sr ->
          (match slot.row with
          | Some row -> row.Progress.done_runs <- List.length sr.Merge.records
          | None -> ());
          List.iter
            (fun (r : Campaign.record) ->
              if not (Hashtbl.mem seen r.Campaign.idx) then begin
                Hashtbl.add seen r.Campaign.idx ();
                Progress.seed_outcome p
                  ~outcome:(Outcome.name r.Campaign.outcome)
              end)
            sr.Merge.records
        | exception Hb_error.Hb_error _ -> ())
      slots;
    p.Progress.completed <- Hashtbl.length seen

let run ~mk ~(cfg : Campaign.config) ~golden ~base
    ~(extra : Campaign.record list) ?(deadline = Deadline.none) ?progress
    (scfg : config) : unit =
  let slots =
    List.init scfg.jobs (fun shard ->
        let row =
          match progress with
          | None -> None
          | Some _ ->
            Some
              (Progress.worker ~shard
                 ~total_runs:
                   (Partition.size ~jobs:scfg.jobs ~shard
                      ~runs:cfg.Campaign.runs))
        in
        {
          shard;
          path = Partition.shard_path ~base ~shard;
          state = Waiting { at_ns = 0L };
          restarts = 0;
          row;
        })
  in
  (match progress with
  | Some p ->
    Progress.set_workers p (List.filter_map (fun s -> s.row) slots)
  | None -> ());
  (* the base journal's prior records count as completed from the start;
     their outcomes were tallied by the caller *)
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (r : Campaign.record) -> Hashtbl.replace seen r.Campaign.idx ())
    extra;
  let pool =
    Pool.create
      ~attempts:(scfg.max_worker_restarts + 1)
      ~backoff_base_s:scfg.backoff_base_s ~backoff_cap_s:scfg.backoff_cap_s
  in
  let polls = ref 0 in
  (* the killed workers' journals keep the acknowledged prefix and stay
     resumable *)
  let kill_all ~kind why =
    List.iter
      (fun (s, pid) ->
        logf scfg "[shard] killed worker %d pid %d (%s)" s.shard pid why;
        Fleet.event ~kind ~shard:s.shard ~pid why)
      (Pool.kill_all pool)
  in
  (* Graceful SIGTERM/SIGINT: kill the running workers and mark every
     live slot partial, exactly as a deadline expiry would. *)
  let interrupt_sweep () =
    logf scfg "[shard] interrupt (%s)" (Interrupt.signal_name ());
    kill_all ~kind:"interrupt_kill" "shutdown requested";
    List.iter
      (fun s ->
        match s.state with
        | Running | Waiting _ | Exhausted ->
          s.state <- Partial;
          set_row_state s "partial"
        | Done | Partial | Failed _ -> ())
      slots
  in
  let rec loop () =
    if Interrupt.requested () then interrupt_sweep ();
    List.iter (ended scfg pool ~cfg ~deadline) (Pool.poll pool);
    List.iter (wake scfg pool ~mk ~cfg ~golden ~deadline) slots;
    List.iter
      (fun (s, silent) ->
        match s.row with
        | Some row -> row.Progress.beat_age_s <- silent
        | None -> ())
      (Pool.live pool);
    (* escalate a typed worker failure immediately: kill the survivors
       and surface the message *)
    (match
       List.find_map
         (fun s -> match s.state with Failed m -> Some (s, m) | _ -> None)
         slots
     with
    | Some (failed, msg) ->
      kill_all ~kind:"kill" "campaign failed";
      Hb_error.fail ~component:"shard"
        "worker %d failed: %s — completed records are journaled in \
         %s.shard*; fix the cause and re-run with --resume %s"
        failed.shard msg base base
    | None -> ());
    incr polls;
    if !polls mod 20 = 0 then
      refresh_progress ~ccfg:cfg ~jobs:scfg.jobs ~seen progress slots;
    if not (List.for_all (fun s -> terminal s.state) slots) then begin
      Unix.sleepf poll_interval_s;
      loop ()
    end
  in
  (* whatever leaves the loop — an escalation, a raising log sink —
     leaves no worker running behind it *)
  Fun.protect ~finally:(fun () -> ignore (Pool.kill_all pool)) loop;
  (* graceful degradation: adopt every exhausted shard in the parent,
     replaying its journaled prefix and finishing the slice inline *)
  List.iter
    (fun slot ->
      match slot.state with
      | Exhausted ->
        logf scfg "[shard] adopting shard %d inline" slot.shard;
        Fleet.event ~kind:"adopt" ~shard:slot.shard
          ~pid:(Unix.getpid ()) "parent runs the slice inline";
        set_row_state slot "adopted";
        let report =
          Worker.run_inline ~mk ~cfg ~golden ~jobs:scfg.jobs
            ~shard:slot.shard ~path:slot.path ~fleet:(Fleet.installed ())
            ~deadline ()
        in
        slot.state <-
          (if report.Campaign.deadline_expired then Partial else Done);
        set_row_state slot
          (if report.Campaign.deadline_expired then "partial" else "done")
      | _ -> ())
    slots;
  refresh_progress ~ccfg:cfg ~jobs:scfg.jobs ~seen progress slots
