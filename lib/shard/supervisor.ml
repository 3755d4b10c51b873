(** Worker supervision: fork, watch, kill, respawn, degrade.

    The parent forks one {!Worker.child} per shard, then polls: reaping
    exits ({!Worker.poll}), watching liveness (a worker's shard
    journal must keep growing — every run appends, and heartbeats cover
    the gaps), SIGKILLing anything silent past the heartbeat timeout,
    and respawning dead workers with exponential backoff.  A respawned
    worker re-reads its own journal and replays the acknowledged prefix,
    so no run is ever executed twice.  When a shard exhausts its respawn
    budget the parent adopts the slice and runs it inline — graceful
    degradation to fewer workers.  A worker that dies with a *typed*
    error (exit code {!Worker.exit_error}) ends the campaign: retrying a
    config mismatch or corrupt journal cannot succeed, so the supervisor
    kills the remaining workers and escalates the journaled message as
    an [Hb_error] carrying a resume hint. *)

module Campaign = Hb_fault.Campaign
module Outcome = Hb_fault.Outcome
module Deadline = Hb_recover.Deadline
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
  poll_interval_s : float;
  log : (string -> unit) option;
      (* supervision events ("worker 2 pid 1234 spawned", ...); the CLI
         wires stderr, tests capture, default drops *)
  fleet : bool;
      (* workers append telemetry sidecars and lifecycle moments are
         recorded as fleet events; read-only w.r.t. journals/reports *)
}

let default =
  {
    jobs = 2;
    max_worker_restarts = 3;
    heartbeat_timeout_s = 60.;
    backoff_base_s = 0.25;
    backoff_cap_s = 5.;
    poll_interval_s = 0.05;
    log = None;
    fleet = false;
  }

(** The respawn backoff schedule as a pure function: delay before
    respawn attempt [restart] (1-based).  Exponential doubling from
    [base_s], clamped at [cap_s] — deterministic,
    monotone non-decreasing, and bounded, so a crash-looping worker can
    never stampede the host, and tests can pin the exact schedule. *)
let backoff ~base_s ~cap_s ~restart =
  if restart <= 0 then 0.
  else Float.min cap_s (base_s *. (2. ** float_of_int (restart - 1)))

let backoff_s (scfg : config) ~restart =
  backoff ~base_s:scfg.backoff_base_s ~cap_s:scfg.backoff_cap_s ~restart

(** The full schedule a shard walks before its respawn budget is spent:
    [[backoff_s ~restart:1; ...; backoff_s ~restart:max_worker_restarts]]. *)
let backoff_schedule (scfg : config) =
  List.init (max 0 scfg.max_worker_restarts) (fun i ->
      backoff_s scfg ~restart:(i + 1))

type state =
  | Running of {
      pid : int;
      mutable last_size : int;
      mutable last_beat_ns : int64;
    }
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
  | Running _ | Waiting _ -> false

let shard_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (_, _, _) -> 0

let logf scfg fmt =
  Printf.ksprintf
    (fun s -> match scfg.log with Some f -> f s | None -> ())
    fmt

let set_row_state slot s =
  match slot.row with None -> () | Some r -> r.Progress.state <- s

let spawn scfg ~mk ~cfg ~golden ~deadline slot =
  (* the child inherits the parent's stdio buffers but [_exit]s without
     flushing them; flushing here keeps buffered parent output from
     being lost to the fork entirely *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Worker.child ~mk ~cfg ~golden ~jobs:scfg.jobs ~shard:slot.shard
      ~path:slot.path ~fleet:scfg.fleet ~deadline ()
  | pid ->
    logf scfg "[shard] worker %d pid %d spawned (attempt %d)" slot.shard pid
      (slot.restarts + 1);
    Fleet.event
      ~kind:(if slot.restarts = 0 then "spawn" else "respawn")
      ~shard:slot.shard ~pid
      (Printf.sprintf "attempt %d" (slot.restarts + 1));
    slot.state <-
      Running
        {
          pid;
          last_size = shard_size slot.path;
          last_beat_ns = Clock.now_ns ();
        };
    set_row_state slot "running";
    (match slot.row with
    | Some r -> r.Progress.pid <- Some pid
    | None -> ())

let respawn_or_exhaust scfg ~deadline slot why =
  (match slot.row with
  | Some r -> r.Progress.pid <- None
  | None -> ());
  if Deadline.expired deadline then begin
    (* the worker would only exit [exit_partial] anyway *)
    logf scfg "[shard] worker %d %s after deadline; marking partial"
      slot.shard why;
    slot.state <- Partial;
    set_row_state slot "partial"
  end
  else if slot.restarts >= scfg.max_worker_restarts then begin
    logf scfg
      "[shard] worker %d %s; respawn budget (%d) exhausted, parent will \
       adopt the slice"
      slot.shard why scfg.max_worker_restarts;
    Fleet.event ~kind:"exhaust" ~shard:slot.shard why;
    slot.state <- Exhausted;
    set_row_state slot "exhausted"
  end
  else begin
    slot.restarts <- slot.restarts + 1;
    let backoff = backoff_s scfg ~restart:slot.restarts in
    logf scfg "[shard] worker %d %s; respawn %d/%d in %.2fs" slot.shard why
      slot.restarts scfg.max_worker_restarts backoff;
    slot.state <-
      Waiting { at_ns = Int64.add (Clock.now_ns ()) (Clock.ns_of_s backoff) };
    set_row_state slot "respawning";
    match slot.row with
    | Some r -> r.Progress.restarts <- slot.restarts
    | None -> ()
  end

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

let sigkill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  reap ()

let check scfg ~mk ~cfg ~golden ~deadline slot =
  match slot.state with
  | Done | Partial | Exhausted | Failed _ -> ()
  | Waiting { at_ns } ->
    if Deadline.expired deadline then begin
      slot.state <- Partial;
      set_row_state slot "partial"
    end
    else if Clock.now_ns () >= at_ns then
      spawn scfg ~mk ~cfg ~golden ~deadline slot
  | Running r -> (
    match Worker.poll r.pid with
    | None ->
      (* alive: liveness = the shard journal keeps growing (every run
         record and heartbeat appends bytes) *)
      let size = shard_size slot.path in
      if size > r.last_size then begin
        r.last_size <- size;
        r.last_beat_ns <- Clock.now_ns ()
      end
      else begin
        let silent = Clock.elapsed_s ~t0:r.last_beat_ns in
        (match slot.row with
        | Some row -> row.Progress.beat_age_s <- silent
        | None -> ());
        if silent > scfg.heartbeat_timeout_s then begin
          logf scfg "[shard] worker %d pid %d silent for %.1fs; killing"
            slot.shard r.pid silent;
          Fleet.event ~kind:"watchdog_kill" ~shard:slot.shard ~pid:r.pid
            (Printf.sprintf "silent %.1fs" silent);
          sigkill r.pid;
          respawn_or_exhaust scfg ~deadline slot "hung (watchdog)"
        end
      end
    | Some Worker.Ok ->
      logf scfg "[shard] worker %d pid %d done" slot.shard r.pid;
      slot.state <- Done;
      set_row_state slot "done";
      (match slot.row with None -> () | Some row -> row.Progress.pid <- None)
    | Some Worker.Partial ->
      slot.state <- Partial;
      set_row_state slot "partial"
    | Some Worker.Error ->
      slot.state <- Failed (journaled_error ~ccfg:cfg ~jobs:scfg.jobs slot);
      set_row_state slot "failed"
    | Some (Worker.Crashed reason) ->
      respawn_or_exhaust scfg ~deadline slot reason)

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
  let polls = ref 0 in
  (* Graceful SIGTERM/SIGINT: kill the running workers (their journals
     keep the acknowledged prefix and stay resumable) and mark every
     live slot partial, exactly as a deadline expiry would. *)
  let interrupt_sweep () =
    List.iter
      (fun s ->
        match s.state with
        | Running r ->
          logf scfg "[shard] interrupt (%s): killing worker %d pid %d"
            (Interrupt.signal_name ()) s.shard r.pid;
          Fleet.event ~kind:"interrupt_kill" ~shard:s.shard ~pid:r.pid
            "shutdown requested";
          sigkill r.pid;
          s.state <- Partial;
          set_row_state s "partial"
        | Waiting _ | Exhausted ->
          s.state <- Partial;
          set_row_state s "partial"
        | Done | Partial | Failed _ -> ())
      slots
  in
  let rec loop () =
    if List.for_all (fun s -> terminal s.state) slots then ()
    else begin
      if Interrupt.requested () then interrupt_sweep ();
      List.iter (check scfg ~mk ~cfg ~golden ~deadline) slots;
      (* escalate a typed worker failure immediately: kill the survivors
         (their journals stay resumable) and surface the message *)
      (match
         List.find_opt
           (fun s -> match s.state with Failed _ -> true | _ -> false)
           slots
       with
      | Some failed ->
        let msg =
          match failed.state with Failed m -> m | _ -> assert false
        in
        List.iter
          (fun s ->
            match s.state with
            | Running r ->
              logf scfg "[shard] killing worker %d pid %d (campaign failed)"
                s.shard r.pid;
              Fleet.event ~kind:"kill" ~shard:s.shard ~pid:r.pid
                "campaign failed";
              sigkill r.pid
            | _ -> ())
          slots;
        Hb_error.fail ~component:"shard"
          "worker %d failed: %s — completed records are journaled in \
           %s.shard*; fix the cause and re-run with --resume %s"
          failed.shard msg base base
      | None -> ());
      incr polls;
      if !polls mod 20 = 0 then
        refresh_progress ~ccfg:cfg ~jobs:scfg.jobs ~seen progress slots;
      if not (List.for_all (fun s -> terminal s.state) slots) then begin
        Unix.sleepf scfg.poll_interval_s;
        loop ()
      end
    end
  in
  loop ();
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
            ~shard:slot.shard ~path:slot.path ~fleet:scfg.fleet ~deadline ()
        in
        slot.state <-
          (if report.Campaign.deadline_expired then Partial else Done);
        set_row_state slot
          (if report.Campaign.deadline_expired then "partial" else "done")
      | _ -> ())
    slots;
  refresh_progress ~ccfg:cfg ~jobs:scfg.jobs ~seen progress slots
