(** One shard worker: executes its slice of the campaign plan, journaling
    every acknowledged run into its own shard file.

    The worker is resumable at any byte: on (re)spawn it reads its shard
    journal back, treats the acknowledged prefix as prior records (never
    re-executing them), and picks up at the first missing index of its
    slice.  [run_inline] is also what the parent calls directly when a
    shard has exhausted its respawn budget — graceful degradation to
    fewer workers reuses the identical code path. *)

module Campaign = Hb_fault.Campaign
module Outcome = Hb_fault.Outcome
module Journal = Hb_recover.Journal
module Deadline = Hb_recover.Deadline
module Fleet = Hb_obs.Fleet

(* Exit-code protocol, classified by [poll]. *)
let exit_ok = 0
let exit_partial = 4 (* wall-clock deadline expired; slice incomplete *)
let exit_error = 3 (* typed Hb_error; journaled as a shard-error record *)
let exit_crash = 5 (* anything else; respawn may help *)

type exit = Ok | Partial | Error | Crashed of string

let poll pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  | 0, _ | _, Unix.WSTOPPED _ -> None
  | _, Unix.WEXITED c when c = exit_ok -> Some Ok
  | _, Unix.WEXITED c when c = exit_partial -> Some Partial
  | _, Unix.WEXITED c when c = exit_error -> Some Error
  | _, Unix.WEXITED c -> Some (Crashed (Printf.sprintf "exited with code %d" c))
  | _, Unix.WSIGNALED sg ->
    Some (Crashed (Printf.sprintf "killed by signal %d" sg))

let run_inline ~mk ~(cfg : Campaign.config) ~golden ~jobs ~shard ~path
    ?(fleet = false) ?(deadline = Deadline.none) () : Campaign.report =
  let prior, writer =
    match Journal.read_or_empty path with
    | [] ->
      (* fresh shard (or one killed before/inside its header write: the
         torn header was dropped, so rewrite from scratch) *)
      let w = Journal.create path in
      Journal.append w
        (Journal.shard_header_json
           ~campaign:(Campaign.header_json cfg golden)
           ~shard ~jobs);
      ([], w)
    | _ :: _ ->
      let sr = Merge.read_shard ~cfg ~golden ~jobs ~shard path in
      (sr.Merge.records, Journal.append_to path)
  in
  (* fleet telemetry is a side channel: the sidecar has its own file and
     its own (worker-local) span profile, so the shard journal and the
     merged report are byte-identical with it on or off *)
  let fl =
    if fleet then
      Some (Fleet.worker_begin ~path ~shard ~completed:(List.length prior))
    else None
  in
  Fun.protect
    ~finally:(fun () ->
      Journal.close writer;
      match fl with Some f -> Fleet.worker_end f | None -> ())
    (fun () ->
      let completed = ref (List.length prior) in
      let seq = ref 0 in
      let pid = Unix.getpid () in
      let on_start (p : Campaign.plan_entry) =
        incr seq;
        (* liveness only — unsynced, so a lost heartbeat costs nothing *)
        Journal.append_nosync writer
          (Journal.heartbeat_json ~pid ~seq:!seq ~completed:!completed
             ~next:(Some p.Campaign.p_idx));
        match fl with
        | Some f -> Fleet.run_start f ~idx:p.Campaign.p_idx
        | None -> ()
      in
      let on_record (r : Campaign.record) =
        incr completed;
        match fl with
        | Some f ->
          Fleet.run_done f ~idx:r.Campaign.idx
            ~outcome:(Outcome.name r.Campaign.outcome)
            ~latency:r.Campaign.latency ~completed:!completed
        | None -> ()
      in
      let report =
        Campaign.execute_plan ~mk ~cfg ~golden
          ~select:(Partition.select ~jobs ~shard)
          ~on_start ~on_record ~writer ~deadline ~prior ()
      in
      let expected = Partition.size ~jobs ~shard ~runs:cfg.Campaign.runs in
      let marker =
        if
          (not report.Campaign.deadline_expired)
          && List.length report.Campaign.records = expected
        then Merge.done_json ~shard ~completed:!completed
        else Merge.partial_json ~shard ~completed:!completed
      in
      Journal.append writer marker;
      report)

(* The forked child's whole life.  [Unix._exit] always: the child must
   not run the parent's [at_exit] hooks (host-span dumps, stdio flush of
   buffers it inherited) — its only output channel is the shard journal
   and its exit code. *)
let child ~mk ~cfg ~golden ~jobs ~shard ~path ?fleet ?deadline () : 'a =
  let code =
    match
      run_inline ~mk ~cfg ~golden ~jobs ~shard ~path ?fleet ?deadline ()
    with
    | report ->
      if report.Campaign.deadline_expired then exit_partial else exit_ok
    | exception Hb_error.Hb_error (ctx, msg) ->
      (* best effort: leave the typed error in the journal so the
         supervisor can surface it verbatim *)
      (try
         let w = Journal.append_to path in
         Journal.append w
           (Merge.error_json ~shard ~msg:(Hb_error.to_string (ctx, msg)));
         Journal.close w
       with _ -> ());
      exit_error
    | exception _ -> exit_crash
  in
  Unix._exit code
