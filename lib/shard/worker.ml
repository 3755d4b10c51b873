(** One shard worker: executes its slice of the campaign plan, journaling
    every acknowledged run into its own shard file.

    The worker is resumable at any byte: on (re)spawn it reads its shard
    journal back, treats the acknowledged prefix as prior records (never
    re-executing them), and picks up at the first missing index of its
    slice.  A forked worker ({!Supervisor}) runs [run_inline], and so
    does the parent when a shard has exhausted its respawn budget —
    graceful degradation to fewer workers reuses the identical code
    path. *)

module Campaign = Hb_fault.Campaign
module Outcome = Hb_fault.Outcome
module Journal = Hb_recover.Journal
module Deadline = Hb_recover.Deadline
module Fleet = Hb_obs.Fleet

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
