(** Crash-resilient job table: a write-ahead journal of state
    transitions plus the in-memory index replayed from it.  The journal
    IS the queue — the daemon can be SIGKILLed between any two machine
    instructions and [open_] rebuilds exactly the acknowledged state:
    terminal jobs stay terminal, running jobs are re-admitted as queued
    (their attempt counts intact, so a crash-looping job still reaches
    its poison threshold), and a torn final record is repaired by
    {!Hb_recover.Journal.append_to} before the writer reattaches. *)

module Json = Hb_obs.Json
module Clock = Hb_obs.Clock
module Journal = Hb_recover.Journal

type state =
  | Queued
  | Running
  | Done
  | Poisoned of string
  | Failed of string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Poisoned _ -> "poisoned"
  | Failed _ -> "failed"

type job = {
  id : int;
  tenant : string;
  spec : Proto.spec;
  mutable state : state;
  mutable attempts : int;
  mutable not_before_ns : int64;
  mutable note : string;
}

type t = {
  dir : string;
  journal_path : string;
  mutable writer : Journal.writer option;
  jobs : (int, job) Hashtbl.t;
  mutable next_id : int;
  (* tenant fairness: round-robin by least-recently-picked tenant *)
  last_pick : (string, int) Hashtbl.t;
  mutable pick_seq : int;
}

let fail fmt = Hb_error.fail ~component:"queue" fmt

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let header_json =
  Json.Obj
    [
      ("type", Json.String "header");
      ("journal", Json.String "hb-serve-queue");
      ("version", Json.Int 1);
    ]

let int_field path j key =
  match Option.bind (Json.member key j) Json.to_int with
  | Some n -> n
  | None -> fail "%s: record is missing integer field %S" path key

let str_field path j key =
  match Json.member key j with
  | Some (Json.String s) -> s
  | _ -> fail "%s: record is missing string field %S" path key

let find t id = Hashtbl.find_opt t.jobs id

let require t path id =
  match find t id with
  | Some j -> j
  | None ->
    fail "%s: record references job %d before its submit record" path id

(* Replay one journaled transition into the in-memory table. *)
let replay t path j =
  match Journal.record_type j with
  | Some "header" -> ()
  | Some "submit" ->
    let id = int_field path j "job" in
    let spec =
      match Json.member "spec" j with
      | Some s -> Proto.spec_of_json s
      | None -> fail "%s: submit record for job %d has no spec" path id
    in
    Hashtbl.replace t.jobs id
      {
        id;
        tenant = spec.Proto.tenant;
        spec;
        state = Queued;
        attempts = 0;
        not_before_ns = 0L;
        note = "";
      };
    if id >= t.next_id then t.next_id <- id + 1
  | Some "start" ->
    let job = require t path (int_field path j "job") in
    job.attempts <- int_field path j "attempt";
    job.state <- Running
  | Some "requeue" ->
    let job = require t path (int_field path j "job") in
    job.state <- Queued;
    job.note <- str_field path j "reason";
    (* re-apply the journaled backoff delay from replay time: a restart
       must not turn a crash-looping job's gate into an immediate retry
       stampede (absolute deadlines are monotonic-clock values, so only
       the relative delay is meaningful across processes) *)
    let backoff_s =
      match Json.member "backoff_s" j with
      | Some (Json.Float f) -> f
      | Some (Json.Int n) -> float_of_int n
      | _ -> 0.
    in
    job.not_before_ns <-
      (if backoff_s > 0. then
         Int64.add (Clock.now_ns ()) (Clock.ns_of_s backoff_s)
       else 0L)
  | Some "done" ->
    let job = require t path (int_field path j "job") in
    job.state <- Done
  | Some "poisoned" ->
    let job = require t path (int_field path j "job") in
    job.state <- Poisoned (str_field path j "reason");
    job.note <- str_field path j "reason"
  | Some "failed" ->
    let job = require t path (int_field path j "job") in
    job.state <- Failed (str_field path j "error");
    job.note <- str_field path j "error"
  | Some other -> fail "%s: unknown queue record type %S" path other
  | None -> fail "%s: queue record has no type field" path

let check_header path records =
  match records with
  | [] -> ()
  | first :: _ -> (
    match (Journal.record_type first, Json.member "journal" first) with
    | Some "header", Some (Json.String "hb-serve-queue") -> ()
    | _ ->
      fail
        "%s is not a daemon queue journal (expected an hb-serve-queue \
         header record)"
        path)

let open_ ~dir =
  mkdir_p dir;
  mkdir_p (Filename.concat dir "jobs");
  let journal_path = Filename.concat dir "queue.jsonl" in
  let t =
    {
      dir;
      journal_path;
      writer = None;
      jobs = Hashtbl.create 64;
      next_id = 1;
      last_pick = Hashtbl.create 8;
      pick_seq = 0;
    }
  in
  let existing =
    Sys.file_exists journal_path
    && (Unix.stat journal_path).Unix.st_size > 0
  in
  if existing then begin
    (* torn tails are dropped by [read] and repaired by [append_to];
       a corrupt record mid-file is a typed error naming the line *)
    let records = Journal.read journal_path in
    check_header journal_path records;
    (match records with
    | [] -> fail "%s exists but holds no complete records" journal_path
    | _ :: rest -> List.iter (replay t journal_path) rest);
    (* workers do not survive the daemon: whatever was running when
       it died is re-admitted, attempts intact *)
    Hashtbl.iter
      (fun _ job ->
        match job.state with Running -> job.state <- Queued | _ -> ())
      t.jobs;
    t.writer <- Some (Journal.append_to journal_path)
  end
  else begin
    let w = Journal.create journal_path in
    Journal.append w header_json;
    t.writer <- Some w
  end;
  t

let close t =
  match t.writer with
  | Some w ->
    t.writer <- None;
    Journal.close w
  | None -> ()

let path t = t.journal_path

let job_dir t id = Filename.concat (Filename.concat t.dir "jobs") ("j" ^ string_of_int id)

let append t j =
  match t.writer with
  | Some w -> Journal.append w j
  | None -> fail "queue %s is closed" t.journal_path

let submit t ~spec =
  let id = t.next_id in
  t.next_id <- id + 1;
  let job =
    {
      id;
      tenant = spec.Proto.tenant;
      spec;
      state = Queued;
      attempts = 0;
      not_before_ns = 0L;
      note = "";
    }
  in
  (* artifact directory first: a mkdir that fails after the fsync'd
     submit record would leave a durably acknowledged job behind a 500,
     inviting a duplicate resubmit.  An orphan directory from a crash
     before the journal write is harmless (mkdir_p tolerates it on the
     retry).  Then journal — the fsync'd record is the acknowledgement —
     and index. *)
  mkdir_p (job_dir t id);
  append t
    (Json.Obj
       [
         ("type", Json.String "submit");
         ("job", Json.Int id);
         ("spec", Proto.spec_to_json spec);
       ]);
  Hashtbl.replace t.jobs id job;
  job

let jobs t =
  List.sort
    (fun a b -> compare a.id b.id)
    (Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs [])

let next_eligible t ~now_ns =
  let eligible =
    List.filter
      (fun j -> j.state = Queued && j.not_before_ns <= now_ns)
      (jobs t)
  in
  match eligible with
  | [] -> None
  | _ ->
    (* least-recently-picked tenant first (ties break on tenant name,
       then lowest id): a tenant flooding the queue cannot starve the
       others *)
    let rank tenant =
      match Hashtbl.find_opt t.last_pick tenant with
      | Some seq -> seq
      | None -> 0
    in
    let best =
      List.fold_left
        (fun acc j ->
          match acc with
          | None -> Some j
          | Some b ->
            let cj = (rank j.tenant, j.tenant, j.id)
            and cb = (rank b.tenant, b.tenant, b.id) in
            if cj < cb then Some j else acc)
        None eligible
    in
    (match best with
    | Some j ->
      t.pick_seq <- t.pick_seq + 1;
      Hashtbl.replace t.last_pick j.tenant t.pick_seq
    | None -> ());
    best

let mark_start t job =
  job.attempts <- job.attempts + 1;
  append t
    (Json.Obj
       [
         ("type", Json.String "start");
         ("job", Json.Int job.id);
         ("attempt", Json.Int job.attempts);
       ]);
  job.state <- Running

let mark_requeue t ?(backoff_s = 0.) job ~reason ~not_before_ns =
  append t
    (Json.Obj
       [
         ("type", Json.String "requeue");
         ("job", Json.Int job.id);
         ("attempt", Json.Int job.attempts);
         ("reason", Json.String reason);
         ("backoff_s", Json.Float backoff_s);
       ]);
  job.state <- Queued;
  job.note <- reason;
  job.not_before_ns <- not_before_ns

let mark_done t job =
  append t (Json.Obj [ ("type", Json.String "done"); ("job", Json.Int job.id) ]);
  job.state <- Done

let mark_poisoned t job ~reason =
  append t
    (Json.Obj
       [
         ("type", Json.String "poisoned");
         ("job", Json.Int job.id);
         ("reason", Json.String reason);
       ]);
  job.state <- Poisoned reason;
  job.note <- reason

let mark_failed t job ~error =
  append t
    (Json.Obj
       [
         ("type", Json.String "failed");
         ("job", Json.Int job.id);
         ("error", Json.String error);
       ]);
  job.state <- Failed error;
  job.note <- error

let counts t =
  Hashtbl.fold
    (fun _ j (q, r, d, p, f) ->
      match j.state with
      | Queued -> (q + 1, r, d, p, f)
      | Running -> (q, r + 1, d, p, f)
      | Done -> (q, r, d + 1, p, f)
      | Poisoned _ -> (q, r, d, p + 1, f)
      | Failed _ -> (q, r, d, p, f + 1))
    t.jobs (0, 0, 0, 0, 0)

let tenant_queued t tenant =
  Hashtbl.fold
    (fun _ j acc ->
      match j.state with
      | (Queued | Running) when j.tenant = tenant -> acc + 1
      | _ -> acc)
    t.jobs 0

let summary_json job =
  Json.Obj
    [
      ("job", Json.String ("j" ^ string_of_int job.id));
      ("tenant", Json.String job.tenant);
      ("workload", Json.String job.spec.Proto.workload);
      ("state", Json.String (state_name job.state));
      ("attempts", Json.Int job.attempts);
      ("note", Json.String job.note);
    ]
