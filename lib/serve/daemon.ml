(** The daemon proper: HTTP front end, fork-per-job scheduler, watchdog,
    retry/backoff, pressure probe.

    Robustness invariants:

    - the fsync'd submit record is the admission acknowledgement; every
      job transition is journaled before it is answered, so a SIGKILL at
      any instant loses at most unacknowledged work;
    - job execution is the library campaign runner on a journal under
      the job's own directory — each retry resumes the acknowledged
      prefix, and the final report is byte-identical to the CLI's for
      the same spec (cmp-enforced in CI);
    - the scheduler holds one mutex for queue + worker state; HTTP
      handlers take the same mutex, and neither ever blocks on a worker
      (children are reaped with the non-blocking [Worker.poll], stuck
      ones SIGKILLed by the watchdog). *)

module Json = Hb_obs.Json
module Clock = Hb_obs.Clock
module Metrics = Hb_obs.Metrics
module Serve = Hb_obs.Serve
module Journal = Hb_recover.Journal
module Deadline = Hb_recover.Deadline
module Interrupt = Hb_recover.Interrupt
module Campaign = Hb_fault.Campaign
module Supervisor = Hb_shard.Supervisor
module Shard = Hb_shard.Shard
module Worker = Hb_shard.Worker
module Machine = Hb_cpu.Machine
module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen

type config = {
  port : int;
  dir : string;
  admission : Admission.config;
  job_deadline_s : float;
  max_attempts : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  watchdog_grace_s : float;
  poll_interval_s : float;
  read_timeout_s : float;
  max_request : int;
  log : (string -> unit) option;
}

let default ~port ~dir =
  {
    port;
    dir;
    admission = Admission.default ~workers:2;
    job_deadline_s = 300.;
    max_attempts = 3;
    backoff_base_s = 0.25;
    backoff_cap_s = 5.;
    watchdog_grace_s = 5.;
    poll_interval_s = 0.05;
    read_timeout_s = 5.;
    max_request = 65536;
    log = None;
  }

type running = { job : Queue.job; pid : int; kill_after_ns : int64 }

type t = {
  cfg : config;
  q : Queue.t;
  mutable server : Serve.t option;
  mu : Mutex.t;
  mutable running : running list;
  mutable level : Admission.level;
  mutable stopping : bool;
  mutable disk_failing : bool;
  mutable shed : int;
  mutable alive : bool;
  mutable scheduler : Thread.t option;
  (* compiled images cached per (workload, mode): forked children
     inherit them, so 500 treeadd jobs compile treeadd once *)
  images :
    (string * string, Hb_isa.Program.image * Hb_mem.Globals.t) Hashtbl.t;
}

let logf t fmt =
  Printf.ksprintf
    (fun s -> match t.cfg.log with Some f -> f s | None -> ())
    fmt

let port t = match t.server with Some s -> Serve.port s | None -> 0
let queue t = t.q

let report_path t (job : Queue.job) =
  Filename.concat (Queue.job_dir t.q job.Queue.id) "report.json"

let error_path t (job : Queue.job) =
  Filename.concat (Queue.job_dir t.q job.Queue.id) "error.txt"

let journal_base t (job : Queue.job) =
  Filename.concat (Queue.job_dir t.q job.Queue.id) "journal.jsonl"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* tmp + fsync + rename: a crash leaves either no report or a complete
   one, never a torn file a later [cmp] would trip over *)
let write_file_atomic path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc s;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Worker child                                                        *)

(* The child exits with the shard worker's protocol ({!Worker}): ok,
   typed error (terminal — retrying a bad spec cannot help), resumable
   partial (job deadline expired between runs), anything else a crash the
   scheduler retries. *)
let child_run t (job : Queue.job) ~attempt ~image ~globals =
  (match t.server with
  | Some s -> ( try Unix.close (Serve.listen_fd s) with _ -> ())
  | None -> ());
  let spec = job.Queue.spec in
  let code =
    try
      (match spec.Proto.chaos with
      | Some Proto.Hang ->
        (* never journals a byte: only the watchdog can end this *)
        while true do
          Unix.sleepf 3600.
        done
      | Some (Proto.Crash k) when attempt <= k -> Unix._exit Worker.exit_crash
      | _ -> ());
      let config =
        Build.config_for ~scheme:spec.Proto.scheme ~temporal:false
          ~max_instrs:Build.default_fuel spec.Proto.mode
      in
      Hardbound.Checker.reset_tally ();
      let mk () = Machine.create ~config ~globals image in
      let ccfg = Proto.campaign_config spec in
      let base = journal_base t job in
      let deadline =
        Deadline.of_secs
          (Some
             (Option.value spec.Proto.deadline_s
                ~default:t.cfg.job_deadline_s))
      in
      (* first attempt journals; every retry resumes the acknowledged
         prefix, so attempts compose into one campaign *)
      let resume_it = Journal.read_or_empty base <> [] in
      let journal = if resume_it then None else Some base in
      let resume = if resume_it then Some base else None in
      let report =
        if spec.Proto.jobs > 1 then
          Shard.run ?journal ?resume ~deadline
            ~cfg:{ Supervisor.default with Supervisor.jobs = spec.Proto.jobs }
            ~mk ccfg
        else Campaign.run ?journal ?resume ~deadline ~mk ccfg
      in
      write_file_atomic (report_path t job)
        (Json.to_string_pretty (Campaign.to_json report) ^ "\n");
      if report.Campaign.deadline_expired then Worker.exit_partial
      else Worker.exit_ok
    with
    | Hb_error.Hb_error (ctx, msg) ->
      (try
         write_file_atomic (error_path t job) (Hb_error.to_string (ctx, msg))
       with _ -> ());
      Worker.exit_error
    | e ->
      (try write_file_atomic (error_path t job) (Printexc.to_string e)
       with _ -> ());
      Worker.exit_crash
  in
  Unix._exit code

(* ------------------------------------------------------------------ *)
(* Scheduler (runs under t.mu)                                         *)

let retry_or_poison t (job : Queue.job) reason =
  if job.Queue.attempts >= t.cfg.max_attempts then begin
    let reason =
      Printf.sprintf "%s (attempt budget %d spent)" reason t.cfg.max_attempts
    in
    logf t "[serve] job j%d poisoned: %s" job.Queue.id reason;
    Queue.mark_poisoned t.q job ~reason
  end
  else begin
    (* the supervisor's tested pure schedule, with the daemon's base/cap *)
    let b =
      Supervisor.backoff ~base_s:t.cfg.backoff_base_s
        ~cap_s:t.cfg.backoff_cap_s ~restart:job.Queue.attempts
    in
    logf t "[serve] job j%d requeued (%s); attempt %d/%d, backoff %.2fs"
      job.Queue.id reason job.Queue.attempts t.cfg.max_attempts b;
    Queue.mark_requeue t.q job ~backoff_s:b ~reason
      ~not_before_ns:(Int64.add (Clock.now_ns ()) (Clock.ns_of_s b))
  end

let reap t =
  t.running <-
    List.filter
      (fun r ->
        match Worker.poll r.pid with
        | None -> true
        | Some Worker.Ok ->
          if Sys.file_exists (report_path t r.job) then begin
            logf t "[serve] job j%d done (attempt %d)" r.job.Queue.id
              r.job.Queue.attempts;
            Queue.mark_done t.q r.job
          end
          else retry_or_poison t r.job "worker exited 0 without a report";
          false
        | Some Worker.Error ->
          let msg =
            match read_file (error_path t r.job) with
            | s -> s
            | exception Sys_error _ ->
              "worker failed with a typed error before it could be recorded"
          in
          logf t "[serve] job j%d failed: %s" r.job.Queue.id msg;
          Queue.mark_failed t.q r.job ~error:msg;
          false
        | Some Worker.Partial ->
          retry_or_poison t r.job
            "job deadline expired (resumable prefix journaled)";
          false
        | Some (Worker.Crashed reason) ->
          retry_or_poison t r.job ("worker " ^ reason);
          false)
      t.running

let watchdog t =
  let now = Clock.now_ns () in
  t.running <-
    List.filter
      (fun r ->
        if now >= r.kill_after_ns then begin
          logf t
            "[serve] watchdog: job j%d pid %d stuck past its deadline; \
             SIGKILL"
            r.job.Queue.id r.pid;
          Supervisor.sigkill r.pid;
          retry_or_poison t r.job "stuck past its deadline (watchdog SIGKILL)";
          false
        end
        else true)
      t.running

let image_for t (spec : Proto.spec) =
  let key = (spec.Proto.workload, Codegen.mode_name spec.Proto.mode) in
  match Hashtbl.find_opt t.images key with
  | Some iv -> iv
  | None ->
    let iv = Build.compile ~mode:spec.Proto.mode (Proto.source spec) in
    Hashtbl.replace t.images key iv;
    iv

let spawn t (job : Queue.job) =
  match image_for t job.Queue.spec with
  | exception e ->
    (* a spec that cannot compile is terminal, not retryable *)
    Queue.mark_failed t.q job
      ~error:(Printf.sprintf "workload failed to compile: %s"
                (Printexc.to_string e))
  | image, globals ->
    Queue.mark_start t.q job ~pid:0;
    let attempt = job.Queue.attempts in
    let deadline_s =
      Option.value job.Queue.spec.Proto.deadline_s
        ~default:t.cfg.job_deadline_s
    in
    flush stdout;
    flush stderr;
    (match Unix.fork () with
    | exception Unix.Unix_error (err, _, _) ->
      (* mark_start already journaled the attempt; a swallowed fork
         failure (e.g. EAGAIN) would strand the job Running-but-untracked
         until a restart replays the journal — requeue it with backoff so
         it stays schedulable in this daemon's lifetime *)
      retry_or_poison t job
        (Printf.sprintf "fork failed: %s" (Unix.error_message err))
    | 0 -> child_run t job ~attempt ~image ~globals
    | pid ->
      logf t "[serve] job j%d pid %d spawned (attempt %d/%d)" job.Queue.id
        pid attempt t.cfg.max_attempts;
      job.Queue.state <- Queue.Running pid;
      t.running <-
        {
          job;
          pid;
          kill_after_ns =
            Int64.add (Clock.now_ns ())
              (Clock.ns_of_s (deadline_s +. t.cfg.watchdog_grace_s));
        }
        :: t.running)

let schedule t =
  let target =
    if t.stopping then 0 else Admission.workers_for t.cfg.admission t.level
  in
  let continue = ref true in
  while !continue && List.length t.running < target do
    match Queue.next_eligible t.q ~now_ns:(Clock.now_ns ()) with
    | Some job -> spawn t job
    | None -> continue := false
  done

let tick t ~probe_now =
  reap t;
  watchdog t;
  if probe_now then begin
    let level =
      Admission.probe t.cfg.admission ~rss_kb:(Admission.rss_kb ())
        ~disk_failing:t.disk_failing
    in
    if level <> t.level then
      logf t "[serve] pressure level %s -> %s"
        (Admission.level_name t.level)
        (Admission.level_name level);
    t.level <- level
  end;
  if Interrupt.requested () && not t.stopping then begin
    logf t "[serve] %s received: draining" (Interrupt.signal_name ());
    t.stopping <- true
  end;
  schedule t

(* ------------------------------------------------------------------ *)
(* HTTP plane                                                          *)

let overloaded_response t reason =
  let retry = t.cfg.admission.Admission.retry_after_s in
  Serve.response ~status:"503 Service Unavailable"
    ~content_type:"application/json"
    ~headers:
      [ ("Retry-After", string_of_int (int_of_float (Float.ceil retry))) ]
    (Json.to_string_pretty
       (Json.Obj
          [
            ("error", Json.String "overloaded");
            ("reason", Json.String reason);
            ("retry_after_s", Json.Float retry);
          ])
    ^ "\n")

let bad_request msg =
  Serve.response ~status:"400 Bad Request" ~content_type:"application/json"
    (Json.to_string_pretty
       (Json.Obj
          [
            ("error", Json.String "bad_request"); ("message", Json.String msg);
          ])
    ^ "\n")

let json_response ?(status = "200 OK") j =
  Serve.response ~status ~content_type:"application/json"
    (Json.to_string_pretty j ^ "\n")

let not_found what =
  Serve.response ~status:"404 Not Found" ~content_type:"application/json"
    (Json.to_string_pretty
       (Json.Obj
          [ ("error", Json.String "not_found"); ("message", Json.String what) ])
    ^ "\n")

let job_id_of_path path =
  (* "/jobs/j12" or "/jobs/j12/report" *)
  match String.split_on_char '/' path with
  | [ ""; "jobs"; jid ] | [ ""; "jobs"; jid; "report" ] ->
    if String.length jid > 1 && jid.[0] = 'j' then
      int_of_string_opt (String.sub jid 1 (String.length jid - 1))
    else None
  | _ -> None

let job_json _t (job : Queue.job) =
  match Queue.summary_json job with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ (match job.Queue.state with
        | Queue.Done ->
          [
            ( "report_url",
              Json.String (Printf.sprintf "/jobs/j%d/report" job.Queue.id) );
          ]
        | _ -> [])
      @ [ ("runs", Json.Int job.Queue.spec.Proto.runs) ])
  | j -> j

let submit_handler t body =
  let spec =
    match Proto.spec_of_json (Json.of_string body) with
    | spec -> Ok spec
    | exception Json.Parse_error msg -> Error msg
    | exception Hb_error.Hb_error (ctx, msg) ->
      Error (Hb_error.to_string (ctx, msg))
  in
  match spec with
  | Error msg -> bad_request msg
  | Ok spec ->
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        if t.stopping then begin
          t.shed <- t.shed + 1;
          overloaded_response t "daemon is draining for shutdown"
        end
        else begin
          let queued, running, _, _, _ = Queue.counts t.q in
          match
            Admission.decide t.cfg.admission ~level:t.level
              ~queued:(queued + running) ~tenant:spec.Proto.tenant
              ~tenant_queued:(Queue.tenant_queued t.q spec.Proto.tenant)
          with
          | Admission.Overloaded reason ->
            t.shed <- t.shed + 1;
            overloaded_response t reason
          | Admission.Admit -> (
            match Queue.submit t.q ~spec with
            | job ->
              json_response ~status:"202 Accepted"
                (Json.Obj
                   [
                     ("job", Json.String ("j" ^ string_of_int job.Queue.id));
                     ("status", Json.String "queued");
                     ( "status_url",
                       Json.String
                         (Printf.sprintf "/jobs/j%d" job.Queue.id) );
                   ])
            | exception (Hb_error.Hb_error _ | Sys_error _
                        | Unix.Unix_error _) ->
              (* a submit we could not journal was never acknowledged;
                 flag the disk so the probe degrades to Refuse *)
              t.disk_failing <- true;
              t.shed <- t.shed + 1;
              overloaded_response t
                "queue journal write failed; refusing unacknowledgeable \
                 work")
        end)

let handler t ~meth ~path ~body =
  match (meth, path) with
  | "POST", "/jobs" -> Some (submit_handler t body)
  | "POST", "/shutdown" ->
    Mutex.lock t.mu;
    t.stopping <- true;
    Mutex.unlock t.mu;
    Some (json_response (Json.Obj [ ("ok", Json.Bool true); ("draining", Json.Bool true) ]))
  | "GET", "/jobs" ->
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        Some
          (json_response
             (Json.Obj
                [ ("jobs", Json.List (List.map (job_json t) (Queue.jobs t.q))) ])))
  | meth_, _ when job_id_of_path path <> None -> (
    let id = Option.get (job_id_of_path path) in
    let want_report =
      String.length path >= 7
      && String.sub path (String.length path - 7) 7 = "/report"
    in
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        let reply =
          match (meth_, Queue.find t.q id) with
          | _, None -> not_found (Printf.sprintf "no job j%d" id)
          | "GET", Some job when want_report -> (
            match job.Queue.state with
            | Queue.Done -> (
              (* a Done job can lack its report file: mark_done is
                 journaled, but the report rename is not
                 directory-fsynced, so an OS crash (or a manual
                 deletion) can lose it — answer typed rather than let
                 the exception escape *)
              match read_file (report_path t job) with
              | body ->
                Serve.response ~status:"200 OK"
                  ~content_type:"application/json" body
              | exception Sys_error _ ->
                json_response ~status:"500 Internal Server Error"
                  (Json.Obj
                     [
                       ("error", Json.String "report_missing");
                       ( "message",
                         Json.String
                           (Printf.sprintf
                              "job j%d is done but its report file is \
                               missing"
                              id) );
                     ]))
            | st ->
              json_response ~status:"409 Conflict"
                (Json.Obj
                   [
                     ("error", Json.String "not_ready");
                     ("state", Json.String (Queue.state_name st));
                   ]))
          | "GET", Some job -> json_response (job_json t job)
          | _, Some _ ->
            Serve.response ~status:"405 Method Not Allowed"
              "method not allowed\n"
        in
        Some reply))
  | _ -> None

let metrics t () =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let reg = Metrics.create () in
      let queued, running, done_, poisoned, failed = Queue.counts t.q in
      Metrics.set_counter reg "hb_serve_up" 1;
      Metrics.set_counter reg "hb_serve_queued" queued;
      Metrics.set_counter reg "hb_serve_running" running;
      Metrics.set_counter reg "hb_serve_done_total" done_;
      Metrics.set_counter reg "hb_serve_poisoned_total" poisoned;
      Metrics.set_counter reg "hb_serve_failed_total" failed;
      Metrics.set_counter reg "hb_serve_shed_total" t.shed;
      Metrics.set_counter reg "hb_serve_level"
        (Admission.level_rank t.level);
      Metrics.set_counter reg "hb_serve_workers_target"
        (if t.stopping then 0
         else Admission.workers_for t.cfg.admission t.level);
      Metrics.set_counter reg "hb_serve_rss_kb" (Admission.rss_kb ());
      (* per-tenant depth, labeled like every other hb_* family *)
      let tenants = Hashtbl.create 8 in
      List.iter
        (fun (j : Queue.job) ->
          match j.Queue.state with
          | Queue.Queued | Queue.Running _ ->
            Hashtbl.replace tenants j.Queue.tenant
              (1
              + Option.value
                  (Hashtbl.find_opt tenants j.Queue.tenant)
                  ~default:0)
          | _ -> ())
        (Queue.jobs t.q);
      Hashtbl.iter
        (fun tenant n ->
          Metrics.set_counter reg
            ~labels:[ ("tenant", tenant) ]
            "hb_serve_tenant_active" n)
        tenants;
      Metrics.to_prometheus reg)

let progress t () =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let queued, running, done_, poisoned, failed = Queue.counts t.q in
      Json.Obj
        [
          ("daemon", Json.String "hb-serve");
          ("version", Json.Int 1);
          ("dir", Json.String t.cfg.dir);
          ("level", Json.String (Admission.level_name t.level));
          ("stopping", Json.Bool t.stopping);
          ( "workers",
            Json.Int
              (if t.stopping then 0
               else Admission.workers_for t.cfg.admission t.level) );
          ("queued", Json.Int queued);
          ("running", Json.Int running);
          ("done", Json.Int done_);
          ("poisoned", Json.Int poisoned);
          ("failed", Json.Int failed);
          ("shed", Json.Int t.shed);
          ("jobs", Json.List (List.map (job_json t) (Queue.jobs t.q)));
        ])

(* ------------------------------------------------------------------ *)

let start cfg =
  let t =
    {
      cfg;
      q = Queue.open_ ~dir:cfg.dir;
      server = None;
      mu = Mutex.create ();
      running = [];
      level = Admission.Normal;
      stopping = false;
      disk_failing = false;
      shed = 0;
      alive = true;
      scheduler = None;
      images = Hashtbl.create 8;
    }
  in
  let server =
    try
      Serve.start ~port:cfg.port ~read_timeout_s:cfg.read_timeout_s
        ~max_request:cfg.max_request ~handler:(handler t)
        ~metrics:(metrics t) ~progress:(progress t) ()
    with e ->
      Queue.close t.q;
      raise e
  in
  t.server <- Some server;
  let probe_every =
    max 1 (int_of_float (Float.round (1. /. cfg.poll_interval_s)))
  in
  let ticks = ref 0 in
  t.scheduler <-
    Some
      (Thread.create
         (fun () ->
           while t.alive do
             incr ticks;
             Mutex.lock t.mu;
             (try tick t ~probe_now:(!ticks mod probe_every = 1)
              with e ->
                logf t "[serve] scheduler error: %s" (Printexc.to_string e));
             Mutex.unlock t.mu;
             Unix.sleepf cfg.poll_interval_s
           done)
         ());
  logf t "[serve] daemon on 127.0.0.1:%d, queue %s" (Serve.port server)
    (Queue.path t.q);
  t

let stop ?(hard = false) t =
  t.alive <- false;
  (match t.scheduler with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ());
  t.scheduler <- None;
  List.iter (fun r -> Supervisor.sigkill r.pid) t.running;
  if not hard then
    (* journal the requeue so a clean shutdown's jobs restart without
       relying on crash replay; a hard stop journals nothing on purpose
       (it simulates SIGKILL for the crash-resilience tests) *)
    List.iter
      (fun r ->
        Queue.mark_requeue t.q r.job ~reason:"daemon stopping"
          ~not_before_ns:0L)
      t.running;
  t.running <- [];
  (match t.server with Some s -> Serve.stop s | None -> ());
  t.server <- None;
  Queue.close t.q

let run cfg =
  Interrupt.install ();
  let t = start cfg in
  let rec wait () =
    if Interrupt.requested () then ()
    else if
      t.stopping
      && (Mutex.lock t.mu;
          let idle = t.running = [] in
          Mutex.unlock t.mu;
          idle)
    then ()
    else begin
      Unix.sleepf 0.2;
      wait ()
    end
  in
  wait ();
  logf t "[serve] shutting down (%s)"
    (if Interrupt.requested () then Interrupt.signal_name () else "drained");
  stop t
