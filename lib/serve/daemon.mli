(** The simulation daemon: a persistent multi-tenant job service over
    the loopback HTTP plane.

    [POST /jobs] submits a campaign spec ({!Proto.spec}); the fsync'd
    queue-journal record is the acknowledgement, so an accepted job
    survives a SIGKILL of the daemon and resumes byte-identically on
    restart.  Jobs run in forked worker processes (one campaign each,
    journaled under [dir/jobs/jN/]), under a per-job wall deadline and a
    watchdog; a crashed or stuck attempt is requeued with capped
    exponential backoff until the attempt budget poisons it.  Admission
    is bounded (global depth + per-tenant fairness) and pressure-aware:
    overload is a typed [overloaded] response with a retry-after hint,
    memory pressure shrinks the worker pool, and a failing queue disk
    refuses new work — while [/metrics], [/progress] and per-job status
    keep serving throughout.

    Routes: [POST /jobs], [GET /jobs], [GET /jobs/jN],
    [GET /jobs/jN/report], [POST /shutdown], plus the built-in
    [GET /metrics] / [/progress] / [/healthz]. *)

type config = {
  port : int;  (** 0 binds an ephemeral port (tests) *)
  dir : string;  (** queue root: journal + per-job artifacts *)
  admission : Admission.config;
  job_deadline_s : float;  (** default per-job wall budget *)
  max_attempts : int;  (** started attempts before a job is poisoned *)
  backoff_base_s : float;  (** requeue backoff: base * 2^(attempt-1) *)
  backoff_cap_s : float;  (** ... clamped here *)
  watchdog_grace_s : float;
      (** SIGKILL a worker this long after its deadline should have made
          it exit on its own *)
  poll_interval_s : float;
  log : (string -> unit) option;
}

val default : port:int -> dir:string -> config
(** 2 workers, 64-job queue, 32 per tenant, 300 s job deadline, 3
    attempts, 0.25 s–5 s backoff, 5 s watchdog grace. *)

type t

val start : config -> t
(** Open (replaying) the queue journal, bind the HTTP plane, and start
    the scheduler thread.  Raises a typed {!Hb_error.Hb_error} if the
    port is taken or the journal is corrupt. *)

val port : t -> int
val queue : t -> Queue.t

val stop : ?hard:bool -> t -> unit
(** Graceful by default: SIGKILL the worker children but journal their
    requeue (reason ["daemon stopping"]), close the queue and the HTTP
    plane.  [~hard:true] simulates a daemon crash for tests: children
    are killed and nothing else is journaled, so a reopened queue
    replays the same state a SIGKILLed daemon would leave behind. *)

val run : config -> unit
(** [start], then serve until a SIGTERM/SIGINT ({!Hb_recover.Interrupt})
    or a [POST /shutdown] finishes draining the running attempts; then
    stop gracefully.  Queued jobs stay journaled for the next start. *)
