(** The daemon's crash-resilient job table: a write-ahead journal in the
    PR 5 format ({!Hb_recover.Journal}) plus an in-memory index replayed
    from it.

    Every transition is one fsync'd JSONL record — [submit] (the
    admission acknowledgement: once it returns, the job survives any
    crash), [start], [requeue], [done], [poisoned], [failed].  Reopening
    the journal replays the records: terminal jobs stay terminal,
    anything that was running is re-admitted as queued with its attempt
    count intact, and a torn final record is repaired by the journal's
    [append_to] semantics — the acknowledged prefix is exactly what
    comes back. *)

module Json := Hb_obs.Json

type state =
  | Queued
  | Running
  | Done
  | Poisoned of string  (** retry budget spent; reason *)
  | Failed of string  (** typed error; retrying cannot help *)

val state_name : state -> string
(** [queued | running | done | poisoned | failed]. *)

type job = {
  id : int;
  tenant : string;
  spec : Proto.spec;
  mutable state : state;
  mutable attempts : int;  (** started attempts so far *)
  mutable not_before_ns : int64;  (** backoff gate (monotonic clock) *)
  mutable note : string;  (** last requeue/poison/failure reason *)
}

type t

val open_ : dir:string -> t
(** Open (or create) the queue rooted at [dir]: the journal lives at
    [dir/queue.jsonl], per-job artifacts under [dir/jobs/jN/].  An
    existing journal is replayed — with its torn tail repaired — before
    the writer reattaches.  Raises a typed {!Hb_error.Hb_error} on a
    corrupt record mid-journal (naming path and line) or a header
    mismatch. *)

val close : t -> unit

val path : t -> string
(** The journal path (tests truncate it to simulate torn tails). *)

val job_dir : t -> int -> string
(** [dir/jobs/jN] — the job's campaign journal and report live here. *)

val submit : t -> spec:Proto.spec -> job
(** Admit a job: assign the next id, create its artifact directory, then
    journal the submit record (fsync — this is the durability
    acknowledgement).  The directory comes first so any failure raises
    before the job is durably acknowledged — a submit that raises was
    never admitted. *)

val find : t -> int -> job option
val jobs : t -> job list
(** All jobs, ascending id. *)

val next_eligible : t -> now_ns:int64 -> job option
(** The queued job to start next, or [None]: round-robin across tenants
    (least-recently-picked tenant first, lowest id within), skipping
    jobs still inside their backoff window ([not_before_ns] in the
    future). *)

val mark_start : t -> job -> unit
(** Journal the start of the next attempt ([attempts] increments). *)

val mark_requeue :
  t -> ?backoff_s:float -> job -> reason:string -> not_before_ns:int64 -> unit
(** Re-admit a job as queued behind the [not_before_ns] backoff gate.
    [backoff_s] (default 0) is the relative delay journaled with the
    record: replay re-applies it from restart time, so a daemon restart
    does not collapse a crash-looping job's gate into an immediate
    retry. *)

val mark_done : t -> job -> unit
val mark_poisoned : t -> job -> reason:string -> unit
val mark_failed : t -> job -> error:string -> unit

val counts : t -> int * int * int * int * int
(** (queued, running, done, poisoned, failed). *)

val tenant_queued : t -> string -> int
(** Queued + running jobs charged to a tenant (its quota usage). *)

val summary_json : job -> Json.t
(** One job as the status endpoints render it: id, tenant, workload,
    state, attempts, note. *)
