(** Worker supervision: fork one {!Worker.child} per shard, poll for
    exits, watch shard-journal growth for liveness, SIGKILL hung
    workers, respawn with exponential backoff, adopt exhausted shards
    inline (degradation), and escalate typed worker errors. *)

module Campaign := Hb_fault.Campaign

type config = {
  jobs : int;
  max_worker_restarts : int;
      (** respawns per shard before the parent adopts the slice inline *)
  heartbeat_timeout_s : float;
      (** shard-journal silence after which a worker counts as hung *)
  backoff_base_s : float;
  backoff_cap_s : float;
  poll_interval_s : float;
  log : (string -> unit) option;
      (** supervision event sink (spawn/kill/respawn/adopt lines) *)
  fleet : bool;
      (** workers append {!Hb_obs.Fleet} telemetry sidecars, and
          lifecycle moments (spawn/respawn/watchdog-kill/adopt) are
          recorded as fleet events; read-only w.r.t. journals and
          reports *)
}

val default : config
(** 2 jobs, 3 restarts, 60 s heartbeat timeout, 0.25 s–5 s backoff,
    50 ms poll, no log, fleet off. *)

val backoff : base_s:float -> cap_s:float -> restart:int -> float
(** Pure respawn backoff schedule: the delay before respawn attempt
    [restart] (1-based) — [base_s] doubled per attempt, clamped at
    [cap_s].  Deterministic, monotone non-decreasing, and bounded;
    [restart <= 0] is 0.  The daemon retries jobs on it too. *)

val backoff_s : config -> restart:int -> float
(** {!backoff} with the config's [backoff_base_s] and [backoff_cap_s]. *)

val backoff_schedule : config -> float list
(** The delays a shard walks through its whole respawn budget:
    [List.init max_worker_restarts (fun i -> backoff_s ~restart:(i+1))]. *)

val sigkill : int -> unit
(** SIGKILL a child and reap it (retrying [waitpid] on EINTR); a child
    that is already gone is not an error. *)

val run :
  mk:(unit -> Hb_cpu.Machine.t) ->
  cfg:Campaign.config ->
  golden:Campaign.golden ->
  base:string ->
  extra:Campaign.record list ->
  ?deadline:Hb_recover.Deadline.t ->
  ?progress:Hb_obs.Progress.t ->
  config ->
  unit
(** Supervise the whole sharded execution to quiescence: returns once
    every shard is done or deadline-partial (their journals then hold
    the full acknowledged record set for {!Merge}).  [extra] is a
    partial base journal's prior records (counted as completed, never
    re-supervised).  Raises {!Hb_error.Hb_error} if a worker reports a
    typed error — the remaining workers are SIGKILLed first and the
    message carries a [--resume] hint. *)
