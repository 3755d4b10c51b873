(** Worker supervision: run one {!Worker} per shard through a
    {!Pool} (exits, shard-journal growth as liveness, SIGKILL of hung
    workers, exponential backoff), respawn dead workers, adopt exhausted
    shards inline (degradation), and escalate typed worker errors. *)

module Campaign := Hb_fault.Campaign

type config = {
  jobs : int;
  max_worker_restarts : int;
      (** respawns per shard before the parent adopts the slice inline *)
  heartbeat_timeout_s : float;
      (** shard-journal silence after which a worker counts as hung *)
  backoff_base_s : float;
  backoff_cap_s : float;
  log : (string -> unit) option;
      (** supervision event sink (spawn/kill/respawn/adopt lines) *)
}

val default : config
(** 2 jobs, 3 restarts, 60 s heartbeat timeout, 0.25 s–5 s backoff,
    no log.  The pool is polled every 50 ms. *)

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
    message carries a [--resume] hint.  Any exception that leaves [run]
    first SIGKILLs and reaps every live worker.  While an
    {!Hb_obs.Fleet} collector is installed, workers append telemetry
    sidecars and lifecycle moments are recorded as fleet events. *)
