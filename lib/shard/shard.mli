(** Multi-process sharded campaign runner.

    Partitions a campaign's seed-pure plan across [cfg.jobs] forked
    workers, supervises them (heartbeat watchdog, SIGKILL of hung
    workers, bounded respawn with backoff, inline adoption of exhausted
    shards, typed escalation), and merges the per-worker journals into a
    report byte-identical to {!Hb_fault.Campaign.run}'s. *)

module Campaign := Hb_fault.Campaign

val default : Supervisor.config
(** {!Supervisor.default}, the supervision settings [run] uses unless
    given [cfg]. *)

val run :
  ?journal:string ->
  ?resume:string ->
  ?deadline:Hb_recover.Deadline.t ->
  ?progress:Hb_obs.Progress.t ->
  ?cfg:Supervisor.config ->
  ?fleet:Hb_obs.Fleet.config ->
  mk:(unit -> Hb_cpu.Machine.t) ->
  Campaign.config ->
  Campaign.report
(** Execute the campaign across [cfg.jobs] worker processes (default
    {!default}).  [journal]/[resume] mirror the serial
    runner: shard files live at [base.shardK]; on completion the merged
    serial-format journal is written at [base], so any later [--resume]
    reconstructs with zero execution.  Killing any subset of workers (or
    the whole process tree) at any point, then resuming with the same
    [jobs], converges to the identical report; a jobs mismatch or other
    typed worker failure raises {!Hb_error.Hb_error} with a resume
    hint.  Without [journal]/[resume] the shard files are temporary and
    removed afterwards.  [deadline] yields a well-formed
    [deadline_expired] partial report.  [progress] gains a per-worker
    table ([/progress] and [hb_shard_*] gauges).

    [fleet] (default {!Hb_obs.Fleet.disabled}) attaches the fleet
    telemetry plane: workers append crash-tolerant sidecars next to
    their journal shards, an ambient {!Hb_obs.Fleet} collector records
    supervision lifecycle events and aggregates the sidecars for the
    live endpoints, and [fleet.chrome] writes a post-run unified Chrome
    trace (supervisor + worker tracks keyed by pid, lifecycle instant
    events).  Strictly read-only: the merged report and every journal
    are byte-identical with the fleet plane on or off.  A campaign that
    short-circuits on an already-complete base journal executes nothing
    and writes no fleet artifacts. *)
