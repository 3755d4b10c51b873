(** One shard worker: executes its slice of the plan, journaling every
    acknowledged run into its own shard file; resumable at any byte. *)

module Campaign := Hb_fault.Campaign

val run_inline :
  mk:(unit -> Hb_cpu.Machine.t) ->
  cfg:Campaign.config ->
  golden:Campaign.golden ->
  jobs:int ->
  shard:int ->
  path:string ->
  ?fleet:bool ->
  ?deadline:Hb_recover.Deadline.t ->
  unit ->
  Campaign.report
(** Execute (or resume) shard [shard]'s slice, appending to the shard
    journal at [path].  Replays the acknowledged prefix from the journal
    without re-executing it; terminates the file with a shard-done or
    shard-partial marker.  {!Supervisor} runs it in each forked worker,
    and in the parent when a shard's respawn budget is exhausted.
    [fleet] (default off) additionally appends crash-tolerant telemetry
    — per-run wall latencies and periodic snapshots — to the journal's
    {!Hb_obs.Fleet} sidecar; the journal and report stay byte-identical
    either way. *)
