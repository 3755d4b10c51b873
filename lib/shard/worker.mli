(** One shard worker: executes its slice of the plan, journaling every
    acknowledged run into its own shard file; resumable at any byte. *)

module Campaign := Hb_fault.Campaign

val exit_ok : int
val exit_partial : int
(** Wall-clock deadline expired with the slice incomplete. *)

val exit_error : int
(** Typed [Hb_error]; the message is journaled as a shard-error record
    and respawning is pointless. *)

val exit_crash : int
(** Untyped failure; a respawn may recover. *)

(** How a forked worker ended, by the codes above. *)
type exit =
  | Ok
  | Partial
  | Error
  | Crashed of string
      (** Any other exit code, or a signal: ["exited with code N"] or
          ["killed by signal N"]. *)

val poll : int -> exit option
(** Non-blocking [waitpid] on a forked worker: [None] while it runs (or
    the wait is interrupted), [Some] once it has exited and been reaped. *)

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
    shard-partial marker.  Also called directly by the supervisor's
    parent process when a worker's respawn budget is exhausted.
    [fleet] (default off) additionally appends crash-tolerant telemetry
    — per-run wall latencies and periodic snapshots — to the journal's
    {!Hb_obs.Fleet} sidecar; the journal and report stay byte-identical
    either way. *)

val child :
  mk:(unit -> Hb_cpu.Machine.t) ->
  cfg:Campaign.config ->
  golden:Campaign.golden ->
  jobs:int ->
  shard:int ->
  path:string ->
  ?fleet:bool ->
  ?deadline:Hb_recover.Deadline.t ->
  unit ->
  'a
(** The forked child's whole life: [run_inline], then [Unix._exit] with
    the protocol code above.  Never returns, never writes to stdio. *)
