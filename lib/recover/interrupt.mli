(** Cooperative shutdown requests: SIGTERM/SIGINT flip a flag that
    long-running loops poll at their natural yield points, winding down
    through the same partial-report path as a {!Deadline} expiry — the
    journal is fsync'd and closed, the report is well-formed, and the
    process exits with {!exit_code} plus a [--resume] hint. *)

val install : unit -> unit
(** Install SIGTERM/SIGINT handlers that record the signal.  Idempotent;
    safe to call from any mode. *)

val requested : unit -> bool
(** [true] once a shutdown signal has been delivered (or simulated). *)

val name : int -> string
(** ["SIGKILL"] for [Sys.sigkill], and so on; ["signal N"] otherwise. *)

val signal_name : unit -> string
(** The {!name} of the delivered signal, or ["none"]. *)

val reset : unit -> unit
(** Clear the flag (tests). *)

val simulate : unit -> unit
(** Pretend a SIGTERM was delivered without involving the kernel
    (tests). *)

val exit_code : int
(** Process exit code for an interrupted-but-well-formed partial run:
    6 — distinct from ok/violation/usage and the shard worker
    protocol. *)
