(** The implicit bounds check performed by every load and store
    (Figure 3 (C)/(D) of the paper). *)

(** Enforcement mode of the HardBound hardware. *)
type mode =
  | Off          (** Hardware disabled: the baseline machine. *)
  | Malloc_only
      (** Section 3.2's legacy-binary mode: only accesses carrying bounds
          information (seeded by the instrumented allocator) are checked;
          non-pointer dereferences pass. *)
  | Full
      (** Complete spatial safety: dereferencing a value without bounds
          metadata raises a non-pointer exception. *)

val mode_name : mode -> string

(** Everything a trap handler would want to know about a violation. *)
type violation = {
  pc : int;
  addr : int;
  value : int;  (** the faulting pointer's register value *)
  width : int;
  meta : Meta.t;
  is_store : bool;
}

exception Bounds_violation of violation
exception Non_pointer_deref of violation

val describe_violation : violation -> string

(** Process-wide check/violation tally.  The checker itself is stateless,
    so these counters live as module state: they accumulate across every
    machine in the process until {!reset_tally} (reset before a run whose
    metrics snapshot must be reproducible). *)
type tally = {
  mutable checks : int;
  mutable bounds_violations : int;
  mutable non_pointer_derefs : int;
  mutable handled_traps : int;
      (** violations a recovery supervisor turned into precise traps and
          survived (report / null-guard / rollback) instead of aborting —
          bumped by [Hb_recover.Recover], not by the checker itself *)
}

val tally : tally
val reset_tally : unit -> unit

val export_tally : Hb_obs.Metrics.t -> unit
(** Report the tally into a metrics registry as [checker.*] counters. *)

val check :
  mode ->
  base:int ->
  bound:int ->
  pc:int ->
  addr:int ->
  value:int ->
  width:int ->
  is_store:bool ->
  bool
(** Perform the check on a pointer with bounds [\[base, bound)]; raises on
    violation.  Returns [true] iff the access was actually checked (used
    for statistics).  Allocates only the violation record. *)
