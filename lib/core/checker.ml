(** Implicit bounds checking (Figure 3 (C)/(D) of the paper).

    Every load and store consults the metadata of the register being
    dereferenced.  Under full safety, dereferencing a non-pointer raises a
    non-pointer exception; under the malloc-only mode of Section 3.2,
    accesses without bounds information are simply not checked (legacy
    binaries only get heap-object protection). *)

(** Enforcement mode. *)
type mode =
  | Off          (** HardBound hardware disabled (baseline machine). *)
  | Malloc_only  (** Check only accesses that carry bounds information. *)
  | Full         (** Complete spatial safety: non-pointer deref is fatal. *)

let mode_name = function
  | Off -> "off"
  | Malloc_only -> "malloc-only"
  | Full -> "full"

type violation = {
  pc : int;           (* linked code index of the faulting instruction *)
  addr : int;         (* effective address of the access *)
  value : int;        (* the faulting pointer's register value *)
  width : int;
  meta : Meta.t;
  is_store : bool;
}

exception Bounds_violation of violation
exception Non_pointer_deref of violation

let describe_violation v =
  Printf.sprintf "%s of %d byte(s) at 0x%x via 0x%x %s (pc=%d)"
    (if v.is_store then "store" else "load")
    v.width v.addr v.value (Meta.to_string v.meta) v.pc

(** Process-wide check/violation tally.  The checker itself is stateless
    (a pure function of mode and metadata), so the counters the metrics
    registry wants live here as module state: they accumulate across
    every machine in the process until {!reset_tally}. *)
type tally = {
  mutable checks : int;
  mutable bounds_violations : int;
  mutable non_pointer_derefs : int;
  mutable handled_traps : int;
      (* violations a recovery supervisor turned into precise traps and
         survived (report / null-guard / rollback) instead of aborting *)
}

let tally =
  { checks = 0; bounds_violations = 0; non_pointer_derefs = 0;
    handled_traps = 0 }

let reset_tally () =
  tally.checks <- 0;
  tally.bounds_violations <- 0;
  tally.non_pointer_derefs <- 0;
  tally.handled_traps <- 0

let export_tally (reg : Hb_obs.Metrics.t) =
  Hb_obs.Metrics.set_counter reg "checker.checks" tally.checks;
  Hb_obs.Metrics.set_counter reg "checker.bounds_violations"
    tally.bounds_violations;
  Hb_obs.Metrics.set_counter reg "checker.non_pointer_derefs"
    tally.non_pointer_derefs;
  Hb_obs.Metrics.set_counter reg "checker.handled_traps" tally.handled_traps

let bounds_fail v =
  tally.bounds_violations <- tally.bounds_violations + 1;
  raise (Bounds_violation v)

let non_pointer_fail v =
  tally.non_pointer_derefs <- tally.non_pointer_derefs + 1;
  raise (Non_pointer_deref v)

(** Raises on violation; returns [true] iff the access was actually
    checked (used to count checked dereferences in statistics).  The
    pointer's bounds arrive as plain ints: a [Meta.t] is built only for a
    violation record.

    The machine calls this once per load and store, so the pass path
    makes no further call: [Meta.bounded] and [Meta.covers] are spelled
    out here because dune's dev profile compiles every unit with
    -opaque, which keeps a call into [Meta] from being inlined (test_core
    checks both against their owner on boundary values). *)
let check mode ~base ~bound ~pc ~addr ~value ~width ~is_store =
  match mode with
  | Off -> false
  | Malloc_only ->
    if base <> 0 || bound <> 0 then begin
      tally.checks <- tally.checks + 1;
      if not (addr >= base && addr + width <= bound) then
        bounds_fail
          { pc; addr; value; width; meta = { base; bound }; is_store };
      true
    end
    else false
  | Full ->
    tally.checks <- tally.checks + 1;
    if base = 0 && bound = 0 then
      non_pointer_fail
        { pc; addr; value; width; meta = { base; bound }; is_store };
    if not (addr >= base && addr + width <= bound) then
      bounds_fail { pc; addr; value; width; meta = { base; bound }; is_store };
    true
