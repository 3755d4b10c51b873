(** Code generation from {!Tast} to the HardBound ISA, parameterized by
    the protection scheme under evaluation.  All modes share one
    generator, so relative overheads between them are meaningful. *)

type mode =
  | Nochecks
      (** Uninstrumented baseline binary. *)
  | Hardbound
      (** The paper's full-safety compilation: the only extra code is
          [setbound.narrow] at pointer-creation points; checking and
          propagation are done by the hardware. *)
  | Hardbound_malloc_only
      (** Only explicit [__setbound] (i.e. the instrumented allocator)
          lowers to hardware setbound: Section 3.2's legacy-binary mode. *)
  | Softfat
      (** CCured/SEQ-style software fat pointers: value/base/bound triples
          in registers, split metadata in a software shadow space,
          explicit compare-and-branch checks. *)
  | Objtable
      (** Jones&Kelly-style object table (a splay tree in the MiniC
          runtime) consulted on dynamic pointer arithmetic; constant
          (struct-field) offsets statically elided, as in Dhurjati/Adve. *)

val mode_name : mode -> string

val mode_of_name : string -> mode option
(** The inverse of {!mode_name}, plus the aliases [none], [full],
    [malloc-only], [ccured] and [jk]: the one mode vocabulary of both
    CLIs and daemon job specs. *)

val machine_mode : mode -> Hardbound.Checker.mode
(** The hardware enforcement mode matching a compilation mode (software
    schemes run with the HardBound hardware off). *)

exception Codegen_error of string

type compiled = {
  program : Hb_isa.Types.program;
  globals_image : Hb_mem.Globals.t;
      (** the globals region: its size and the initialized globals and
          string literals at their offsets *)
}

val compile : mode:mode -> Tast.tprogram -> compiled
(** Generate the whole program, including the synthesized [_start]
    (startup initializers, object-table registration of globals, call to
    [main], exit). *)

val trusted_for_objtable : string -> bool
(** Runtime internals ([__ot_*], the allocator) that the object-table
    scheme must not instrument. *)
