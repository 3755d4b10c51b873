(** Bounded-pointer metadata: the sidecar [{base; bound}] that HardBound
    (conceptually) attaches to every register and memory word
    (Section 3.1 of the paper). *)

type t = { base : int; bound : int }
(** [base] is the first valid address of the referent; [bound] the first
    address after it.  [{0; 0}] is the canonical non-pointer. *)

val non_pointer : t
(** Metadata of a non-pointer value: base = bound = 0. *)

val bounded : base:int -> bound:int -> bool
(** [true] unless both are zero: does a value with these bounds carry
    pointer metadata?  {!is_pointer} on unboxed fields. *)

val is_pointer : t -> bool
(** [true] unless both fields are zero. *)

val size : t -> int
(** Referent size in bytes ([bound - base]); meaningless for
    non-pointers. *)

val make : base:int -> size:int -> t
(** Bounds covering [size] bytes starting at [base]. *)

val unsafe : t
(** The paper's escape hatch (Section 3.2): base 0, bound MAXINT — passes
    every check.  For trusted low-level code only. *)

val code_pointer : t
(** Code pointers carry base = bound = MAXINT (Section 6.1): valid as
    indirect-call targets, but failing every data bounds check so that
    function pointers cannot be forged into data pointers. *)

val equal : t -> t -> bool

val to_string : t -> string

val covers : base:int -> bound:int -> addr:int -> width:int -> bool
(** Width-aware spatial check: does the access [addr, addr+width) fall
    inside [base, bound)? *)
