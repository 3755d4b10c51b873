(** Bounded-pointer metadata: the sidecar {base; bound} of Section 3.1.

    The base is the first valid address of the region; the bound is the
    first address *after* the region.  [base = bound = 0] is the canonical
    non-pointer encoding — such a value raises a non-pointer exception if
    dereferenced under full-safety mode, and is never bounds-checked. *)

type t = { base : int; bound : int }

let non_pointer = { base = 0; bound = 0 }

(** Does a value with these bounds carry pointer metadata?  Base and bound
    come as plain ints, the way the register file holds them, so the
    checker and the machine never build a record to ask. *)
let bounded ~base ~bound = base <> 0 || bound <> 0

let is_pointer m = bounded ~base:m.base ~bound:m.bound

(** Size in bytes of the referent region (meaningless for non-pointers). *)
let size m = m.bound - m.base

let make ~base ~size = { base; bound = base + size }

(** The paper's escape hatch (Section 3.2): a pointer that passes every
    bounds check.  Plays the role of unmanaged code in C#. *)
let unsafe = { base = 0; bound = Hb_isa.Types.max_int32u }

(** Code pointers get base = bound = MAXINT (Section 6.1): they are
    distinguishable from non-pointers but fail every data bounds check, so
    arbitrary function pointers cannot be forged into data pointers. *)
let code_pointer =
  { base = Hb_isa.Types.max_int32u; bound = Hb_isa.Types.max_int32u }

let equal a b = a.base = b.base && a.bound = b.bound

let to_string m =
  if not (is_pointer m) then "<non-pointer>"
  else Printf.sprintf "[0x%x, 0x%x)" m.base m.bound

(** Width-aware spatial check: the access [addr, addr+width) must fall
    inside [base, bound).  Figure 3 of the paper checks the pointer value
    only; we check the full accessed extent, which is strictly stronger and
    matches the intent (an m-byte access at bound-1 overflows).  Plain-int
    bounds, like {!bounded}. *)
let covers ~base ~bound ~addr ~width = addr >= base && addr + width <= bound
