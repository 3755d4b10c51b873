(** Hardware metadata propagation through register-to-register operations
    (Figure 3 (A)/(B) and Section 3.1 of the paper):

    - [add]/[sub] with an immediate or non-pointer operand propagate the
      pointer operand's bounds;
    - register-register [add]/[sub] take the first operand's bounds if it
      is a pointer, else the second's;
    - [mov] copies bounds;
    - multiply, divide, shift, rotate and logical operations do not
      propagate bounds (the paper notes they safely could, but opts not to);
    - [setbound] overwrites bounds; [readbase]/[readbound] produce
      non-pointer values. *)

open Hb_isa.Types

let propagates = function
  | Add | Sub -> true
  | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar
  | Slt | Sle | Seq | Sne | Sgt | Sge | Sltu -> false

(** Which operand's bounds the result of a register-register op takes. *)
type operand = First | Second | Neither

(** Metadata for [rd <- rs OP (reg rs2)], given [rs]'s bounds as plain
    ints: [rs]'s bounds if it is a pointer, else [rs2]'s; none for an op
    that does not propagate.  [rd <- rs OP imm] takes [rs]'s bounds
    exactly when {!propagates}. *)
let binop op ~base1 ~bound1 =
  if not (propagates op) then Neither
  else if Meta.bounded ~base:base1 ~bound:bound1 then First
  else Second

(** Metadata written by setbound. *)
let setbound ~value ~size = Meta.make ~base:value ~size
