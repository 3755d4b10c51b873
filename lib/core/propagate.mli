(** Hardware metadata propagation through register-to-register operations
    (Figure 3 (A)/(B) of the paper). *)

val propagates : Hb_isa.Types.alu_op -> bool
(** [add]/[sub] propagate pointer bounds; multiply, divide, shifts and
    logical operations do not (the paper notes they safely could, but
    opts not to).  [rd <- rs OP imm] copies [rs]'s bounds exactly when
    the op propagates (Figure 3 (A)). *)

(** Whose bounds a register-register op's result takes. *)
type operand = First | Second | Neither

val binop :
  Hb_isa.Types.alu_op -> base1:int -> bound1:int -> operand
(** Metadata for [rd <- rs1 OP rs2], given [rs1]'s bounds as plain ints:
    the first operand's bounds if it is a pointer, else the second's
    (Figure 3 (B)); [Neither] when the op does not propagate. *)

val setbound : value:int -> size:int -> Meta.t
(** Metadata written by the raw [setbound] instruction. *)
