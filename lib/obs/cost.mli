(** One attributable cost record: what a retired instruction is charged.

    The counters are the paper's Figure-5 decomposition (micro-ops, check
    and metadata micro-ops, data / tag / base-bound stalls) plus checked
    dereferences, setbounds and per-level miss counts.  {!Attr} keeps one
    record per PC and {!Flame} one per calling context; the machine
    charges both from one place, with the difference of two readings of
    its cumulative counters taken around each instruction. *)

type t = {
  mutable instrs : int;
  mutable uops : int;
  mutable data_stalls : int;
  mutable tag_stalls : int;
  mutable bb_stalls : int;
  mutable check_uops : int;
  mutable metadata_uops : int;
  mutable checked_derefs : int;
  mutable setbounds : int;
  mutable tlb_misses : int;  (** data and tag TLB *)
  mutable l1_misses : int;   (** L1D and tag cache *)
  mutable l2_misses : int;
}

val create : unit -> t
(** All counters zero. *)

val cycles : t -> int
(** [uops + data + tag + bb stalls]: the in-order timing model's cycles. *)

val add_diff : t -> before:t -> after:t -> unit
(** [add_diff c ~before ~after] adds [after - before], field by field,
    into [c].  Allocates nothing. *)

val sum : t list -> t
(** A fresh record holding the field-wise sum. *)

val totals : t -> (string * int) list
(** The record keyed by the {!Hb_cpu.Stats} field each counter must
    reconcile with ([instructions], [uops], [cycles], [charged_*_stalls],
    [check_uops], [metadata_uops], [checked_derefs], [setbound_instrs]).
    Miss counts have no single [Stats] field and are left out. *)

val check :
  label:string -> t -> expect:(string * int) list -> (unit, string) result
(** Compare {!totals} against the global counters (e.g. [Stats.fields]);
    every key present on both sides must agree exactly.  [Error] starts
    with [label] and names every key that disagrees. *)
