(** Per-PC cost attribution: one {!Cost} record per linked code index,
    charged by the machine (with attribution off the machine never
    touches this module).  Grouped by function, the same records are the
    [--profile] flat profile. *)

type t = {
  fns : string array;   (** per-PC enclosing function *)
  lines : int array;
      (** per-PC source line of the translation unit: >0 user code, <0
          negated runtime-prelude line, 0 unknown *)
  costs : Cost.t array;  (** per-PC accumulators, machine-owned *)
}

val create : fns:string array -> lines:int array -> t
(** One slot per code index; [fns] and [lines] must have equal length. *)

val size : t -> int

val loc_str : t -> int -> string
(** [fn:line] for user code, [fn:rt.line] for the runtime prelude, bare
    [fn] when no line is known. *)

type row = { pc : int; fn : string; line : int; loc : string; cost : Cost.t }

val rows : t -> row list
(** Executed PCs, hottest (most {!Cost.cycles}) first; ties break on pc. *)

val totals : t -> (string * int) list
(** {!Cost.totals} of the sum over every PC. *)

val check : t -> expect:(string * int) list -> (unit, string) result
(** {!Cost.check} of the sum over every PC. *)

val to_table : ?top:int -> t -> string
(** Ranked hotspot table ([top] sites, default 10; [top <= 0] = all). *)

val to_json : ?meta:(string * Json.t) list -> t -> Json.t
(** Deterministic dump ({!Diff} input): [meta] fields, totals, then every
    executed site in PC order. *)

(** {1 Per-function profile} *)

val by_function : t -> (string * Cost.t) list
(** The executed sites summed per enclosing function, hottest first;
    ties break on the name. *)

val function_table : t -> string
(** The [--profile] flat table of {!by_function}. *)

val export_profile : t -> Metrics.t -> unit
(** Mirror {!by_function} into a metrics registry as
    [profile.{cycles,instructions,check_uops,metadata_uops}{fn=...}]. *)

val parse_top : string -> int
(** CLI adapter: parse and validate an [--attr-top] row count.  Zero and
    negative counts raise a typed {!Hb_error.Hb_error} with a usage
    hint (matching the [--sample-interval] semantics). *)
