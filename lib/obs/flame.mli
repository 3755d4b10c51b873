(** Calling-context profiler: a shadow call stack maintained by the
    machine at call/return sites feeds a calling-context tree whose
    per-context exclusive sums must reconcile exactly with the global
    [Stats] counters ({!check}), plus a per-page address-space heat map.
    Every exported artifact (folded stacks, speedscope JSON, heat-map
    JSON) is deterministic — byte-identical across identical runs. *)

type node = {
  id : int;            (** dense creation-order id; the root is 0 *)
  name : string;       (** frame name (enclosing function) *)
  parent : node option;(** [None] only for the root *)
  depth : int;         (** root = 0 *)
  cost : Cost.t;
      (** exclusive (this context only), charged by the machine;
          inclusive figures are derived at report time *)
}
(** One calling context. *)

type t

val create : ?max_depth:int -> names:string array -> root:string -> unit -> t
(** [create ~names ~root ()] starts a tree whose root context is named
    [root]; [names] maps the machine's interned function ids to frame
    names.  [max_depth] (default 256) bounds the shadow stack: deeper
    pushes clamp to the cap context and count a truncation.  Raises
    [Hb_error.Error] if [max_depth < 1]. *)

val reset : t -> unit
(** Drop every context and heat counter (keeping names and
    configuration) — the campaign runner recycles one instance across
    injected runs. *)

(** {1 Shadow call stack (machine hot path)} *)

val enter : t -> int -> unit
(** Push the callee context for interned function id [fn]. *)

val leave : t -> unit
(** Pop one frame; clamped pushes unwind first, and the root is never
    popped (a restored machine may return more often than it calls). *)

val current : t -> node
(** Context charges should land on — the top of the shadow stack. *)

val depth : t -> int
(** Current stack depth including clamped pushes (root = 0). *)

val reset_stack : t -> unit
(** Reset the stack to the root without touching accumulated counts;
    called by [Snapshot.restore], whose target call context is unknown. *)

val heat_touch : t -> int -> unit
(** Count one cache-hierarchy access touching the given page index. *)

val heat_check : t -> int -> unit
(** Count one bounds check whose effective address falls in the page. *)

(** {1 Introspection} *)

val contexts : t -> int
val max_depth_seen : t -> int
val truncations : t -> int

val nodes : t -> node list
(** Creation order (deterministic); parents precede children. *)

val path : node -> string list
(** Frame names from the root down to the node. *)

val exclusive_cycles : node -> int

val inclusive : t -> int array
(** Inclusive cycles indexed by node id. *)

(** {1 Accounting identity} *)

val totals : t -> (string * int) list
(** {!Cost.totals} of the exclusive sums across every context. *)

val check : t -> expect:(string * int) list -> (unit, string) result
(** {!Cost.check} of the exclusive sums across every context. *)

(** {1 Exports (all deterministic)} *)

val folded_lines : t -> (string * int) list
(** [(stack, exclusive cycles)] per active context, sorted by stack;
    frame names are sanitized for the folded format (';' and
    whitespace replaced). *)

val folded : t -> string
(** FlameGraph folded-stacks text: one ["a;b;c cycles"] line per active
    context. *)

val speedscope : ?name:string -> t -> Json.t
(** Speedscope file-format document ("sampled" profile, weights =
    exclusive simulated cycles); hostile frame names are escaped by the
    {!Json} printer. *)

val report : ?top:int -> t -> string
(** Terminal table of the hottest contexts by exclusive cycles. *)

val export : t -> Metrics.t -> unit
(** Set the [hb_flame_contexts] / [hb_flame_max_depth] /
    [hb_flame_truncations] gauges. *)

(** {1 Address-space heat map} *)

val heat_pages : t -> (int * int * int) list
(** [(page, accesses, checks)] for every counted page, sorted by page
    index. *)

type heat_row = {
  h_page : int;
  h_addr : int;
  h_region : string;
  h_accesses : int;
  h_checks : int;
  h_resident : int;  (** non-zero bytes resident in the page *)
}
(** A resolved row: the machine supplies region names and residency (via
    the non-materializing [Physmem.peek_*] walkers), so this module
    never learns the memory layout. *)

val heatmap_json :
  ?meta:(string * Json.t) list -> page_size:int -> heat_row list -> Json.t

val heatmap_render : ?width:int -> heat_row list -> string
(** Per-region shade strips over each region's touched page span. *)
