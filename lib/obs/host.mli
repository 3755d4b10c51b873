(** Host-side observability: hierarchical wall-clock span profiling with
    GC/RSS telemetry.

    A profile is a tree of spans measured against the monotonic {!Clock};
    each span carries the {!gc_stat} delta it covered and optional
    simulated-progress annotations from which throughput gauges derive.
    In a well-formed profile the summed wall time of a span's children
    never exceeds the parent's ({!check}).  All data here is
    host-varying: it flows only to its own sinks (JSON / Chrome-trace),
    the [hb_host_*] gauges, and the live status endpoint — never into
    deterministic artifacts. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  compactions : int;
}

val gc_stat : unit -> Gc.stat
(** [Gc.quick_stat] with a precise [minor_words] ([Gc.minor_words]):
    the words allocated so far, not only those of finished minor
    collections. *)

type span = {
  sp_name : string;
  start_ns : int64;
  g0 : Gc.stat;
  mutable wall_ns : int64;  (** -1 while the span is open *)
  mutable gc : gc_delta;
  mutable counts : (string * int) list;
  mutable children_rev : span list;
}

type sample = {
  at_ns : int64;
  s_rss_kb : int;
  s_minor_words : float;
  s_major_words : float;
  s_minor_gcs : int;
  s_major_gcs : int;
  s_counts : (string * int) list;
}

type t = {
  t0 : int64;
  root : span;
  mutable stack : span list;
  mutable samples_rev : sample list;
}

val create : ?name:string -> unit -> t
(** A fresh profile whose root span is already open. *)

val open_span : t -> string -> unit
val close_span : t -> unit
(** Raises {!Hb_error.Hb_error} when no span is open (the root closes
    via {!finish}). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a child span; the span closes even when [f] raises
    ([Fun.protect]), recording the wall time it actually covered. *)

val annotate : t -> string -> int -> unit
(** Attach a simulated-progress counter (e.g. ["instrs"], ["cycles"]) to
    the innermost open span; throughput gauges derive from it. *)

val sample : ?counts:(string * int) list -> t -> unit
(** Record a telemetry checkpoint (RSS, cumulative GC counters). *)

val finish : t -> unit
(** Close every still-open span, root included; call before dumping. *)

(** {2 The ambient profiler}

    One profiler per process is the common case; the ambient instance
    lets deep callees (campaigns, the shard engine) open spans without
    threading a [t] through every signature.  When nothing is installed
    every hook costs one option check. *)

val install : ?name:string -> unit -> t
val uninstall : unit -> unit
val active : unit -> t option

val span : string -> (unit -> 'a) -> 'a
(** [with_span] against the ambient profiler; just [f ()] when none is
    installed. *)

val annotate_live : string -> int -> unit
val sample_live : ?counts:(string * int) list -> unit -> unit

(** {2 Accounting, serialization, export} *)

val check : t -> (unit, string) result
(** The span-tree accounting identity: every span's children must sum to
    at most the parent's wall time, recursively; open spans are an
    error.  Mirrors [Stats.check_invariants]. *)

val peak_rss_kb : unit -> int
(** VmHWM from /proc/self/status; 0 where unavailable. *)

val to_json : t -> Json.t

val chrome_events :
  ?pid:int -> ?tid:int -> ?shift_us:float -> t -> Json.t list
(** The profile's spans as Chrome trace_event complete events on the
    track keyed by [(pid, tid)] (default [(1, 1)]), timestamps in µs
    relative to the profile start plus [shift_us] — the building block
    the fleet merger uses to lay supervisor and worker profiles on one
    timeline. *)

val to_chrome : ?pid:int -> ?tid:int -> t -> Json.t
(** Chrome trace_event array (complete events, µs timestamps) for
    chrome://tracing / Perfetto. *)

val write_json : string -> t -> unit
val write_chrome : string -> t -> unit
(** File sinks; the channel is closed even when the write raises. *)

val export : t -> Metrics.t -> unit
(** [hb_host_*] gauges: per-phase wall time, derived sim_ips/sim_cps
    throughput, GC totals, peak RSS, checkpoint samples.  Live-safe —
    open spans export their elapsed-so-far reading. *)

val export_live : Metrics.t -> unit
(** {!export} of the ambient profiler, if any. *)
