(** Cycle-windowed flight recorder.

    Every [interval] simulated cycles the machine closes a *window*
    holding the delta of every cumulative counter it samples plus a
    point-in-time census of the shadow metadata (live bounded pointers,
    distinct objects, tag/shadow footprint, encoding distribution).
    Windows stream to optional JSONL/CSV sinks and accumulate in memory
    for the terminal phase report.

    Driven by the machine, like {!Attr} and {!Flame}: this module sees
    only flat counter lists and a census record.  Off by default; when no
    timeline is attached the simulator pays one [None] check per retired
    instruction. *)

(** Point-in-time census of memory-resident bounded pointers, computed by
    the machine from the tag space (registers are excluded). *)
type census = {
  live_ptrs : int;      (** tagged memory words decoding to a pointer *)
  live_objects : int;   (** distinct (base, bound) pairs among them *)
  tag_bytes : int;      (** non-zero tag-space bytes *)
  shadow_bytes : int;   (** base/bound shadow bytes in use (8 per full ptr) *)
  tag_pages : int;      (** tag-space pages materialized *)
  shadow_pages : int;   (** shadow-space pages materialized *)
  enc_ext4 : int;       (** inline under the external 4-bit tag scheme *)
  enc_int4 : int;       (** inline under the internal 4-bit scheme *)
  enc_int11 : int;      (** inline under the internal 11-bit scheme *)
  enc_full : int;       (** uncompressed: metadata in the shadow space *)
}

val empty_census : census

val census_fields : census -> (string * int) list
(** Flat association list, in the JSON/CSV column order. *)

type window = {
  index : int;
  start_cycle : int;
  end_cycle : int;
  deltas : (string * int) list;  (** counter increments inside the window *)
  census : census;               (** state at the window's close *)
}

type sink = { write : window -> unit; close : unit -> unit }

type t = {
  interval : int;
  mutable next_boundary : int;
      (** first cycle at or past which the machine must sample — read on
          the hot path, advanced by {!record}; treat as read-only *)
  mutable prev : (string * int) list;
  mutable prev_cycle : int;
  mutable windows_rev : window list;
  mutable n_windows : int;
  mutable sinks : sink list;
}

val create : interval:int -> t
(** Raises {!Hb_error.Hb_error} when [interval <= 0]. *)

val interval : t -> int

val add_sink : t -> sink -> unit

val close_sinks : t -> unit
(** Close (and drop) every attached sink; idempotent.  Callers wrap the
    run in [Fun.protect ~finally:close_sinks] so partial files are still
    flushed when the run dies with [Hb_error]. *)

val record : t -> cycle:int -> fields:(string * int) list -> census:census -> unit
(** Close a window at [cycle]: deltas are [fields] minus the previous
    window's cumulative snapshot.  Advances [next_boundary] to the next
    interval multiple strictly past [cycle]. *)

val flush : t -> cycle:int -> fields:(string * int) list -> census:census -> unit
(** Close the final partial window (no-op if nothing retired since the
    last close); runs shorter than one interval get their only window
    here. *)

val windows : t -> window list
(** Recorded windows, oldest first. *)

val sums : t -> (string * int) list
(** Per-key sums of every window's deltas. *)

val check : t -> expect:(string * int) list -> (unit, string) result
(** The accounting identity: {!sums} must equal the global cumulative
    counters on every shared key (call {!flush} first). *)

val window_json : window -> Json.t

val jsonl_sink : string -> sink
(** One compact JSON object per line per window. *)

val csv_sink : string -> sink
(** One row per window; the header comes from the first window's keys. *)

val export_census : census -> Metrics.t -> unit
(** Final-census gauges: [hb.shadow_bytes], [hb.live_bounded_objects],
    [hb.encoding_dist{kind=...}] (Prometheus: [hb_shadow_bytes], ...). *)

val report : ?width:int -> t -> string
(** Terminal phase report: per-counter sparklines, a windows × counters
    heatmap in Unicode blocks, and the census evolution. *)
