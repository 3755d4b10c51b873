(** The paper's simulated memory hierarchy (Section 5.1): 32KB 4-way L1D
    (12-cycle miss penalty), 4MB 4-way L2 (200 cycles), 256-entry 4-way
    TLBs (12 cycles), and the dedicated tag metadata cache (2KB for 1-bit
    tags, 8KB for the 4-bit external encoding) with its own TLB.
    Base/bound shadow accesses share the L1D and data TLB (Figure 4). *)

type params = {
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  tagc_size : int;
  tagc_assoc : int;
  block : int;
  tlb_entries : int;
  tlb_assoc : int;
  page : int;
  l1_miss_penalty : int;
  l2_miss_penalty : int;
  tlb_miss_penalty : int;
}

val default_params : tag_bits:int -> params
(** The paper's parameters; [tag_bits] selects the tag cache size. *)

(** Access classes, so stall cycles can be attributed to Figure 5's
    overhead segments. *)
type access_class = Data | Base_bound | Tag_meta

type class_stats = {
  mutable accesses : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable tlb_misses : int;
  mutable stall_cycles : int;
}

type t = {
  params : params;
  l1d : Sa_cache.t;
  l2 : Sa_cache.t;
  tagc : Sa_cache.t;
  dtlb : Tlb.t;
  ttlb : Tlb.t;
  data_stats : class_stats;
  bb_stats : class_stats;
  tag_stats : class_stats;
  mutable last_mask : int;
      (** Which levels missed on the most recent access, as a bitmask of
          {!miss_tlb} / {!miss_l1} / {!miss_l2} — lets a tracer expand the
          returned stall cycles into per-level miss events without the
          model paying for event plumbing when tracing is off. *)
}

val miss_tlb : int
val miss_l1 : int
val miss_l2 : int

val create : params -> t

val access : t -> access_class -> int -> int
(** Simulate one access; returns the stall cycles it contributes (0 when
    every level hits).  The TLB, L1/tag-cache and L2 set walks run inside
    this one call. *)

val cache_access : Sa_cache.t -> int -> bool
(** The set walk {!access} runs on each level: look a byte address up,
    [true] on hit.  A miss installs the block, evicting the LRU way (the
    first way with the smallest stamp).  Allocates nothing. *)

val tlb_access : Tlb.t -> int -> bool
(** {!cache_access} on a TLB: [true] on a hit for the page holding the
    address. *)

val stats_of : t -> access_class -> class_stats
val total_stalls : t -> int

val class_name : access_class -> string

val fields : t -> (string * int) list
(** Cumulative miss counters ([l1_misses], [tag_cache_misses],
    [l2_misses], [dtlb_misses], [ttlb_misses], [mem_accesses]) as a flat
    association list for the timeline's per-window deltas. *)

val export : t -> Hb_obs.Metrics.t -> unit
(** Report per-class counters ([hierarchy.*{class=...}]) and the
    underlying cache/TLB structures into a metrics registry. *)
