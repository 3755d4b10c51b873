(** The paper's simulated memory hierarchy (Section 5.1):

    - 32KB 4-way set-associative L1 data cache, 12-cycle miss penalty,
    - 4MB 4-way set-associative L2, 200-cycle miss penalty,
    - 4-way 256-entry TLBs, 4KB pages, 12-cycle miss penalty,
    - tag metadata cache: 2KB 4-way for 1-bit tag encodings, 8KB 4-way for
      the 4-bit external encoding; misses are serviced by the L2,
    - 32-byte blocks everywhere.

    Base/bound shadow accesses share the L1 data cache and data TLB; tag
    accesses go through the dedicated tag cache and its own TLB (Figure 4). *)

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

let default_params ~tag_bits =
  {
    l1_size = 32 * 1024;
    l1_assoc = 4;
    l2_size = 4 * 1024 * 1024;
    l2_assoc = 4;
    tagc_size = (if tag_bits = 4 then 8 * 1024 else 2 * 1024);
    tagc_assoc = 4;
    block = 32;
    tlb_entries = 256;
    tlb_assoc = 4;
    page = 4096;
    l1_miss_penalty = 12;
    l2_miss_penalty = 200;
    tlb_miss_penalty = 12;
  }

(** Accesses are classified so Figure 5's overhead segments can attribute
    stall cycles: ordinary program data, base/bound shadow words, and tag
    metadata. *)
type access_class = Data | Base_bound | Tag_meta

type class_stats = {
  mutable accesses : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable tlb_misses : int;
  mutable stall_cycles : int;
}

let fresh_class_stats () =
  { accesses = 0; l1_misses = 0; l2_misses = 0; tlb_misses = 0;
    stall_cycles = 0 }

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
      (* which levels missed on the most recent access: a bitmask of
         [miss_tlb] / [miss_l1] / [miss_l2], so a tracer can turn the
         returned stall cycles into per-level miss events without the
         model paying for event plumbing when tracing is off *)
}

let miss_tlb = 1
let miss_l1 = 2
let miss_l2 = 4

let create params =
  {
    params;
    l1d =
      Sa_cache.create ~name:"L1D" ~size_bytes:params.l1_size
        ~assoc:params.l1_assoc ~block_bytes:params.block;
    l2 =
      Sa_cache.create ~name:"L2" ~size_bytes:params.l2_size
        ~assoc:params.l2_assoc ~block_bytes:params.block;
    tagc =
      Sa_cache.create ~name:"TagC" ~size_bytes:params.tagc_size
        ~assoc:params.tagc_assoc ~block_bytes:params.block;
    dtlb =
      Tlb.create ~name:"DTLB" ~entries:params.tlb_entries
        ~assoc:params.tlb_assoc ~page_bytes:params.page;
    ttlb =
      Tlb.create ~name:"TTLB" ~entries:params.tlb_entries
        ~assoc:params.tlb_assoc ~page_bytes:params.page;
    data_stats = fresh_class_stats ();
    bb_stats = fresh_class_stats ();
    tag_stats = fresh_class_stats ();
    last_mask = 0;
  }

let stats_of t = function
  | Data -> t.data_stats
  | Base_bound -> t.bb_stats
  | Tag_meta -> t.tag_stats

(* Unchecked: every offset used is inside [ways] by construction. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The set walk lives in this unit, not in [Sa_cache] or [Tlb]: dune's
   dev profile compiles every unit with -opaque, so a call into either
   could not be inlined, and every simulated access walks two or three
   sets.  [Sa_cache] keeps the storage and writes a set on its first
   touch.

   One access to [block] in its filled [set]: on a hit refresh the way's
   stamp, on a miss install the block over the LRU way (the first way
   with the smallest stamp).  The ways are walked by byte offset, and
   tags and stamps compared as unboxed [int64]s. *)
let[@inline] lookup (c : Sa_cache.t) block set =
  c.clock <- c.clock + 1;
  c.accesses <- c.accesses + 1;
  let tag = Int64.of_int (block lsr c.set_bits) in
  let ways = c.ways in
  let first = (set * c.assoc) lsl 4 in
  let limit = first + (c.assoc lsl 4) in
  let off = ref first in
  while !off < limit && get64 ways !off <> tag do
    off := !off + 16
  done;
  if !off < limit then begin
    set64 ways (!off + 8) (Int64.of_int c.clock);
    true
  end
  else begin
    c.misses <- c.misses + 1;
    let victim = ref first in
    let o = ref (first + 16) in
    while !o < limit do
      if get64 ways (!o + 8) < get64 ways (!victim + 8) then victim := !o;
      o := !o + 16
    done;
    set64 ways !victim tag;
    set64 ways (!victim + 8) (Int64.of_int c.clock);
    false
  end

(* A set's first touch leaves the hot path by a tail call, so that path
   keeps nothing live across a call. *)
let[@inline never] first_touch c block set =
  Sa_cache.fill c set;
  lookup c block set

let[@inline] cache_access (c : Sa_cache.t) addr =
  let block = addr lsr c.block_bits in
  let set = block land ((1 lsl c.set_bits) - 1) in
  if Bytes.unsafe_get c.filled set = '\000' then first_touch c block set
  else lookup c block set

let[@inline] tlb_access (tlb : Tlb.t) addr =
  cache_access tlb.cache (addr lsr tlb.page_bits)

(** Simulate one access of class [cls] to byte address [addr]; returns the
    stall cycles it contributes (0 on an all-hit access). *)
let access t cls addr =
  let s = stats_of t cls in
  s.accesses <- s.accesses + 1;
  let meta = match cls with Tag_meta -> true | Data | Base_bound -> false in
  (* accumulated in plain ints, with [last_mask] as the scratch word (no
     ref cells or tuples: this is the simulator's hottest function) *)
  t.last_mask <- 0;
  let stall_tlb =
    if tlb_access (if meta then t.ttlb else t.dtlb) addr then 0
    else begin
      s.tlb_misses <- s.tlb_misses + 1;
      t.last_mask <- miss_tlb;
      t.params.tlb_miss_penalty
    end
  in
  let stall_cache =
    if cache_access (if meta then t.tagc else t.l1d) addr then 0
    else begin
      s.l1_misses <- s.l1_misses + 1;
      if cache_access t.l2 addr then begin
        t.last_mask <- t.last_mask lor miss_l1;
        t.params.l1_miss_penalty
      end
      else begin
        s.l2_misses <- s.l2_misses + 1;
        t.last_mask <- t.last_mask lor (miss_l1 lor miss_l2);
        t.params.l1_miss_penalty + t.params.l2_miss_penalty
      end
    end
  in
  let stall = stall_tlb + stall_cache in
  s.stall_cycles <- s.stall_cycles + stall;
  stall

let total_stalls t =
  t.data_stats.stall_cycles + t.bb_stats.stall_cycles
  + t.tag_stats.stall_cycles

let class_name = function
  | Data -> "data"
  | Base_bound -> "base_bound"
  | Tag_meta -> "tag_meta"

(** Cumulative miss counters as a flat association list — the hierarchy's
    contribution to the timeline's per-window deltas, alongside
    [Stats.fields].  Data and base/bound accesses share the L1D and data
    TLB (Figure 4); the tag metadata cache and its TLB are separate. *)
let fields t =
  let d = t.data_stats and b = t.bb_stats and g = t.tag_stats in
  [
    ("mem_accesses", d.accesses + b.accesses + g.accesses);
    ("l1_misses", d.l1_misses + b.l1_misses);
    ("tag_cache_misses", g.l1_misses);
    ("l2_misses", d.l2_misses + b.l2_misses + g.l2_misses);
    ("dtlb_misses", d.tlb_misses + b.tlb_misses);
    ("ttlb_misses", g.tlb_misses);
  ]

(** Report per-class hierarchy counters (and the underlying cache/TLB
    structures) into a metrics registry. *)
let export t (reg : Hb_obs.Metrics.t) =
  List.iter
    (fun cls ->
      let s = stats_of t cls in
      let labels = [ ("class", class_name cls) ] in
      Hb_obs.Metrics.set_counter reg ~labels "hierarchy.accesses" s.accesses;
      Hb_obs.Metrics.set_counter reg ~labels "hierarchy.l1_misses" s.l1_misses;
      Hb_obs.Metrics.set_counter reg ~labels "hierarchy.l2_misses" s.l2_misses;
      Hb_obs.Metrics.set_counter reg ~labels "hierarchy.tlb_misses"
        s.tlb_misses;
      Hb_obs.Metrics.set_counter reg ~labels "hierarchy.stall_cycles"
        s.stall_cycles)
    [ Data; Base_bound; Tag_meta ];
  List.iter (fun c -> Sa_cache.export c reg) [ t.l1d; t.l2; t.tagc ];
  List.iter (fun tlb -> Tlb.export tlb reg) [ t.dtlb; t.ttlb ]
