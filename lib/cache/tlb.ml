(** TLB model: a set-associative cache of virtual page numbers.

    The paper uses 4-way set-associative 256-entry TLBs with 4KB pages and a
    12-cycle miss penalty; the data TLB covers data and base/bound shadow
    accesses, and the tag metadata cache has a TLB of its own.  A lookup
    is [Hierarchy.tlb_access]. *)

type t = { cache : Sa_cache.t; page_bits : int }

let create ~name ~entries ~assoc ~page_bytes =
  let page_bits = Sa_cache.log2 page_bytes in
  (* Reuse the cache model with 1-byte "blocks" over page numbers. *)
  {
    cache =
      Sa_cache.create ~name ~size_bytes:entries ~assoc ~block_bytes:1;
    page_bits;
  }

let accesses t = t.cache.Sa_cache.accesses
let misses t = t.cache.Sa_cache.misses
let reset_stats t = Sa_cache.reset_stats t.cache
let flush t = Sa_cache.flush t.cache

(** Report this TLB's counters into a metrics registry (the underlying
    cache carries the TLB's name). *)
let export t (reg : Hb_obs.Metrics.t) =
  let labels = [ ("tlb", t.cache.Sa_cache.name) ] in
  Hb_obs.Metrics.set_counter reg ~labels "tlb.accesses" (accesses t);
  Hb_obs.Metrics.set_counter reg ~labels "tlb.misses" (misses t)
