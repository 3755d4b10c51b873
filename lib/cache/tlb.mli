(** TLB model: a set-associative cache of virtual page numbers (the paper
    uses 4-way, 256 entries, 4KB pages, 12-cycle miss penalty; the tag
    metadata cache has a TLB of its own — Figure 4).  A lookup is
    [Hierarchy.tlb_access]. *)

type t = { cache : Sa_cache.t; page_bits : int }

val create : name:string -> entries:int -> assoc:int -> page_bytes:int -> t

val accesses : t -> int
val misses : t -> int
val reset_stats : t -> unit
val flush : t -> unit

val export : t -> Hb_obs.Metrics.t -> unit
(** Report accesses/misses into a metrics registry as
    [tlb.*{tlb=<name>}] counters. *)
