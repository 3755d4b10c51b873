(** Storage of a set-associative cache model with LRU replacement: way
    tags and stamps, counters, residency checks.  The set walk that looks
    an address up is [Hierarchy.cache_access].  Only hit/miss
    behaviour is modelled; the timing simulator charges a fixed fill
    latency per miss. *)

type t = {
  name : string;
  block_bits : int;
  set_bits : int;
  assoc : int;
  chunks : Bytes.t array;
      (** per-way tag and LRU stamp, 16 bytes a way, in chunks of
          {!chunk_sets} sets (one chunk for a smaller cache): chunk [k]
          holds sets [k * chunk_sets] onwards, and is [Bytes.empty] until
          {!fill} allocates it on its first touch.  Read the slots with
          {!tag} and {!stamp}. *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

val chunk_bits : int
(** Log2 of {!chunk_sets}. *)

val chunk_sets : int
(** Sets per chunk: 16, so a 4-way chunk is 1KB, a minor-heap block. *)

val log2 : int -> int
(** Exact log2 of a power of two; raises [Invalid_argument] otherwise. *)

val create : name:string -> size_bytes:int -> assoc:int -> block_bytes:int -> t
(** Geometry must be exact: [size_bytes = sets * assoc * block_bytes] with
    power-of-two sets and blocks. *)

val num_sets : t -> int

val fill : t -> int -> Bytes.t
(** [fill t set] allocates the chunk holding set [set], writes its way
    slots (tags -1, stamps 0), stores it in {!field-chunks} and returns it:
    the set walk calls it on the chunk's first touch. *)

val probe : t -> int -> bool
(** Non-allocating residency check (tests/introspection). *)

val tag : t -> int -> int
(** [tag t i] is way slot [i]'s tag ([i = set * assoc + way]), -1 when
    invalid; a set never touched since creation or {!flush} reads as all
    -1.  Raises [Invalid_argument] on a slot out of range. *)

val stamp : t -> int -> int
(** Way slot [i]'s LRU stamp; 0 in a set never touched. *)

val reset_stats : t -> unit
val flush : t -> unit
(** Return every chunk to unfilled and the LRU clock to 0: every way
    reads as invalid with stamp 0 again. *)

val export : t -> Hb_obs.Metrics.t -> unit
(** Report accesses/misses into a metrics registry as
    [cache.*{cache=<name>}] counters. *)
