(** Storage of a set-associative cache model with LRU replacement; the
    set walk that looks an address up is [Hierarchy.cache_access].

    Only hit/miss behaviour is modelled (the timing simulator charges a
    fixed fill latency per miss); writeback traffic is not separately
    charged, matching the paper's published hierarchy parameters which give
    miss penalties only.

    Way slot [i] ([set * assoc + way]) is 16 bytes: its tag, then its LRU
    stamp, as raw 64-bit words.  The slots live in chunks of
    [chunk_sets] sets (the whole cache when it has fewer), each
    [Bytes.empty] until one of its sets is first touched, when [fill]
    allocates it with tags -1 and stamps 0.  Creating the paper's 4MB L2
    allocates its 2,048-slot chunk table and nothing else; a 4-way chunk
    is 1KB, small enough to be allocated on the minor heap. *)

type t = {
  name : string;
  block_bits : int;
  set_bits : int;
  assoc : int;
  chunks : Bytes.t array;  (* [Bytes.empty] until a set in it is touched *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let chunk_bits = 4
let chunk_sets = 1 lsl chunk_bits

(* Unchecked: every offset used is inside its chunk by construction. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "sa_cache: size parameters must be powers of two"
  else go 0 n

let create ~name ~size_bytes ~assoc ~block_bytes =
  let sets = size_bytes / (assoc * block_bytes) in
  if sets < 1 then invalid_arg "sa_cache: too small";
  if sets * assoc * block_bytes <> size_bytes then
    invalid_arg "sa_cache: size must be sets * assoc * block";
  {
    name;
    block_bits = log2 block_bytes;
    set_bits = log2 sets;
    assoc;
    chunks = Array.make (max 1 (sets lsr chunk_bits)) Bytes.empty;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let num_sets t = 1 lsl t.set_bits

(* Byte offset of [set]'s first way slot inside its chunk. *)
let[@inline] set_offset t set = ((set land (chunk_sets - 1)) * t.assoc) lsl 4

(** Allocate and write the chunk holding set [set] (tags -1, stamps 0)
    and return it.  [Hierarchy]'s set walk, the one access path, calls
    it on the chunk's first touch. *)
let fill t set =
  let b = Bytes.create ((min (num_sets t) chunk_sets * t.assoc) lsl 4) in
  let off = ref 0 in
  while !off < Bytes.length b do
    set64 b !off (-1L);
    set64 b (!off + 8) 0L;
    off := !off + 16
  done;
  t.chunks.(set lsr chunk_bits) <- b;
  b

(** Non-allocating lookup, for tests and introspection; a set never
    touched holds nothing. *)
let probe t addr =
  let block = addr lsr t.block_bits in
  let set = block land (num_sets t - 1) in
  let ways = t.chunks.(set lsr chunk_bits) in
  Bytes.length ways > 0
  &&
  let tag = Int64.of_int (block lsr t.set_bits) in
  let first = set_offset t set in
  let limit = first + (t.assoc lsl 4) in
  let off = ref first in
  while !off < limit && get64 ways !off <> tag do
    off := !off + 16
  done;
  !off < limit

(* Slot [i]'s word at byte [k] of the slot, or [empty] while its chunk is
   unfilled. *)
let slot_word t i k ~empty =
  if i < 0 || i >= num_sets t * t.assoc then invalid_arg "sa_cache: way slot";
  let set = i / t.assoc in
  let ways = t.chunks.(set lsr chunk_bits) in
  if Bytes.length ways = 0 then empty
  else
    Int64.to_int (get64 ways (set_offset t set + ((i mod t.assoc) lsl 4) + k))

let tag t i = slot_word t i 0 ~empty:(-1)
let stamp t i = slot_word t i 8 ~empty:0

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.chunks 0 (Array.length t.chunks) Bytes.empty;
  t.clock <- 0

(** Report this cache's counters into a metrics registry, labeled by the
    cache's name. *)
let export t (reg : Hb_obs.Metrics.t) =
  let labels = [ ("cache", t.name) ] in
  Hb_obs.Metrics.set_counter reg ~labels "cache.accesses" t.accesses;
  Hb_obs.Metrics.set_counter reg ~labels "cache.misses" t.misses
