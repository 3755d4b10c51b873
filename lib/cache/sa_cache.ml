(** Storage of a set-associative cache model with LRU replacement; the
    set walk that looks an address up is [Hierarchy.cache_access].

    Only hit/miss behaviour is modelled (the timing simulator charges a
    fixed fill latency per miss); writeback traffic is not separately
    charged, matching the paper's published hierarchy parameters which give
    miss penalties only.

    Way slot [i] ([set * assoc + way]) is 16 bytes of uninitialised byte
    storage at offset [16 * i]: its tag, then its LRU stamp, as raw 64-bit
    words.  A set's slots are written (tags -1, stamps 0) the first time
    the set is touched, so creating the paper's 4MB L2 writes nothing but
    its 32K fill bytes, and the major GC never scans the model. *)

type t = {
  name : string;
  block_bits : int;
  set_bits : int;
  assoc : int;
  ways : Bytes.t;       (* sets * assoc slots: tag (-1 = invalid), stamp *)
  filled : Bytes.t;     (* one byte per set: '\001' once its slots are written *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

(* Unchecked: every offset used is inside [ways] by construction. *)
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
    ways = Bytes.create (sets * assoc * 16);
    filled = Bytes.make sets '\000';
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let num_sets t = 1 lsl t.set_bits

let[@inline] is_filled t set = Bytes.unsafe_get t.filled set <> '\000'

(** Write set [set]'s slots (tags -1, stamps 0) and mark it filled.
    [Hierarchy]'s set walk, the one access path, calls it on a set's
    first touch. *)
let fill t set =
  for i = set * t.assoc to ((set + 1) * t.assoc) - 1 do
    set64 t.ways (i lsl 4) (-1L);
    set64 t.ways ((i lsl 4) + 8) 0L
  done;
  Bytes.unsafe_set t.filled set '\001'

(** Non-allocating lookup, for tests and introspection; a set never
    touched holds nothing. *)
let probe t addr =
  let block = addr lsr t.block_bits in
  let set = block land (num_sets t - 1) in
  is_filled t set
  &&
  let tag = Int64.of_int (block lsr t.set_bits) in
  let first = (set * t.assoc) lsl 4 in
  let limit = first + (t.assoc lsl 4) in
  let off = ref first in
  while !off < limit && get64 t.ways !off <> tag do
    off := !off + 16
  done;
  !off < limit

(* Slot [i]'s word at byte [k] of the slot, or [empty] while its set is
   unfilled. *)
let slot_word t i k ~empty =
  if i < 0 || i >= num_sets t * t.assoc then invalid_arg "sa_cache: way slot";
  if is_filled t (i / t.assoc) then Int64.to_int (get64 t.ways ((i lsl 4) + k))
  else empty

let tag t i = slot_word t i 0 ~empty:(-1)
let stamp t i = slot_word t i 8 ~empty:0

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

let flush t =
  Bytes.fill t.filled 0 (Bytes.length t.filled) '\000';
  t.clock <- 0

(** Report this cache's counters into a metrics registry, labeled by the
    cache's name. *)
let export t (reg : Hb_obs.Metrics.t) =
  let labels = [ ("cache", t.name) ] in
  Hb_obs.Metrics.set_counter reg ~labels "cache.accesses" t.accesses;
  Hb_obs.Metrics.set_counter reg ~labels "cache.misses" t.misses
