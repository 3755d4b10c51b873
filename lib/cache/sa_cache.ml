(** Generic set-associative cache model with LRU replacement.

    Only hit/miss behaviour is modelled (the timing simulator charges a
    fixed fill latency per miss); writeback traffic is not separately
    charged, matching the paper's published hierarchy parameters which give
    miss penalties only. *)

type t = {
  name : string;
  block_bits : int;
  set_bits : int;
  assoc : int;
  tags : int array;     (* sets * assoc; -1 = invalid *)
  stamp : int array;    (* LRU timestamps *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

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
    tags = Array.make (sets * assoc) (-1);
    stamp = Array.make (sets * assoc) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let num_sets t = 1 lsl t.set_bits

(* Way slot of [tag] in the set starting at [base], or [base + assoc] on
   a miss: a plain loop, so a lookup allocates neither a closure nor an
   option. *)
let find_way t base tag =
  let limit = base + t.assoc in
  let i = ref base in
  while !i < limit && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  !i

(** Access a byte address; returns [true] on hit.  A miss installs the
    block, evicting the LRU way (the first way with the smallest stamp). *)
let access t addr =
  t.clock <- t.clock + 1;
  t.accesses <- t.accesses + 1;
  let block = addr lsr t.block_bits in
  let set = block land (num_sets t - 1) in
  let tag = block lsr t.set_bits in
  let base = set * t.assoc in
  let way = find_way t base tag in
  if way < base + t.assoc then begin
    t.stamp.(way) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref base in
    for i = base + 1 to base + t.assoc - 1 do
      if t.stamp.(i) < t.stamp.(!victim) then victim := i
    done;
    t.tags.(!victim) <- tag;
    t.stamp.(!victim) <- t.clock;
    false
  end

(** Non-allocating lookup, for tests and introspection. *)
let probe t addr =
  let block = addr lsr t.block_bits in
  let set = block land (num_sets t - 1) in
  let tag = block lsr t.set_bits in
  let base = set * t.assoc in
  find_way t base tag < base + t.assoc

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.clock <- 0

(** Report this cache's counters into a metrics registry, labeled by the
    cache's name. *)
let export t (reg : Hb_obs.Metrics.t) =
  let labels = [ ("cache", t.name) ] in
  Hb_obs.Metrics.set_counter reg ~labels "cache.accesses" t.accesses;
  Hb_obs.Metrics.set_counter reg ~labels "cache.misses" t.misses
