(** Sparse paged physical memory.

    Pages are allocated (zero-filled) on first touch; the set of touched
    pages per {!Layout.region} is the raw material for the paper's Figure 6
    (memory overhead measured in distinct 4KB pages).

    The pages hang off a two-level page table: a directory of 1024 leaves,
    each holding 1024 pages, covering the 2^20 pages of the 32-bit space.
    Untouched slots point at shared sentinels — [empty_leaf] for a leaf
    with no page yet, [absent] for a missing page — which are never
    written.  A lookup is two array loads and a pointer compare: no
    hashing and no option on the simulator's per-access path. *)

let page_bits = 12
let leaf_bits = 10
let leaf_size = 1 lsl leaf_bits
let num_pages = 1 lsl (32 - page_bits)

let () = assert (1 lsl page_bits = Layout.page_size)

(* A zero page: absent pages read through it as zero. *)
let absent = Bytes.make Layout.page_size '\000'
let empty_leaf = Array.make leaf_size absent

type t = {
  dir : Bytes.t array array;  (* leaf index -> page index in leaf -> page *)
  mutable pages : int;
  mutable touched_by_region : (Layout.region * int ref) list;
}

let create () =
  {
    dir = Array.make (num_pages / leaf_size) empty_leaf;
    pages = 0;
    touched_by_region =
      List.map
        (fun r -> (r, ref 0))
        Layout.[ Code; Globals; Heap; Stack; Tag_space; Shadow_space; Other ];
  }

(* The page at index [idx], or [absent]; [idx] must be in range. *)
let lookup t idx =
  Array.unsafe_get
    (Array.unsafe_get t.dir (idx lsr leaf_bits))
    (idx land (leaf_size - 1))

let install t idx page =
  let d = idx lsr leaf_bits in
  let leaf =
    if t.dir.(d) != empty_leaf then t.dir.(d)
    else begin
      let l = Array.make leaf_size absent in
      t.dir.(d) <- l;
      l
    end
  in
  leaf.(idx land (leaf_size - 1)) <- page;
  t.pages <- t.pages + 1;
  let region = Layout.region_of (idx * Layout.page_size) in
  incr (List.assq region t.touched_by_region)

let[@inline never] materialize t idx =
  let p = Bytes.make Layout.page_size '\000' in
  install t idx p;
  p

(* Callers have passed [check_addr], so the index is in range. *)
let page_of t addr =
  let idx = addr lsr page_bits in
  let p = lookup t idx in
  if p != absent then p else materialize t idx

let check_addr addr =
  if addr < Layout.null_guard_limit || addr > 0xFFFFFFFF then
    Hb_error.fail ~component:"physmem" ~addr "invalid physical address"

let read_u8 t addr =
  check_addr addr;
  let p = page_of t addr in
  Char.code (Bytes.unsafe_get p (addr land (Layout.page_size - 1)))

let write_u8 t addr v =
  check_addr addr;
  let p = page_of t addr in
  Bytes.unsafe_set p (addr land (Layout.page_size - 1)) (Char.chr (v land 0xFF))

(* Multi-byte reads go low byte first, like a byte-by-byte read: a read
   running off the top of the space then creates the pages below the
   fault before it raises.  (The operands of [lor] are evaluated right to
   left, so they are bound in order with [let].) *)
let read_u16 t addr =
  let lo = read_u8 t addr in
  lo lor (read_u8 t (addr + 1) lsl 8)

let write_u16 t addr v =
  write_u8 t addr v;
  write_u8 t (addr + 1) (v lsr 8)

(* A word inside one page is one little-endian 32-bit load or store; a
   word straddling two pages goes a half-word at a time. *)
let read_u32 t addr =
  check_addr addr;
  let off = addr land (Layout.page_size - 1) in
  if off <= Layout.page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page_of t addr) off) land 0xFFFFFFFF
  else
    let lo = read_u16 t addr in
    lo lor (read_u16 t (addr + 2) lsl 16)

let write_u32 t addr v =
  check_addr addr;
  let off = addr land (Layout.page_size - 1) in
  if off <= Layout.page_size - 4 then
    Bytes.set_int32_le (page_of t addr) off (Int32.of_int v)
  else begin
    write_u16 t addr v;
    write_u16 t (addr + 2) (v lsr 16)
  end

(** Store [v] into a word and return the word it replaced: one call for
    a store that must know what it overwrites. *)
let exchange_u32 t addr v =
  let old = read_u32 t addr in
  write_u32 t addr v;
  old

(** Read/modify a bit field inside a tag-space byte. *)
let read_bits t addr shift mask = (read_u8 t addr lsr shift) land mask

(** Replace a bit field inside a tag-space byte and return the field's
    old value: one call for a store's read-modify-write of its tag. *)
let exchange_bits t addr shift mask v =
  check_addr addr;
  let p = page_of t addr in
  let off = addr land (Layout.page_size - 1) in
  let old = Char.code (Bytes.unsafe_get p off) in
  Bytes.unsafe_set p off
    (Char.unsafe_chr (old land lnot (mask lsl shift) lor ((v land mask) lsl shift)));
  (old lsr shift) land mask

let write_bits t addr shift mask v = ignore (exchange_bits t addr shift mask v)

(* Non-materializing reads: absent pages read as zero (through the
   [absent] sentinel) and are NOT allocated, so observers (the timeline's
   shadow-space census) never inflate the per-region touched-page counts
   that drive Figure 6. *)
let peek_u8 t addr =
  let idx = addr lsr page_bits in
  if idx >= num_pages then 0
  else
    let off = addr land (Layout.page_size - 1) in
    Char.code (Bytes.unsafe_get (lookup t idx) off)

let peek_u32 t addr =
  peek_u8 t addr
  lor (peek_u8 t (addr + 1) lsl 8)
  lor (peek_u8 t (addr + 2) lsl 16)
  lor (peek_u8 t (addr + 3) lsl 24)

let pages_touched t = t.pages

let pages_touched_in t region = !(List.assq region t.touched_by_region)

(* ---- Whole-memory access (snapshots, fault injection) ---------------- *)

(** Iterate live pages in increasing page-index order (deterministic). *)
let fold_pages t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun d leaf ->
      if leaf != empty_leaf then
        Array.iteri
          (fun j page ->
            if page != absent then acc := f !acc ((d lsl leaf_bits) lor j) page)
          leaf)
    t.dir;
  !acc

let export_pages t =
  Array.of_list
    (List.rev
       (fold_pages t ~init:[] ~f:(fun acc idx page ->
            (idx, Bytes.copy page) :: acc)))

(** Replace the entire memory contents with a previously exported page
    set.  The per-region touched-page counters are recomputed from the
    imported set, so pages that were materialized after the export (e.g.
    zero pages touched by later probing) stop being counted. *)
let import_pages t pages =
  Array.fill t.dir 0 (Array.length t.dir) empty_leaf;
  t.pages <- 0;
  List.iter (fun (_, r) -> r := 0) t.touched_by_region;
  Array.iter (fun (idx, bytes) -> install t idx (Bytes.copy bytes)) pages
