(* Tests for the memory substrate: layout arithmetic (shadow/tag address
   computation from Section 4.1/4.2 of the paper) and the sparse paged
   physical memory with region page accounting. *)

module Layout = Hb_mem.Layout
module Physmem = Hb_mem.Physmem

let test_shadow_addresses () =
  (* base(addr) = SHADOW_SPACE_BASE + addr*2, bound interleaved after *)
  Alcotest.(check int) "shadow of 0x100000"
    (Layout.shadow_base + 0x200000)
    (Layout.shadow_addr 0x100000);
  (* consecutive words get disjoint interleaved double-words *)
  Alcotest.(check int) "next word 8 bytes later"
    (Layout.shadow_addr 0x100000 + 8)
    (Layout.shadow_addr 0x100004)

let test_tag_locations_1bit () =
  let bits = 1 in
  Alcotest.(check int) "mask" 1 (Layout.tag_mask ~bits);
  let addr0 = Layout.tag_addr ~bits 0x100000 in
  let bit0 = Layout.tag_shift ~bits 0x100000 in
  Alcotest.(check int) "byte" (Layout.tag_base + (0x100000 / 32)) addr0;
  Alcotest.(check int) "first bit" 0 bit0;
  (* 8 words per tag byte *)
  Alcotest.(check int) "same byte" addr0 (Layout.tag_addr ~bits (0x100000 + 4));
  Alcotest.(check int) "next bit" (bit0 + 1)
    (Layout.tag_shift ~bits (0x100000 + 4));
  Alcotest.(check int) "unaligned address, same word" bit0
    (Layout.tag_shift ~bits (0x100000 + 3));
  Alcotest.(check int) "next byte" (addr0 + 1)
    (Layout.tag_addr ~bits (0x100000 + 32));
  Alcotest.(check int) "bit wraps" 0 (Layout.tag_shift ~bits (0x100000 + 32))

let test_tag_locations_4bit () =
  let bits = 4 in
  Alcotest.(check int) "mask" 0xF (Layout.tag_mask ~bits);
  let addr0 = Layout.tag_addr ~bits 0x100000 in
  Alcotest.(check int) "byte" (Layout.tag_base + (0x100000 / 8)) addr0;
  Alcotest.(check int) "even word low nibble" 0
    (Layout.tag_shift ~bits 0x100000);
  Alcotest.(check int) "same byte" addr0 (Layout.tag_addr ~bits (0x100000 + 4));
  Alcotest.(check int) "odd word high nibble" 4
    (Layout.tag_shift ~bits (0x100000 + 4));
  Alcotest.(check int) "two words per byte" (addr0 + 1)
    (Layout.tag_addr ~bits (0x100000 + 8))

(* property: the census's inverse walk lands back on the word whose tag
   it decodes, for every slot of every tag byte *)
let prop_tagged_word_inverse =
  QCheck.Test.make ~name:"tagged_word inverts tag_addr/tag_shift" ~count:500
    QCheck.(pair bool (int_bound (Layout.stack_top / 4)))
    (fun (four, widx) ->
      let bits = if four then 4 else 1 in
      let addr = widx * 4 in
      let byte = Layout.tag_addr ~bits addr in
      let slot = Layout.tag_shift ~bits addr / bits in
      Layout.tagged_word ~bits byte slot = addr)

let test_tag_space_disjoint () =
  (* tag space for the whole data range stays below the shadow space *)
  let addr = Layout.tag_addr ~bits:4 (Layout.stack_top - 4) in
  Alcotest.(check bool) "tag below shadow" true (addr < Layout.shadow_base);
  Alcotest.(check bool) "tag above data" true (addr >= Layout.tag_base)

let test_regions () =
  let open Layout in
  Alcotest.(check string) "globals" "globals"
    (region_name (region_of globals_base));
  Alcotest.(check string) "heap" "heap" (region_name (region_of heap_base));
  Alcotest.(check string) "stack" "stack"
    (region_name (region_of (stack_top - 4)));
  Alcotest.(check string) "tag" "tag" (region_name (region_of tag_base));
  Alcotest.(check string) "shadow" "shadow"
    (region_name (region_of (shadow_addr heap_base)));
  Alcotest.(check bool) "all data under intern-4 region limit" true
    (stack_top <= internal_region_limit)

let test_physmem_rw () =
  let m = Physmem.create () in
  Physmem.write_u8 m 0x100000 0xAB;
  Alcotest.(check int) "u8" 0xAB (Physmem.read_u8 m 0x100000);
  Physmem.write_u16 m 0x100010 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Physmem.read_u16 m 0x100010);
  Physmem.write_u32 m 0x100020 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Physmem.read_u32 m 0x100020);
  (* little-endian layout *)
  Alcotest.(check int) "LE byte 0" 0xEF (Physmem.read_u8 m 0x100020);
  Alcotest.(check int) "LE byte 3" 0xDE (Physmem.read_u8 m 0x100023);
  (* zero-fill on first touch *)
  Alcotest.(check int) "untouched reads zero" 0 (Physmem.read_u32 m 0x200000)

let test_physmem_page_cross () =
  let m = Physmem.create () in
  let addr = 0x100000 + Layout.page_size - 2 in
  Physmem.write_u32 m addr 0x11223344;
  Alcotest.(check int) "crossing read" 0x11223344 (Physmem.read_u32 m addr);
  Alcotest.(check int) "byte in next page" 0x11
    (Physmem.read_u8 m (addr + 3))

let test_physmem_bits () =
  let m = Physmem.create () in
  let a = Layout.tag_base in
  Physmem.write_bits m a 0 0xF 0x9;
  Physmem.write_bits m a 4 0xF 0x5;
  Alcotest.(check int) "low nibble" 0x9 (Physmem.read_bits m a 0 0xF);
  Alcotest.(check int) "high nibble" 0x5 (Physmem.read_bits m a 4 0xF);
  Physmem.write_bits m a 0 0xF 0x0;
  Alcotest.(check int) "low cleared" 0x0 (Physmem.read_bits m a 0 0xF);
  Alcotest.(check int) "high kept" 0x5 (Physmem.read_bits m a 4 0xF)

let test_page_accounting () =
  let m = Physmem.create () in
  Alcotest.(check int) "starts empty" 0 (Physmem.pages_touched m);
  Physmem.write_u8 m Layout.heap_base 1;
  Physmem.write_u8 m (Layout.heap_base + 100) 1;
  Alcotest.(check int) "same page counted once" 1 (Physmem.pages_touched m);
  Physmem.write_u8 m (Layout.heap_base + Layout.page_size) 1;
  Alcotest.(check int) "two pages" 2 (Physmem.pages_touched m);
  Alcotest.(check int) "heap region" 2
    (Physmem.pages_touched_in m Layout.Heap);
  Physmem.write_u8 m (Layout.shadow_addr Layout.heap_base) 1;
  Alcotest.(check int) "shadow region" 1
    (Physmem.pages_touched_in m Layout.Shadow_space);
  ignore (Physmem.read_u8 m Layout.globals_base);
  Alcotest.(check int) "reads touch pages too" 1
    (Physmem.pages_touched_in m Layout.Globals)

let test_invalid_addresses () =
  let m = Physmem.create () in
  (match Physmem.read_u8 m 0x10 with
   | exception Hb_error.Hb_error ({ Hb_error.addr = Some 0x10; _ }, _) -> ()
   | exception Hb_error.Hb_error _ ->
     Alcotest.fail "null page read should carry the faulting address"
   | _ -> Alcotest.fail "null page read should fail");
  match Physmem.write_u8 m 0x800000000 1 with
  | exception Hb_error.Hb_error _ -> ()
  | _ -> Alcotest.fail "out-of-space write should fail"

(* ---- reference model ------------------------------------------------- *)

(* Reference model of sparse physical memory, written the plain way:
   pages in a [Hashtbl] keyed by page index, per-region counters bumped
   on creation.  The page-table [Physmem] must match it operation for
   operation. *)
module Ref_mem = struct
  type t = {
    pages : (int, Bytes.t) Hashtbl.t;
    touched : (Layout.region, int) Hashtbl.t;
  }

  let create () = { pages = Hashtbl.create 64; touched = Hashtbl.create 8 }

  let page_of t addr =
    if addr < Layout.null_guard_limit || addr > 0xFFFFFFFF then
      Hb_error.fail ~component:"physmem" ~addr "invalid physical address";
    let idx = addr / Layout.page_size in
    match Hashtbl.find_opt t.pages idx with
    | Some p -> p
    | None ->
      let p = Bytes.make Layout.page_size '\000' in
      Hashtbl.replace t.pages idx p;
      let r = Layout.region_of (idx * Layout.page_size) in
      Hashtbl.replace t.touched r
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.touched r));
      p

  let read_u8 t addr =
    Char.code (Bytes.get (page_of t addr) (addr land (Layout.page_size - 1)))

  let write_u8 t addr v =
    Bytes.set (page_of t addr)
      (addr land (Layout.page_size - 1))
      (Char.chr (v land 0xFF))

  (* little-endian, byte by byte: the same bytes, the same page-creation
     order and the same failing byte as the word paths *)
  let read_n t addr n =
    let v = ref 0 in
    for i = 0 to n - 1 do
      v := !v lor (read_u8 t (addr + i) lsl (8 * i))
    done;
    !v

  let write_n t addr n v =
    for i = 0 to n - 1 do
      write_u8 t (addr + i) (v lsr (8 * i))
    done

  let peek_u8 t addr =
    match Hashtbl.find_opt t.pages (addr / Layout.page_size) with
    | None -> 0
    | Some p -> Char.code (Bytes.get p (addr land (Layout.page_size - 1)))

  let peek_u32 t addr =
    peek_u8 t addr
    lor (peek_u8 t (addr + 1) lsl 8)
    lor (peek_u8 t (addr + 2) lsl 16)
    lor (peek_u8 t (addr + 3) lsl 24)

  let sorted_pages t =
    Hashtbl.fold (fun idx p acc -> (idx, Bytes.to_string p) :: acc) t.pages []
    |> List.sort compare

  let touched_in t r = Option.value ~default:0 (Hashtbl.find_opt t.touched r)
end

let all_regions =
  Layout.[ Code; Globals; Heap; Stack; Tag_space; Shadow_space; Other ]

type mem_op =
  | Write of int * int * int  (** width, address, value *)
  | Read of int * int  (** width, address *)
  | Peek8 of int
  | Peek32 of int
  | Bits of int * int * int  (** address, shift (0 or 4), nibble *)

let show_mem_op = function
  | Write (w, a, v) -> Printf.sprintf "write%d 0x%x 0x%x" (8 * w) a v
  | Read (w, a) -> Printf.sprintf "read%d 0x%x" (8 * w) a
  | Peek8 a -> Printf.sprintf "peek8 0x%x" a
  | Peek32 a -> Printf.sprintf "peek32 0x%x" a
  | Bits (a, s, v) -> Printf.sprintf "bits 0x%x <<%d 0x%x" a s v

(* Addresses near the places a page table can get wrong: page and leaf
   boundaries (a leaf spans 4MB), every data region, tag and shadow
   space, the first mapped page and the last page of the space. *)
let anchors =
  [
    Layout.null_guard_limit;
    Layout.globals_base;
    0x400000;
    Layout.heap_base;
    Layout.stack_top - 8192;
    Layout.tag_base;
    Layout.tag_base + 0x3FF000;
    Layout.shadow_base;
    Layout.shadow_addr Layout.heap_base;
    0xFFFFF000;
  ]

let addr_gen =
  let open QCheck.Gen in
  map2 ( + ) (oneofl anchors) (int_range (-16) 8200)

let mem_ops_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map3 (fun w a v -> Write (w, a, v)) (oneofl [ 1; 2; 4 ]) addr_gen
              (int_bound 0xFFFFFFFF));
        (6, map2 (fun w a -> Read (w, a)) (oneofl [ 1; 2; 4 ]) addr_gen);
        (3, map (fun a -> Peek8 a) addr_gen);
        (3, map (fun a -> Peek32 a) addr_gen);
        (2, map3 (fun a s v -> Bits (a, s, v)) addr_gen (oneofl [ 0; 4 ])
              (int_bound 0xF));
      ]
  in
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    (list_size (int_range 1 200) op)

(* [Some value] or [None] when the access faults. *)
let guarded f = try Some (f ()) with Hb_error.Hb_error _ -> None

let apply_both m r op =
  match op with
  | Write (w, a, v) ->
    let write =
      match w with
      | 1 -> Physmem.write_u8
      | 2 -> Physmem.write_u16
      | _ -> Physmem.write_u32
    in
    guarded (fun () -> write m a v; 0)
    = guarded (fun () -> Ref_mem.write_n r a w v; 0)
  | Read (w, a) ->
    let read =
      match w with
      | 1 -> Physmem.read_u8
      | 2 -> Physmem.read_u16
      | _ -> Physmem.read_u32
    in
    guarded (fun () -> read m a) = guarded (fun () -> Ref_mem.read_n r a w)
  | Peek8 a -> Physmem.peek_u8 m a = Ref_mem.peek_u8 r a
  | Peek32 a -> Physmem.peek_u32 m a = Ref_mem.peek_u32 r a
  | Bits (a, shift, v) ->
    guarded (fun () ->
        Physmem.write_bits m a shift 0xF v;
        Physmem.read_bits m a shift 0xF)
    = guarded (fun () ->
          let old = Ref_mem.read_n r a 1 in
          Ref_mem.write_n r a 1
            (old land lnot (0xF lsl shift) lor (v lsl shift));
          (Ref_mem.read_n r a 1 lsr shift) land 0xF)

let folded m =
  List.rev
    (Physmem.fold_pages m ~init:[] ~f:(fun acc idx p ->
         (idx, Bytes.to_string p) :: acc))

let same_pages m r =
  folded m = Ref_mem.sorted_pages r
  && Physmem.pages_touched m = Hashtbl.length r.Ref_mem.pages
  && List.for_all
       (fun reg -> Physmem.pages_touched_in m reg = Ref_mem.touched_in r reg)
       all_regions

let prop_physmem_matches_reference =
  QCheck.Test.make ~name:"physmem = hashtable reference model" ~count:300
    mem_ops_arb
    (fun ops ->
      let m = Physmem.create () and r = Ref_mem.create () in
      List.for_all (apply_both m r) ops
      && same_pages m r
      &&
      (* export -> import into a fresh memory reproduces the pages, their
         order and the counts; the export is a deep copy, so a later write
         to [m] reaches neither it nor the import *)
      let exported = Physmem.export_pages m in
      Array.to_list (Array.map fst exported) = List.map fst (folded m)
      &&
      let m' = Physmem.create () in
      Physmem.import_pages m' exported;
      Physmem.write_u8 m Layout.globals_base 0x5A;
      same_pages m' r)

let test_peek_creates_nothing () =
  let m = Physmem.create () in
  Physmem.write_u32 m Layout.heap_base 0xCAFE;
  (* an untouched leaf, the last page, tag and shadow space, and past
     the end of the 32-bit space: all read as zero, none materializes *)
  List.iter
    (fun a ->
      Alcotest.(check int) (Printf.sprintf "peek 0x%x" a) 0
        (Physmem.peek_u8 m a);
      Alcotest.(check int) (Printf.sprintf "peek32 0x%x" a) 0
        (Physmem.peek_u32 m a))
    [ Layout.tag_base + 0x123456; Layout.shadow_base; 0xFFFFF000; 0xFFFFFFFC;
      0x100000000; Layout.heap_base + Layout.page_size ];
  Alcotest.(check int) "peeked value" 0xCAFE
    (Physmem.peek_u32 m Layout.heap_base);
  Alcotest.(check int) "still one page" 1 (Physmem.pages_touched m);
  Alcotest.(check (list int)) "fold sees only the written page"
    [ Layout.heap_base / Layout.page_size ]
    (List.map fst (folded m));
  (* the last page works like any other *)
  Physmem.write_u32 m 0xFFFFFFFC 0x01020304;
  Alcotest.(check int) "last word" 0x01020304 (Physmem.read_u32 m 0xFFFFFFFC);
  Alcotest.(check (list int)) "fold order"
    [ Layout.heap_base / Layout.page_size; 0xFFFFF ]
    (List.map fst (folded m))

(* property: u32 write/read identity at arbitrary aligned data addresses *)
let prop_u32_roundtrip =
  QCheck.Test.make ~name:"u32 round-trip" ~count:500
    QCheck.(pair (int_bound 0xFFFFF) (int_bound 0xFFFFFFFF))
    (fun (off, v) ->
      let m = Physmem.create () in
      let addr = Hb_mem.Layout.heap_base + (off * 4) in
      Physmem.write_u32 m addr v;
      Physmem.read_u32 m addr = v)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mem"
    [
      ( "layout",
        [
          tc "shadow addresses" test_shadow_addresses;
          tc "tag locations (1-bit)" test_tag_locations_1bit;
          tc "tag locations (4-bit)" test_tag_locations_4bit;
          tc "tag space disjoint" test_tag_space_disjoint;
          tc "regions" test_regions;
          QCheck_alcotest.to_alcotest prop_tagged_word_inverse;
        ] );
      ( "physmem",
        [
          tc "read/write" test_physmem_rw;
          tc "page-crossing access" test_physmem_page_cross;
          tc "bit fields" test_physmem_bits;
          tc "page accounting" test_page_accounting;
          tc "invalid addresses" test_invalid_addresses;
          tc "peeks create nothing" test_peek_creates_nothing;
          QCheck_alcotest.to_alcotest prop_u32_roundtrip;
          QCheck_alcotest.to_alcotest prop_physmem_matches_reference;
        ] );
    ]
