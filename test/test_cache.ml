(* Tests for the cache substrate: set-associative LRU behaviour, TLB
   paging, and the paper's hierarchy parameters / stall accounting. *)

module Sa_cache = Hb_cache.Sa_cache
module Tlb = Hb_cache.Tlb
module Hierarchy = Hb_cache.Hierarchy

(* The one set walk, which [Hierarchy.access] runs on each level. *)
let access = Hierarchy.cache_access
let tlb_access = Hierarchy.tlb_access

let test_cache_hit_miss () =
  let c = Sa_cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~block_bytes:32 in
  Alcotest.(check bool) "cold miss" false (access c 0x1000);
  Alcotest.(check bool) "hit" true (access c 0x1000);
  Alcotest.(check bool) "same block hit" true (access c 0x101F);
  Alcotest.(check bool) "next block miss" false (access c 0x1020);
  Alcotest.(check int) "accesses" 4 c.Sa_cache.accesses;
  Alcotest.(check int) "misses" 2 c.Sa_cache.misses

let test_cache_lru () =
  (* 2-way, 16 sets of 32B: addresses 0x0, 0x200, 0x400 map to set 0 *)
  let c = Sa_cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~block_bytes:32 in
  ignore (access c 0x000);
  ignore (access c 0x200);
  (* touch 0x000 to make 0x200 the LRU way *)
  Alcotest.(check bool) "0x000 still resident" true (access c 0x000);
  ignore (access c 0x400);
  Alcotest.(check bool) "LRU way evicted" false (Sa_cache.probe c 0x200);
  Alcotest.(check bool) "MRU way kept" true (Sa_cache.probe c 0x000)

let test_cache_conflict_vs_capacity () =
  let c = Sa_cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~block_bytes:32 in
  (* 3 blocks in one set thrash a 2-way cache *)
  for _ = 1 to 10 do
    ignore (access c 0x000);
    ignore (access c 0x200);
    ignore (access c 0x400)
  done;
  Alcotest.(check int) "all misses" 30 c.Sa_cache.misses

let test_cache_validation () =
  (match
     Sa_cache.create ~name:"t" ~size_bytes:100 ~assoc:2 ~block_bytes:32
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "non-power-of-two should fail");
  let c = Sa_cache.create ~name:"t" ~size_bytes:256 ~assoc:4 ~block_bytes:32 in
  Alcotest.(check int) "sets" 2 (Sa_cache.num_sets c)

let test_cache_flush_reset () =
  let c = Sa_cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~block_bytes:32 in
  ignore (access c 0x1000);
  Sa_cache.reset_stats c;
  Alcotest.(check int) "stats reset" 0 c.Sa_cache.accesses;
  Alcotest.(check bool) "contents kept" true (Sa_cache.probe c 0x1000);
  Sa_cache.flush c;
  Alcotest.(check bool) "flushed" false (Sa_cache.probe c 0x1000)

(* A set never touched since creation or a flush reads as invalid ways
   with zero stamps, as an eagerly initialised cache would. *)
let test_cache_unfilled_sets () =
  let c = Sa_cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~block_bytes:32 in
  let slots = Sa_cache.num_sets c * 2 in
  let all_empty what =
    for i = 0 to slots - 1 do
      Alcotest.(check int) (Printf.sprintf "%s tag %d" what i) (-1)
        (Sa_cache.tag c i);
      Alcotest.(check int) (Printf.sprintf "%s stamp %d" what i) 0
        (Sa_cache.stamp c i)
    done
  in
  all_empty "fresh";
  Alcotest.(check bool) "fresh probe" false (Sa_cache.probe c 0x1000);
  ignore (access c 0x1000);
  (* 0x1000 is block 128: set 0, tag 8, in the set's first way *)
  Alcotest.(check int) "installed tag" 8 (Sa_cache.tag c 0);
  Alcotest.(check int) "installed stamp" 1 (Sa_cache.stamp c 0);
  Alcotest.(check int) "other way" (-1) (Sa_cache.tag c 1);
  Sa_cache.flush c;
  all_empty "flushed";
  match Sa_cache.tag c slots with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "slot past the last set"

(* [flush] returns every chunk to unfilled; the first touch after it
   writes a fresh chunk whose other ways read tags -1 and stamps 0. *)
let test_cache_flush_chunks () =
  (* 2-way, 64 sets of 32B: four chunks of 16 sets *)
  let c = Sa_cache.create ~name:"t" ~size_bytes:4096 ~assoc:2 ~block_bytes:32 in
  let filled () =
    Array.fold_left
      (fun n b -> if Bytes.length b > 0 then n + 1 else n)
      0 c.Sa_cache.chunks
  in
  Alcotest.(check int) "chunks" 4 (Array.length c.Sa_cache.chunks);
  Alcotest.(check int) "fresh" 0 (filled ());
  (* sets 0, 17 and 63, in chunks 0, 1 and 3, twice each *)
  List.iter
    (fun a -> ignore (access c a); ignore (access c (a + 0x800)))
    [ 0x000; 0x220; 0x7E0 ];
  Alcotest.(check int) "touched chunks" 3 (filled ());
  Sa_cache.flush c;
  Alcotest.(check int) "flushed" 0 (filled ());
  Alcotest.(check int) "clock" 0 c.Sa_cache.clock;
  (* 0x1220 is block 145: set 17, tag 2, in chunk 1 *)
  Alcotest.(check bool) "first touch misses" false (access c 0x1220);
  Alcotest.(check int) "one chunk" 1 (filled ());
  for i = 0 to (Sa_cache.num_sets c * 2) - 1 do
    let tag, stamp = if i = 34 then (2, 1) else (-1, 0) in
    Alcotest.(check (pair int int)) (Printf.sprintf "slot %d" i) (tag, stamp)
      (Sa_cache.tag c i, Sa_cache.stamp c i)
  done

let test_tlb () =
  let t = Tlb.create ~name:"t" ~entries:4 ~assoc:2 ~page_bytes:4096 in
  Alcotest.(check bool) "cold" false (tlb_access t 0x100000);
  Alcotest.(check bool) "same page" true (tlb_access t 0x100FFF);
  Alcotest.(check bool) "next page" false (tlb_access t 0x101000);
  Alcotest.(check int) "misses" 2 (Tlb.misses t)

let test_hierarchy_params () =
  (* paper parameters: 8KB tag cache for the 4-bit external encoding,
     2KB for 1-bit encodings *)
  let p4 = Hierarchy.default_params ~tag_bits:4 in
  let p1 = Hierarchy.default_params ~tag_bits:1 in
  Alcotest.(check int) "tagc 8KB" (8 * 1024) p4.Hierarchy.tagc_size;
  Alcotest.(check int) "tagc 2KB" (2 * 1024) p1.Hierarchy.tagc_size;
  Alcotest.(check int) "L1 32KB" (32 * 1024) p1.Hierarchy.l1_size;
  Alcotest.(check int) "L2 4MB" (4 * 1024 * 1024) p1.Hierarchy.l2_size;
  Alcotest.(check int) "L1 penalty" 12 p1.Hierarchy.l1_miss_penalty;
  Alcotest.(check int) "L2 penalty" 200 p1.Hierarchy.l2_miss_penalty

(* Creating the paper's hierarchy allocates its chunk tables, not the
   4MB L2's 2MB of way slots: those come a chunk at a time, on first
   touch. *)
let test_hierarchy_create_is_small () =
  (* OCaml 5 adds minor-heap words to [Gc.allocated_bytes] at a minor
     collection: start from an empty minor heap, so one falling inside
     [create] counts only [create]'s words *)
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  let h = Hierarchy.create (Hierarchy.default_params ~tag_bits:4) in
  let bytes = Gc.allocated_bytes () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated < 64KB" bytes)
    true (bytes < 65536.);
  Alcotest.(check int) "L2 chunk table" 2048
    (Array.length h.Hierarchy.l2.Sa_cache.chunks)

let test_hierarchy_stalls () =
  let h = Hierarchy.create (Hierarchy.default_params ~tag_bits:1) in
  (* cold access: TLB miss (12) + L1 miss (12) + L2 miss (200) *)
  let s1 = Hierarchy.access h Hierarchy.Data 0x100000 in
  Alcotest.(check int) "cold stall" (12 + 12 + 200) s1;
  (* immediate re-access: all hits *)
  let s2 = Hierarchy.access h Hierarchy.Data 0x100000 in
  Alcotest.(check int) "warm stall" 0 s2;
  (* L2 keeps blocks after L1 eviction: walk far past L1 capacity *)
  for i = 0 to 4095 do
    ignore (Hierarchy.access h Hierarchy.Data (0x100000 + (i * 32)))
  done;
  (* 4096 blocks = 128KB = 32 pages: evicts the L1 block but neither the
     L2 block nor the 256-entry TLB entry *)
  let s3 = Hierarchy.access h Hierarchy.Data 0x100000 in
  Alcotest.(check int) "L1 miss, L2 hit, TLB hit" 12 s3

let test_hierarchy_classes () =
  let h = Hierarchy.create (Hierarchy.default_params ~tag_bits:1) in
  ignore (Hierarchy.access h Hierarchy.Data 0x100000);
  ignore (Hierarchy.access h Hierarchy.Tag_meta 0x70000000);
  ignore (Hierarchy.access h Hierarchy.Base_bound 0x80000000);
  Alcotest.(check int) "data accesses" 1 h.Hierarchy.data_stats.accesses;
  Alcotest.(check int) "tag accesses" 1 h.Hierarchy.tag_stats.accesses;
  Alcotest.(check int) "bb accesses" 1 h.Hierarchy.bb_stats.accesses;
  Alcotest.(check bool) "stall totals add up" true
    (Hierarchy.total_stalls h
    = h.Hierarchy.data_stats.stall_cycles
      + h.Hierarchy.bb_stats.stall_cycles
      + h.Hierarchy.tag_stats.stall_cycles);
  (* tag and data use separate first-level caches: data access does not
     warm the tag cache *)
  let s = Hierarchy.access h Hierarchy.Tag_meta 0x100000 in
  Alcotest.(check bool) "tag cold for data-warm block (L2 hit though)" true
    (s > 0)

(* ---- reference model ------------------------------------------------- *)

(* Reference model of a set-associative LRU cache, written the plain way:
   a closure scans the ways and returns [Some way].  The set walk over
   [Sa_cache]'s storage must match it access for access, victim for
   victim. *)
module Ref_cache = struct
  type t = {
    block_bits : int;
    set_bits : int;
    assoc : int;
    tags : int array;
    stamp : int array;
    mutable clock : int;
  }

  let create ~size_bytes ~assoc ~block_bytes =
    let sets = size_bytes / (assoc * block_bytes) in
    {
      block_bits = Sa_cache.log2 block_bytes;
      set_bits = Sa_cache.log2 sets;
      assoc;
      tags = Array.make (sets * assoc) (-1);
      stamp = Array.make (sets * assoc) 0;
      clock = 0;
    }

  let access t addr =
    t.clock <- t.clock + 1;
    let block = addr lsr t.block_bits in
    let set = block land ((1 lsl t.set_bits) - 1) in
    let tag = block lsr t.set_bits in
    let base = set * t.assoc in
    let rec find i =
      if i >= t.assoc then None
      else if t.tags.(base + i) = tag then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
      t.stamp.(base + i) <- t.clock;
      true
    | None ->
      let victim = ref 0 in
      for i = 1 to t.assoc - 1 do
        if t.stamp.(base + i) < t.stamp.(base + !victim) then victim := i
      done;
      t.tags.(base + !victim) <- tag;
      t.stamp.(base + !victim) <- t.clock;
      false

  let probe t addr =
    let block = addr lsr t.block_bits in
    let set = block land ((1 lsl t.set_bits) - 1) in
    let tag = block lsr t.set_bits in
    let base = set * t.assoc in
    let rec find i =
      i < t.assoc && (t.tags.(base + i) = tag || find (i + 1))
    in
    find 0

  let flush t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamp 0 (Array.length t.stamp) 0;
    t.clock <- 0
end

(* Every way slot of [c] reads as the reference's: tag and LRU stamp. *)
let same_ways c (r : Ref_cache.t) =
  let ok = ref true in
  Array.iteri
    (fun i tag ->
      if Sa_cache.tag c i <> tag || Sa_cache.stamp c i <> r.stamp.(i) then
        ok := false)
    r.tags;
  !ok

type cache_op = Access of int | Probe of int | Flush | Reset_stats

let show_op = function
  | Access a -> Printf.sprintf "access 0x%x" a
  | Probe a -> Printf.sprintf "probe 0x%x" a
  | Flush -> "flush"
  | Reset_stats -> "reset"

(* Mostly accesses over a span a few times the cache's reach, so sets
   conflict and evict; flushes reset every stamp to 0, so the following
   misses pick victims among ties. *)
let ops_arb span =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (30, map (fun a -> Access a) (int_bound span));
        (4, map (fun a -> Probe a) (int_bound span));
        (1, return Flush);
        (1, return Reset_stats);
      ]
  in
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_range 1 400) op)

(* geometries: 2-way, 4-way, direct-mapped, fully associative, the
   TLB's 1-byte blocks, and caches of two and eight chunks *)
let geometries =
  [ (1024, 2, 32); (256, 4, 32); (128, 1, 32); (128, 4, 32); (64, 4, 1);
    (4096, 4, 32); (8192, 2, 32) ]

let prop_cache_matches_reference (size_bytes, assoc, block_bytes) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "sa-cache = reference model (%dB, %d-way, %dB blocks)"
         size_bytes assoc block_bytes)
    ~count:200 (ops_arb (4 * size_bytes))
    (fun ops ->
      let c = Sa_cache.create ~name:"t" ~size_bytes ~assoc ~block_bytes in
      let r = Ref_cache.create ~size_bytes ~assoc ~block_bytes in
      let misses = ref 0 in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Access a ->
              let hit = access c a in
              if not hit then incr misses;
              hit = Ref_cache.access r a
            | Probe a -> Sa_cache.probe c a = Ref_cache.probe r a
            | Flush ->
              Sa_cache.flush c;
              Ref_cache.flush r;
              true
            | Reset_stats ->
              Sa_cache.reset_stats c;
              misses := 0;
              true
          in
          (* identical tags and stamps in every way, sets never touched
             included: the same victims, ties included *)
          same_result && same_ways c r
          && c.Sa_cache.clock = r.Ref_cache.clock
          && c.Sa_cache.misses = !misses)
        ops)

let prop_tlb_matches_reference =
  let entries = 16 and assoc = 4 and page_bytes = 4096 in
  QCheck.Test.make ~name:"tlb = reference model over page numbers" ~count:200
    (ops_arb (4 * entries * page_bytes))
    (fun ops ->
      let t = Tlb.create ~name:"t" ~entries ~assoc ~page_bytes in
      let r = Ref_cache.create ~size_bytes:entries ~assoc ~block_bytes:1 in
      List.for_all
        (fun op ->
          (match op with
           | Access a | Probe a ->
             (* a TLB has no probe: both kinds look the page up *)
             tlb_access t a = Ref_cache.access r (a lsr 12)
           | Flush ->
             Tlb.flush t;
             Ref_cache.flush r;
             true
           | Reset_stats ->
             Tlb.reset_stats t;
             true)
          && same_ways t.Tlb.cache r)
        ops)

(* property: stalls are always one of the composable penalty sums *)
let prop_stall_values =
  QCheck.Test.make ~name:"stall values well-formed" ~count:1000
    QCheck.(int_bound 0xFFFFF)
    (fun off ->
      let h = Hierarchy.create (Hierarchy.default_params ~tag_bits:1) in
      let s = Hierarchy.access h Hierarchy.Data (0x100000 + (off * 4)) in
      List.mem s [ 0; 12; 24; 212; 224 ])

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cache"
    [
      ( "sa-cache",
        [
          tc "hit/miss" test_cache_hit_miss;
          tc "LRU replacement" test_cache_lru;
          tc "conflict thrash" test_cache_conflict_vs_capacity;
          tc "validation" test_cache_validation;
          tc "flush/reset" test_cache_flush_reset;
          tc "unfilled sets" test_cache_unfilled_sets;
          tc "flush empties every chunk" test_cache_flush_chunks;
        ]
        @ List.map
            (fun g ->
              QCheck_alcotest.to_alcotest (prop_cache_matches_reference g))
            geometries );
      ( "tlb",
        [
          tc "paging" test_tlb;
          QCheck_alcotest.to_alcotest prop_tlb_matches_reference;
        ]
      );
      ( "hierarchy",
        [
          tc "paper parameters" test_hierarchy_params;
          tc "creation allocates under 64KB" test_hierarchy_create_is_small;
          tc "stall composition" test_hierarchy_stalls;
          tc "access classes" test_hierarchy_classes;
          QCheck_alcotest.to_alcotest prop_stall_values;
        ] );
    ]
