(* Tests for the hardbound core library: metadata, the four compressed
   encodings (Section 4.3), the checker, and Figure 3 propagation rules. *)

module Meta = Hardbound.Meta
module Encoding = Hardbound.Encoding
module Checker = Hardbound.Checker
module Propagate = Hardbound.Propagate
open Hb_isa.Types

(* ---- Meta ---------------------------------------------------------- *)

let in_bounds (m : Meta.t) ~addr ~width =
  Meta.covers ~base:m.base ~bound:m.bound ~addr ~width

let test_meta_basics () =
  Alcotest.(check bool) "non-pointer" false (Meta.is_pointer Meta.non_pointer);
  Alcotest.(check bool) "bounded ints" true (Meta.bounded ~base:0 ~bound:1);
  let m = Meta.make ~base:0x1000 ~size:4 in
  Alcotest.(check bool) "pointer" true (Meta.is_pointer m);
  Alcotest.(check int) "size" 4 (Meta.size m);
  Alcotest.(check bool) "in bounds" true (in_bounds m ~addr:0x1000 ~width:4);
  Alcotest.(check bool) "at bound" false (in_bounds m ~addr:0x1004 ~width:1);
  Alcotest.(check bool) "below base" false
    (in_bounds m ~addr:0xFFF ~width:1);
  Alcotest.(check bool) "straddles bound" false
    (in_bounds m ~addr:0x1002 ~width:4);
  Alcotest.(check bool) "unsafe is pointer" true (Meta.is_pointer Meta.unsafe);
  Alcotest.(check bool) "unsafe passes everything" true
    (in_bounds Meta.unsafe ~addr:0xDEADBEE ~width:4);
  Alcotest.(check bool) "code pointer fails data checks" false
    (in_bounds Meta.code_pointer ~addr:0x1000 ~width:4)

(* ---- Encoding: specified behaviours -------------------------------- *)

let enc = Alcotest.testable
    (fun fmt -> function
      | Encoding.Enc_non_pointer v -> Format.fprintf fmt "nonptr %x" v
      | Encoding.Enc_inline { word; tag; aux } ->
        Format.fprintf fmt "inline w=%x t=%d a=%d" word tag aux
      | Encoding.Enc_shadow { word; tag } ->
        Format.fprintf fmt "shadow w=%x t=%d" word tag)
    (=)

let test_extern4 () =
  let v = 0x100000 in
  (* sizes 4..56 multiple of 4, ptr = base: compressed with tag = size/4 *)
  List.iter
    (fun size ->
      Alcotest.check enc
        (Printf.sprintf "size %d compresses" size)
        (Encoding.Enc_inline { word = v; tag = size / 4; aux = 0 })
        (Encoding.encode Encoding.Extern4 ~value:v (Meta.make ~base:v ~size)))
    [ 4; 8; 12; 56 ];
  (* size 60 and up: tag 15 + shadow *)
  Alcotest.check enc "size 60 does not compress"
    (Encoding.Enc_shadow { word = v; tag = 15 })
    (Encoding.encode Encoding.Extern4 ~value:v (Meta.make ~base:v ~size:60));
  (* non-multiple-of-4 size *)
  Alcotest.check enc "size 6 does not compress"
    (Encoding.Enc_shadow { word = v; tag = 15 })
    (Encoding.encode Encoding.Extern4 ~value:v (Meta.make ~base:v ~size:6));
  (* interior pointer (value <> base) *)
  Alcotest.check enc "interior pointer does not compress"
    (Encoding.Enc_shadow { word = v + 4; tag = 15 })
    (Encoding.encode Encoding.Extern4 ~value:(v + 4)
       (Meta.make ~base:v ~size:8));
  (* non-pointer *)
  Alcotest.check enc "non-pointer"
    (Encoding.Enc_non_pointer 42)
    (Encoding.encode Encoding.Extern4 ~value:42 Meta.non_pointer)

let test_intern4_bit_stealing () =
  let v = 0x123458 in
  match Encoding.encode Encoding.Intern4 ~value:v (Meta.make ~base:v ~size:16) with
  | Encoding.Enc_inline { word; tag; aux } ->
    Alcotest.(check int) "tag bit" 1 tag;
    Alcotest.(check int) "aux unused" 0 aux;
    Alcotest.(check bool) "flag bit set" true (word land 0x80000000 <> 0);
    Alcotest.(check int) "size code in bits 30..27" 4 ((word lsr 27) land 0xF);
    Alcotest.(check int) "low 27 bits = value" v (word land 0x07FFFFFF);
    (match Encoding.decode Encoding.Intern4 ~word ~tag:1 ~aux:0 with
     | Encoding.Dec_inline (v', m) ->
       Alcotest.(check int) "decoded value" v v';
       Alcotest.(check bool) "decoded meta" true
         (Meta.equal m (Meta.make ~base:v ~size:16))
     | _ -> Alcotest.fail "expected inline decode")
  | _ -> Alcotest.fail "expected inline encode"

(* Decoding is total: every tag a scheme's tag width can hold, over words
   and side bits only a fault injection produces, decodes without
   raising, and the intern-4 flag with size code 0 reads as a pointer
   with empty bounds (every access through it then traps). *)
let test_decode_total () =
  List.iter
    (fun scheme ->
      for tag = 0 to (1 lsl Encoding.tag_bits scheme) - 1 do
        List.iter
          (fun word ->
            List.iter
              (fun aux -> ignore (Encoding.decode scheme ~word ~tag ~aux))
              [ 0; 1; 2047; 4095 ])
          [ 0; 1; 0x07FFFFFF; 0x7FFFFFFF; 0x80000000; 0x87FFFFFF; 0xF8000000;
            0xFFFFFFFF ]
      done)
    Encoding.all_schemes;
  let v = 0x123458 in
  match Encoding.decode Encoding.Intern4 ~word:(0x80000000 lor v) ~tag:1 ~aux:0 with
  | Encoding.Dec_inline (v', m) ->
    Alcotest.(check int) "value" v v';
    Alcotest.(check bool) "empty bounds" true
      (Meta.equal m (Meta.make ~base:v ~size:0))
  | _ -> Alcotest.fail "expected an inline pointer"

let test_intern4_region_limit () =
  (* pointers outside the lowest 128MB are not compressible *)
  let v = 0x09000000 in
  Alcotest.check enc "beyond 128MB: shadow"
    (Encoding.Enc_shadow { word = v; tag = 1 })
    (Encoding.encode Encoding.Intern4 ~value:v (Meta.make ~base:v ~size:8))

let test_intern11 () =
  let v = 0x100000 in
  (* compressible up to 4*2047 bytes *)
  Alcotest.check enc "8KB-4 object compresses"
    (Encoding.Enc_inline { word = v; tag = 1; aux = 2047 })
    (Encoding.encode Encoding.Intern11 ~value:v
       (Meta.make ~base:v ~size:(4 * 2047)));
  Alcotest.check enc "8KB object does not"
    (Encoding.Enc_shadow { word = v; tag = 1 })
    (Encoding.encode Encoding.Intern11 ~value:v
       (Meta.make ~base:v ~size:(4 * 2048)))

let test_uncompressed () =
  let v = 0x100000 in
  Alcotest.check enc "always shadow"
    (Encoding.Enc_shadow { word = v; tag = 1 })
    (Encoding.encode Encoding.Uncompressed ~value:v (Meta.make ~base:v ~size:4))

let test_tag_bits () =
  Alcotest.(check int) "extern4" 4 (Encoding.tag_bits Encoding.Extern4);
  Alcotest.(check int) "intern4" 1 (Encoding.tag_bits Encoding.Intern4);
  Alcotest.(check int) "intern11" 1 (Encoding.tag_bits Encoding.Intern11);
  Alcotest.(check int) "uncompressed" 1
    (Encoding.tag_bits Encoding.Uncompressed)

(* ---- Encoding: property tests -------------------------------------- *)

(* Arbitrary pointer metadata in the program's data regions. *)
let gen_ptr =
  QCheck.Gen.(
    let* base = map (fun v -> v * 4) (int_range 0x40000 0x1C00000) in
    let* size = int_range 1 9000 in
    let* off = int_range 0 (min size 64) in
    return (base + off, { Meta.base; bound = base + size }))

let arb_ptr = QCheck.make ~print:(fun (v, m) ->
    Printf.sprintf "value=0x%x meta=%s" v (Meta.to_string m))
    gen_ptr

let prop_roundtrip scheme =
  QCheck.Test.make
    ~name:("roundtrip " ^ Encoding.scheme_name scheme)
    ~count:2000 arb_ptr
    (fun (value, m) -> Encoding.roundtrip_exact scheme ~value m)

let prop_nonptr_roundtrip scheme =
  QCheck.Test.make
    ~name:("non-pointer roundtrip " ^ Encoding.scheme_name scheme)
    ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun v -> Encoding.roundtrip_exact scheme ~value:v Meta.non_pointer)

(* the classifier, which takes unboxed bounds, agrees with the shape of
   [encode] wherever [encode] accepts the pointer; so does [needs_shadow] *)
let prop_classify_matches_encode scheme =
  QCheck.Test.make
    ~name:("classify = shape of encode " ^ Encoding.scheme_name scheme)
    ~count:2000
    QCheck.(pair bool arb_ptr)
    (fun (nonptr, (value, m)) ->
      let m = if nonptr then Meta.non_pointer else m in
      let kind =
        Encoding.classify scheme ~value ~base:m.Meta.base ~bound:m.Meta.bound
      in
      kind
      = (match Encoding.encode scheme ~value m with
         | Encoding.Enc_non_pointer _ -> Encoding.Non_pointer
         | Encoding.Enc_inline _ -> Encoding.Narrow
         | Encoding.Enc_shadow _ -> Encoding.Wide)
      && Encoding.needs_shadow scheme ~value ~base:m.Meta.base
           ~bound:m.Meta.bound
         = (kind = Encoding.Wide))

(* decode of any encode never reports a *different* metadata: if it decodes
   inline, the metadata is exactly the original. *)
let prop_inline_faithful scheme =
  QCheck.Test.make
    ~name:("inline decode faithful " ^ Encoding.scheme_name scheme)
    ~count:2000 arb_ptr
    (fun (value, m) ->
      match Encoding.encode scheme ~value m with
      | Encoding.Enc_inline { word; tag; aux } -> (
        match Encoding.decode scheme ~word ~tag ~aux with
        | Encoding.Dec_inline (v', m') -> v' = value && Meta.equal m m'
        | _ -> false)
      | _ -> true)

(* ---- Checker -------------------------------------------------------- *)

let test_checker_modes () =
  let base = 0x1000 and bound = 0x1004 in
  (* Off: nothing raises, nothing checked *)
  Alcotest.(check bool) "off" false
    (Checker.check Checker.Off ~base ~bound ~pc:0 ~addr:0x2000 ~value:0x2000
       ~width:4 ~is_store:false);
  (* Malloc-only: pointers checked, non-pointers allowed *)
  Alcotest.(check bool) "malloc-only non-pointer" false
    (Checker.check Checker.Malloc_only ~base:0 ~bound:0 ~pc:0 ~addr:0x2000
       ~value:0x2000 ~width:4 ~is_store:false);
  Alcotest.(check bool) "malloc-only pointer in bounds" true
    (Checker.check Checker.Malloc_only ~base ~bound ~pc:0 ~addr:0x1000
       ~value:0x1000 ~width:4 ~is_store:false);
  (try
     ignore
       (Checker.check Checker.Malloc_only ~base ~bound ~pc:0 ~addr:0x1004
          ~value:0x1004 ~width:1 ~is_store:true);
     Alcotest.fail "expected bounds violation"
   with Checker.Bounds_violation v ->
     Alcotest.(check bool) "is store" true v.Checker.is_store;
     Alcotest.(check int) "value recorded" 0x1004 v.Checker.value;
     Alcotest.(check bool) "bounds recorded" true
       (Meta.equal (Meta.make ~base ~size:4) v.Checker.meta));
  (* Full: non-pointer deref raises *)
  (try
     ignore
       (Checker.check Checker.Full ~base:0 ~bound:0 ~pc:3 ~addr:0x2000
          ~value:0x2000 ~width:4 ~is_store:false);
     Alcotest.fail "expected non-pointer exception"
   with Checker.Non_pointer_deref v ->
     Alcotest.(check int) "pc recorded" 3 v.Checker.pc;
     Alcotest.(check bool) "non-pointer recorded" false
       (Meta.is_pointer v.Checker.meta))

(* The checker spells out [Meta.bounded] and [Meta.covers] (-opaque keeps
   it from inlining them), and so does the classifier's non-pointer test:
   both against their owner at the edges of a region, for every width. *)
let test_checker_matches_meta () =
  let regions =
    [ (0, 0); (0, 1); (1, 0); (0x1000, 0x1004); (0x1000, 0x1000);
      (0, Hb_isa.Types.max_int32u);
      (Hb_isa.Types.max_int32u, Hb_isa.Types.max_int32u) ]
  in
  List.iter
    (fun (base, bound) ->
      Alcotest.(check bool)
        (Printf.sprintf "classify [0x%x, 0x%x)" base bound)
        (not (Meta.bounded ~base ~bound))
        (Encoding.classify Encoding.Extern4 ~value:base ~base ~bound
         = Encoding.Non_pointer);
      List.iter
        (fun width ->
          List.iter
            (fun addr ->
              List.iter
                (fun mode ->
                  let want =
                    if not (Meta.bounded ~base ~bound) then
                      if mode = Checker.Full then `Non_pointer else `Unchecked
                    else if Meta.covers ~base ~bound ~addr ~width then `Checked
                    else `Bounds
                  in
                  let got =
                    match
                      Checker.check mode ~base ~bound ~pc:0 ~addr ~value:addr
                        ~width ~is_store:false
                    with
                    | true -> `Checked
                    | false -> `Unchecked
                    | exception Checker.Bounds_violation _ -> `Bounds
                    | exception Checker.Non_pointer_deref _ -> `Non_pointer
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s [0x%x, 0x%x) at 0x%x width %d"
                       (Checker.mode_name mode) base bound addr width)
                    true (got = want))
                [ Checker.Malloc_only; Checker.Full ])
            [ base - 1; base; base + 1; bound - width - 1; bound - width;
              bound - width + 1; bound; bound + 1 ])
        [ 1; 2; 4 ])
    regions

(* ---- Propagation (Figure 3) ----------------------------------------- *)

let test_propagation () =
  let operand =
    Alcotest.testable
      (fun fmt o ->
        Format.pp_print_string fmt
          (match o with
           | Propagate.First -> "first"
           | Propagate.Second -> "second"
           | Propagate.Neither -> "neither"))
      ( = )
  in
  let p = Meta.make ~base:0x1000 ~size:8 in
  let np = Meta.non_pointer in
  let binop op (m1 : Meta.t) =
    Propagate.binop op ~base1:m1.base ~bound1:m1.bound
  in
  (* (A) add with immediate: copy *)
  Alcotest.(check bool) "add imm copies" true (Propagate.propagates Add);
  (* (B) reg-reg: first pointer wins, else the second operand's bounds *)
  Alcotest.(check operand) "ptr + x: first" Propagate.First (binop Add p);
  Alcotest.(check operand) "nonptr + x: second" Propagate.Second
    (binop Add np);
  Alcotest.(check operand) "sub propagates" Propagate.First (binop Sub p);
  Alcotest.(check operand) "unsafe is a pointer" Propagate.First
    (binop Add Meta.unsafe);
  (* non-propagating ops clear *)
  List.iter
    (fun op ->
      Alcotest.(check bool) "imm cleared" false (Propagate.propagates op);
      Alcotest.(check operand) "cleared" Propagate.Neither (binop op p))
    [ Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar; Slt; Seq ];
  Alcotest.(check bool) "setbound" true
    (Meta.equal
       (Meta.make ~base:0x3000 ~size:16)
       (Propagate.setbound ~value:0x3000 ~size:16))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hardbound-core"
    [
      ("meta", [ tc "basics" test_meta_basics ]);
      ( "encoding",
        [
          tc "extern-4 spec" test_extern4;
          tc "intern-4 bit stealing" test_intern4_bit_stealing;
          tc "intern-4 region limit" test_intern4_region_limit;
          tc "decode is total" test_decode_total;
          tc "intern-11 spec" test_intern11;
          tc "uncompressed spec" test_uncompressed;
          tc "tag widths" test_tag_bits;
        ] );
      ( "encoding-properties",
        List.concat_map
          (fun s ->
            [
              qt (prop_roundtrip s);
              qt (prop_nonptr_roundtrip s);
              qt (prop_inline_faithful s);
              qt (prop_classify_matches_encode s);
            ])
          Encoding.all_schemes );
      ( "checker",
        [
          tc "modes" test_checker_modes;
          tc "agrees with Meta" test_checker_matches_meta;
        ] );
      ("propagation", [ tc "figure-3 rules" test_propagation ]);
    ]
