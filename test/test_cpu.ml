(* Machine-level tests: Figure 2 of the paper executed literally, plus the
   metadata load/store path, compression behaviour, syscalls, code-pointer
   semantics (Section 6.1) and the temporal extension (Section 6.2). *)

open Hb_isa.Types
module Program = Hb_isa.Program
module Machine = Hb_cpu.Machine
module Temporal = Hb_cpu.Temporal
module Encoding = Hardbound.Encoding
module Checker = Hardbound.Checker
module Layout = Hb_mem.Layout

let link_one body =
  Program.link { funcs = [ { name = "main"; body } ]; entry = "main" }

(* Every machine this file runs also gets its stats audited: the charged
   stall classes must partition the stalls and cycles = uops + stalls. *)
let assert_invariants m =
  match Hb_cpu.Stats.check_invariants m.Machine.stats with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("stats invariants: " ^ msg)

let run ?(config = Machine.default_config) ?(globals = "") body =
  let m = Machine.create ~config ~globals (link_one body) in
  let st = Machine.run m in
  assert_invariants m;
  (st, m)

let check_status name expect st =
  let ok =
    match (expect, st) with
    | `Exit, Machine.Exited _ -> true
    | `Bounds, Machine.Bounds_violation _ -> true
    | `Non_pointer, Machine.Non_pointer_violation _ -> true
    | `Temporal, Machine.Temporal_violation _ -> true
    | `Fault, Machine.Fault _ -> true
    | `Fuel, Machine.Out_of_fuel -> true
    | _ -> false
  in
  Alcotest.(check bool)
    (name ^ ": got " ^ Machine.status_name st)
    true ok

let exit0 = [ Li (a0, 0); Syscall Sys_exit ]

(* An object at the start of the globals region, as in Figure 2 (the
   figure uses 0x1000; our globals base plays that role). *)
let obj = Layout.globals_base

let full_cfg scheme = { Machine.default_config with scheme }

let all_schemes = Encoding.all_schemes

(* Figure 2 line by line: setbound to 4 bytes; in-bounds loads pass,
   out-of-bounds loads fail, bounds survive pointer arithmetic. *)
let test_fig2 () =
  List.iter
    (fun scheme ->
      let config = full_cfg scheme in
      let pre =
        [
          Li (t0, obj);
          Setbound { dst = t1; src = t0; size = Imm 4 };
        ]
      in
      (* line 3: read address obj+2 (1 byte), check passes *)
      let st, _ =
        run ~config ~globals:"abcdefgh"
          (pre
          @ [ Load { dst = t2; base = t1; off = 2; width = W1; signed = false } ]
          @ exit0)
      in
      check_status (Encoding.scheme_name scheme ^ " fig2 line3") `Exit st;
      (* line 4: read address obj+5, check fails *)
      let st, _ =
        run ~config ~globals:"abcdefgh"
          (pre
          @ [ Load { dst = t2; base = t1; off = 5; width = W1; signed = false } ]
          @ exit0)
      in
      check_status (Encoding.scheme_name scheme ^ " fig2 line4") `Bounds st;
      (* lines 5-7: increment pointer; base/bound are copied unchanged *)
      let st, _ =
        run ~config ~globals:"abcdefgh"
          (pre
          @ [
              Alu (Add, t3, t1, Imm 1);
              Load { dst = t2; base = t3; off = 2; width = W1; signed = false };
            ]
          @ exit0)
      in
      check_status (Encoding.scheme_name scheme ^ " fig2 line6") `Exit st;
      let st, _ =
        run ~config ~globals:"abcdefgh"
          (pre
          @ [
              Alu (Add, t3, t1, Imm 1);
              Load { dst = t2; base = t3; off = 5; width = W1; signed = false };
            ]
          @ exit0)
      in
      check_status (Encoding.scheme_name scheme ^ " fig2 line7") `Bounds st)
    all_schemes

(* Dereferencing a non-pointer raises a non-pointer exception in full mode
   (Figure 3 C/D), and is silently allowed in malloc-only mode. *)
let test_non_pointer_deref () =
  let body =
    [ Li (t0, obj); Load { dst = t1; base = t0; off = 0; width = W4; signed = true } ]
    @ exit0
  in
  let st, _ = run ~config:(full_cfg Encoding.Extern4) body in
  check_status "full mode" `Non_pointer st;
  let st, _ =
    run
      ~config:{ Machine.default_config with mode = Checker.Malloc_only }
      body
  in
  check_status "malloc-only mode" `Exit st

(* Storing a bounded pointer to memory and loading it back must restore
   both the value and the metadata, for every encoding scheme, for both a
   compressible small object and an uncompressed one. *)
let test_memory_roundtrip () =
  List.iter
    (fun scheme ->
      List.iter
        (fun size ->
          let config = full_cfg scheme in
          let slot = obj + 64 in
          let body =
            [
              Li (t0, obj);
              Setbound { dst = t1; src = t0; size = Imm size };
              (* store pointer to memory, wipe register, load back *)
              Li (t2, slot);
              Setbound { dst = t2; src = t2; size = Imm 4 };
              Store { src = t1; base = t2; off = 0; width = W4 };
              Li (t1, 0);
              Load { dst = t3; base = t2; off = 0; width = W4; signed = true };
              (* metadata must allow access to last byte... *)
              Load
                { dst = t4; base = t3; off = size - 1; width = W1;
                  signed = false };
            ]
            @ exit0
          in
          let st, m = run ~config ~globals:(String.make 4096 'x') body in
          check_status
            (Printf.sprintf "%s size %d roundtrip-ok" (Encoding.scheme_name scheme)
               size)
            `Exit st;
          Alcotest.(check int) "value restored" obj
            (let _ = m in obj);
          (* ...and must reject one past the bound. *)
          let body_bad =
            [
              Li (t0, obj);
              Setbound { dst = t1; src = t0; size = Imm size };
              Li (t2, slot);
              Setbound { dst = t2; src = t2; size = Imm 4 };
              Store { src = t1; base = t2; off = 0; width = W4 };
              Load { dst = t3; base = t2; off = 0; width = W4; signed = true };
              Load
                { dst = t4; base = t3; off = size; width = W1; signed = false };
            ]
            @ exit0
          in
          let st, _ = run ~config ~globals:(String.make 4096 'x') body_bad in
          check_status
            (Printf.sprintf "%s size %d roundtrip-bad" (Encoding.scheme_name scheme)
               size)
            `Bounds st)
        (* 8: compressible everywhere; 100: uncompressed under 4-bit codes;
           4096: uncompressed everywhere except Intern11. *)
        [ 8; 100; 4096 ])
    all_schemes

(* A sub-word store into a word holding a pointer must clear its tag: the
   loaded word is then a non-pointer whose dereference fails in full mode. *)
let test_subword_store_clears_tag () =
  List.iter
    (fun scheme ->
      let config = full_cfg scheme in
      let slot = obj + 64 in
      let body =
        [
          Li (t0, obj);
          Setbound { dst = t1; src = t0; size = Imm 8 };
          Li (t2, slot);
          Setbound { dst = t2; src = t2; size = Imm 4 };
          Store { src = t1; base = t2; off = 0; width = W4 };
          (* overwrite one byte of the stored pointer *)
          Li (t3, 0);
          Store { src = t3; base = t2; off = 1; width = W1 };
          Load { dst = t4; base = t2; off = 0; width = W4; signed = true };
          Load { dst = t5; base = t4; off = 0; width = W1; signed = false };
        ]
        @ exit0
      in
      let st, _ = run ~config ~globals:(String.make 4096 'x') body in
      check_status (Encoding.scheme_name scheme ^ " subword clears tag")
        `Non_pointer st)
    all_schemes

(* Sub-word store to an *internally compressed* pointer word must first
   materialize the decoded value so the hijacked upper bits do not leak
   into data (DESIGN.md "sub-word stores"). *)
let test_subword_store_materializes_value () =
  let config = full_cfg Encoding.Intern4 in
  let slot = obj + 64 in
  let body =
    [
      Li (t0, obj);
      Setbound { dst = t1; src = t0; size = Imm 8 };
      Li (t2, slot);
      Setbound { dst = t2; src = t2; size = Imm 8 };
      Store { src = t1; base = t2; off = 0; width = W4 };
      (* clobber byte 4..7 region: write to the *other* word so the pointer
         word itself is untouched, then a byte into the pointer word *)
      Li (t3, 0xAB);
      Store { src = t3; base = t2; off = 3; width = W1 };
      (* now reload as plain data; upper byte must be 0xAB, low 3 bytes the
         original value's *)
      Load { dst = t4; base = t2; off = 0; width = W4; signed = true };
      Mov (a0, t4);
      Syscall Sys_print_int;
      Li (a0, 0);
      Syscall Sys_exit;
    ]
  in
  let st, m = run ~config ~globals:(String.make 4096 'x') body in
  check_status "materialize ok" `Exit st;
  let expected = to_signed (obj land 0xFFFFFF lor (0xAB lsl 24)) in
  Alcotest.(check string)
    "decoded value with patched byte"
    (string_of_int expected)
    (Machine.output m)

(* Section 6.1: code pointers cannot be dereferenced as data, forged
   function pointers cannot be called, genuine ones can. *)
let test_code_pointers () =
  let funcs =
    [
      { name = "main";
        body =
          [
            Licode (t0, "callee");
            Call_reg t0;
            Li (a0, 0);
            Syscall Sys_exit;
          ];
      };
      { name = "callee"; body = [ Ret ] };
    ]
  in
  let image = Program.link { funcs; entry = "main" } in
  let m = Machine.create ~config:(full_cfg Encoding.Extern4) ~globals:"" image in
  check_status "indirect call via licode" `Exit (Machine.run m);
  (* forged: integer used as code pointer *)
  let funcs_bad =
    [
      { name = "main";
        body = [ Li (t0, Program.addr_of_index 0); Call_reg t0 ] @ exit0;
      };
      { name = "callee"; body = [ Ret ] };
    ]
  in
  let image = Program.link { funcs = funcs_bad; entry = "main" } in
  let m = Machine.create ~config:(full_cfg Encoding.Extern4) ~globals:"" image in
  check_status "forged code pointer rejected" `Non_pointer (Machine.run m);
  (* dereferencing a code pointer as data fails the bounds check *)
  let funcs_deref =
    [
      { name = "main";
        body =
          [ Licode (t0, "callee");
            Load { dst = t1; base = t0; off = 0; width = W4; signed = true } ]
          @ exit0;
      };
      { name = "callee"; body = [ Ret ] };
    ]
  in
  let image = Program.link { funcs = funcs_deref; entry = "main" } in
  let m = Machine.create ~config:(full_cfg Encoding.Extern4) ~globals:"" image in
  check_status "code pointer deref rejected" `Bounds (Machine.run m)

(* The paper's escape hatch: setbound.unsafe passes all checks. *)
let test_unsafe_pointer () =
  let body =
    [
      Li (t0, obj + 4000);
      Setbound_unsafe (t1, t0);
      Load { dst = t2; base = t1; off = 0; width = W4; signed = true };
      Store { src = t2; base = t1; off = 0; width = W4 };
    ]
    @ exit0
  in
  let st, _ =
    run ~config:(full_cfg Encoding.Extern4) ~globals:(String.make 4096 'x') body
  in
  check_status "unsafe pointer" `Exit st

(* Null dereference is a machine fault, distinct from a bounds violation. *)
let test_null_fault () =
  let body =
    [ Li (t0, 0); Load { dst = t1; base = t0; off = 0; width = W4; signed = true } ]
    @ exit0
  in
  let st, _ = run ~config:Machine.baseline_config body in
  check_status "null deref" `Fault st

(* The loader skips the globals image's zero bytes 64 bytes, then a
   64-bit word, at a time: every non-zero byte lands, wherever it sits in
   its word, in its 64-byte run or in the ragged tail, and only pages
   holding one are materialized. *)
let test_loader_skips_zeros () =
  let len = (5 * Layout.page_size) + 13 in
  let nonzero =
    [ 0; 7; 8; 4099; (3 * Layout.page_size) + 5; len - 1 ]
    (* eight 64-byte runs, each with one byte, in its run's j-th word *)
    @ List.init 8 (fun j -> Layout.page_size + (64 * (j + 1)) + (9 * j))
  in
  let globals =
    String.init len (fun i ->
        if List.mem i nonzero then Char.chr (1 + (i mod 255)) else '\000')
  in
  let m =
    Machine.create ~config:Machine.baseline_config ~globals (link_one exit0)
  in
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "byte %d" i) (1 + (i mod 255))
        (Hb_mem.Physmem.peek_u8 m.Machine.mem (Layout.globals_base + i)))
    nonzero;
  (* pages 0, 1, 3 and 5 hold a non-zero byte; 2 and 4 stay untouched *)
  Alcotest.(check int) "globals pages" 4
    (Hb_mem.Physmem.pages_touched_in m.Machine.mem Layout.Globals)

(* Metadata micro-op accounting: storing+loading an uncompressed pointer
   charges metadata uops; a compressed one does not. *)
let test_metadata_uops () =
  let mk size =
    [
      Li (t0, obj);
      Setbound { dst = t1; src = t0; size = Imm size };
      Li (t2, obj + 64);
      Setbound { dst = t2; src = t2; size = Imm 4 };
      Store { src = t1; base = t2; off = 0; width = W4 };
      Load { dst = t3; base = t2; off = 0; width = W4; signed = true };
    ]
    @ exit0
  in
  let _, m_small =
    run ~config:(full_cfg Encoding.Extern4) ~globals:(String.make 128 'x')
      (mk 8)
  in
  let _, m_big =
    run ~config:(full_cfg Encoding.Extern4) ~globals:(String.make 128 'x')
      (mk 1024)
  in
  Alcotest.(check int) "compressed pointer: no metadata uops" 0
    m_small.Machine.stats.Hb_cpu.Stats.metadata_uops;
  Alcotest.(check int) "uncompressed pointer: store+load metadata uops" 2
    m_big.Machine.stats.Hb_cpu.Stats.metadata_uops

(* setbound can be an operand register too. *)
let test_setbound_reg_size () =
  let body =
    [
      Li (t0, obj);
      Li (t1, 4);
      Setbound { dst = t2; src = t0; size = Reg t1 };
      Load { dst = t3; base = t2; off = 0; width = W4; signed = true };
    ]
    @ exit0
  in
  let st, _ =
    run ~config:(full_cfg Encoding.Extern4) ~globals:"abcd" body
  in
  check_status "reg-size setbound ok" `Exit st;
  let body_bad =
    [
      Li (t0, obj);
      Li (t1, 4);
      Setbound { dst = t2; src = t0; size = Reg t1 };
      Load { dst = t3; base = t2; off = 4; width = W1; signed = false };
    ]
    @ exit0
  in
  let st, _ = run ~config:(full_cfg Encoding.Extern4) ~globals:"abcd" body_bad in
  check_status "reg-size setbound bad" `Bounds st

(* setbound.narrow intersects with existing bounds: it can narrow but
   never widen, and an empty intersection makes every access fail. *)
let test_setbound_narrow () =
  let cfg = full_cfg Encoding.Extern4 in
  (* narrowing within bounds behaves like setbound *)
  let body ~first ~second ~off =
    [
      Li (t0, obj);
      Setbound { dst = t1; src = t0; size = Imm first };
      Alu (Add, t1, t1, Imm 4);
      Setbound_narrow { dst = t2; src = t1; size = Imm second };
      Load { dst = t3; base = t2; off; width = W1; signed = false };
    ]
    @ exit0
  in
  let st, _ =
    run ~config:cfg ~globals:(String.make 64 'x')
      (body ~first:16 ~second:4 ~off:3)
  in
  check_status "narrowed access in bounds" `Exit st;
  let st, _ =
    run ~config:cfg ~globals:(String.make 64 'x')
      (body ~first:16 ~second:4 ~off:4)
  in
  check_status "narrowed bound enforced" `Bounds st;
  (* attempting to WIDEN: bound stays clipped to the original *)
  let st, _ =
    run ~config:cfg ~globals:(String.make 64 'x')
      (body ~first:8 ~second:100 ~off:3)
  in
  check_status "widening clipped (in old bound)" `Exit st;
  let st, _ =
    run ~config:cfg ~globals:(String.make 64 'x')
      (body ~first:8 ~second:100 ~off:4)
  in
  check_status "widening clipped (past old bound)" `Bounds st;
  (* on a non-pointer it behaves like raw setbound *)
  let st, _ =
    run ~config:cfg ~globals:(String.make 64 'x')
      ([
         Li (t0, obj);
         Setbound_narrow { dst = t1; src = t0; size = Imm 4 };
         Load { dst = t2; base = t1; off = 3; width = W1; signed = false };
       ]
      @ exit0)
  in
  check_status "narrow on non-pointer seeds bounds" `Exit st

(* readbase/readbound extract metadata as plain values. *)
let test_readbase_readbound () =
  let body =
    [
      Li (t0, obj);
      Setbound { dst = t1; src = t0; size = Imm 12 };
      Readbase (a0, t1);
      Syscall Sys_print_int;
      Li (a0, 32);
      Syscall Sys_print_char;
      Readbound (a0, t1);
      Syscall Sys_print_int;
      Li (a0, 0);
      Syscall Sys_exit;
    ]
  in
  let st, m = run ~config:(full_cfg Encoding.Extern4) ~globals:"x" body in
  check_status "readbase ok" `Exit st;
  Alcotest.(check string) "base and bound"
    (Printf.sprintf "%d %d" obj (obj + 12))
    (Machine.output m)

(* Temporal extension: use-after-free and uninitialized reads detected. *)
let test_temporal () =
  let config =
    { (full_cfg Encoding.Extern4) with temporal = true; mode = Checker.Off }
  in
  let heap = Layout.heap_base in
  let alloc =
    [ Li (a0, heap); Li (a1, 16); Syscall Sys_mark_alloc ]
  in
  (* write then read: fine *)
  let ok_body =
    alloc
    @ [
        Li (t0, heap);
        Li (t1, 42);
        Store { src = t1; base = t0; off = 0; width = W4 };
        Load { dst = t2; base = t0; off = 0; width = W4; signed = true };
      ]
    @ exit0
  in
  let st, _ = run ~config ok_body in
  check_status "temporal ok" `Exit st;
  (* read before any write: uninitialized *)
  let uninit =
    alloc
    @ [ Li (t0, heap);
        Load { dst = t2; base = t0; off = 0; width = W4; signed = true } ]
    @ exit0
  in
  let st, _ = run ~config uninit in
  check_status "uninitialized read" `Temporal st;
  (* free then read: use-after-free *)
  let uaf =
    alloc
    @ [
        Li (t0, heap);
        Li (t1, 42);
        Store { src = t1; base = t0; off = 0; width = W4 };
        Li (a0, heap);
        Li (a1, 16);
        Syscall Sys_mark_free;
        Load { dst = t2; base = t0; off = 0; width = W4; signed = true };
      ]
    @ exit0
  in
  let st, _ = run ~config uaf in
  check_status "use after free" `Temporal st

(* Property: the machine's 32-bit ALU agrees with a reference model built
   on OCaml arithmetic (wraparound, signedness, shift masking), for the
   register form and the pre-decoded immediate form (masked, pre-signed,
   a subtract of an immediate turned into an add) alike: each case steps
   a one-instruction program once. *)
let prop_alu_reference =
  let ops =
    [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar; Slt; Sle; Seq;
      Sne; Sgt; Sge; Sltu ]
  in
  let machine body =
    Machine.create ~config:Machine.baseline_config ~globals:"" (link_one body)
  in
  let reg_form = List.map (fun op -> (op, machine [ Alu (op, t2, t0, Reg t1) ])) ops in
  let reference op a b =
    let sa = to_signed a and sb = to_signed b in
    match op with
    | Add -> mask32 (a + b)
    | Sub -> mask32 (a - b)
    | Mul -> mask32 (sa * sb)
    | Div -> mask32 (sa / sb)
    | Rem -> mask32 (sa mod sb)
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
    | Shl -> mask32 (a lsl (b land 31))
    | Shr -> a lsr (b land 31)
    | Sar -> mask32 (sa asr (b land 31))
    | Slt -> if sa < sb then 1 else 0
    | Sle -> if sa <= sb then 1 else 0
    | Seq -> if a = b then 1 else 0
    | Sne -> if a <> b then 1 else 0
    | Sgt -> if sa > sb then 1 else 0
    | Sge -> if sa >= sb then 1 else 0
    | Sltu -> if a < b then 1 else 0
  in
  let result m a b =
    m.Machine.pc <- 0;
    m.Machine.regs.(t0) <- a;
    m.Machine.regs.(t1) <- b;
    Machine.step m;
    m.Machine.regs.(t2)
  in
  QCheck.Test.make ~name:"ALU agrees with reference model" ~count:3000
    QCheck.(
      triple (oneofl ops) (int_bound 0xFFFFFFFF)
        (int_range (-0x80000000) 0xFFFFFFFF))
    (fun (op, a, imm) ->
      let imm = if (op = Div || op = Rem) && mask32 imm = 0 then 1 else imm in
      let b = mask32 imm in
      let want = reference op a b in
      result (List.assoc op reg_form) a b = want
      && result (machine [ Alu (op, t2, t0, Imm imm) ]) a 0 = want)

(* The machine spells out one-line formulas other units own (-opaque keeps
   their calls from being inlined); each against its owner on boundary
   values. *)
let test_private_copies () =
  let module T = Hb_isa.Types in
  let values =
    [ 0; 1; 3; 4; 0x7F; 0x80; 0xFF; 0x7FFF; 0x8000; 0xFFFF; 0x7FFFFFFF;
      0x80000000; 0x80000001; 0xFFFFFFFC; 0xFFFFFFFF; 0x100000000; -1;
      -0x80000000; Layout.tag_base; Layout.shadow_base - 4 ]
  in
  let same name f g =
    List.iter
      (fun v -> Alcotest.(check int) (Printf.sprintf "%s 0x%x" name v) (f v) (g v))
      values
  in
  same "mask32" T.mask32 Machine.mask32;
  same "to_signed" T.to_signed Machine.to_signed;
  List.iter
    (fun bits ->
      same "tag_addr" (Layout.tag_addr ~bits) (Machine.tag_addr_of ~bits);
      same "tag_shift" (Layout.tag_shift ~bits) (Machine.tag_shift_of ~bits))
    [ 1; 4 ];
  List.iter
    (fun (base, bound) ->
      Alcotest.(check bool) "bounded"
        (Hardbound.Meta.bounded ~base ~bound)
        (Machine.bounded ~base ~bound))
    [ (0, 0); (0, 1); (1, 0); (T.max_int32u, T.max_int32u) ];
  (* the rule [count_arith_promotion] filters by: only a pointer at its
     base can be narrow, under every scheme *)
  List.iter
    (fun scheme ->
      List.iter
        (fun base ->
          List.iter
            (fun size ->
              List.iter
                (fun off ->
                  let value = base + off and bound = base + size in
                  if Encoding.classify scheme ~value ~base ~bound = Encoding.Narrow
                  then Alcotest.(check int) "narrow pointer sits at its base" base value)
                [ -4; -1; 0; 1; 4 ])
            [ 0; 4; 8; 56; 60; 8188; 8192 ])
        [ 4; 0x100000; Layout.internal_region_limit - 64;
          Layout.internal_region_limit ])
    all_schemes

(* The interpreter applies Figure 3's propagation rules ([Propagate],
   their owner) at decode time and inline: for every ALU op, in both
   operand forms and with the pointer on either side, the result's bounds
   are the ones [Propagate] names; setbound's are [Propagate.setbound]'s. *)
let test_propagation_matches_owner () =
  let module P = Hardbound.Propagate in
  let module Meta = Hardbound.Meta in
  let p = Meta.make ~base:obj ~size:16 in
  let bounds_after body =
    let _, m =
      run ~config:(full_cfg Encoding.Extern4)
        ([
           Li (t0, obj);
           Setbound { dst = t1; src = t0; size = Imm 16 };
           Li (t3, 4);
         ]
        @ body @ exit0)
    in
    (m.Machine.rbase.(t2), m.Machine.rbound.(t2))
  in
  let of_meta (md : Meta.t) = (md.Meta.base, md.Meta.bound) in
  let pair = Alcotest.(pair int int) in
  List.iter
    (fun op ->
      let name = Hb_isa.Printer.instr_str (Alu (op, t2, t1, Reg t3)) in
      Alcotest.check pair (name ^ " (imm)")
        (if P.propagates op then of_meta p else (0, 0))
        (bounds_after [ Alu (op, t2, t1, Imm 4) ]);
      let binop (m1 : Meta.t) m2 =
        match P.binop op ~base1:m1.Meta.base ~bound1:m1.Meta.bound with
        | P.First -> of_meta m1
        | P.Second -> of_meta m2
        | P.Neither -> (0, 0)
      in
      Alcotest.check pair (name ^ " (pointer first)")
        (binop p Meta.non_pointer)
        (bounds_after [ Alu (op, t2, t1, Reg t3) ]);
      Alcotest.check pair (name ^ " (pointer second)")
        (binop Meta.non_pointer p)
        (bounds_after [ Alu (op, t2, t3, Reg t1) ]))
    [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar; Slt; Sle; Seq;
      Sne; Sgt; Sge; Sltu ];
  Alcotest.check pair "setbound"
    (of_meta (P.setbound ~value:(obj + 4) ~size:12))
    (bounds_after
       [ Alu (Add, t4, t0, Imm 4); Setbound { dst = t2; src = t4; size = Imm 12 } ])

(* Loads fold [Types.sign_extend] into their decoded width: every byte and
   half-word pattern at the sign boundary reads back as the owner
   extends it, under both the plain and the HardBound memory path. *)
let test_load_sign_extension () =
  let bytes = [ 0x00; 0x01; 0x7F; 0x80; 0x81; 0xFF ] in
  let globals = String.concat "" (List.map (fun b -> String.make 2 (Char.chr b)) bytes) in
  List.iter
    (fun config ->
      List.iteri
        (fun i b ->
          List.iter
            (fun (width, signed) ->
              let body =
                [
                  Li (t0, obj);
                  Setbound { dst = t0; src = t0; size = Imm 64 };
                  Load { dst = a0; base = t0; off = 2 * i; width; signed };
                  Syscall Sys_print_int;
                ]
                @ exit0
              in
              let st, m = run ~config ~globals body in
              check_status "load ran" `Exit st;
              let raw = if width = W1 then b else b lor (b lsl 8) in
              let want = if signed then sign_extend width raw else raw in
              Alcotest.(check string)
                (Printf.sprintf "0x%x width %d signed %b" raw
                   (bytes_of_width width) signed)
                (string_of_int (to_signed want))
                (Machine.output m))
            [ (W1, false); (W1, true); (W2, false); (W2, true) ])
        bytes)
    [ Machine.baseline_config; full_cfg Encoding.Extern4 ]

(* Section 5.4's check-uop knob on a load through a setbound.unsafe
   pointer into the shadow half of the address space: its bounds never
   compress, so every encoding loads it and charges one check micro-op
   -- intern-4 too, which only refuses to *store* such a pointer. *)
let test_check_uop_shadow_half () =
  let ptr = [ Li (t0, 0x80000010); Setbound_unsafe (t1, t0) ] in
  List.iter
    (fun scheme ->
      let name = Encoding.scheme_name scheme in
      let config = { (full_cfg scheme) with checked_deref_uop = true } in
      let st, m =
        run ~config
          (ptr
          @ [ Load { dst = t2; base = t1; off = 0; width = W4; signed = false } ]
          @ exit0)
      in
      check_status (name ^ " load through shadow-half pointer") `Exit st;
      Alcotest.(check int) (name ^ " check uops") 1
        m.Machine.stats.Hb_cpu.Stats.check_uops)
    all_schemes;
  let st, _ =
    run ~config:(full_cfg Encoding.Intern4) ~globals:(String.make 64 'x')
      (ptr
      @ [
          Li (t2, obj);
          Setbound { dst = t2; src = t2; size = Imm 4 };
          Store { src = t1; base = t2; off = 0; width = W4 };
        ]
      @ exit0)
  in
  Alcotest.(check string) "intern-4 store of the pointer"
    "machine-fault: encoding: intern-4: pointer into shadow half of address \
     space (addr=0x80000010)"
    (Machine.status_name st)

(* Stats invariants on real compiled workloads: the charged stall
   attribution must account for every stall cycle under every protection
   mode, including the tripwire's tag-space accesses. *)
let test_stats_invariants_workload () =
  let src = {|
int main() {
  int *a;
  int i;
  int s;
  a = (int*)malloc(64 * sizeof(int));
  s = 0;
  for (i = 0; i < 64; i++) { a[i] = i; }
  for (i = 0; i < 64; i++) { s = s + a[i]; }
  free((char*)a);
  return s - 2016;
}
|}
  in
  let audit name (st, (m : Machine.t)) =
    check_status name `Exit st;
    (match Hb_cpu.Stats.check_invariants m.Machine.stats with
     | Ok () -> ()
     | Error msg -> Alcotest.fail (name ^ ": " ^ msg));
    Alcotest.(check bool) (name ^ ": ran") true
      (m.Machine.stats.Hb_cpu.Stats.instructions > 0)
  in
  let mode = Hb_minic.Codegen.Hardbound in
  List.iter
    (fun scheme ->
      audit
        ("hardbound " ^ Encoding.scheme_name scheme)
        (Hb_runtime.Build.run ~scheme ~mode src))
    all_schemes;
  audit "baseline" (Hb_runtime.Build.run ~mode:Hb_minic.Codegen.Nochecks src);
  audit "tripwire"
    (Hb_runtime.Build.run ~tripwire:true ~mode:Hb_minic.Codegen.Nochecks src);
  audit "checked-deref-uop"
    (Hb_runtime.Build.run ~checked_deref_uop:true ~mode src)

(* Output syscalls and arithmetic sanity: compute and print. *)
let test_arith_and_output () =
  let body =
    [
      Li (t0, 6);
      Li (t1, 7);
      Alu (Mul, a0, t0, Reg t1);
      Syscall Sys_print_int;
      Li (a0, 10);
      Syscall Sys_print_char;
      Li (t0, -17);
      Li (t1, 5);
      Alu (Div, a0, t0, Reg t1);
      Syscall Sys_print_int;
      Li (a0, 0);
      Syscall Sys_exit;
    ]
  in
  let st, m = run ~config:Machine.baseline_config body in
  check_status "arith ok" `Exit st;
  Alcotest.(check string) "output" "42\n-3" (Machine.output m)

let test_float_ops () =
  let body =
    [
      Li (t0, 9);
      Cvt_f_of_i (t1, t0);
      Fsqrt (t2, t1);
      Cvt_i_of_f (a0, t2);
      Syscall Sys_print_int;
      Li (a0, 0);
      Syscall Sys_exit;
    ]
  in
  let st, m = run ~config:Machine.baseline_config body in
  check_status "float ok" `Exit st;
  Alcotest.(check string) "sqrt 9 = 3" "3" (Machine.output m)

(* Allocation budget of the simulator's hot loop: minor-heap words per
   simulated instruction over a 1M-instruction slice of two Olden
   programs.  The interpreter, memory, cache, checker, codec and
   propagation paths allocate nothing per instruction or access; what
   remains is each op's decode on its first execution, the option an
   indirect call or return resolves its target through, the boxed floats
   of floating-point ops, Intern11's side
   store, which adds a table entry for each newly stored compressed
   pointer, and the heap growth of the flame profiler's calling-context
   tree and heat map (one record per new context or page).  A hook that
   quietly adds a per-step record or closure breaks the budget. *)
(* A 1M-instruction slice of an Olden program: the machine after it, and
   the minor-heap words [Machine.run] allocated. *)
let run_slice ?(hook = ignore) ~mode ~scheme name =
  let image, globals =
    Hb_runtime.Build.compile ~mode (Hb_workloads.Workloads.find name).source
  in
  let config =
    Hb_runtime.Build.config_for ~scheme ~max_instrs:1_000_000 mode
  in
  let m = Machine.create ~config ~globals image in
  hook m;
  let w0 = Gc.minor_words () in
  let st = Machine.run m in
  let words = Gc.minor_words () -. w0 in
  check_status (name ^ " ran the whole slice") `Fuel st;
  (m, words)

let test_alloc_budget () =
  let budget (hook_name, hook) =
    let run label ~mode ~scheme =
      List.iter
        (fun name ->
          let m, words = run_slice ~hook ~mode ~scheme name in
          let w =
            words /. float_of_int m.Machine.stats.Hb_cpu.Stats.instructions
          in
          Printf.printf "%s %s %s: %.3f words/instr\n" hook_name label name w;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s %s: %.2f words/instr < 1" hook_name label
               name w)
            true (w < 1.0))
        [ "treeadd"; "em3d" ]
    in
    run "nochecks" ~mode:Hb_minic.Codegen.Nochecks ~scheme:Encoding.Extern4;
    List.iter
      (fun scheme ->
        run (Encoding.scheme_name scheme) ~mode:Hb_minic.Codegen.Hardbound
          ~scheme)
      all_schemes
  in
  List.iter budget
    [
      ("hooks off", ignore);
      ("attr", Machine.enable_attr ~line_base:0);
      ("flame", fun m -> Machine.enable_flame m);
    ]

(* Everything a codec or interpreter slip would change, pinned as one
   MD5: every counter the timeline samples ([Stats] and the hierarchy's
   miss counters) and each region's touched-page count, after 1M-
   instruction slices of treeadd and em3d under Nochecks and under each
   encoding.  Recorded before the interpreter was pre-decoded. *)
let test_counter_pin () =
  let b = Buffer.create 4096 in
  let configs =
    ("nochecks", Hb_minic.Codegen.Nochecks, Encoding.Extern4)
    :: List.map
         (fun s -> (Encoding.scheme_name s, Hb_minic.Codegen.Hardbound, s))
         all_schemes
  in
  List.iter
    (fun name ->
      List.iter
        (fun (label, mode, scheme) ->
          let m, _ = run_slice ~mode ~scheme name in
          Printf.bprintf b "%s %s\n" name label;
          List.iter
            (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v)
            (Machine.timeline_fields m);
          List.iter
            (fun r ->
              Printf.bprintf b "pages.%s=%d\n" (Layout.region_name r)
                (Hb_mem.Physmem.pages_touched_in m.Machine.mem r))
            Layout.[ Code; Globals; Heap; Stack; Tag_space; Shadow_space; Other ])
        configs)
    [ "treeadd"; "em3d" ];
  Alcotest.(check string) "counters and touched pages"
    "77e02308238ea79b265e622c15d08cb8"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cpu"
    [
      ( "machine",
        [
          tc "figure-2 semantics, all encodings" test_fig2;
          tc "non-pointer dereference" test_non_pointer_deref;
          tc "pointer memory round-trip" test_memory_roundtrip;
          tc "sub-word store clears tag" test_subword_store_clears_tag;
          tc "sub-word store materializes value"
            test_subword_store_materializes_value;
          tc "code pointer semantics" test_code_pointers;
          tc "unsafe escape hatch" test_unsafe_pointer;
          tc "null fault" test_null_fault;
          tc "loader skips zero bytes" test_loader_skips_zeros;
          tc "metadata uop accounting" test_metadata_uops;
          tc "setbound with register size" test_setbound_reg_size;
          tc "setbound.narrow intersection" test_setbound_narrow;
          tc "readbase/readbound" test_readbase_readbound;
          tc "temporal extension" test_temporal;
          tc "stats invariants on workloads" test_stats_invariants_workload;
          tc "arithmetic and output" test_arith_and_output;
          tc "float operations" test_float_ops;
          tc "private copies agree with their owners" test_private_copies;
          tc "propagation agrees with Propagate"
            test_propagation_matches_owner;
          tc "loads sign-extend like Types.sign_extend"
            test_load_sign_extension;
          tc "check uop on a shadow-half pointer, every encoding"
            test_check_uop_shadow_half;
          tc "allocation budget per instruction" test_alloc_budget;
          tc "counter and page pin" test_counter_pin;
          QCheck_alcotest.to_alcotest prop_alu_reference;
        ] );
    ]
