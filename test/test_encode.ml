(* Binary encoding tests: word-level round trips (property-based over the
   whole instruction space), image serialization, and the Section 4.5
   forward-compatibility story (setbound degrades to a move on legacy
   cores, so annotated binaries still *run* — just unprotected). *)

open Hb_isa.Types
module Encode = Hb_isa.Encode
module Program = Hb_isa.Program
module Machine = Hb_cpu.Machine
module Codegen = Hb_minic.Codegen

let roundtrip_instr ?(target = 0) i =
  let ws = Encode.encode_instr ~target i in
  let arr = Array.of_list ws in
  let d = Encode.decode_at ~read:(fun p -> arr.(p)) 0 in
  (d, List.length ws)

let test_simple_roundtrips () =
  let cases =
    [
      Nop;
      Alu (Add, 5, 6, Reg 7);
      Alu (Sar, 10, 11, Imm (-3));
      Falu (Fmul, 12, 13, 14);
      Fneg (5, 6);
      Fsqrt (5, 6);
      Cvt_f_of_i (5, 6);
      Cvt_i_of_f (5, 6);
      Li (8, 123456789);
      Li (8, -42);
      Mov (9, 10);
      Load { dst = 5; base = 2; off = -16; width = W2; signed = true };
      Store { src = 5; base = 2; off = 1024; width = W1 };
      Setbound { dst = 5; src = 6; size = Imm 56 };
      Setbound { dst = 5; src = 6; size = Reg 7 };
      Setbound_narrow { dst = 5; src = 6; size = Imm 56 };
      Setbound_narrow { dst = 5; src = 6; size = Reg 7 };
      Setbound_unsafe (5, 6);
      Readbase (5, 6);
      Readbound (5, 6);
      Call_reg 11;
      Ret;
      Syscall Sys_mark_alloc;
    ]
  in
  List.iter
    (fun i ->
      let d, _ = roundtrip_instr i in
      Alcotest.(check bool)
        (Hb_isa.Printer.instr_str i)
        true (d.Encode.instr = i))
    cases

let test_control_flow_targets () =
  let d, _ = roundtrip_instr ~target:77 (Jmp "whatever") in
  Alcotest.(check int) "jmp target" 77 d.Encode.target;
  let d, _ = roundtrip_instr ~target:5 (Branch (Lt, 3, 4, "l")) in
  Alcotest.(check int) "branch target" 5 d.Encode.target;
  (match d.Encode.instr with
   | Branch (Lt, 3, 4, _) -> ()
   | _ -> Alcotest.fail "branch fields");
  let d, _ = roundtrip_instr ~target:9 (Call "f") in
  Alcotest.(check int) "call target" 9 d.Encode.target

(* property: random ALU/memory instructions survive the binary round trip *)
let gen_reg = QCheck.Gen.int_range 0 (num_regs - 1)

let gen_instr =
  QCheck.Gen.(
    oneof
      [
        (let* op =
           oneofl
             [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar; Slt;
               Sle; Seq; Sne; Sgt; Sge; Sltu ]
         in
         let* rd = gen_reg and* rs = gen_reg in
         oneof
           [
             map (fun r -> Alu (op, rd, rs, Reg r)) gen_reg;
             map (fun v -> Alu (op, rd, rs, Imm v))
               (int_range (-0x40000000) 0x3FFFFFFF);
           ]);
        (let* rd = gen_reg and* rs = gen_reg in
         let* off = int_range (-100000) 100000 in
         let* width = oneofl [ W1; W2; W4 ] in
         let* signed = bool in
         return (Load { dst = rd; base = rs; off; width; signed }));
        (let* rd = gen_reg and* rs = gen_reg in
         let* sz = int_range 0 0x7FFFFFFF in
         return (Setbound { dst = rd; src = rs; size = Imm sz }));
      ])

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"binary instruction round-trip" ~count:3000
    (QCheck.make ~print:Hb_isa.Printer.instr_str gen_instr)
    (fun i ->
      let d, _ = roundtrip_instr i in
      (* W4 loads ignore the signed flag distinction on decode only if
         semantically identical; compare via re-encoding *)
      Encode.encode_instr ~target:0 d.Encode.instr
      = Encode.encode_instr ~target:0 i)

let test_image_roundtrip () =
  let prog =
    {
      funcs =
        [
          {
            name = "main";
            body =
              [
                Li (t0, 5);
                Label "loop";
                Alu (Sub, t0, t0, Imm 1);
                Branch (Gt, t0, zero, "loop");
                Call "leaf";
                Mov (a0, t0);
                Syscall Sys_exit;
              ];
          };
          { name = "leaf"; body = [ Ret ] };
        ];
      entry = "main";
    }
  in
  let img = Program.link prog in
  let bin = Encode.encode_image img in
  let img2 = Encode.decode_image bin in
  Alcotest.(check int) "entry" img.Program.entry img2.Program.entry;
  (* decoded labels are synthetic ("@n"); compare modulo labels by
     re-encoding *)
  Alcotest.(check bool) "stable re-encoding" true
    (Encode.encode_image img2 = bin);
  Alcotest.(check bool) "targets" true
    (img.Program.target = img2.Program.target);
  (* and the decoded image still runs *)
  let m =
    Machine.create ~config:Machine.baseline_config ~globals:Hb_mem.Globals.empty
      img2
  in
  match Machine.run m with
  | Machine.Exited 0 -> ()
  | st -> Alcotest.failf "decoded image: %s" (Machine.status_name st)

let test_decode_errors () =
  (match Encode.decode_image "garbage!" with
   | exception Encode.Decode_error _ -> ()
   | _ -> Alcotest.fail "bad magic accepted");
  match Encode.decode_image "" with
  | exception Encode.Decode_error _ -> ()
  | _ -> Alcotest.fail "empty image accepted"

(* Section 4.5: a compiled-with-hardbound binary, stripped the way a
   legacy core would execute it, runs to completion with identical output
   — and no longer detects the violation. *)
let test_forward_compatibility () =
  let good = {|
int main() {
  int *a;
  int i;
  int s;
  a = (int*)malloc(8 * sizeof(int));
  for (i = 0; i < 8; i++) { a[i] = i; }
  s = 0;
  for (i = 0; i < 8; i++) { s = s + a[i]; }
  print_int(s);
  return 0;
}
|}
  in
  let bad = {|
int main() {
  int *a;
  a = (int*)malloc(8 * sizeof(int));
  a[8] = 1;
  print_str("corrupted silently");
  return 0;
}
|}
  in
  let run_stripped src =
    let image, globals = Hb_runtime.Build.compile ~mode:Codegen.Hardbound src in
    let legacy = Encode.strip_hardbound image in
    let m = Machine.create ~config:Machine.baseline_config ~globals legacy in
    let status = Machine.run m in
    (status, Machine.output m)
  in
  (match run_stripped good with
   | Machine.Exited 0, out -> Alcotest.(check string) "output intact" "28" out
   | st, _ -> Alcotest.failf "stripped good: %s" (Machine.status_name st));
  (* on new hardware the bad program traps; on legacy it sails through *)
  (match Hb_runtime.Build.run ~mode:Codegen.Hardbound bad with
   | Machine.Bounds_violation _, _ -> ()
   | st, _ -> Alcotest.failf "hardbound should trap: %s" (Machine.status_name st));
  match run_stripped bad with
  | Machine.Exited 0, out ->
    Alcotest.(check string) "legacy runs unprotected" "corrupted silently" out
  | st, _ -> Alcotest.failf "stripped bad: %s" (Machine.status_name st)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "encode"
    [
      ( "words",
        [
          tc "simple round-trips" test_simple_roundtrips;
          tc "control-flow targets" test_control_flow_targets;
          QCheck_alcotest.to_alcotest prop_binary_roundtrip;
        ] );
      ( "images",
        [
          tc "image round-trip + execution" test_image_roundtrip;
          tc "decode errors" test_decode_errors;
          tc "forward compatibility (4.5)" test_forward_compatibility;
        ] );
    ]
