(* Quickstart: the two levels of the public API.

   1. The hardware level — build an ISA program by hand (Figure 2 of the
      paper, literally) and watch the implicit bounds check fire.
   2. The compiler level — compile a C program with full HardBound
      instrumentation and run it.

   Run with: dune exec examples/quickstart.exe *)

open Hb_isa.Types
module Program = Hb_isa.Program
module Machine = Hb_cpu.Machine
module Codegen = Hb_minic.Codegen

let section title = Printf.printf "\n--- %s ---\n" title

(* ---- 1. Figure 2 at the ISA level ------------------------------------- *)

let () =
  section "Figure 2: setbound, implicit checks, bounds propagation";
  let obj = Hb_mem.Layout.globals_base in
  let run body =
    let image =
      Program.link { funcs = [ { name = "main"; body } ]; entry = "main" }
    in
    let m =
      Machine.create
        ~globals:{ Hb_mem.Globals.size = 8; inits = [ (0, "ABCDEFGH") ] }
        image
    in
    Machine.run m
  in
  (* set R1 <- obj; setbound R2 <- R1,4  -- as done inside malloc(4) *)
  let prologue =
    [ Li (t0, obj); Setbound { dst = t1; src = t0; size = Imm 4 } ]
  in
  let exit0 = [ Li (a0, 0); Syscall Sys_exit ] in
  let line3 = (* read obj+2: in bounds *)
    prologue
    @ [ Load { dst = t2; base = t1; off = 2; width = W1; signed = false } ]
    @ exit0
  in
  let line4 = (* read obj+5: out of bounds *)
    prologue
    @ [ Load { dst = t2; base = t1; off = 5; width = W1; signed = false } ]
    @ exit0
  in
  let line5_7 = (* increment the pointer: bounds are copied unchanged *)
    prologue
    @ [ Alu (Add, t3, t1, Imm 1);
        Load { dst = t2; base = t3; off = 5; width = W1; signed = false } ]
    @ exit0
  in
  Printf.printf "load Mem[R2+2]          -> %s\n"
    (Machine.status_name (run line3));
  Printf.printf "load Mem[R2+5]          -> %s\n"
    (Machine.status_name (run line4));
  Printf.printf "R4 <- R2+1; Mem[R4+5]   -> %s\n"
    (Machine.status_name (run line5_7))

(* ---- 2. The compiler level -------------------------------------------- *)

let buggy_program = {|
int sum(int *a, int n) {
  int s;
  int i;
  s = 0;
  for (i = 0; i <= n; i++) {   /* classic off-by-one */
    s = s + a[i];
  }
  return s;
}

int main() {
  int *a;
  int i;
  a = (int*)malloc(10 * sizeof(int));
  for (i = 0; i < 10; i++) { a[i] = i; }
  print_str("sum = ");
  print_int(sum(a, 10));
  print_nl();
  return 0;
}
|}

let () =
  section "Compiling C with full HardBound instrumentation";
  List.iter
    (fun mode ->
      let status, m = Hb_runtime.Build.run ~mode buggy_program in
      Printf.printf "%-12s -> %-60s output: %S\n" (Codegen.mode_name mode)
        (Machine.status_name status) (Machine.output m))
    [ Codegen.Nochecks; Codegen.Hardbound ];
  print_endline
    "\nThe baseline silently reads past the allocation; HardBound traps the\n\
     dereference the moment the off-by-one index is used."

(* ---- 3. Observability -------------------------------------------------- *)

let () =
  section "Observability: trace ring, violation report, flat profile";
  (* Same buggy program, but with a tracer and per-PC attribution
     attached before running, the attribution printed grouped by function
     (the `hardbound_run` CLI flags --trace, --trace-events and --profile
     do exactly this). *)
  let mode = Codegen.Hardbound in
  let image, globals = Hb_runtime.Build.compile ~mode buggy_program in
  let config = Hb_runtime.Build.config_for mode in
  let m = Machine.create ~config ~globals image in
  Machine.attach_tracer m (Hb_obs.Trace.create ~capacity:4 ());
  Machine.enable_attr ~line_base:Hb_runtime.Build.runtime_lines m;
  ignore (Machine.run m);
  (match Machine.violation_report m with
   | Some report -> print_string report
   | None -> ());
  print_newline ();
  (match Machine.attr m with
   | Some a -> print_string (Hb_obs.Attr.function_table a)
   | None -> ())
