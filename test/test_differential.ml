(* Differential testing: qcheck generates random (well-defined) MiniC
   programs; every instrumentation mode and every pointer encoding must
   produce exactly the baseline's output.  This is the strongest
   "transparency" property the paper relies on: for correct programs the
   protection machinery is invisible. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Encoding = Hardbound.Encoding

(* -- random program generator ------------------------------------------- *)

(* Programs operate on: int locals x0..x3, a heap int array a[8] (always
   indexed mod 8), a global int array g[8] and an initialized global int
   array gi[8].  All arithmetic avoids division by zero by construction.
   Their initialized globals -- gi's random initializer list, a char
   array set from a string literal and a char pointer to another -- sit a
   page or more past a zero array, so the loader's placement of each is
   checked through what the program prints. *)

open QCheck.Gen

let gen_expr =
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [
                map (fun i -> string_of_int i) (int_range (-100) 100);
                map (fun i -> Printf.sprintf "x%d" i) (int_range 0 3);
                map (fun i -> Printf.sprintf "a[%d]" i) (int_range 0 7);
                map (fun i -> Printf.sprintf "g[%d]" i) (int_range 0 7);
                map (fun i -> Printf.sprintf "gi[%d]" i) (int_range 0 7);
                return "*p";
              ]
          in
          if n <= 1 then leaf
          else
            oneof
              [
                leaf;
                (let* op = oneofl [ "+"; "-"; "*" ] in
                 let* l = self (n / 2) in
                 let* r = self (n / 2) in
                 return (Printf.sprintf "(%s %s %s)" l op r));
                (let* l = self (n / 2) in
                 let* r = self (n / 2) in
                 return (Printf.sprintf "(%s < %s ? %s : %s)" l r r l));
                (let* l = self (n / 2) in
                 return (Printf.sprintf "(%s & 255)" l));
              ])
        n)

let gen_stmt =
  let* kind = int_range 0 5 in
  match kind with
  | 0 ->
    let* v = int_range 0 3 in
    let* e = gen_expr in
    return (Printf.sprintf "x%d = %s;" v e)
  | 1 ->
    let* i = int_range 0 7 in
    let* e = gen_expr in
    return (Printf.sprintf "a[%d] = %s;" i e)
  | 2 ->
    let* i = int_range 0 7 in
    let* e = gen_expr in
    return (Printf.sprintf "g[%d] = %s;" i e)
  | 3 ->
    let* c = gen_expr in
    let* v = int_range 0 3 in
    let* e = gen_expr in
    return (Printf.sprintf "if (%s) { x%d = %s; }" c v e)
  | 4 ->
    let* v = int_range 0 3 in
    let* e = gen_expr in
    (* bounded loop *)
    return
      (Printf.sprintf "for (it = 0; it < 5; it++) { x%d = x%d + (%s); }" v v e)
  | _ ->
    let* i = int_range 0 7 in
    return (Printf.sprintf "p = &a[0] + %d; *p = *p + 1; p = &a[%d];" i i)

let gen_text = string_size ~gen:(char_range 'a' 'z') (int_range 0 15)

let gen_program =
  let* stmts = list_size (int_range 3 12) gen_stmt in
  let* zeros = int_range 1024 3072 in
  let* inits = list_size (int_range 1 8) (int_range (-300) 300) in
  let* text = gen_text in
  let* literal = gen_text in
  (* what the program prints last: no statement writes these globals *)
  let tail =
    String.concat ""
      (List.init 8 (fun i ->
           string_of_int (Option.value (List.nth_opt inits i) ~default:0)
           ^ " "))
    ^ Printf.sprintf "0 %s %s" text literal
  in
  return
    ( Printf.sprintf
       {|
int gz[%d];
int g[8];
int gi[8] = {%s};
char gs[16] = "%s";
char *gp = "%s";
int main() {
  int x0; int x1; int x2; int x3;
  int it;
  int *a;
  int *p;
  int i;
  a = (int*)malloc(8 * sizeof(int));
  for (i = 0; i < 8; i++) { a[i] = i * 3; g[i] = i - 4; }
  x0 = 1; x1 = 2; x2 = 3; x3 = 4;
  p = a;
  %s
  print_int(x0 + x1 + x2 + x3);
  print_char(32);
  for (i = 0; i < 8; i++) { print_int(a[i] + g[i]); print_char(32); }
  for (i = 0; i < 8; i++) { print_int(gi[i]); print_char(32); }
  print_int(gz[0] + gz[%d]); print_char(32);
  print_str(gs); print_char(32);
  print_str(gp);
  return 0;
}
|}
       zeros
       (String.concat ", " (List.map string_of_int inits))
       text literal
       (String.concat "\n  " stmts)
       (zeros - 1),
      tail )

let arb_program = QCheck.make ~print:fst gen_program

(* The baseline's output, which must end with what the initialized
   globals hold. *)
let baseline_output (src, tail) =
  match Build.run ~mode:Codegen.Nochecks src with
  | Machine.Exited 0, m ->
    let out = Machine.output m in
    if not (String.ends_with ~suffix:tail out) then
      QCheck.Test.fail_reportf "baseline printed %S, expected it to end %S"
        out tail;
    out
  | st, _ ->
    QCheck.Test.fail_reportf "baseline failed: %s" (Machine.status_name st)

let agrees ((src, _) as prog) mode scheme =
  match Build.run ~scheme ~mode src with
  | Machine.Exited 0, m -> Machine.output m = baseline_output prog
  | st, _ ->
    QCheck.Test.fail_reportf "%s/%s: %s" (Codegen.mode_name mode)
      (Encoding.scheme_name scheme) (Machine.status_name st)

let prop_modes_agree =
  QCheck.Test.make ~name:"all modes reproduce baseline output" ~count:60
    arb_program (fun prog ->
      List.for_all
        (fun mode -> agrees prog mode Encoding.Extern4)
        [ Codegen.Hardbound; Codegen.Hardbound_malloc_only; Codegen.Softfat;
          Codegen.Objtable ])

let prop_encodings_agree =
  QCheck.Test.make ~name:"all encodings reproduce baseline output" ~count:40
    arb_program (fun prog ->
      List.for_all
        (fun scheme -> agrees prog Codegen.Hardbound scheme)
        Encoding.all_schemes)

(* pointer round-trips through memory survive every mode: regression net
   for the store/load metadata path *)
let prop_pointer_roundtrip =
  QCheck.Test.make ~name:"pointer store/load transparency" ~count:40
    QCheck.(pair (int_bound 6) (int_bound 30))
    (fun (idx, size) ->
      let size = size + 2 in
      let src =
        Printf.sprintf
          {|
int main() {
  char **slots;
  char *obj;
  char *back;
  slots = (char**)malloc(8 * 4);
  obj = malloc(%d);
  obj[%d] = 'q';
  slots[%d] = obj;
  back = slots[%d];
  print_int(back == obj);
  print_int((int)back[%d] == 'q');
  return 0;
}
|}
          size (min idx (size - 1)) idx idx
          (min idx (size - 1))
      in
      List.for_all
        (fun scheme ->
          match Build.run ~scheme ~mode:Codegen.Hardbound src with
          | Machine.Exited 0, m -> Machine.output m = "11"
          | _ -> false)
        Encoding.all_schemes)

let () =
  Alcotest.run "differential"
    [
      ( "random-programs",
        [
          QCheck_alcotest.to_alcotest prop_modes_agree;
          QCheck_alcotest.to_alcotest prop_encodings_agree;
          QCheck_alcotest.to_alcotest prop_pointer_roundtrip;
        ] );
    ]
