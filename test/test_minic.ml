(* End-to-end MiniC compiler tests: programs are compiled against the
   runtime and executed on the simulated machine in each instrumentation
   mode.  Checks cover language semantics (same output in every mode) and
   the protection behaviours the paper specifies. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Lexer = Hb_minic.Lexer
module Driver = Hb_minic.Driver
module Gen = Hb_violations.Gen
module Workloads = Hb_workloads.Workloads
module Machine = Hb_cpu.Machine
module Encoding = Hardbound.Encoding

let modes : Codegen.mode list =
  [ Codegen.Nochecks; Codegen.Hardbound; Codegen.Hardbound_malloc_only;
    Codegen.Softfat; Codegen.Objtable ]

let run ?scheme ~mode src = Build.run ?scheme ~mode src

let check_output name ~expect ~mode src =
  let status, m = run ~mode src in
  (match status with
   | Machine.Exited 0 -> ()
   | st ->
     Alcotest.failf "%s [%s]: %s\noutput: %s" name (Codegen.mode_name mode)
       (Machine.status_name st) (Machine.output m));
  Alcotest.(check string)
    (Printf.sprintf "%s [%s]" name (Codegen.mode_name mode))
    expect (Machine.output m)

(* Same program must produce identical output in every mode. *)
let check_all_modes name ~expect src =
  List.iter (fun mode -> check_output name ~expect ~mode src) modes

let detected name st =
  match st with
  | Machine.Bounds_violation _ | Machine.Non_pointer_violation _
  | Machine.Software_abort _ -> ()
  | st -> Alcotest.failf "%s: expected detection, got %s" name
            (Machine.status_name st)

(* ---- language basics -------------------------------------------------- *)

let test_hello () =
  check_all_modes "hello" ~expect:"hello, world\n"
    {|
int main() {
  print_str("hello, world");
  print_nl();
  return 0;
}
|}

let test_arith () =
  check_all_modes "arith" ~expect:"42 -3 7 1 20 3 -24"
    {|
int main() {
  int a; int b;
  a = 6; b = 7;
  print_int(a * b); print_char(32);
  print_int(-17 / 5); print_char(32);
  print_int(a | 1); print_char(32);
  print_int(a < b); print_char(32);
  print_int(5 << 2); print_char(32);
  print_int(a >> 1); print_char(32);
  print_int(~23);
  return 0;
}
|}

let test_control_flow () =
  check_all_modes "control flow" ~expect:"0 1 2 3 4 |10|55|6"
    {|
int main() {
  int i; int sum; int n;
  for (i = 0; i < 5; i++) { print_int(i); print_char(32); }
  print_char(124);
  i = 0;
  while (1) {
    i = i + 2;
    if (i >= 10) { break; }
  }
  print_int(i);
  print_char(124);
  sum = 0;
  for (i = 1; i <= 10; i++) {
    sum += i;
  }
  print_int(sum);
  print_char(124);
  n = 0;
  do { n = n + 3; } while (n < 5);
  print_int(n);
  return 0;
}
|}

let test_functions () =
  check_all_modes "functions" ~expect:"13 21 720"
    {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int fact(int n) {
  int r;
  r = 1;
  while (n > 1) { r = r * n; n--; }
  return r;
}
int main() {
  print_int(fib(7)); print_char(32);
  print_int(fib(8)); print_char(32);
  print_int(fact(6));
  return 0;
}
|}

let test_pointers_and_arrays () =
  check_all_modes "pointers" ~expect:"5 7 12 3"
    {|
void bump(int *p) { *p = *p + 2; }
int main() {
  int x; int a[4]; int *p; int i;
  x = 5;
  print_int(x); print_char(32);
  bump(&x);
  print_int(x); print_char(32);
  for (i = 0; i < 4; i++) { a[i] = i * i; }
  p = a;
  print_int(p[2] + p[0] + a[1] + 7); print_char(32);
  p = p + 3;
  print_int(*p - 6);
  return 0;
}
|}

let test_structs () =
  check_all_modes "structs" ~expect:"30 7 99"
    {|
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; int tag; };
int area(struct rect *r) {
  return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
}
int main() {
  struct rect r;
  struct point *p;
  r.lo.x = 1; r.lo.y = 2;
  r.hi.x = 6; r.hi.y = 8;
  r.tag = 7;
  print_int(area(&r)); print_char(32);
  print_int(r.tag); print_char(32);
  p = &r.hi;
  p->x = 99;
  print_int(r.hi.x);
  return 0;
}
|}

let test_heap () =
  check_all_modes "heap" ~expect:"10 45 ok"
    {|
struct node { int v; struct node *next; };
int main() {
  struct node *head; struct node *n; int i; int count; int sum;
  head = (struct node*)0;
  for (i = 0; i < 10; i++) {
    n = (struct node*)malloc(sizeof(struct node));
    n->v = i;
    n->next = head;
    head = n;
  }
  count = 0; sum = 0;
  n = head;
  while (n != 0) {
    count++;
    sum += n->v;
    n = n->next;
  }
  print_int(count); print_char(32);
  print_int(sum); print_char(32);
  while (head != 0) { n = head->next; free((char*)head); head = n; }
  print_str("ok");
  return 0;
}
|}

let test_strings () =
  check_all_modes "strings" ~expect:"11 0 -1 abcdef"
    {|
int main() {
  char buf[32];
  char buf2[8];
  print_int(strlen("hello world")); print_char(32);
  strcpy(buf, "same");
  print_int(strcmp(buf, "same")); print_char(32);
  print_int(strcmp("abc", "abd") < 0 ? -1 : 1); print_char(32);
  strcpy(buf, "abc");
  strcpy(buf2, "def");
  print_str(buf); print_str(buf2);
  return 0;
}
|}

let test_floats () =
  check_all_modes "floats" ~expect:"3.5000 1 3 2.0000"
    {|
float half(float x) { return x / 2.0; }
int main() {
  float a; float b;
  a = 3.0;
  b = a + 0.5;
  print_float(b); print_char(32);
  print_int(b > a); print_char(32);
  print_int((int)b); print_char(32);
  print_float(sqrtf(4.0));
  return 0;
}
|}

let test_globals () =
  check_all_modes "globals" ~expect:"7 1 2 3 hi 104"
    {|
int counter = 7;
int table[3] = {1, 2, 3};
char msg[] = "hi";
char *gp_str = "hello";
int main() {
  int i;
  print_int(counter); print_char(32);
  for (i = 0; i < 3; i++) { print_int(table[i]); print_char(32); }
  print_str(msg); print_char(32);
  print_int((int)gp_str[0]);
  return 0;
}
|}

let test_malloc_reuse () =
  check_all_modes "allocator reuse" ~expect:"1"
    {|
int main() {
  char *a; char *b;
  a = malloc(24);
  free(a);
  b = malloc(24);
  /* freed block is reused */
  print_int(a == b);
  return 0;
}
|}

let test_rand_deterministic () =
  check_all_modes "rand" ~expect:"ok"
    {|
int main() {
  int a; int b;
  srand(42);
  a = rand();
  srand(42);
  b = rand();
  if (a == b && a >= 0 && a < 32768) { print_str("ok"); }
  return 0;
}
|}

(* ---- protection behaviour --------------------------------------------- *)

(* Heap overflow: detected by Hardbound (both modes) and Softfat; the
   object-table scheme misses it (no arithmetic past the object: direct
   index IS arithmetic, so it catches it too). *)
let overflow_src = {|
int main() {
  char *p;
  int i;
  p = malloc(10);
  for (i = 0; i <= 10; i++) { p[i] = (char)i; }
  return 0;
}
|}

let test_heap_overflow_detection () =
  List.iter
    (fun mode ->
      let status, _ = run ~mode overflow_src in
      detected (Codegen.mode_name mode) status)
    [ Codegen.Hardbound; Codegen.Hardbound_malloc_only; Codegen.Softfat ];
  (* the object table tolerates one-past-the-end pointers (as Jones&Kelly
     must, for legal C); it catches the overflow one element later *)
  (match run ~mode:Codegen.Objtable overflow_src with
   | Machine.Exited 0, _ -> ()
   | st, _ -> Alcotest.failf "objtable one-past: %s" (Machine.status_name st));
  let far_src = {|
int main() {
  char *p;
  int i;
  p = malloc(10);
  for (i = 0; i <= 12; i++) { p[i] = (char)i; }
  return 0;
}
|}
  in
  let status, _ = run ~mode:Codegen.Objtable far_src in
  detected "objtable beyond one-past" status;
  (* baseline lets it through silently *)
  match run ~mode:Codegen.Nochecks overflow_src with
  | Machine.Exited 0, _ -> ()
  | st, _ -> Alcotest.failf "nochecks: %s" (Machine.status_name st)

(* The paper's Section 2.2 example: strcpy through a pointer to an array
   inside a struct overwrites the neighbouring field.  HardBound's
   sub-object narrowing catches it; the object-table scheme cannot (both
   pointers map to one table entry). *)
let subobject_src = {|
struct host { char str[5]; int x; };
int main() {
  struct host node;
  char *ptr;
  node.x = 7;
  ptr = node.str;
  strcpy(ptr, "overflow");
  print_int(node.x);
  return 0;
}
|}

let test_subobject_overflow () =
  let status, _ = run ~mode:Codegen.Hardbound subobject_src in
  detected "hardbound sub-object" status;
  let status, _ = run ~mode:Codegen.Softfat subobject_src in
  detected "softfat sub-object" status;
  (* object table: undetected, node.x is silently corrupted *)
  (match run ~mode:Codegen.Objtable subobject_src with
   | Machine.Exited 0, m ->
     Alcotest.(check bool) "objtable misses sub-object overflow" true
       (Machine.output m <> "7")
   | st, _ -> Alcotest.failf "objtable: %s" (Machine.status_name st));
  match run ~mode:Codegen.Nochecks subobject_src with
  | Machine.Exited 0, _ -> ()
  | st, _ -> Alcotest.failf "nochecks: %s" (Machine.status_name st)

(* Stack array overflow via a loop: needs compiler instrumentation, so the
   malloc-only mode does NOT catch it (paper: malloc-only protects heap
   objects only). *)
let stack_overflow_src = {|
int main() {
  int a[4];
  int i;
  int canary;
  canary = 7;
  for (i = 0; i <= 4; i++) { a[i] = 9; }
  return canary - 7;
}
|}

let test_stack_overflow () =
  let status, _ = run ~mode:Codegen.Hardbound stack_overflow_src in
  detected "hardbound stack" status;
  let status, _ = run ~mode:Codegen.Softfat stack_overflow_src in
  detected "softfat stack" status;
  match run ~mode:Codegen.Hardbound_malloc_only stack_overflow_src with
  | Machine.Exited 0, _ -> ()
  | st, _ ->
    Alcotest.failf "malloc-only should not detect stack overflow: %s"
      (Machine.status_name st)

(* Section 6.1 cast fragment: casting pointers through int works under
   HardBound (metadata propagates through movs); manufacturing a pointer
   from a constant fails on dereference. *)
let test_cast_semantics () =
  let src = {|
int main() {
  int x;
  char *z;
  int a;
  x = 17;
  z = (char*)&x;
  a = (int)z;
  *((int*)a) = 42;   /* legal: a inherits z's bounds */
  print_int(x);
  return 0;
}
|}
  in
  check_output "cast roundtrip" ~expect:"42" ~mode:Codegen.Hardbound src;
  let forged = {|
int main() {
  int *w;
  w = (int*)4096;
  *w = 42;
  return 0;
}
|}
  in
  let status, _ = run ~mode:Codegen.Hardbound forged in
  (match status with
   | Machine.Non_pointer_violation _ -> ()
   | st -> Alcotest.failf "forged pointer: %s" (Machine.status_name st))

(* global buffer overflow *)
let test_global_overflow () =
  let src = {|
int garr[4];
int main() {
  int i;
  for (i = 0; i <= 4; i++) { garr[i] = 1; }
  return 0;
}
|}
  in
  let status, _ = run ~mode:Codegen.Hardbound src in
  detected "global overflow" status

(* lower-bound violation *)
let test_underflow () =
  let src = {|
int main() {
  char *p;
  p = malloc(8);
  p[-1] = 1;
  return 0;
}
|}
  in
  List.iter
    (fun mode ->
      let status, _ = run ~mode src in
      detected ("underflow " ^ Codegen.mode_name mode) status)
    [ Codegen.Hardbound; Codegen.Hardbound_malloc_only; Codegen.Softfat ]

(* setbound escape hatch usable from source *)
let test_unsafe_builtin () =
  let src = {|
int main() {
  char *p;
  char *q;
  p = malloc(8);
  q = __setbound_unsafe(p);
  q[100] = 1;  /* out of p's bounds but q is unsafe */
  print_str("ok");
  return 0;
}
|}
  in
  check_output "unsafe builtin" ~expect:"ok" ~mode:Codegen.Hardbound src

(* compile errors are reported, not crashes, and name the user's line *)
let test_compile_errors () =
  let expect_error ?msg src =
    match Build.compile ~mode:Codegen.Nochecks src with
    | exception Driver.Compile_error m ->
      Option.iter (fun msg -> Alcotest.(check string) src msg m) msg
    | _ -> Alcotest.failf "expected compile error: %s" src
  in
  expect_error "int main() { undeclared = 1; return 0; }";
  expect_error "int main() { int x; x = \"str\" * 2; return 0; }";
  expect_error "int main() { return; }";
  expect_error "int f(; int main() { return 0; }";
  expect_error "struct s { int x; }; int main() { struct s v; v = v; return 0; }";
  expect_error "int main() { int a[4]; a[0] = missing(); return 0; }";
  (* number literals int_of_string / float_of_string reject *)
  expect_error "int main() { return 0x; }"
    ~msg:"lex error at line 1: malformed number literal 0x";
  expect_error "int main() {\n  return 99999999999999999999999;\n}"
    ~msg:
      "lex error at line 2: number literal 99999999999999999999999 out of \
       range";
  expect_error "int main() { float f = 1.5e; return 0; }"
    ~msg:"lex error at line 1: malformed number literal 1.5e";
  (* initializer lists longer than their array *)
  expect_error "int g[2] = {1, 2, 3}; int main() { return g[0]; }"
    ~msg:"type error: initializer too long for g";
  expect_error "float h[1] = {1.0, 2.0}; int main() { return 0; }"
    ~msg:"type error: initializer too long for h";
  expect_error "char c[4] = {1, 2, 3, 4, 5}; int x; int main() { return x; }"
    ~msg:"type error: initializer too long for c";
  (* lines count from the user's first line, not the unit's *)
  expect_error "int main() {\n  int x;\n  x = 1 @ 2;\n  return x;\n}"
    ~msg:"lex error at line 3: unexpected character '@'";
  expect_error "int main() {\n  return 1 +;\n}"
    ~msg:"parse error at line 2: unexpected token ';'";
  (* a prelude line is named rt.N *)
  match Driver.build ~line_base:2 ~mode:Codegen.Nochecks "int a;\nint @;\n" with
  | exception Driver.Compile_error m ->
    Alcotest.(check string) "prelude line"
      "lex error at line rt.2: unexpected character '@'" m
  | _ -> Alcotest.fail "expected compile error in the prelude"

(* ---- front end ----------------------------------------------------------- *)

(* The tokens of [src], one entry per line that starts a token ("L: ..."
   with each token tagged by kind), then the lex error that stopped it. *)
let lex_all src =
  let render = function
    | Lexer.INT_LIT n -> Printf.sprintf "INT:%d" n
    | Lexer.FLOAT_LIT f -> Printf.sprintf "FLOAT:%h" f
    | Lexer.STR_LIT s -> Printf.sprintf "STR:%S" s
    | Lexer.IDENT s -> "ID:" ^ s
    | Lexer.KW s -> "KW:" ^ s
    | Lexer.PUNCT s -> "P:" ^ s
    | Lexer.EOF -> "EOF"
  in
  let lines = ref [] in
  let add line s =
    match !lines with
    | (l, toks) :: rest when l = line -> lines := (l, s :: toks) :: rest
    | _ -> lines := (line, [ s ]) :: !lines
  in
  let error =
    match Lexer.create src with
    | exception Lexer.Lex_error (line, msg) -> Some (line, msg)
    | lx ->
      let rec go () =
        let t = Lexer.token lx in
        add (Lexer.token_line lx) (render t);
        if t = Lexer.EOF then None
        else
          match Lexer.junk lx with
          | () -> go ()
          | exception Lexer.Lex_error (line, msg) -> Some (line, msg)
      in
      go ()
  in
  List.rev_map
    (fun (l, toks) ->
      Printf.sprintf "%d: %s" l (String.concat " " (List.rev toks)))
    !lines
  @
  match error with
  | Some (line, msg) -> [ Printf.sprintf "%d: error: %s" line msg ]
  | None -> []

(* Recorded with the lexer that looked punctuators and keywords up in
   lists: every punctuator, keywords beside identifiers sharing a prefix,
   literals, escapes, comments across lines, and each lex error. *)
let lexer_table =
  [
    ( "punctuators",
      "<<= >>=\n\
        == != <= >= && || << >> ++ --\n\
        += -= *= /= %= &= |= ^= ->\n\
        + - * / % = < > ! ~ & | ^\n\
        ( ) { } [ ] ; , . ? :",
      [ "1: P:<<= P:>>=";
        "2: P:== P:!= P:<= P:>= P:&& P:|| P:<< P:>> P:++ P:--";
        "3: P:+= P:-= P:*= P:/= P:%= P:&= P:|= P:^= P:->";
        "4: P:+ P:- P:* P:/ P:% P:= P:< P:> P:! P:~ P:& P:| P:^";
        "5: P:( P:) P:{ P:} P:[ P:] P:; P:, P:. P:? P:: EOF" ] );
    ( "longest match",
      "a<<=b>>=c a-->b p->q a+++b\n\
        x<<<y x>>>=y a&&&b a|||b\n\
        a!==b a===b -=-",
      [ "1: ID:a P:<<= ID:b P:>>= ID:c ID:a P:-- P:> ID:b ID:p P:-> ID:q ID:a P:++ P:+ ID:b";
        "2: ID:x P:<< P:< ID:y ID:x P:>> P:>= ID:y ID:a P:&& P:& ID:b ID:a P:|| P:| ID:b";
        "3: ID:a P:!= P:= ID:b ID:a P:== P:= ID:b P:-= P:- EOF" ] );
    ( "keywords beside identifiers",
      "do double int integer if iff for fort\n\
        while whilex char chars float floaty\n\
        void voids struct structure sizeof sizeofx\n\
        return returns break breaker continue continued\n\
        else elsewhere _x x1 X_9 Int INT",
      [ "1: KW:do ID:double KW:int ID:integer KW:if ID:iff KW:for ID:fort";
        "2: KW:while ID:whilex KW:char ID:chars KW:float ID:floaty";
        "3: KW:void ID:voids KW:struct ID:structure KW:sizeof ID:sizeofx";
        "4: KW:return ID:returns KW:break ID:breaker KW:continue ID:continued";
        "5: KW:else ID:elsewhere ID:_x ID:x1 ID:X_9 ID:Int ID:INT EOF" ] );
    ( "number literals",
      "0 7 42 0123 0x1F 0XfF 0xdeadBEEF\n\
        0x7FFFFFFFFFFFFFFF 4611686018427387903\n\
        1.5 0.25 3.25e2 1.0E-3 2.5e+1 1.0e400\n\
        12abc 1. 3.x 0x1Fg 7.e1",
      [ "1: INT:0 INT:7 INT:42 INT:123 INT:31 INT:255 INT:3735928559";
        "2: INT:-1 INT:4611686018427387903";
        "3: FLOAT:0x1.8p+0 FLOAT:0x1p-2 FLOAT:0x1.45p+8 FLOAT:0x1.0624dd2f1a9fcp-10 FLOAT:0x1.9p+4 FLOAT:infinity";
        "4: INT:12 ID:abc INT:1 P:. INT:3 P:. ID:x INT:31 ID:g INT:7 P:. ID:e1 EOF" ] );
    ( "char and string escapes",
      "'a' '\\n' '\\t' '\\r' '\\0' '\\\\' '\\'' '\"' ' '\n\
        \"a\\nb\\t\\\"q\\\"\\\\\\0z\" \"\" \"it's\" \"x\\ry\"",
      [ "1: INT:97 INT:10 INT:9 INT:13 INT:0 INT:92 INT:39 INT:34 INT:32";
        "2: STR:\"a\\nb\\t\\\"q\\\"\\\\\\000z\" STR:\"\" STR:\"it's\" STR:\"x\\ry\" EOF" ] );
    ( "comments across lines",
      "a // line comment * / \"\n\
        b /* block\n\
        comment */ c\n\
        /* x */d /**/ e /* * / ** */ f\n\
        g/h i/=j // last line without newline",
      [ "1: ID:a";
        "2: ID:b";
        "3: ID:c";
        "4: ID:d ID:e ID:f";
        "5: ID:g P:/ ID:h ID:i P:/= ID:j EOF" ] );
    ( "line counting in literals",
      "\"one\ntwo\" x\n'\n' y",
      [ "1: STR:\"one\\ntwo\"";
        "2: ID:x";
        "3: INT:10";
        "4: ID:y EOF" ] );
    ( "unterminated comment",
      "x /* never\nclosed\n",
      [ "1: ID:x";
        "3: error: unterminated comment" ] );
    ( "unknown escape",
      "a\n'\\q'",
      [ "1: ID:a";
        "2: error: unknown escape \\q" ] );
    ( "unknown escape in string",
      "\n\n\"ab\\zc\"",
      [ "3: error: unknown escape \\z" ] );
    ( "unterminated char",
      "'",
      [ "1: error: unterminated char" ] );
    ( "unterminated char after backslash",
      "\n'\\",
      [ "2: error: unterminated char" ] );
    ( "expected closing quote",
      "'ab'",
      [ "1: error: expected closing quote" ] );
    ( "unterminated string",
      "\"abc\n\n",
      [ "3: error: unterminated string" ] );
    ( "unterminated string after backslash",
      "\"abc\\",
      [ "1: error: unterminated string" ] );
    ( "unexpected character",
      "\n\n  x @ y",
      [ "3: ID:x";
        "3: error: unexpected character '@'" ] );
    ( "unexpected hash",
      "#include",
      [ "1: error: unexpected character '#'" ] );
    ( "unexpected nul",
      "a\000b",
      [ "1: ID:a";
        "1: error: unexpected character '\\000'" ] );
  ]

let test_lexer_table () =
  List.iter
    (fun (name, src, expect) ->
      Alcotest.(check (list string)) name expect (lex_all src))
    lexer_table;
  (* number literals [int_of_string] or [float_of_string] reject *)
  List.iter
    (fun (src, expect) -> Alcotest.(check (list string)) src expect (lex_all src))
    [
      ("a\n0x;", [ "1: ID:a"; "2: error: malformed number literal 0x" ]);
      ("0X", [ "1: error: malformed number literal 0X" ]);
      ( "4611686018427387904",
        [ "1: error: number literal 4611686018427387904 out of range" ] );
      ( "0x1FFFFFFFFFFFFFFFF",
        [ "1: error: number literal 0x1FFFFFFFFFFFFFFFF out of range" ] );
      ("1.5e", [ "1: error: malformed number literal 1.5e" ]);
      ("\n\n2.0E+;", [ "3: error: malformed number literal 2.0E+" ]);
    ]

(* ---- expression parsing ------------------------------------------------ *)

(* The expression [src], parsed as the operand of a [return]. *)
let parse_expr src =
  match Hb_minic.Parser.parse_tunit ("int f() { return " ^ src ^ "; }") with
  | [ Hb_minic.Ast.Dfun { fbody = [ Sline _; Sreturn (Some e) ]; _ } ] -> e
  | _ -> Alcotest.failf "%s: not one return statement" src

(* [src] parses to the tree of [grouped], the same expression with its
   grouping spelled out in parentheses, which add no node. *)
let check_grouping (src, grouped) =
  Alcotest.(check bool)
    (Printf.sprintf "%s = %s" src grouped)
    true
    (parse_expr src = parse_expr grouped)

(* C's binary operators by precedence level, lowest first; every level
   associates to the left. *)
let binop_levels =
  [
    [ "||" ]; [ "&&" ]; [ "|" ]; [ "^" ]; [ "&" ]; [ "=="; "!=" ];
    [ "<"; "<="; ">"; ">=" ]; [ "<<"; ">>" ]; [ "+"; "-" ]; [ "*"; "/"; "%" ];
  ]

(* [a op1 b op2 c] for every ordered pair of the 18 binary operators
   groups as the level table says: the higher level binds tighter, and
   at equal levels the left operator does.  Unary, cast, postfix, call,
   [?:] and assignment forms keep their places around binary
   operators. *)
let test_binary_precedence () =
  let ops =
    List.concat
      (List.mapi (fun l ops -> List.map (fun op -> (op, l)) ops) binop_levels)
  in
  Alcotest.(check int) "binary operators" 18 (List.length ops);
  List.iter
    (fun (o1, l1) ->
      List.iter
        (fun (o2, l2) ->
          check_grouping
            ( Printf.sprintf "a %s b %s c" o1 o2,
              if l1 >= l2 then Printf.sprintf "(a %s b) %s c" o1 o2
              else Printf.sprintf "a %s (b %s c)" o1 o2 ))
        ops)
    ops;
  List.iter check_grouping
    [
      ("a + b * c - d / e", "(a + (b * c)) - (d / e)");
      ( "a || b && c | d ^ e & f == g < h << i + j * k",
        "a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k)))))))))" );
      ("-a * b", "(-a) * b");
      ("a * -b", "a * (-b)");
      ("!a && ~b", "(!a) && (~b)");
      ("*p + *q * 2", "(*p) + ((*q) * 2)");
      ("&a[1] - b", "(&(a[1])) - b");
      ("(int)a * b", "((int)a) * b");
      ("(char*)p + 1", "((char*)p) + 1");
      ("sizeof(int) * n", "(sizeof(int)) * n");
      ("a[i] + s.f * p->g", "(a[i]) + ((s.f) * (p->g))");
      ("a++ + b", "(a++) + b");
      ("a - --b", "a - (--b)");
      ("f(a + b, c) * d", "(f((a + b), c)) * d");
      ("a || b ? c + d : e - f", "(a || b) ? (c + d) : (e - f)");
      ("a ? b : c ? d : e", "a ? b : (c ? d : e)");
      ("a < b ? c = d : e", "(a < b) ? (c = d) : e");
      ("a = b + c * d", "a = (b + (c * d))");
      ("a = b = c", "a = (b = c)");
      ("a += b << c", "a = a + (b << c)");
      ("a -= b ? c : d", "a = a - (b ? c : d)");
      ("a >>= b & c | d", "a = a >> ((b & c) | d)");
      ("*p %= q[1] * 3", "*p = (*p) % ((q[1]) * 3)");
    ];
  (* a missing operand is reported at the line of the token found instead *)
  match parse_expr "a +\n ;" with
  | exception Hb_minic.Parser.Parse_error (line, msg) ->
    Alcotest.(check (pair int string)) "missing operand"
      (2, "unexpected token ';'") (line, msg)
  | _ -> Alcotest.fail "missing operand parsed"

(* One MD5 over every violation-corpus program (HardBound) and every
   Olden program (all five modes) as [Build.compile] returns it: the linked
   image with its fn and line maps, and the globals region rendered as the
   bytes it starts with, marshalled without sharing.  Recorded before the
   front end was reworked for speed; any change to generated code or data
   moves it. *)
let test_compiler_output_pin () =
  let digest ~mode src =
    let image, (globals : Hb_mem.Globals.t) = Build.compile ~mode src in
    let bytes = Bytes.make globals.size '\000' in
    List.iter
      (fun (off, s) -> Bytes.blit_string s 0 bytes off (String.length s))
      globals.inits;
    Digest.string
      (Marshal.to_string (image, Bytes.to_string bytes) [ Marshal.No_sharing ])
  in
  let corpus =
    List.concat_map
      (fun (c : Gen.case) ->
        [ digest ~mode:Codegen.Hardbound c.good;
          digest ~mode:Codegen.Hardbound c.bad ])
      (Gen.all_cases ())
  in
  let olden =
    List.concat_map
      (fun (w : Workloads.t) -> List.map (fun mode -> digest ~mode w.source) modes)
      Workloads.all
  in
  Alcotest.(check int) "units" 917 (List.length corpus + List.length olden);
  Alcotest.(check string) "compiler output" "546edf3b2b473d1b5e8250cf89784dad"
    (Digest.to_hex (Digest.string (String.concat "" (corpus @ olden))))

(* encodings do not change program results, only performance *)
let test_encoding_transparency () =
  let src = {|
struct n { int v; struct n *next; };
int main() {
  struct n *h; int i; int s;
  h = (struct n*)0;
  for (i = 0; i < 50; i++) {
    struct n *e;
    e = (struct n*)malloc(sizeof(struct n));
    e->v = i; e->next = h; h = e;
  }
  s = 0;
  while (h != 0) { s += h->v; h = h->next; }
  print_int(s);
  return 0;
}
|}
  in
  List.iter
    (fun scheme ->
      let status, m = run ~scheme ~mode:Codegen.Hardbound src in
      (match status with
       | Machine.Exited 0 -> ()
       | st ->
         Alcotest.failf "%s: %s" (Encoding.scheme_name scheme)
           (Machine.status_name st));
      Alcotest.(check string) (Encoding.scheme_name scheme) "1225"
        (Machine.output m))
    Encoding.all_schemes

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "minic"
    [
      ( "language",
        [
          tc "hello world" test_hello;
          tc "arithmetic" test_arith;
          tc "control flow" test_control_flow;
          tc "functions and recursion" test_functions;
          tc "pointers and arrays" test_pointers_and_arrays;
          tc "structs" test_structs;
          tc "heap lists" test_heap;
          tc "strings" test_strings;
          tc "floats" test_floats;
          tc "globals" test_globals;
          tc "allocator reuse" test_malloc_reuse;
          tc "deterministic rand" test_rand_deterministic;
        ] );
      ( "protection",
        [
          tc "heap overflow detection" test_heap_overflow_detection;
          tc "sub-object overflow (2.2 example)" test_subobject_overflow;
          tc "stack overflow" test_stack_overflow;
          tc "cast semantics (6.1)" test_cast_semantics;
          tc "global overflow" test_global_overflow;
          tc "lower bound" test_underflow;
          tc "unsafe escape hatch" test_unsafe_builtin;
          tc "compile errors" test_compile_errors;
          tc "encoding transparency" test_encoding_transparency;
        ] );
      ( "front end",
        [
          tc "lexer table" test_lexer_table;
          tc "binary precedence" test_binary_precedence;
          Alcotest.test_case "compiler output pin" `Slow
            test_compiler_output_pin;
        ] );
    ]
