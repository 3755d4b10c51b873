(** Front-to-back compilation pipeline: source text -> linked image. *)

exception Compile_error of string

(* A unit line as its author knows it: the first [line_base] lines are a
   prelude (the runtime's, rendered [rt.N] as attribution does), and the
   source proper counts from 1 after them. *)
let line_name ~line_base line =
  if line > line_base then string_of_int (line - line_base)
  else Printf.sprintf "rt.%d" line

let compile_source ~line_base ~(mode : Codegen.mode) (source : string) :
    Codegen.compiled =
  let located what line msg =
    raise
      (Compile_error
         (Printf.sprintf "%s error at line %s: %s" what
            (line_name ~line_base line) msg))
  in
  let tunit =
    try Parser.parse_tunit source with
    | Parser.Parse_error (line, msg) -> located "parse" line msg
    | Lexer.Lex_error (line, msg) -> located "lex" line msg
  in
  let typed =
    try Typecheck.check_tunit tunit
    with Typecheck.Type_error msg ->
      raise (Compile_error ("type error: " ^ msg))
  in
  try Codegen.compile ~mode typed
  with Codegen.Codegen_error msg ->
    raise (Compile_error ("codegen error: " ^ msg))

(** Compile and link to an executable image. *)
let build ~line_base ~mode source =
  let compiled = compile_source ~line_base ~mode source in
  (match Hb_isa.Program.validate compiled.Codegen.program with
   | Ok () -> ()
   | Error e -> raise (Compile_error ("invalid generated code: " ^ e)));
  let image = Hb_isa.Program.link compiled.Codegen.program in
  (image, compiled.Codegen.globals_image)
