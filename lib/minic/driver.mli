(** Front-to-back compilation pipeline: source text -> linked image. *)

exception Compile_error of string
(** Lex, parse, type and codegen errors, uniformly reported. *)

val compile_source :
  line_base:int -> mode:Codegen.mode -> string -> Codegen.compiled
(** Parse, typecheck and generate code for one translation unit.  Its
    first [line_base] lines are a prelude: error messages number the
    lines after it from 1 and name a prelude line [rt.N]. *)

val build :
  line_base:int ->
  mode:Codegen.mode ->
  string ->
  Hb_isa.Program.image * Hb_mem.Globals.t
(** {!compile_source}, then validate and link.  Returns the executable
    image and the globals region. *)
