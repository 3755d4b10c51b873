(** Hand-written lexer for MiniC. *)

type token =
  | INT_LIT of int
  | FLOAT_LIT of float
  | STR_LIT of string
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

exception Lex_error of int * string
(** Line number (1-based) and message.  Besides unexpected characters and
    unterminated comments, literals and escapes, a number literal that
    does not read as an [int] or [float] ([0x], [1.5e], an integer past
    [max_int]) is a lex error. *)

type t

val create : string -> t
(** Start lexing a source string; the first token is ready immediately. *)

val token : t -> token
(** Current lookahead token. *)

val token_line : t -> int
(** Line where the current token starts. *)

val junk : t -> unit
(** Advance to the next token. *)

val token_str : token -> string
