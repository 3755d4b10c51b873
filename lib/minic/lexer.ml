(** Hand-written lexer for MiniC.

    Every MiniC compile lexes the runtime prelude in front of the user's
    program, so the scanner allocates only the tokens that carry text
    (identifiers, literals): characters are read by position, and
    keywords and punctuators are recognised by [match], returning
    statically allocated tokens. *)

type token =
  | INT_LIT of int
  | FLOAT_LIT of float
  | STR_LIT of string
  | IDENT of string
  | KW of string       (* int char float void struct if else while for do
                          return break continue sizeof *)
  | PUNCT of string    (* operators and delimiters *)
  | EOF

exception Lex_error of int * string

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;
  mutable tok_line : int;
}

let error lx msg = raise (Lex_error (lx.line, msg))

let at_end lx = lx.pos >= String.length lx.src

(* The character [k] places ahead, or NUL past the end: the callers that
   must tell a NUL in the source from the end test [at_end] first. *)
let char_at lx k =
  let i = lx.pos + k in
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

let peek lx = char_at lx 0

let advance lx =
  (if lx.pos < String.length lx.src && lx.src.[lx.pos] = '\n' then
     lx.line <- lx.line + 1);
  lx.pos <- lx.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

(* Step over a run of characters satisfying [p], which rejects NUL (so
   the run stops at the end) and newlines (so the line count stays
   put). *)
let skip_while lx p =
  while p (peek lx) do
    lx.pos <- lx.pos + 1
  done

let rec skip_ws lx =
  match peek lx with
  | ' ' | '\t' | '\r' | '\n' ->
    advance lx;
    skip_ws lx
  | '/' when char_at lx 1 = '/' ->
    while (not (at_end lx)) && peek lx <> '\n' do
      advance lx
    done;
    skip_ws lx
  | '/' when char_at lx 1 = '*' ->
    advance lx;
    advance lx;
    while not (peek lx = '*' && char_at lx 1 = '/') do
      if at_end lx then error lx "unterminated comment";
      advance lx
    done;
    advance lx;
    advance lx;
    skip_ws lx
  | _ -> ()

let escape lx c =
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> error lx (Printf.sprintf "unknown escape \\%c" c)

(* The literal scanned since [start].  Integer literals keep
   [int_of_string]'s reading (hex up to 2^63 - 1 wraps into the negative
   ints); one it or [float_of_string] rejects is a lex error naming it. *)
let literal lx start = String.sub lx.src start (lx.pos - start)

let malformed lx start =
  error lx (Printf.sprintf "malformed number literal %s" (literal lx start))

let int_literal lx start =
  match int_of_string (literal lx start) with
  | n -> INT_LIT n
  | exception Failure _ ->
    error lx
      (Printf.sprintf "number literal %s out of range" (literal lx start))

let lex_number lx =
  let start = lx.pos in
  if peek lx = '0' && (char_at lx 1 = 'x' || char_at lx 1 = 'X') then begin
    lx.pos <- lx.pos + 2;
    skip_while lx is_hex;
    if lx.pos = start + 2 then malformed lx start;
    int_literal lx start
  end
  else begin
    skip_while lx is_digit;
    if peek lx = '.' && is_digit (char_at lx 1) then begin
      lx.pos <- lx.pos + 1;
      skip_while lx is_digit;
      (match peek lx with
       | 'e' | 'E' ->
         lx.pos <- lx.pos + 1;
         (match peek lx with '+' | '-' -> lx.pos <- lx.pos + 1 | _ -> ());
         skip_while lx is_digit
       | _ -> ());
      match float_of_string (literal lx start) with
      | f -> FLOAT_LIT f
      | exception Failure _ -> malformed lx start
    end
    else int_literal lx start
  end

let lex_ident lx =
  let start = lx.pos in
  skip_while lx is_ident;
  match String.sub lx.src start (lx.pos - start) with
  | ( "int" | "char" | "float" | "void" | "struct" | "if" | "else" | "while"
    | "for" | "do" | "return" | "break" | "continue" | "sizeof" ) as s ->
    KW s
  | s -> IDENT s

let lex_char lx =
  advance lx;
  if at_end lx then error lx "unterminated char";
  let c =
    match peek lx with
    | '\\' ->
      advance lx;
      if at_end lx then error lx "unterminated char";
      let e = peek lx in
      advance lx;
      escape lx e
    | c ->
      advance lx;
      c
  in
  if peek lx <> '\'' then error lx "expected closing quote";
  advance lx;
  INT_LIT (Char.code c)

let lex_string lx =
  advance lx;
  let b = Buffer.create 16 in
  let rec go () =
    if at_end lx then error lx "unterminated string";
    match peek lx with
    | '"' -> advance lx
    | '\\' ->
      advance lx;
      if at_end lx then error lx "unterminated string";
      let e = peek lx in
      advance lx;
      Buffer.add_char b (escape lx e);
      go ()
    | c ->
      advance lx;
      Buffer.add_char b c;
      go ()
  in
  go ();
  STR_LIT (Buffer.contents b)

(* Longest-match punctuation: consume [n] characters (never a newline)
   and return the constant token [t]. *)
let take lx n t =
  lx.pos <- lx.pos + n;
  t

let lex_punct lx =
  let c1 = char_at lx 1 in
  match peek lx with
  | '<' -> (
    match c1 with
    | '<' -> if char_at lx 2 = '=' then take lx 3 (PUNCT "<<=")
      else take lx 2 (PUNCT "<<")
    | '=' -> take lx 2 (PUNCT "<=")
    | _ -> take lx 1 (PUNCT "<"))
  | '>' -> (
    match c1 with
    | '>' -> if char_at lx 2 = '=' then take lx 3 (PUNCT ">>=")
      else take lx 2 (PUNCT ">>")
    | '=' -> take lx 2 (PUNCT ">=")
    | _ -> take lx 1 (PUNCT ">"))
  | '=' -> if c1 = '=' then take lx 2 (PUNCT "==") else take lx 1 (PUNCT "=")
  | '!' -> if c1 = '=' then take lx 2 (PUNCT "!=") else take lx 1 (PUNCT "!")
  | '&' -> (
    match c1 with
    | '&' -> take lx 2 (PUNCT "&&")
    | '=' -> take lx 2 (PUNCT "&=")
    | _ -> take lx 1 (PUNCT "&"))
  | '|' -> (
    match c1 with
    | '|' -> take lx 2 (PUNCT "||")
    | '=' -> take lx 2 (PUNCT "|=")
    | _ -> take lx 1 (PUNCT "|"))
  | '+' -> (
    match c1 with
    | '+' -> take lx 2 (PUNCT "++")
    | '=' -> take lx 2 (PUNCT "+=")
    | _ -> take lx 1 (PUNCT "+"))
  | '-' -> (
    match c1 with
    | '-' -> take lx 2 (PUNCT "--")
    | '=' -> take lx 2 (PUNCT "-=")
    | '>' -> take lx 2 (PUNCT "->")
    | _ -> take lx 1 (PUNCT "-"))
  | '*' -> if c1 = '=' then take lx 2 (PUNCT "*=") else take lx 1 (PUNCT "*")
  | '/' -> if c1 = '=' then take lx 2 (PUNCT "/=") else take lx 1 (PUNCT "/")
  | '%' -> if c1 = '=' then take lx 2 (PUNCT "%=") else take lx 1 (PUNCT "%")
  | '^' -> if c1 = '=' then take lx 2 (PUNCT "^=") else take lx 1 (PUNCT "^")
  | '~' -> take lx 1 (PUNCT "~")
  | '(' -> take lx 1 (PUNCT "(")
  | ')' -> take lx 1 (PUNCT ")")
  | '{' -> take lx 1 (PUNCT "{")
  | '}' -> take lx 1 (PUNCT "}")
  | '[' -> take lx 1 (PUNCT "[")
  | ']' -> take lx 1 (PUNCT "]")
  | ';' -> take lx 1 (PUNCT ";")
  | ',' -> take lx 1 (PUNCT ",")
  | '.' -> take lx 1 (PUNCT ".")
  | '?' -> take lx 1 (PUNCT "?")
  | ':' -> take lx 1 (PUNCT ":")
  | c -> error lx (Printf.sprintf "unexpected character %C" c)

let next_token lx =
  skip_ws lx;
  lx.tok_line <- lx.line;
  if at_end lx then EOF
  else
    match peek lx with
    | c when is_digit c -> lex_number lx
    | c when is_ident_start c -> lex_ident lx
    | '\'' -> lex_char lx
    | '"' -> lex_string lx
    | _ -> lex_punct lx

let create src =
  let lx = { src; pos = 0; line = 1; tok = EOF; tok_line = 1 } in
  lx.tok <- next_token lx;
  lx

let token lx = lx.tok
let token_line lx = lx.tok_line

let junk lx = lx.tok <- next_token lx

let token_str = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> Printf.sprintf "%g" f
  | STR_LIT s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"
