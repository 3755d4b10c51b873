(** Recursive-descent parser for MiniC. *)

open Ast

exception Parse_error of int * string

type t = { lx : Lexer.t }

let error p msg =
  raise (Parse_error (Lexer.token_line p.lx, msg))

let peek p = Lexer.token p.lx
let junk p = Lexer.junk p.lx

let expect_punct p s =
  match peek p with
  | Lexer.PUNCT x when x = s -> junk p
  | t ->
    error p (Printf.sprintf "expected '%s', got '%s'" s (Lexer.token_str t))

let accept_punct p s =
  match peek p with
  | Lexer.PUNCT x when x = s ->
    junk p;
    true
  | _ -> false

let expect_ident p =
  match peek p with
  | Lexer.IDENT s ->
    junk p;
    s
  | t -> error p ("expected identifier, got '" ^ Lexer.token_str t ^ "'")

(* ---- types ----------------------------------------------------------- *)

let is_type_start p =
  match peek p with
  | Lexer.KW ("int" | "char" | "float" | "void" | "struct") -> true
  | _ -> false

(* Base type: int / char / float / void / struct S *)
let parse_base_ty p =
  match peek p with
  | Lexer.KW "int" -> junk p; Tint
  | Lexer.KW "char" -> junk p; Tchar
  | Lexer.KW "float" -> junk p; Tfloat
  | Lexer.KW "void" -> junk p; Tvoid
  | Lexer.KW "struct" ->
    junk p;
    let name = expect_ident p in
    Tstruct name
  | t -> error p ("expected type, got '" ^ Lexer.token_str t ^ "'")

let parse_stars p base =
  let t = ref base in
  while accept_punct p "*" do
    t := Tptr !t
  done;
  !t

(* Declarator: stars, name, optional [n] suffixes.  [n] may be empty only
   when an initializer supplies the size (handled by caller). *)
let parse_declarator p base =
  let t = parse_stars p base in
  let name = expect_ident p in
  let rec arrays t =
    if accept_punct p "[" then begin
      match peek p with
      | Lexer.INT_LIT n ->
        junk p;
        expect_punct p "]";
        (* inner-most suffix binds tightest: recurse first *)
        let inner = arrays t in
        Tarray (inner, n)
      | Lexer.PUNCT "]" ->
        junk p;
        let inner = arrays t in
        Tarray (inner, -1) (* size from initializer *)
      | tk -> error p ("expected array size, got '" ^ Lexer.token_str tk ^ "'")
    end
    else t
  in
  (arrays t, name)

(* Abstract type for casts/sizeof: base + stars (+ [n] suffixes). *)
let parse_abstract_ty p =
  let base = parse_base_ty p in
  parse_stars p base

(* ---- expressions ------------------------------------------------------ *)

(* Binary operator [s]'s precedence level (0 lowest, 9 highest) and
   constructor, if it is one.  Every level associates to the left. *)
let binop = function
  | "||" -> Some (0, Lor)
  | "&&" -> Some (1, Land)
  | "|" -> Some (2, Bor)
  | "^" -> Some (3, Bxor)
  | "&" -> Some (4, Band)
  | "==" -> Some (5, Eq)
  | "!=" -> Some (5, Ne)
  | "<" -> Some (6, Lt)
  | "<=" -> Some (6, Le)
  | ">" -> Some (6, Gt)
  | ">=" -> Some (6, Ge)
  | "<<" -> Some (7, Shl)
  | ">>" -> Some (7, Shr)
  | "+" -> Some (8, Add)
  | "-" -> Some (8, Sub)
  | "*" -> Some (9, Mul)
  | "/" -> Some (9, Div)
  | "%" -> Some (9, Mod)
  | _ -> None

let rec parse_expr p = parse_assign p

and parse_assign p =
  let lhs = parse_cond p in
  match peek p with
  | Lexer.PUNCT "=" ->
    junk p;
    let rhs = parse_assign p in
    Eassign (lhs, rhs)
  | Lexer.PUNCT ("+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^="
                | "<<=" | ">>=" as op) ->
    junk p;
    let rhs = parse_assign p in
    let bop =
      match op with
      | "+=" -> Add | "-=" -> Sub | "*=" -> Mul | "/=" -> Div | "%=" -> Mod
      | "&=" -> Band | "|=" -> Bor | "^=" -> Bxor
      | "<<=" -> Shl | ">>=" -> Shr
      | _ -> assert false
    in
    Eassign (lhs, Ebinop (bop, lhs, rhs))
  | _ -> lhs

and parse_cond p =
  let c = parse_binary p 0 in
  if accept_punct p "?" then begin
    let a = parse_expr p in
    expect_punct p ":";
    let b = parse_cond p in
    Econd (c, a, b)
  end
  else c

(* Precedence climbing: one operand, then each binary operator at
   [level] or above, its right operand parsed one level above the
   operator's own, so equal levels associate to the left. *)
and parse_binary p level = climb p level (parse_unary p)

and climb p level lhs =
  match peek p with
  | Lexer.PUNCT s -> (
    match binop s with
    | Some (l, op) when l >= level ->
      junk p;
      climb p level (Ebinop (op, lhs, parse_binary p (l + 1)))
    | _ -> lhs)
  | _ -> lhs

and parse_unary p =
  match peek p with
  | Lexer.PUNCT "-" ->
    junk p;
    Eunop (Neg, parse_unary p)
  | Lexer.PUNCT "!" ->
    junk p;
    Eunop (Lnot, parse_unary p)
  | Lexer.PUNCT "~" ->
    junk p;
    Eunop (Bnot, parse_unary p)
  | Lexer.PUNCT "*" ->
    junk p;
    Ederef (parse_unary p)
  | Lexer.PUNCT "&" ->
    junk p;
    Eaddr (parse_unary p)
  | Lexer.PUNCT "++" ->
    junk p;
    Eincr (Pre_inc, parse_unary p)
  | Lexer.PUNCT "--" ->
    junk p;
    Eincr (Pre_dec, parse_unary p)
  | Lexer.KW "sizeof" ->
    junk p;
    expect_punct p "(";
    let t = parse_abstract_ty p in
    expect_punct p ")";
    Esizeof t
  | Lexer.PUNCT "(" -> (
    (* cast or parenthesized expression *)
    junk p;
    if is_type_start p then begin
      let t = parse_abstract_ty p in
      expect_punct p ")";
      Ecast (t, parse_unary p)
    end
    else begin
      let e = parse_expr p in
      expect_punct p ")";
      parse_postfix p e
    end)
  | _ -> parse_postfix p (parse_primary p)

and parse_primary p =
  match peek p with
  | Lexer.INT_LIT n ->
    junk p;
    Eint n
  | Lexer.FLOAT_LIT f ->
    junk p;
    Efloat f
  | Lexer.STR_LIT s ->
    junk p;
    Estr s
  | Lexer.IDENT name -> (
    junk p;
    match peek p with
    | Lexer.PUNCT "(" ->
      junk p;
      let args = parse_args p in
      Ecall (name, args)
    | _ -> Evar name)
  | t -> error p ("unexpected token '" ^ Lexer.token_str t ^ "'")

and parse_args p =
  if accept_punct p ")" then []
  else begin
    let rec go acc =
      let e = parse_expr p in
      if accept_punct p "," then go (e :: acc)
      else begin
        expect_punct p ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_postfix p e =
  match peek p with
  | Lexer.PUNCT "[" ->
    junk p;
    let i = parse_expr p in
    expect_punct p "]";
    parse_postfix p (Eindex (e, i))
  | Lexer.PUNCT "." ->
    junk p;
    let f = expect_ident p in
    parse_postfix p (Efield (e, f))
  | Lexer.PUNCT "->" ->
    junk p;
    let f = expect_ident p in
    parse_postfix p (Earrow (e, f))
  | Lexer.PUNCT "++" ->
    junk p;
    parse_postfix p (Eincr (Post_inc, e))
  | Lexer.PUNCT "--" ->
    junk p;
    parse_postfix p (Eincr (Post_dec, e))
  | _ -> e

(* ---- statements -------------------------------------------------------- *)

let rec parse_stmt p : stmt =
  match peek p with
  | Lexer.PUNCT "{" -> Sblock (parse_block p)
  | Lexer.KW "if" ->
    junk p;
    expect_punct p "(";
    let c = parse_expr p in
    expect_punct p ")";
    let then_b = parse_stmt_as_block p in
    let else_b =
      match peek p with
      | Lexer.KW "else" ->
        junk p;
        parse_stmt_as_block p
      | _ -> []
    in
    Sif (c, then_b, else_b)
  | Lexer.KW "while" ->
    junk p;
    expect_punct p "(";
    let c = parse_expr p in
    expect_punct p ")";
    Swhile (c, parse_stmt_as_block p)
  | Lexer.KW "do" ->
    junk p;
    let body = parse_stmt_as_block p in
    (match peek p with
     | Lexer.KW "while" -> junk p
     | t -> error p ("expected while, got '" ^ Lexer.token_str t ^ "'"));
    expect_punct p "(";
    let c = parse_expr p in
    expect_punct p ")";
    expect_punct p ";";
    Sdo (body, c)
  | Lexer.KW "for" ->
    junk p;
    expect_punct p "(";
    let init =
      if accept_punct p ";" then None
      else begin
        let s =
          if is_type_start p then parse_decl_stmt p
          else Sexpr (parse_expr p)
        in
        (match s with Sdecl _ -> () | _ -> expect_punct p ";");
        Some s
      end
    in
    let cond = if accept_punct p ";" then None
      else begin
        let e = parse_expr p in
        expect_punct p ";";
        Some e
      end
    in
    let post =
      if accept_punct p ")" then None
      else begin
        let e = parse_expr p in
        expect_punct p ")";
        Some e
      end
    in
    Sfor (init, cond, post, parse_stmt_as_block p)
  | Lexer.KW "return" ->
    junk p;
    if accept_punct p ";" then Sreturn None
    else begin
      let e = parse_expr p in
      expect_punct p ";";
      Sreturn (Some e)
    end
  | Lexer.KW "break" ->
    junk p;
    expect_punct p ";";
    Sbreak
  | Lexer.KW "continue" ->
    junk p;
    expect_punct p ";";
    Scontinue
  | _ when is_type_start p -> parse_decl_stmt p
  | _ ->
    let e = parse_expr p in
    expect_punct p ";";
    Sexpr e

(* local declaration: `ty declarator (= expr)? ;` *)
and parse_decl_stmt p =
  let base = parse_base_ty p in
  let ty, name = parse_declarator p base in
  let init =
    if accept_punct p "=" then Some (parse_expr p) else None
  in
  expect_punct p ";";
  Sdecl (ty, name, init)

and parse_stmt_as_block p =
  (* Interleave a [Sline] marker so the debug map covers single-statement
     bodies as well as braced blocks. *)
  let line = Lexer.token_line p.lx in
  match parse_stmt p with Sblock b -> b | s -> [ Sline line; s ]

and parse_block p =
  expect_punct p "{";
  let rec go acc =
    if accept_punct p "}" then List.rev acc
    else begin
      let line = Lexer.token_line p.lx in
      go (parse_stmt p :: Sline line :: acc)
    end
  in
  go []

(* ---- top level ---------------------------------------------------------- *)

let parse_params p =
  expect_punct p "(";
  if accept_punct p ")" then []
  else if peek p = Lexer.KW "void" then begin
    junk p;
    expect_punct p ")";
    []
  end
  else begin
    let rec go acc =
      let base = parse_base_ty p in
      let ty, name = parse_declarator p base in
      (* array parameters decay to pointers *)
      let ty = match ty with Tarray (t, _) -> Tptr t | t -> t in
      if accept_punct p "," then go ((ty, name) :: acc)
      else begin
        expect_punct p ")";
        List.rev ((ty, name) :: acc)
      end
    in
    go []
  end

let parse_ginit p ty =
  if accept_punct p "=" then
    match peek p with
    | Lexer.STR_LIT s ->
      junk p;
      Some (Init_string s)
    | Lexer.PUNCT "{" ->
      junk p;
      let rec go acc =
        let e = parse_expr p in
        if accept_punct p "," then
          if accept_punct p "}" then List.rev (e :: acc)
          else go (e :: acc)
        else begin
          expect_punct p "}";
          List.rev (e :: acc)
        end
      in
      Some (Init_list (go []))
    | _ ->
      let e = parse_expr p in
      ignore ty;
      Some (Init_scalar e)
  else None

let parse_tunit (src : string) : tunit =
  let p = { lx = Lexer.create src } in
  let rec go acc =
    match peek p with
    | Lexer.EOF -> List.rev acc
    | Lexer.KW "struct" -> (
      (* struct definition or global of struct type: lookahead after name *)
      junk p;
      let name = expect_ident p in
      match peek p with
      | Lexer.PUNCT "{" ->
        junk p;
        let rec fields acc =
          if accept_punct p "}" then List.rev acc
          else begin
            let base = parse_base_ty p in
            let rec decls acc =
              let ty, fname = parse_declarator p base in
              if accept_punct p "," then decls ((ty, fname) :: acc)
              else begin
                expect_punct p ";";
                List.rev ((ty, fname) :: acc)
              end
            in
            fields (List.rev_append (decls []) acc)
          end
        in
        let sfields = fields [] in
        expect_punct p ";";
        go (Dstruct { sname = name; sfields } :: acc)
      | _ ->
        let ty, dname = parse_declarator p (Tstruct name) in
        if peek p = Lexer.PUNCT "(" then begin
          let params = parse_params p in
          let body = parse_block p in
          go (Dfun { fname = dname; fret = ty; fparams = params; fbody = body }
              :: acc)
        end
        else begin
          let init = parse_ginit p ty in
          expect_punct p ";";
          go (Dglobal { gname = dname; gty = ty; ginit = init } :: acc)
        end)
    | _ ->
      let base = parse_base_ty p in
      let ty, name = parse_declarator p base in
      if peek p = Lexer.PUNCT "(" then begin
        let params = parse_params p in
        let body = parse_block p in
        go (Dfun { fname = name; fret = ty; fparams = params; fbody = body }
            :: acc)
      end
      else begin
        let init = parse_ginit p ty in
        expect_punct p ";";
        go (Dglobal { gname = name; gty = ty; ginit = init } :: acc)
      end
  in
  go []
