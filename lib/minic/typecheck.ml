(** Type checker and lowering to {!Tast}.

    Besides ordinary C-subset checking, this pass decides where bounded
    pointers are *created* — the paper's instrumentation points
    (Section 3.2) — and marks them with [Bound] nodes:

    - decay of an array (local, global, or struct field) narrows to the
      array's extent (sub-object protection: the [node.str] example);
    - [&x] of a local/global/field narrows to the object's extent;
    - [&p[i]] and [&*p] keep the pointer's existing bounds (the paper's
      deliberately conservative treatment of the ambiguous [&q[3]] case);
    - string literals are bounded to their storage. *)

open Ast
open Tast

exception Type_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

type struct_layout = {
  sl_size : int;
  sl_align : int;
  sl_fields : (string * (int * ty)) list;
}

type env = {
  structs : (string, struct_layout) Hashtbl.t;
  struct_defs : (string, (ty * string) list) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;
  funcs : (string, ty * ty list) Hashtbl.t;
  mutable scopes : (string * (string * ty)) list;
      (* source name -> (unique name, ty); innermost first *)
  mutable n_locals : int;
  mutable ret_ty : ty;
  mutable addressable : (string * int) list;
  mutable in_progress : string list; (* struct layout cycle detection *)
}

(* ---- sizes and layouts ------------------------------------------------ *)

let rec sizeof env = function
  | Tvoid -> err "sizeof(void)"
  | Tint | Tfloat | Tptr _ -> 4
  | Tchar -> 1
  | Tarray (t, n) ->
    if n < 0 then err "array size not resolved" else n * sizeof env t
  | Tstruct s -> (layout env s).sl_size

and alignof env = function
  | Tvoid -> err "alignof(void)"
  | Tint | Tfloat | Tptr _ -> 4
  | Tchar -> 1
  | Tarray (t, _) -> alignof env t
  | Tstruct s -> (layout env s).sl_align

and layout env name =
  match Hashtbl.find_opt env.structs name with
  | Some l -> l
  | None ->
    if List.mem name env.in_progress then
      err "recursive struct %s (use a pointer)" name;
    let fields =
      match Hashtbl.find_opt env.struct_defs name with
      | Some f -> f
      | None -> err "undefined struct %s" name
    in
    env.in_progress <- name :: env.in_progress;
    let align = ref 1 in
    let off = ref 0 in
    let placed =
      List.map
        (fun (fty, fname) ->
          let a = alignof env fty in
          align := max !align a;
          off := (!off + a - 1) / a * a;
          let o = !off in
          off := !off + sizeof env fty;
          (fname, (o, fty)))
        fields
    in
    let size = (!off + !align - 1) / !align * !align in
    let size = max size 1 in
    env.in_progress <- List.tl env.in_progress;
    let l = { sl_size = size; sl_align = !align; sl_fields = placed } in
    Hashtbl.replace env.structs name l;
    l

let field_of env sname fname =
  match List.assoc_opt fname (layout env sname).sl_fields with
  | Some x -> x
  | None -> err "struct %s has no field %s" sname fname

(* ---- type predicates --------------------------------------------------- *)

let is_integer = function Tint | Tchar -> true | _ -> false

let is_scalar = function
  | Tint | Tchar | Tfloat | Tptr _ -> true
  | _ -> false

let rec compatible a b =
  match (a, b) with
  | Tint, Tint | Tchar, Tchar | Tfloat, Tfloat | Tvoid, Tvoid -> true
  | Tint, Tchar | Tchar, Tint -> true
  | Tptr _, Tptr _ -> true (* lax, as in pre-ANSI C; casts are no-ops *)
  | Tarray (t, n), Tarray (u, m) -> n = m && compatible t u
  | Tstruct s, Tstruct t -> s = t
  | _ -> false

(* Implicit conversion of [te] to type [want] (assignment, argument,
   return).  Follows the paper's Section 6.1 semantics: pointer<->integer
   conversions move the raw value; an integer turned into a pointer is a
   non-pointer that fails checks when dereferenced. *)
let convert env want te =
  ignore env;
  match (want, te.ty) with
  | w, t when compatible w t -> { te with ty = w }
  | Tfloat, t when is_integer t -> { desc = Float_of_int te; ty = Tfloat }
  | t, Tfloat when is_integer t -> { desc = Int_of_float te; ty = t }
  | Tptr _, t when is_integer t -> { te with ty = want }
  | t, Tptr _ when is_integer t -> { te with ty = t }
  | Tvoid, _ -> te
  | w, t -> err "cannot convert %s to %s" (ty_str t) (ty_str w)

(* ---- scopes ------------------------------------------------------------ *)

let push_scope env = env.scopes

let pop_scope env saved = env.scopes <- saved

let declare_local env name ty =
  env.n_locals <- env.n_locals + 1;
  let unique = Printf.sprintf "%s$%d" name env.n_locals in
  env.scopes <- (name, (unique, ty)) :: env.scopes;
  unique

let lookup_var env name =
  match List.assoc_opt name env.scopes with
  | Some (unique, ty) -> `Local (unique, ty)
  | None -> (
    match Hashtbl.find_opt env.globals name with
    | Some ty -> `Global ty
    | None -> err "undefined variable %s" name)

(* ---- builtins ---------------------------------------------------------- *)

(* name -> (return type of {A}rgument-0 / fixed, arg types) where Tvoid in
   arg position accepts any pointer. *)
let builtin_sigs =
  [
    ("__setbound", 2);
    ("__setbound_unsafe", 1);
    ("__register_object", 2);
    ("__unregister_object", 2);
    ("__mark_alloc", 2);
    ("__mark_free", 2);
    ("print_int", 1);
    ("print_char", 1);
    ("print_float", 1);
    ("sbrk", 1);
    ("__abort", 1);
    ("sqrtf", 1);
    ("fabsf", 1);
  ]

let is_builtin name = List.mem_assoc name builtin_sigs

(* ---- constant expressions (global initializers) ------------------------ *)

let rec const_int env e =
  match e with
  | Eint n -> n
  | Eunop (Neg, e) -> -const_int env e
  | Eunop (Bnot, e) -> lnot (const_int env e)
  | Ebinop (Add, a, b) -> const_int env a + const_int env b
  | Ebinop (Sub, a, b) -> const_int env a - const_int env b
  | Ebinop (Mul, a, b) -> const_int env a * const_int env b
  | Ebinop (Shl, a, b) -> const_int env a lsl const_int env b
  | Esizeof t -> sizeof env t
  | _ -> err "global initializer must be a constant expression"

let rec const_float env e =
  match e with
  | Efloat f -> f
  | Eint n -> float_of_int n
  | Eunop (Neg, e) -> -.const_float env e
  | _ -> err "global float initializer must be constant"

(* ---- expression checking ----------------------------------------------- *)

let is_lval_expr = function
  | Evar _ | Ederef _ | Eindex _ | Efield _ | Earrow _ -> true
  | _ -> false

(* Narrowing hint carried by lvalue paths: (delta_back, object_size) means
   the most specific enclosing object starts [delta_back] bytes before the
   lvalue's address and is [object_size] bytes long. *)
type hint = (int * int) option

let rec check_expr env (e : expr) : texpr =
  match e with
  | Eint n -> { desc = Cint n; ty = Tint }
  | Efloat f -> { desc = Cfloat f; ty = Tfloat }
  | Estr s ->
    (* a string literal is a bounded pointer to its storage *)
    {
      desc =
        Bound ({ desc = Cstr s; ty = Tptr Tchar }, String.length s + 1);
      ty = Tptr Tchar;
    }
  | Evar _ | Ederef _ | Eindex _ | Efield _ | Earrow _ ->
    let lv, _hint = check_lval env e in
    rvalue_of_lval env lv
  | Eunop (op, e1) -> (
    let t1 = check_expr env e1 in
    match op with
    | Neg ->
      if t1.ty = Tfloat then { desc = Unop (Neg, t1); ty = Tfloat }
      else if is_integer t1.ty then { desc = Unop (Neg, t1); ty = Tint }
      else err "bad operand to unary -"
    | Lnot ->
      if is_scalar t1.ty then { desc = Unop (Lnot, t1); ty = Tint }
      else err "bad operand to !"
    | Bnot ->
      if is_integer t1.ty then { desc = Unop (Bnot, t1); ty = Tint }
      else err "bad operand to ~")
  | Ebinop (op, a, b) -> check_binop env op a b
  | Eassign (l, r) ->
    let lv, _ = check_lval env l in
    let lty = lval_ty lv in
    (match lty with
     | Tarray _ | Tstruct _ ->
       err "cannot assign aggregate %s" (ty_str lty)
     | _ -> ());
    let tr = convert env lty (check_expr env r) in
    { desc = Assign (lv, tr); ty = lty }
  | Ecall (name, args) -> check_call env name args
  | Eaddr e1 -> (
    if not (is_lval_expr e1) then err "& of non-lvalue";
    let lv, hint = check_lval env e1 in
    let pty = Tptr (lval_ty lv) in
    let addr = { desc = AddrOf lv; ty = pty } in
    match hint with
    | Some (0, size) -> { desc = Bound (addr, size); ty = pty }
    | Some (delta, size) ->
      (* &a[3]: bound the pointer over the whole enclosing object *)
      let base =
        { desc = Ptr_add (addr, { desc = Cint (-delta); ty = Tint }, 1);
          ty = pty }
      in
      let bounded = { desc = Bound (base, size); ty = pty } in
      { desc = Ptr_add (bounded, { desc = Cint delta; ty = Tint }, 1);
        ty = pty }
    | None -> addr)
  | Ecast (t, e1) -> (
    let t1 = check_expr env e1 in
    match (t, t1.ty) with
    | Tfloat, ty1 when is_integer ty1 -> { desc = Float_of_int t1; ty = Tfloat }
    | (Tint | Tchar), Tfloat ->
      let conv = { desc = Int_of_float t1; ty = Tint } in
      if t = Tchar then
        { desc = Binop (Band, conv, { desc = Cint 0xFF; ty = Tint });
          ty = Tchar }
      else conv
    | Tfloat, Tfloat -> t1
    | Tchar, ty1 when is_integer ty1 ->
      { desc = Binop (Band, t1, { desc = Cint 0xFF; ty = Tint }); ty = Tchar }
    | t, _ when is_scalar t || t = Tvoid ->
      (* pointer/integer casts are no-ops: metadata flows through
         unchanged (Section 6.1) *)
      { t1 with ty = t }
    | t, _ -> err "unsupported cast to %s" (ty_str t))
  | Esizeof t -> { desc = Cint (sizeof env t); ty = Tint }
  | Econd (c, a, b) ->
    let tc = check_expr env c in
    if not (is_scalar tc.ty) then err "condition must be scalar";
    let ta = check_expr env a in
    let tb = check_expr env b in
    let ty = if ta.ty = Tvoid then Tvoid else ta.ty in
    let tb = if ty = Tvoid then tb else convert env ty tb in
    { desc = Cond (tc, ta, tb); ty }
  | Eincr (k, e1) -> (
    let lv, _ = check_lval env e1 in
    match lval_ty lv with
    | Tint | Tchar -> { desc = Incr (k, lv, 1); ty = lval_ty lv }
    | Tptr t -> { desc = Incr (k, lv, sizeof env t); ty = lval_ty lv }
    | t -> err "cannot increment %s" (ty_str t))

and rvalue_of_lval env lv =
  match lval_ty lv with
  | Tarray (elem, _) as aty ->
    (* decay: a fresh bounded pointer narrowed to the array's extent *)
    let size = sizeof env aty in
    let addr = { desc = AddrOf lv; ty = Tptr elem } in
    { desc = Bound (addr, size); ty = Tptr elem }
  | Tstruct _ -> err "struct value used directly (take a field or address)"
  | t -> { desc = Load lv; ty = t }

and check_binop env op a b =
  match op with
  | Land | Lor ->
    let ta = check_expr env a and tb = check_expr env b in
    if not (is_scalar ta.ty && is_scalar tb.ty) then err "bad &&/|| operands";
    { desc = And_or (op = Land, ta, tb); ty = Tint }
  | _ ->
    let ta = check_expr env a and tb = check_expr env b in
    let is_ptr t = match t with Tptr _ -> true | _ -> false in
    (match (op, ta.ty, tb.ty) with
     (* pointer arithmetic *)
     | Add, Tptr t, i when is_integer i ->
       { desc = Ptr_add (ta, tb, sizeof env t); ty = ta.ty }
     | Add, i, Tptr t when is_integer i ->
       { desc = Ptr_add (tb, ta, sizeof env t); ty = tb.ty }
     | Sub, Tptr t, i when is_integer i ->
       let neg = { desc = Unop (Neg, tb); ty = Tint } in
       { desc = Ptr_add (ta, neg, sizeof env t); ty = ta.ty }
     | Sub, Tptr t, Tptr _ ->
       { desc = Ptr_diff (ta, tb, sizeof env t); ty = Tint }
     (* pointer comparisons *)
     | (Eq | Ne | Lt | Le | Gt | Ge), pa, pb
       when is_ptr pa || is_ptr pb ->
       { desc = Binop (op, ta, tb); ty = Tint }
     (* float arithmetic: promote integers *)
     | _, Tfloat, _ | _, _, Tfloat ->
       let fa = convert env Tfloat ta and fb = convert env Tfloat tb in
       (match op with
        | Add | Sub | Mul | Div -> { desc = Fbinop (op, fa, fb); ty = Tfloat }
        | Lt | Le | Gt | Ge | Eq | Ne ->
          { desc = Fbinop (op, fa, fb); ty = Tint }
        | _ -> err "operator %s not defined on float" (binop_str op))
     (* integer arithmetic *)
     | _, x, y when is_integer x && is_integer y ->
       { desc = Binop (op, ta, tb); ty = Tint }
     | _, x, y ->
       err "bad operands to %s: %s, %s" (binop_str op) (ty_str x) (ty_str y))

and check_call env name args =
  let targs = List.map (check_expr env) args in
  if is_builtin name then begin
    let arity = List.assoc name builtin_sigs in
    if List.length targs <> arity then
      err "%s expects %d argument(s)" name arity;
    match (name, targs) with
    | "__setbound", [ p; n ] ->
      (match p.ty with
       | Tptr _ -> { desc = Bound_dyn (p, convert env Tint n); ty = p.ty }
       | _ -> err "__setbound expects a pointer")
    | "__setbound_unsafe", [ p ] -> { desc = Bound_unsafe p; ty = p.ty }
    | "sbrk", [ n ] ->
      { desc = Builtin ("sbrk", [ convert env Tint n ]); ty = Tptr Tchar }
    | ("sqrtf" | "fabsf"), [ f ] ->
      { desc = Builtin (name, [ convert env Tfloat f ]); ty = Tfloat }
    | "print_float", [ f ] ->
      { desc = Builtin (name, [ convert env Tfloat f ]); ty = Tvoid }
    | ("print_int" | "print_char" | "__abort"), [ n ] ->
      { desc = Builtin (name, [ convert env Tint n ]); ty = Tvoid }
    | ( ("__register_object" | "__unregister_object" | "__mark_alloc"
        | "__mark_free"),
        [ p; n ] ) ->
      { desc = Builtin (name, [ p; convert env Tint n ]); ty = Tvoid }
    | _ -> err "bad builtin call %s" name
  end
  else
    match Hashtbl.find_opt env.funcs name with
    | None -> err "undefined function %s" name
    | Some (ret, params) ->
      if List.length params <> List.length targs then
        err "%s expects %d argument(s), got %d" name (List.length params)
          (List.length targs);
      let targs = List.map2 (fun p a -> convert env p a) params targs in
      { desc = Call (name, targs); ty = ret }

(* lvalue checking: returns the lvalue and its narrowing hint *)
and check_lval env (e : expr) : tlval * hint =
  match e with
  | Evar name -> (
    match lookup_var env name with
    | `Local (unique, ty) ->
      (Lframe (unique, 0, ty), Some (0, sizeof env ty))
    | `Global ty -> (Lglob (name, 0, ty), Some (0, sizeof env ty)))
  | Ederef e1 -> (
    let te = check_expr env e1 in
    match te.ty with
    | Tptr t when t <> Tvoid -> (Lmem (te, t), None)
    | Tptr Tvoid -> err "dereference of void*"
    | t -> err "dereference of non-pointer %s" (ty_str t))
  | Efield (e1, f) -> (
    let lv, _ = check_lval env e1 in
    match lval_ty lv with
    | Tstruct s -> (
      let off, fty = field_of env s f in
      let hint = Some (0, sizeof env fty) in
      match lv with
      | Lframe (n, o, _) -> (Lframe (n, o + off, fty), hint)
      | Lglob (n, o, _) -> (Lglob (n, o + off, fty), hint)
      | Lmem (addr, _) ->
        let addr' =
          if off = 0 then { addr with ty = Tptr fty }
          else
            { desc = Ptr_add (addr, { desc = Cint off; ty = Tint }, 1);
              ty = Tptr fty }
        in
        (Lmem (addr', fty), hint))
    | t -> err "field access on non-struct %s" (ty_str t))
  | Earrow (e1, f) -> (
    let te = check_expr env e1 in
    match te.ty with
    | Tptr (Tstruct s) ->
      let off, fty = field_of env s f in
      let addr =
        if off = 0 then { te with ty = Tptr fty }
        else
          { desc = Ptr_add (te, { desc = Cint off; ty = Tint }, 1);
            ty = Tptr fty }
      in
      (Lmem (addr, fty), Some (0, sizeof env fty))
    | t -> err "-> on non-struct-pointer %s" (ty_str t))
  | Eindex (e1, idx) -> (
    let tidx = convert env Tint (check_expr env idx) in
    if is_lval_expr e1 then begin
      let lv, _ = check_lval env e1 in
      match lval_ty lv with
      | Tarray (elem, n) -> (
        let esize = sizeof env elem in
        let whole = n * esize in
        match (tidx.desc, lv) with
        | Cint i, Lframe (nm, o, _) when i >= 0 && i < n ->
          (Lframe (nm, o + (i * esize), elem), Some (i * esize, whole))
        | Cint i, Lglob (nm, o, _) when i >= 0 && i < n ->
          (Lglob (nm, o + (i * esize), elem), Some (i * esize, whole))
        | _ ->
          (* dynamic (or out-of-range constant) index: decay creates the
             bounded pointer, the access is then checked against it *)
          let base = rvalue_of_lval env lv in
          (Lmem ({ desc = Ptr_add (base, tidx, esize); ty = Tptr elem },
                 elem),
           None))
      | Tptr elem ->
        let base = { desc = Load lv; ty = Tptr elem } in
        (Lmem
           ({ desc = Ptr_add (base, tidx, sizeof env elem); ty = Tptr elem },
            elem),
         None)
      | t -> err "index on non-array %s" (ty_str t)
    end
    else
      let te = check_expr env e1 in
      match te.ty with
      | Tptr elem ->
        (Lmem
           ({ desc = Ptr_add (te, tidx, sizeof env elem); ty = Tptr elem },
            elem),
         None)
      | t -> err "index on non-pointer %s" (ty_str t))
  | _ -> err "expression is not an lvalue"

(* ---- statements --------------------------------------------------------- *)

let rec check_stmt env (s : stmt) : tstmt =
  match s with
  | Sexpr e -> Texpr (check_expr env e)
  | Sdecl (ty, name, init) ->
    (match ty with
     | Tvoid -> err "void variable %s" name
     | Tarray (_, n) when n < 0 -> err "unsized local array %s" name
     | _ -> ());
    ignore (sizeof env ty);
    let tinit =
      match init with
      | None -> None
      | Some e -> (
        match ty with
        | Tarray _ | Tstruct _ -> err "aggregate initializer for local %s" name
        | _ ->
          (* initializer is evaluated in the outer scope *)
          Some (convert env ty (check_expr env e)))
    in
    let unique = declare_local env name ty in
    (match ty with
     | Tarray _ | Tstruct _ ->
       env.addressable <- (unique, sizeof env ty) :: env.addressable
     | _ -> ());
    Tdecl (unique, ty, tinit)
  | Sif (c, a, b) ->
    let tc = check_expr env c in
    if not (is_scalar tc.ty) then err "if condition must be scalar";
    Tif (tc, check_block env a, check_block env b)
  | Swhile (c, body) ->
    let tc = check_expr env c in
    if not (is_scalar tc.ty) then err "while condition must be scalar";
    Twhile (tc, check_block env body)
  | Sdo (body, c) ->
    let tbody = check_block env body in
    let tc = check_expr env c in
    Tdo (tbody, tc)
  | Sfor (init, cond, post, body) ->
    let saved = push_scope env in
    let tinit = Option.map (check_stmt env) init in
    let tcond = Option.map (check_expr env) cond in
    let tpost = Option.map (check_expr env) post in
    let tbody = check_block env body in
    pop_scope env saved;
    Tfor (tinit, tcond, tpost, tbody)
  | Sreturn None ->
    if env.ret_ty <> Tvoid then err "return without value";
    Treturn None
  | Sreturn (Some e) ->
    if env.ret_ty = Tvoid then err "return with value in void function";
    Treturn (Some (convert env env.ret_ty (check_expr env e)))
  | Sbreak -> Tbreak
  | Scontinue -> Tcontinue
  | Sblock b -> Tblock (check_block env b)
  | Sline n -> Tline n

and check_block env stmts =
  let saved = push_scope env in
  let out = List.map (check_stmt env) stmts in
  pop_scope env saved;
  out

(* ---- globals ------------------------------------------------------------ *)

let le32 v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (v land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.to_string b

let float_bits f = Hb_isa.Types.bits_of_float f

let check_global env (g : global) : tglobal =
  (* resolve unsized arrays from their initializer *)
  let gty =
    match (g.gty, g.ginit) with
    | Tarray (t, -1), Some (Init_string s) -> Tarray (t, String.length s + 1)
    | Tarray (t, -1), Some (Init_list l) -> Tarray (t, List.length l)
    | Tarray (_, -1), _ -> err "unsized global array %s" g.gname
    | t, _ -> t
  in
  let size = sizeof env gty in
  let bytes, startup =
    match g.ginit with
    | None -> (None, None)
    | Some (Init_string s) -> (
      match gty with
      | Tarray (Tchar, n) ->
        if String.length s + 1 > n then err "initializer too long for %s" g.gname;
        (Some (s ^ String.make (n - String.length s) '\000'), None)
      | Tptr Tchar ->
        (* pointer global: becomes startup code so it gets bounds *)
        (None,
         Some
           { desc =
               Assign
                 (Lglob (g.gname, 0, gty),
                  check_expr env (Estr s));
             ty = gty })
      | t -> err "string initializer for %s of type %s" g.gname (ty_str t))
    | Some (Init_scalar e) -> (
      match gty with
      | Tint -> (Some (le32 (const_int env e)), None)
      | Tchar -> (Some (String.make 1 (Char.chr (const_int env e land 0xFF))), None)
      | Tfloat -> (Some (le32 (float_bits (const_float env e))), None)
      | Tptr _ ->
        (None,
         Some
           { desc =
               Assign (Lglob (g.gname, 0, gty), convert env gty (check_expr env e));
             ty = gty })
      | t -> err "scalar initializer for %s of type %s" g.gname (ty_str t))
    | Some (Init_list es) ->
      let elem, n =
        match gty with
        | Tarray (Tint, n) -> ((fun e -> le32 (const_int env e)), n)
        | Tarray (Tfloat, n) ->
          ((fun e -> le32 (float_bits (const_float env e))), n)
        | Tarray (Tchar, n) ->
          ((fun e -> String.make 1 (Char.chr (const_int env e land 0xFF))), n)
        | t -> err "list initializer for %s of type %s" g.gname (ty_str t)
      in
      if List.length es > n then err "initializer too long for %s" g.gname;
      (Some (String.concat "" (List.map elem es)), None)
  in
  { tg_name = g.gname; tg_ty = gty; tg_size = size; tg_bytes = bytes;
    tg_startup = startup }

(* ---- program ------------------------------------------------------------ *)

let check_fun env (f : fundef) : tfun =
  env.ret_ty <- f.fret;
  env.n_locals <- 0;
  env.scopes <- [];
  env.addressable <- [];
  let params =
    List.map
      (fun (ty, name) ->
        (match ty with
         | Tvoid -> err "void parameter %s in %s" name f.fname
         | Tstruct _ | Tarray _ ->
           err "aggregate parameter %s in %s (pass a pointer)" name f.fname
         | _ -> ());
        let unique = declare_local env name ty in
        (unique, ty))
      f.fparams
  in
  let body = check_block env f.fbody in
  {
    tf_name = f.fname;
    tf_ret = f.fret;
    tf_params = params;
    tf_body = body;
    tf_addressable_arrays = env.addressable;
  }

let check_tunit (decls : tunit) : tprogram =
  let env =
    {
      structs = Hashtbl.create 16;
      struct_defs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 64;
      scopes = [];
      n_locals = 0;
      ret_ty = Tvoid;
      addressable = [];
      in_progress = [];
    }
  in
  (* pass 1: declarations *)
  List.iter
    (fun d ->
      match d with
      | Dstruct s ->
        if Hashtbl.mem env.struct_defs s.sname then
          err "duplicate struct %s" s.sname;
        Hashtbl.replace env.struct_defs s.sname s.sfields
      | Dglobal g ->
        if Hashtbl.mem env.globals g.gname then err "duplicate global %s" g.gname;
        let gty =
          match (g.gty, g.ginit) with
          | Tarray (t, -1), Some (Init_string s) ->
            Tarray (t, String.length s + 1)
          | Tarray (t, -1), Some (Init_list l) -> Tarray (t, List.length l)
          | t, _ -> t
        in
        Hashtbl.replace env.globals g.gname gty
      | Dfun f ->
        if Hashtbl.mem env.funcs f.fname then err "duplicate function %s" f.fname;
        if is_builtin f.fname then err "%s is a builtin" f.fname;
        let params =
          List.map
            (fun (t, _) -> match t with Tarray (e, _) -> Tptr e | t -> t)
            f.fparams
        in
        Hashtbl.replace env.funcs f.fname (f.fret, params))
    decls;
  (* pass 2: bodies and global images *)
  let globals =
    List.filter_map
      (function Dglobal g -> Some (check_global env g) | _ -> None)
      decls
  in
  let funcs =
    List.filter_map
      (function Dfun f -> Some (check_fun env f) | _ -> None)
      decls
  in
  if not (Hashtbl.mem env.funcs "main") then err "no main function";
  let structs =
    Hashtbl.fold
      (fun name _ acc -> (name, (layout env name).sl_size) :: acc)
      env.struct_defs []
  in
  { tp_globals = globals; tp_funcs = funcs; tp_structs = structs }
