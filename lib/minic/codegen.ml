(** Code generation from {!Tast} to the HardBound ISA, parameterized by the
    protection scheme under evaluation:

    - [Nochecks]: the uninstrumented baseline binary.
    - [Hardbound]: the paper's full-safety compilation — the only extra
      code emitted is [setbound] at pointer-creation points ([Bound]
      nodes); checking and propagation are done by the hardware.
    - [Hardbound_malloc_only]: only [__setbound] calls (i.e. the
      instrumented allocator) lower to [setbound]; models running legacy
      binaries with an instrumented malloc (Section 3.2).
    - [Softfat]: a CCured/SEQ-style software-only fat-pointer scheme.
      Pointer-typed values are value/base/bound triples kept in registers
      and, for in-memory storage, in a disjoint software shadow space
      (layout-compatible split metadata); dereferences get explicit
      compare-and-branch checks.
    - [Objtable]: a Jones&Kelly-style object-table scheme with the
      Ruwase/Lam / Dhurjati/Adve refinements: a splay tree (written in
      MiniC, in the runtime) consulted on *dynamic* pointer arithmetic;
      constant-offset (struct field) arithmetic is statically elided.

    All modes share this generator, so relative overheads are meaningful. *)

open Hb_isa.Types
open Tast
module Layout = Hb_mem.Layout

type mode = Nochecks | Hardbound | Hardbound_malloc_only | Softfat | Objtable

let mode_name = function
  | Nochecks -> "nochecks"
  | Hardbound -> "hardbound"
  | Hardbound_malloc_only -> "hardbound-malloc-only"
  | Softfat -> "softfat"
  | Objtable -> "objtable"

let mode_of_name = function
  | "nochecks" | "none" -> Some Nochecks
  | "hardbound" | "full" -> Some Hardbound
  | "hardbound-malloc-only" | "malloc-only" -> Some Hardbound_malloc_only
  | "softfat" | "ccured" -> Some Softfat
  | "objtable" | "jk" -> Some Objtable
  | _ -> None

(** Machine enforcement mode matching a compilation mode. *)
let machine_mode = function
  | Hardbound -> Hardbound.Checker.Full
  | Hardbound_malloc_only -> Hardbound.Checker.Malloc_only
  | Nochecks | Softfat | Objtable -> Hardbound.Checker.Off

exception Codegen_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

(* Softfat register convention: accumulator metadata. *)
let sb0 = 16 (* base of the pointer in t0 *)
let sb1 = 17 (* bound of the pointer in t0 *)
let sb2 = 18 (* base of the pointer in t1/t2 *)
let sb3 = 19 (* bound of the pointer in t1/t2 *)

type slot = Local of int | Param of int

type ctx = {
  mode : mode;
  mutable code : instr list; (* reversed *)
  mutable label_id : int;
  slots : (string, slot * Ast.ty) Hashtbl.t;
  frame_size : int;
  globals : (string, int * Ast.ty) Hashtbl.t; (* name -> offset, ty *)
  strings : (string, int) Hashtbl.t;          (* literal -> offset *)
  sizeof : Ast.ty -> int;
  mutable break_lbl : string list;
  mutable cont_lbl : string list;
  fname : string;
  mutable sf_abort_used : bool;
  trusted : bool; (* runtime internals: no object-table instrumentation *)
}

let emit ctx i = ctx.code <- i :: ctx.code

let new_label ctx prefix =
  ctx.label_id <- ctx.label_id + 1;
  Printf.sprintf "%s_%d" prefix ctx.label_id

let is_ptr = function Ast.Tptr _ -> true | _ -> false

let width_of ctx ty =
  match ty with
  | Ast.Tchar -> W1
  | Ast.Tint | Ast.Tfloat | Ast.Tptr _ -> W4
  | t -> err "%s: load/store of aggregate %s" ctx.fname (Ast.ty_str t)

(* ---- softfat helpers -------------------------------------------------- *)

let sf_on ctx = ctx.mode = Softfat

(* t3 <- software shadow address of the data address in [addr_reg]. *)
let sf_shadow ctx addr_reg =
  emit ctx (Li (t3, Layout.shadow_base));
  emit ctx (Alu (Add, t3, t3, Reg addr_reg));
  emit ctx (Alu (Add, t3, t3, Reg addr_reg))

let sf_abort_label ctx = "__sf_abort_" ^ ctx.fname

(* Explicit software bounds check of the pointer in (reg, breg, bdreg)
   before an access of [width] bytes. *)
let sf_check ctx ~value_reg ~base_reg ~bound_reg ~width =
  ctx.sf_abort_used <- true;
  emit ctx (Alu (Sltu, t4, value_reg, Reg base_reg));
  emit ctx (Branch (Ne, t4, zero, sf_abort_label ctx));
  emit ctx (Alu (Add, t5, value_reg, Imm width));
  emit ctx (Alu (Sltu, t4, bound_reg, Reg t5));
  emit ctx (Branch (Ne, t4, zero, sf_abort_label ctx))

(* Software narrowing: intersect the accumulator triple with
   [t0, t0+size).  A non-pointer source (sb0 = sb1 = 0) gets the fresh
   bounds outright, mirroring setbound.narrow's hardware semantics. *)
let sf_narrow ctx size =
  let lbl_int = new_label ctx "nar_int" in
  let lbl_done = new_label ctx "nar_done" in
  let lbl_hi = new_label ctx "nar_hi" in
  emit ctx (Branch (Ne, sb0, zero, lbl_int));
  emit ctx (Branch (Ne, sb1, zero, lbl_int));
  emit ctx (Mov (sb0, t0));
  emit ctx (Alu (Add, sb1, t0, Imm size));
  emit ctx (Jmp lbl_done);
  emit ctx (Label lbl_int);
  (* sb0 = max(sb0, t0) *)
  emit ctx (Alu (Sltu, t4, sb0, Reg t0));
  emit ctx (Branch (Eq, t4, zero, lbl_hi));
  emit ctx (Mov (sb0, t0));
  emit ctx (Label lbl_hi);
  (* sb1 = min(sb1, t0 + size) *)
  emit ctx (Alu (Add, t5, t0, Imm size));
  emit ctx (Alu (Sltu, t4, t5, Reg sb1));
  emit ctx (Branch (Eq, t4, zero, lbl_done));
  emit ctx (Mov (sb1, t5));
  emit ctx (Label lbl_done)

(* ---- value stack ------------------------------------------------------- *)

(* Push the accumulator (t0, and its softfat metadata if [ptr]). *)
let push ctx ~ptr =
  if sf_on ctx && ptr then begin
    emit ctx (Alu (Sub, sp, sp, Imm 12));
    emit ctx (Store { src = t0; base = sp; off = 0; width = W4 });
    emit ctx (Store { src = sb0; base = sp; off = 4; width = W4 });
    emit ctx (Store { src = sb1; base = sp; off = 8; width = W4 })
  end
  else begin
    emit ctx (Alu (Sub, sp, sp, Imm 4));
    emit ctx (Store { src = t0; base = sp; off = 0; width = W4 })
  end

(* Pop into [t1] (metadata into sb2/sb3). *)
let pop_t1 ctx ~ptr =
  if sf_on ctx && ptr then begin
    emit ctx (Load { dst = t1; base = sp; off = 0; width = W4; signed = true });
    emit ctx (Load { dst = sb2; base = sp; off = 4; width = W4; signed = true });
    emit ctx (Load { dst = sb3; base = sp; off = 8; width = W4; signed = true });
    emit ctx (Alu (Add, sp, sp, Imm 12))
  end
  else begin
    emit ctx (Load { dst = t1; base = sp; off = 0; width = W4; signed = true });
    emit ctx (Alu (Add, sp, sp, Imm 4))
  end

(* ---- lvalue addressing ------------------------------------------------- *)

let slot_offset ctx name =
  match Hashtbl.find_opt ctx.slots name with
  | Some (Local off, ty) -> (off, ty)
  | Some (Param i, ty) -> (ctx.frame_size + 8 + (4 * i), ty)
  | None -> err "%s: unknown local %s" ctx.fname name

let global_offset ctx name =
  match Hashtbl.find_opt ctx.globals name with
  | Some (off, ty) -> (off, ty)
  | None -> err "%s: unknown global %s" ctx.fname name

(* ---- expressions ------------------------------------------------------- *)

(* Evaluate [te] into t0.  In Softfat mode, guarantee that sb0/sb1 hold the
   metadata whenever [te.ty] is a pointer; [eval_desc] reports whether it
   already established them. *)
let rec eval ctx (te : texpr) : unit =
  let meta_ok = eval_desc ctx te in
  if sf_on ctx && is_ptr te.ty && not meta_ok then begin
    emit ctx (Li (sb0, 0));
    emit ctx (Li (sb1, 0))
  end

and eval_desc ctx (te : texpr) : bool =
  match te.desc with
  | Cint n ->
    emit ctx (Li (t0, n));
    false
  | Cfloat f ->
    emit ctx (Li (t0, bits_of_float f));
    false
  | Cstr s -> (
    match Hashtbl.find_opt ctx.strings s with
    | Some off ->
      emit ctx (Li (t0, Layout.globals_base + off));
      false
    | None -> err "%s: unknown string literal" ctx.fname)
  | Load lv -> gen_load ctx lv
  | AddrOf lv -> gen_addr ctx lv
  | Bound (e, size) ->
    (* Compiler-inserted narrowing: only emitted under full compiler
       instrumentation.  The malloc-only mode leaves these out — that is
       precisely what makes it binary-compatible with legacy code.
       Narrowing INTERSECTS with the source pointer's bounds, so a struct
       cast to a larger type cannot manufacture access (Section 1's cast
       example). *)
    eval ctx e;
    (match ctx.mode with
     | Hardbound ->
       emit ctx (Setbound_narrow { dst = t0; src = t0; size = Imm size })
     | Softfat -> sf_narrow ctx size
     | Nochecks | Objtable | Hardbound_malloc_only -> ());
    true
  | Bound_dyn (p, n) ->
    eval ctx n;
    push ctx ~ptr:false;
    eval ctx p;
    pop_t1 ctx ~ptr:false;
    (match ctx.mode with
     | Hardbound | Hardbound_malloc_only ->
       emit ctx (Setbound { dst = t0; src = t0; size = Reg t1 })
     | Softfat ->
       emit ctx (Mov (sb0, t0));
       emit ctx (Alu (Add, sb1, t0, Reg t1))
     | Nochecks | Objtable -> ());
    true
  | Bound_unsafe p ->
    eval ctx p;
    (match ctx.mode with
     | Hardbound | Hardbound_malloc_only ->
       emit ctx (Setbound_unsafe (t0, t0))
     | Softfat ->
       emit ctx (Li (sb0, 0));
       emit ctx (Li (sb1, max_int32u))
     | Nochecks | Objtable -> ());
    true
  | Unop (op, e) ->
    eval ctx e;
    (match op with
     | Ast.Neg ->
       if e.ty = Ast.Tfloat then emit ctx (Fneg (t0, t0))
       else emit ctx (Alu (Sub, t0, zero, Reg t0))
     | Ast.Lnot -> emit ctx (Alu (Seq, t0, t0, Reg zero))
     | Ast.Bnot -> emit ctx (Alu (Xor, t0, t0, Imm (-1))));
    false
  | Binop (op, a, b) ->
    gen_int_binop ctx op a b;
    false
  | Fbinop (op, a, b) ->
    gen_float_binop ctx op a b;
    false
  | Ptr_add (p, i, scale) -> gen_ptr_add ctx p i scale
  | Ptr_diff (p, q, scale) ->
    eval ctx p;
    push ctx ~ptr:false; (* only the raw values are needed *)
    eval ctx q;
    emit ctx (Mov (t1, t0));
    emit ctx (Load { dst = t0; base = sp; off = 0; width = W4; signed = true });
    emit ctx (Alu (Add, sp, sp, Imm 4));
    emit ctx (Alu (Sub, t0, t0, Reg t1));
    if scale > 1 then emit ctx (Alu (Div, t0, t0, Imm scale));
    false
  | Assign (lv, rhs) -> gen_assign ctx lv rhs
  | Call (fname, args) -> gen_call ctx fname args (is_ptr te.ty)
  | Builtin (name, args) -> gen_builtin ctx name args
  | Cond (c, a, b) ->
    let lbl_else = new_label ctx "cond_else" in
    let lbl_end = new_label ctx "cond_end" in
    eval ctx c;
    emit ctx (Branch (Eq, t0, zero, lbl_else));
    eval ctx a;
    emit ctx (Jmp lbl_end);
    emit ctx (Label lbl_else);
    eval ctx b;
    emit ctx (Label lbl_end);
    true (* both branches established metadata through eval *)
  | And_or (is_and, a, b) ->
    let lbl_short = new_label ctx "sc" in
    let lbl_end = new_label ctx "sc_end" in
    eval ctx a;
    if is_and then emit ctx (Branch (Eq, t0, zero, lbl_short))
    else emit ctx (Branch (Ne, t0, zero, lbl_short));
    eval ctx b;
    emit ctx (Alu (Sne, t0, t0, Reg zero));
    emit ctx (Jmp lbl_end);
    emit ctx (Label lbl_short);
    emit ctx (Li (t0, if is_and then 0 else 1));
    emit ctx (Label lbl_end);
    false
  | Int_of_float e ->
    eval ctx e;
    emit ctx (Cvt_i_of_f (t0, t0));
    false
  | Float_of_int e ->
    eval ctx e;
    emit ctx (Cvt_f_of_i (t0, t0));
    false
  | Incr (kind, lv, step) -> gen_incr ctx kind lv step
  | Seq (a, b) ->
    eval ctx a;
    eval ctx b;
    true

(* Load a scalar lvalue into t0.  Returns true if softfat metadata was
   established. *)
and gen_load ctx lv =
  let ty = lval_ty lv in
  let width = width_of ctx ty in
  match lv with
  | Lframe (name, extra, _) ->
    let off, _ = slot_offset ctx name in
    gen_direct_load ctx fp (off + extra) width ty
  | Lglob (name, extra, _) ->
    let off, _ = global_offset ctx name in
    gen_direct_load ctx gp (off + extra) width ty
  | Lmem (addr, _) ->
    eval ctx addr;
    (* pointer to deref is in t0 (softfat meta in sb0/sb1) *)
    if sf_on ctx then
      sf_check ctx ~value_reg:t0 ~base_reg:sb0 ~bound_reg:sb1
        ~width:(bytes_of_width width);
    if sf_on ctx && is_ptr ty then begin
      (* split loads: value plus software shadow metadata *)
      emit ctx (Mov (t2, t0));
      emit ctx (Load { dst = t0; base = t2; off = 0; width; signed = false });
      sf_shadow ctx t2;
      emit ctx (Load { dst = sb0; base = t3; off = 0; width = W4; signed = true });
      emit ctx (Load { dst = sb1; base = t3; off = 4; width = W4; signed = true });
      true
    end
    else begin
      emit ctx (Load { dst = t0; base = t0; off = 0; width; signed = false });
      false
    end

and gen_direct_load ctx basereg off width ty =
  if sf_on ctx && is_ptr ty then begin
    emit ctx (Load { dst = t0; base = basereg; off; width; signed = false });
    emit ctx (Alu (Add, t2, basereg, Imm off));
    sf_shadow ctx t2;
    emit ctx (Load { dst = sb0; base = t3; off = 0; width = W4; signed = true });
    emit ctx (Load { dst = sb1; base = t3; off = 4; width = W4; signed = true });
    true
  end
  else begin
    emit ctx (Load { dst = t0; base = basereg; off; width; signed = false });
    false
  end

(* Address of an lvalue into t0 (inheriting region bounds; narrowing is the
   typechecker's job via Bound nodes). *)
and gen_addr ctx lv =
  match lv with
  | Lframe (name, extra, _) ->
    let off, _ = slot_offset ctx name in
    emit ctx (Alu (Add, t0, fp, Imm (off + extra)));
    if sf_on ctx then begin
      emit ctx (Li (sb0, Layout.stack_base));
      emit ctx (Li (sb1, Layout.stack_top))
    end;
    true
  | Lglob (name, extra, _) ->
    let off, _ = global_offset ctx name in
    emit ctx (Alu (Add, t0, gp, Imm (off + extra)));
    if sf_on ctx then begin
      emit ctx (Li (sb0, Layout.globals_base));
      emit ctx (Li (sb1, Layout.globals_limit))
    end;
    true
  | Lmem (addr, _) ->
    eval ctx addr;
    true

and gen_int_binop ctx op a b =
  let alu_of = function
    | Ast.Add -> Add | Ast.Sub -> Sub | Ast.Mul -> Mul | Ast.Div -> Div
    | Ast.Mod -> Rem | Ast.Shl -> Shl | Ast.Shr -> Sar
    | Ast.Band -> And | Ast.Bor -> Or | Ast.Bxor -> Xor
    | Ast.Lt -> Slt | Ast.Le -> Sle | Ast.Gt -> Sgt | Ast.Ge -> Sge
    | Ast.Eq -> Seq | Ast.Ne -> Sne
    | Ast.Land | Ast.Lor -> err "%s: &&/|| in binop" ctx.fname
  in
  match b.desc with
  | Cint n ->
    eval ctx a;
    emit ctx (Alu (alu_of op, t0, t0, Imm n))
  | _ ->
    eval ctx a;
    push ctx ~ptr:false;
    eval ctx b;
    emit ctx (Mov (t1, t0));
    emit ctx (Load { dst = t0; base = sp; off = 0; width = W4; signed = true });
    emit ctx (Alu (Add, sp, sp, Imm 4));
    emit ctx (Alu (alu_of op, t0, t0, Reg t1))

and gen_float_binop ctx op a b =
  eval ctx a;
  push ctx ~ptr:false;
  eval ctx b;
  emit ctx (Mov (t1, t0));
  emit ctx (Load { dst = t0; base = sp; off = 0; width = W4; signed = true });
  emit ctx (Alu (Add, sp, sp, Imm 4));
  match op with
  | Ast.Add -> emit ctx (Falu (Fadd, t0, t0, t1))
  | Ast.Sub -> emit ctx (Falu (Fsub, t0, t0, t1))
  | Ast.Mul -> emit ctx (Falu (Fmul, t0, t0, t1))
  | Ast.Div -> emit ctx (Falu (Fdiv, t0, t0, t1))
  | Ast.Lt -> emit ctx (Falu (Fslt, t0, t0, t1))
  | Ast.Le -> emit ctx (Falu (Fsle, t0, t0, t1))
  | Ast.Gt -> emit ctx (Falu (Fslt, t0, t1, t0))
  | Ast.Ge -> emit ctx (Falu (Fsle, t0, t1, t0))
  | Ast.Eq -> emit ctx (Falu (Feq, t0, t0, t1))
  | Ast.Ne ->
    emit ctx (Falu (Feq, t0, t0, t1));
    emit ctx (Alu (Seq, t0, t0, Reg zero))
  | op -> err "%s: float operator %s" ctx.fname (Ast.binop_str op)

(* Pointer arithmetic: result = p + i*scale.  Under Objtable, dynamic
   arithmetic consults the object table ([__ot_check_arith]); constant
   offsets (struct fields) are statically elided, as in Dhurjati/Adve. *)
and gen_ptr_add ctx p i scale =
  let instrument =
    ctx.mode = Objtable && (not ctx.trusted)
    && (match i.desc with Cint _ -> false | _ -> true)
  in
  match i.desc with
  | Cint n when not instrument ->
    eval ctx p;
    emit ctx (Alu (Add, t0, t0, Imm (n * scale)));
    sf_on ctx && is_ptr p.ty
  | _ ->
    eval ctx p;
    push ctx ~ptr:(is_ptr p.ty);
    eval ctx i;
    if scale <> 1 then emit ctx (Alu (Mul, t0, t0, Imm scale));
    emit ctx (Mov (t1, t0));
    (* restore p into t0 (meta into sb0/sb1 under softfat) *)
    (if sf_on ctx && is_ptr p.ty then begin
       emit ctx (Load { dst = t0; base = sp; off = 0; width = W4; signed = true });
       emit ctx (Load { dst = sb0; base = sp; off = 4; width = W4; signed = true });
       emit ctx (Load { dst = sb1; base = sp; off = 8; width = W4; signed = true });
       emit ctx (Alu (Add, sp, sp, Imm 12))
     end
     else begin
       emit ctx (Load { dst = t0; base = sp; off = 0; width = W4; signed = true });
       emit ctx (Alu (Add, sp, sp, Imm 4))
     end);
    if instrument then begin
      (* new = __ot_check_arith(old, old + i*scale) *)
      emit ctx (Alu (Add, t1, t0, Reg t1));
      emit ctx (Alu (Sub, sp, sp, Imm 8));
      emit ctx (Store { src = t0; base = sp; off = 0; width = W4 });
      emit ctx (Store { src = t1; base = sp; off = 4; width = W4 });
      emit ctx (Call "__ot_check_arith");
      emit ctx (Alu (Add, sp, sp, Imm 8));
      emit ctx (Mov (t0, a0))
    end
    else emit ctx (Alu (Add, t0, t0, Reg t1));
    sf_on ctx && is_ptr p.ty

and gen_assign ctx lv rhs =
  let ty = lval_ty lv in
  let width = width_of ctx ty in
  match lv with
  | Lframe (name, extra, _) ->
    let off, _ = slot_offset ctx name in
    eval ctx rhs;
    gen_direct_store ctx fp (off + extra) width ty
  | Lglob (name, extra, _) ->
    let off, _ = global_offset ctx name in
    eval ctx rhs;
    gen_direct_store ctx gp (off + extra) width ty
  | Lmem (addr, _) ->
    eval ctx rhs;
    push ctx ~ptr:(sf_on ctx && is_ptr ty);
    eval ctx addr;
    emit ctx (Mov (t2, t0));
    (if sf_on ctx then begin
       (* keep the target pointer's metadata for the check *)
       emit ctx (Mov (sb2, sb0));
       emit ctx (Mov (sb3, sb1))
     end);
    (* restore rhs into t0/sb0/sb1 *)
    (if sf_on ctx && is_ptr ty then begin
       emit ctx (Load { dst = t0; base = sp; off = 0; width = W4; signed = true });
       emit ctx (Load { dst = sb0; base = sp; off = 4; width = W4; signed = true });
       emit ctx (Load { dst = sb1; base = sp; off = 8; width = W4; signed = true });
       emit ctx (Alu (Add, sp, sp, Imm 12))
     end
     else begin
       emit ctx (Load { dst = t0; base = sp; off = 0; width = W4; signed = true });
       emit ctx (Alu (Add, sp, sp, Imm 4))
     end);
    if sf_on ctx then
      sf_check ctx ~value_reg:t2 ~base_reg:sb2 ~bound_reg:sb3
        ~width:(bytes_of_width width);
    emit ctx (Store { src = t0; base = t2; off = 0; width });
    if sf_on ctx && is_ptr ty then begin
      sf_shadow ctx t2;
      emit ctx (Store { src = sb0; base = t3; off = 0; width = W4 });
      emit ctx (Store { src = sb1; base = t3; off = 4; width = W4 })
    end;
    sf_on ctx && is_ptr ty

and gen_direct_store ctx basereg off width ty =
  emit ctx (Store { src = t0; base = basereg; off; width });
  if sf_on ctx && is_ptr ty then begin
    emit ctx (Alu (Add, t2, basereg, Imm off));
    sf_shadow ctx t2;
    emit ctx (Store { src = sb0; base = t3; off = 0; width = W4 });
    emit ctx (Store { src = sb1; base = t3; off = 4; width = W4 });
    true
  end
  else false

and gen_call ctx fname args ret_is_ptr =
  let n = List.length args in
  let area = 4 * n in
  if n > 0 then emit ctx (Alu (Sub, sp, sp, Imm area));
  List.iteri
    (fun idx arg ->
      eval ctx arg;
      emit ctx (Store { src = t0; base = sp; off = 4 * idx; width = W4 });
      if sf_on ctx && is_ptr arg.ty then begin
        emit ctx (Alu (Add, t2, sp, Imm (4 * idx)));
        sf_shadow ctx t2;
        emit ctx (Store { src = sb0; base = t3; off = 0; width = W4 });
        emit ctx (Store { src = sb1; base = t3; off = 4; width = W4 })
      end)
    args;
  emit ctx (Call fname);
  if n > 0 then emit ctx (Alu (Add, sp, sp, Imm area));
  emit ctx (Mov (t0, a0));
  (* softfat pointer returns leave metadata in sb0/sb1 by convention *)
  sf_on ctx && ret_is_ptr

and gen_builtin ctx name args =
  match (name, args) with
  | ("print_int" | "print_char" | "__abort"), [ e ] ->
    eval ctx e;
    emit ctx (Mov (a0, t0));
    emit ctx
      (Syscall
         (match name with
          | "print_int" -> Sys_print_int
          | "print_char" -> Sys_print_char
          | _ -> Sys_abort));
    false
  | "print_float", [ e ] ->
    eval ctx e;
    emit ctx (Mov (a0, t0));
    emit ctx (Syscall Sys_print_float);
    false
  | "sbrk", [ e ] ->
    eval ctx e;
    emit ctx (Mov (a0, t0));
    emit ctx (Syscall Sys_sbrk);
    emit ctx (Mov (t0, a0));
    false
  | "sqrtf", [ e ] ->
    eval ctx e;
    emit ctx (Fsqrt (t0, t0));
    false
  | "fabsf", [ e ] ->
    let skip = new_label ctx "fabs" in
    eval ctx e;
    emit ctx (Falu (Fslt, t4, t0, zero));
    emit ctx (Branch (Eq, t4, zero, skip));
    emit ctx (Fneg (t0, t0));
    emit ctx (Label skip);
    false
  | ("__mark_alloc" | "__mark_free"), [ p; n ] ->
    eval ctx p;
    push ctx ~ptr:false;
    eval ctx n;
    emit ctx (Mov (a1, t0));
    emit ctx (Load { dst = a0; base = sp; off = 0; width = W4; signed = true });
    emit ctx (Alu (Add, sp, sp, Imm 4));
    emit ctx
      (Syscall
         (if name = "__mark_alloc" then Sys_mark_alloc else Sys_mark_free));
    false
  | "__register_object", [ p; n ] ->
    if ctx.mode = Objtable then ignore (gen_call ctx "__ot_insert" [ p; n ] false)
    else begin
      (* evaluate for side effects only *)
      eval ctx p;
      eval ctx n
    end;
    false
  | "__unregister_object", [ p; n ] ->
    if ctx.mode = Objtable then ignore (gen_call ctx "__ot_remove" [ p; n ] false)
    else begin
      eval ctx p;
      eval ctx n
    end;
    false
  | _ -> err "%s: unknown builtin %s/%d" ctx.fname name (List.length args)

and gen_incr ctx kind lv step =
  let ty = lval_ty lv in
  let width = width_of ctx ty in
  let ptr = is_ptr ty in
  let delta =
    match kind with
    | Ast.Pre_inc | Ast.Post_inc -> step
    | Ast.Pre_dec | Ast.Post_dec -> -step
  in
  let is_post =
    match kind with Ast.Post_inc | Ast.Post_dec -> true | _ -> false
  in
  (* Under Objtable, p++ is pointer arithmetic: consult the object table.
     The call clobbers scratch registers; old value and (for Lmem) the slot
     address are saved on the stack around it. *)
  let check_arith ~addr_in_t2 =
    if ctx.mode = Objtable && ptr && not ctx.trusted then begin
      emit ctx (Alu (Sub, sp, sp, Imm 16));
      emit ctx (Store { src = t0; base = sp; off = 0; width = W4 });
      emit ctx (Store { src = t1; base = sp; off = 4; width = W4 });
      emit ctx (Store { src = t0; base = sp; off = 8; width = W4 });
      if addr_in_t2 then
        emit ctx (Store { src = t2; base = sp; off = 12; width = W4 });
      emit ctx (Call "__ot_check_arith");
      emit ctx (Load { dst = t0; base = sp; off = 8; width = W4; signed = true });
      if addr_in_t2 then
        emit ctx
          (Load { dst = t2; base = sp; off = 12; width = W4; signed = true });
      emit ctx (Alu (Add, sp, sp, Imm 16));
      emit ctx (Mov (t1, a0))
    end
  in
  match lv with
  | Lframe (name, extra, _) | Lglob (name, extra, _) ->
    let basereg, off =
      match lv with
      | Lframe _ ->
        let o, _ = slot_offset ctx name in
        (fp, o + extra)
      | _ ->
        let o, _ = global_offset ctx name in
        (gp, o + extra)
    in
    let meta_ok = gen_direct_load ctx basereg off width ty in
    emit ctx (Alu (Add, t1, t0, Imm delta));
    check_arith ~addr_in_t2:false;
    emit ctx (Store { src = t1; base = basereg; off; width });
    (* softfat: metadata in the slot's shadow is unchanged by the
       increment, and sb0/sb1 already hold it after the load *)
    if not is_post then emit ctx (Mov (t0, t1));
    meta_ok
  | Lmem (addr, _) ->
    eval ctx addr;
    emit ctx (Mov (t2, t0));
    (if sf_on ctx then begin
       emit ctx (Mov (sb2, sb0));
       emit ctx (Mov (sb3, sb1));
       sf_check ctx ~value_reg:t2 ~base_reg:sb2 ~bound_reg:sb3
         ~width:(bytes_of_width width)
     end);
    emit ctx (Load { dst = t0; base = t2; off = 0; width; signed = false });
    (if sf_on ctx && ptr then begin
       sf_shadow ctx t2;
       emit ctx (Load { dst = sb0; base = t3; off = 0; width = W4; signed = true });
       emit ctx (Load { dst = sb1; base = t3; off = 4; width = W4; signed = true })
     end);
    emit ctx (Alu (Add, t1, t0, Imm delta));
    check_arith ~addr_in_t2:true;
    emit ctx (Store { src = t1; base = t2; off = 0; width });
    if not is_post then emit ctx (Mov (t0, t1));
    sf_on ctx && ptr

(* ---- statements -------------------------------------------------------- *)

let rec gen_stmt ctx (s : tstmt) =
  match s with
  | Texpr e -> eval ctx e
  | Tdecl (name, ty, init) -> (
    match init with
    | None -> ()
    | Some e ->
      let off, _ = slot_offset ctx name in
      eval ctx e;
      ignore (gen_direct_store ctx fp off (width_of ctx ty) ty))
  | Tif (c, a, b) ->
    let lbl_else = new_label ctx "else" in
    let lbl_end = new_label ctx "endif" in
    eval ctx c;
    emit ctx (Branch (Eq, t0, zero, lbl_else));
    List.iter (gen_stmt ctx) a;
    emit ctx (Jmp lbl_end);
    emit ctx (Label lbl_else);
    List.iter (gen_stmt ctx) b;
    emit ctx (Label lbl_end)
  | Twhile (c, body) ->
    let lbl_cond = new_label ctx "while_cond" in
    let lbl_end = new_label ctx "while_end" in
    emit ctx (Label lbl_cond);
    eval ctx c;
    emit ctx (Branch (Eq, t0, zero, lbl_end));
    ctx.break_lbl <- lbl_end :: ctx.break_lbl;
    ctx.cont_lbl <- lbl_cond :: ctx.cont_lbl;
    List.iter (gen_stmt ctx) body;
    ctx.break_lbl <- List.tl ctx.break_lbl;
    ctx.cont_lbl <- List.tl ctx.cont_lbl;
    emit ctx (Jmp lbl_cond);
    emit ctx (Label lbl_end)
  | Tdo (body, c) ->
    let lbl_body = new_label ctx "do_body" in
    let lbl_cond = new_label ctx "do_cond" in
    let lbl_end = new_label ctx "do_end" in
    emit ctx (Label lbl_body);
    ctx.break_lbl <- lbl_end :: ctx.break_lbl;
    ctx.cont_lbl <- lbl_cond :: ctx.cont_lbl;
    List.iter (gen_stmt ctx) body;
    ctx.break_lbl <- List.tl ctx.break_lbl;
    ctx.cont_lbl <- List.tl ctx.cont_lbl;
    emit ctx (Label lbl_cond);
    eval ctx c;
    emit ctx (Branch (Ne, t0, zero, lbl_body));
    emit ctx (Label lbl_end)
  | Tfor (init, cond, post, body) ->
    let lbl_cond = new_label ctx "for_cond" in
    let lbl_cont = new_label ctx "for_cont" in
    let lbl_end = new_label ctx "for_end" in
    (match init with Some s -> gen_stmt ctx s | None -> ());
    emit ctx (Label lbl_cond);
    (match cond with
     | Some c ->
       eval ctx c;
       emit ctx (Branch (Eq, t0, zero, lbl_end))
     | None -> ());
    ctx.break_lbl <- lbl_end :: ctx.break_lbl;
    ctx.cont_lbl <- lbl_cont :: ctx.cont_lbl;
    List.iter (gen_stmt ctx) body;
    ctx.break_lbl <- List.tl ctx.break_lbl;
    ctx.cont_lbl <- List.tl ctx.cont_lbl;
    emit ctx (Label lbl_cont);
    (match post with Some p -> eval ctx p | None -> ());
    emit ctx (Jmp lbl_cond);
    emit ctx (Label lbl_end)
  | Treturn e ->
    (match e with
     | Some e ->
       eval ctx e;
       emit ctx (Mov (a0, t0))
       (* softfat pointer-return metadata stays in sb0/sb1 by convention *)
     | None -> ());
    emit ctx (Jmp ("__ret_" ^ ctx.fname))
  | Tbreak -> (
    match ctx.break_lbl with
    | l :: _ -> emit ctx (Jmp l)
    | [] -> err "%s: break outside loop" ctx.fname)
  | Tcontinue -> (
    match ctx.cont_lbl with
    | l :: _ -> emit ctx (Jmp l)
    | [] -> err "%s: continue outside loop" ctx.fname)
  | Tblock b -> List.iter (gen_stmt ctx) b
  | Tline n -> emit ctx (Line n)

(* ---- functions --------------------------------------------------------- *)

(* Runtime internals that must not be instrumented by the object-table
   scheme (they implement it, or are the trusted allocator). *)
let trusted_for_objtable name =
  let prefix p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  prefix "__ot_" || name = "malloc" || name = "free"

(* Collect every local declaration in a body (names are unique). *)
let rec collect_decls acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Tdecl (name, ty, _) -> (name, ty) :: acc
      | Tif (_, a, b) -> collect_decls (collect_decls acc a) b
      | Twhile (_, b) | Tdo (b, _) -> collect_decls acc b
      | Tfor (i, _, _, b) ->
        let acc = match i with Some s -> collect_decls acc [ s ] | None -> acc in
        collect_decls acc b
      | Tblock b -> collect_decls acc b
      | Texpr _ | Treturn _ | Tbreak | Tcontinue | Tline _ -> acc)
    acc stmts

let gen_fun ~mode ~globals ~strings ~sizeof (f : tfun) : func =
  let slots = Hashtbl.create 16 in
  List.iteri
    (fun i (name, ty) -> Hashtbl.replace slots name (Param i, ty))
    f.tf_params;
  let frame = ref 0 in
  List.iter
    (fun (name, ty) ->
      let size = (sizeof ty + 3) land lnot 3 in
      Hashtbl.replace slots name (Local !frame, ty);
      frame := !frame + size)
    (List.rev (collect_decls [] f.tf_body));
  let frame_size = !frame in
  let ctx =
    {
      mode;
      code = [];
      label_id = 0;
      slots;
      frame_size;
      globals;
      strings;
      sizeof;
      break_lbl = [];
      cont_lbl = [];
      fname = f.tf_name;
      sf_abort_used = false;
      trusted = trusted_for_objtable f.tf_name;
    }
  in
  (* prologue *)
  emit ctx (Alu (Sub, sp, sp, Imm (frame_size + 8)));
  emit ctx (Store { src = ra; base = sp; off = frame_size + 4; width = W4 });
  emit ctx (Store { src = fp; base = sp; off = frame_size; width = W4 });
  emit ctx (Mov (fp, sp));
  (* object-table registration of addressable locals *)
  (if mode = Objtable && not ctx.trusted then
     List.iter
       (fun (name, size) ->
         let off, _ = slot_offset ctx name in
         emit ctx (Alu (Sub, sp, sp, Imm 8));
         emit ctx (Alu (Add, t0, fp, Imm off));
         emit ctx (Store { src = t0; base = sp; off = 0; width = W4 });
         emit ctx (Li (t0, size));
         emit ctx (Store { src = t0; base = sp; off = 4; width = W4 });
         emit ctx (Call "__ot_insert");
         emit ctx (Alu (Add, sp, sp, Imm 8)))
       f.tf_addressable_arrays);
  List.iter (gen_stmt ctx) f.tf_body;
  (* epilogue *)
  emit ctx (Label ("__ret_" ^ ctx.fname));
  (if mode = Objtable && not ctx.trusted && f.tf_addressable_arrays <> [] then begin
     (* unregistration must preserve the return value *)
     emit ctx (Alu (Sub, sp, sp, Imm 4));
     emit ctx (Store { src = a0; base = sp; off = 0; width = W4 });
     List.iter
       (fun (name, size) ->
         let off, _ = slot_offset ctx name in
         emit ctx (Alu (Sub, sp, sp, Imm 8));
         emit ctx (Alu (Add, t0, fp, Imm off));
         emit ctx (Store { src = t0; base = sp; off = 0; width = W4 });
         emit ctx (Li (t0, size));
         emit ctx (Store { src = t0; base = sp; off = 4; width = W4 });
         emit ctx (Call "__ot_remove");
         emit ctx (Alu (Add, sp, sp, Imm 8)))
       f.tf_addressable_arrays;
     emit ctx (Load { dst = a0; base = sp; off = 0; width = W4; signed = true });
     emit ctx (Alu (Add, sp, sp, Imm 4))
   end);
  emit ctx (Mov (sp, fp));
  emit ctx (Load { dst = ra; base = sp; off = frame_size + 4; width = W4;
                   signed = true });
  emit ctx (Load { dst = fp; base = sp; off = frame_size; width = W4;
                   signed = true });
  emit ctx (Alu (Add, sp, sp, Imm (frame_size + 8)));
  emit ctx Ret;
  (* softfat abort trampoline *)
  if ctx.sf_abort_used then begin
    emit ctx (Label (sf_abort_label ctx));
    emit ctx (Li (a0, 1));
    emit ctx (Syscall Sys_abort)
  end;
  { name = f.tf_name; body = List.rev ctx.code }

(* ---- whole program ------------------------------------------------------ *)

(* Walk the typed program collecting string literals. *)
let collect_strings (p : tprogram) =
  let acc = ref [] in
  let add s = if not (List.mem s !acc) then acc := s :: !acc in
  let rec in_expr (te : texpr) =
    match te.desc with
    | Cstr s -> add s
    | Cint _ | Cfloat _ -> ()
    | Load lv | AddrOf lv -> in_lval lv
    | Bound (e, _) | Bound_unsafe e | Unop (_, e) | Int_of_float e
    | Float_of_int e ->
      in_expr e
    | Bound_dyn (a, b)
    | Binop (_, a, b)
    | Fbinop (_, a, b)
    | Ptr_add (a, b, _)
    | Ptr_diff (a, b, _)
    | And_or (_, a, b)
    | Seq (a, b) ->
      in_expr a;
      in_expr b
    | Assign (lv, e) ->
      in_lval lv;
      in_expr e
    | Call (_, args) | Builtin (_, args) -> List.iter in_expr args
    | Cond (a, b, c) ->
      in_expr a;
      in_expr b;
      in_expr c
    | Incr (_, lv, _) -> in_lval lv
  and in_lval = function
    | Lframe _ | Lglob _ -> ()
    | Lmem (e, _) -> in_expr e
  in
  let rec in_stmt = function
    | Texpr e -> in_expr e
    | Tdecl (_, _, Some e) -> in_expr e
    | Tdecl (_, _, None) | Tbreak | Tcontinue | Treturn None | Tline _ -> ()
    | Treturn (Some e) -> in_expr e
    | Tif (c, a, b) ->
      in_expr c;
      List.iter in_stmt a;
      List.iter in_stmt b
    | Twhile (c, b) | Tdo (b, c) ->
      in_expr c;
      List.iter in_stmt b
    | Tfor (i, c, po, b) ->
      Option.iter in_stmt i;
      Option.iter in_expr c;
      Option.iter in_expr po;
      List.iter in_stmt b
    | Tblock b -> List.iter in_stmt b
  in
  List.iter (fun f -> List.iter in_stmt f.tf_body) p.tp_funcs;
  List.iter
    (fun g -> match g.tg_startup with Some e -> in_expr e | None -> ())
    p.tp_globals;
  List.rev !acc

type compiled = {
  program : Hb_isa.Types.program;
  globals_image : Hb_mem.Globals.t;
}

let compile ~(mode : mode) (p : tprogram) : compiled =
  let sizeof =
    let rec go = function
      | Ast.Tint | Ast.Tfloat | Ast.Tptr _ -> 4
      | Ast.Tchar -> 1
      | Ast.Tarray (t, n) -> n * go t
      | Ast.Tstruct s -> (
        match List.assoc_opt s p.tp_structs with
        | Some n -> n
        | None -> err "unknown struct %s" s)
      | Ast.Tvoid -> err "sizeof(void)"
    in
    go
  in
  (* lay out globals, then string literals, collecting what each
     initializes *)
  let globals = Hashtbl.create 64 in
  let inits = ref [] in
  let offset = ref 0 in
  List.iter
    (fun g ->
      let size = (g.tg_size + 3) land lnot 3 in
      Hashtbl.replace globals g.tg_name (!offset, g.tg_ty);
      Option.iter (fun b -> inits := (!offset, b) :: !inits) g.tg_bytes;
      offset := !offset + size)
    p.tp_globals;
  let strings = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Hashtbl.replace strings s !offset;
      inits := (!offset, s) :: !inits;
      offset := !offset + ((String.length s + 1 + 3) land lnot 3))
    (collect_strings p);
  let image_size = max !offset 4 in
  if Layout.globals_base + image_size > Layout.globals_limit then
    err "globals do not fit (%d bytes)" image_size;
  (* synthesize _start: startup initializers, object-table global
     registration, call main, exit *)
  let start_ctx =
    {
      mode;
      code = [];
      label_id = 0;
      slots = Hashtbl.create 1;
      frame_size = 0;
      globals;
      strings;
      sizeof;
      break_lbl = [];
      cont_lbl = [];
      fname = "_start";
      sf_abort_used = false;
      trusted = false;
    }
  in
  let sc = start_ctx in
  emit sc (Alu (Sub, sp, sp, Imm 8));
  emit sc (Store { src = ra; base = sp; off = 4; width = W4 });
  emit sc (Store { src = fp; base = sp; off = 0; width = W4 });
  emit sc (Mov (fp, sp));
  (if mode = Objtable then
     List.iter
       (fun g ->
         match g.tg_ty with
         | Ast.Tarray _ | Ast.Tstruct _ ->
           let off, _ = Hashtbl.find globals g.tg_name in
           emit sc (Alu (Sub, sp, sp, Imm 8));
           emit sc (Alu (Add, t0, gp, Imm off));
           emit sc (Store { src = t0; base = sp; off = 0; width = W4 });
           emit sc (Li (t0, g.tg_size));
           emit sc (Store { src = t0; base = sp; off = 4; width = W4 });
           emit sc (Call "__ot_insert");
           emit sc (Alu (Add, sp, sp, Imm 8))
         | _ -> ())
       p.tp_globals);
  List.iter
    (fun g -> match g.tg_startup with Some e -> eval sc e | None -> ())
    p.tp_globals;
  emit sc (Call "main");
  emit sc (Syscall Sys_exit);
  (if sc.sf_abort_used then begin
     emit sc (Label (sf_abort_label sc));
     emit sc (Li (a0, 1));
     emit sc (Syscall Sys_abort)
   end);
  let start_fn = { name = "_start"; body = List.rev sc.code } in
  let funcs =
    start_fn :: List.map (gen_fun ~mode ~globals ~strings ~sizeof) p.tp_funcs
  in
  {
    program = { funcs; entry = "_start" };
    globals_image =
      { Hb_mem.Globals.size = image_size; inits = List.rev !inits };
  }
