(** The HardBound processor model.

    An in-order core (at most one micro-operation per cycle, Section 5.1)
    extended with:
    - a base/bound shadow register file alongside the integer registers,
    - implicit bounds checks on every load/store (Figure 3),
    - hardware metadata propagation through pointer-manipulating ALU ops,
    - tag-space and shadow-space metadata accesses routed through the
      cache hierarchy of Figure 4,
    - opportunistic pointer compression per {!Hardbound.Encoding}. *)

open Hb_isa.Types
module Layout = Hb_mem.Layout
module Physmem = Hb_mem.Physmem
module Globals = Hb_mem.Globals
module Hierarchy = Hb_cache.Hierarchy
module Meta = Hardbound.Meta
module Encoding = Hardbound.Encoding
module Checker = Hardbound.Checker
module Trace = Hb_obs.Trace
module Cost = Hb_obs.Cost
module Attr = Hb_obs.Attr
module Timeline = Hb_obs.Timeline
module Flame = Hb_obs.Flame

type config = {
  scheme : Encoding.scheme;
  mode : Checker.mode;
  checked_deref_uop : bool;
      (** Section 5.4 sensitivity: charge one extra micro-op per bounds
          check of an uncompressed pointer (modest implementation that
          shares ALUs instead of using the dedicated narrow adder). *)
  temporal : bool;  (** Section 6.2 extension. *)
  tripwire : bool;
      (** Section 2.1 red-zone baseline: fault on heap *writes* to words
          not marked allocated (Yong&Horwitz-style write checking with
          MemTracker-style hardware state).  Uses the allocator's red
          zones; contiguous overflows trip, large-stride ones jump over. *)
  max_instrs : int;
}

let default_config =
  {
    scheme = Encoding.Extern4;
    mode = Checker.Full;
    checked_deref_uop = false;
    temporal = false;
    tripwire = false;
    max_instrs = 400_000_000;
  }

let baseline_config =
  { default_config with mode = Checker.Off; scheme = Encoding.Uncompressed }

exception Machine_fault of string

exception Software_abort_exn of int
(** Raised by the [abort] syscall, which the software-only protection
    schemes (Softfat, Objtable) use to signal a failed explicit check. *)

type status =
  | Exited of int
  | Bounds_violation of Checker.violation
  | Non_pointer_violation of Checker.violation
  | Software_abort of int  (** software-only schemes' check failure *)
  | Temporal_violation of Temporal.fault
  | Fault of string        (** machine-level fault, e.g. null dereference *)
  | Out_of_fuel

(** One-shot override applied to the next load/store the machine issues,
    armed by a trap supervisor ({!Hb_recover.Recover}) after it catches a
    bounds trap with the pc still at the faulting instruction:

    - [Skip_check]: re-issue the access without the bounds check (the
      "report" recovery policy's unchecked retire);
    - [Squash_access]: annul the access — loads write 0 (non-pointer)
      into the destination, stores are dropped (the "null-guard" policy).

    Consumed by the first access that sees it; the default [No_override]
    costs one immediate comparison per load/store. *)
type override = No_override | Skip_check | Squash_access

let status_name = function
  | Exited n -> Printf.sprintf "exited(%d)" n
  | Bounds_violation v -> "bounds-violation: " ^ Checker.describe_violation v
  | Non_pointer_violation v ->
    "non-pointer-dereference: " ^ Checker.describe_violation v
  | Software_abort n -> Printf.sprintf "software-abort(%d)" n
  | Temporal_violation f ->
    Printf.sprintf "temporal-violation: %s at 0x%x" (Temporal.kind_name f.kind)
      f.addr
  | Fault s -> "machine-fault: " ^ s
  | Out_of_fuel -> "out-of-fuel"

(* ---- Formulas owned by other units --------------------------------------

   dune's dev profile compiles every unit with -opaque, so a call into
   another unit is never inlined: these one-line formulas are spelled out
   here for the interpreter (they shadow [Hb_isa.Types]'s, which [open]
   brought in).  test_cpu checks each against its owner on boundary
   values. *)

let[@inline] mask32 v = v land 0xFFFFFFFF

let[@inline] to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(** [Meta.bounded]. *)
let[@inline] bounded ~base ~bound = base <> 0 || bound <> 0

(** [Layout.tag_addr] and [Layout.tag_shift]. *)
let[@inline] tag_addr_of ~bits addr = Layout.tag_base + (((addr lsr 2) * bits) lsr 3)

let[@inline] tag_shift_of ~bits addr = ((addr lsr 2) * bits) land 7

(* ---- Pre-decoded instructions ------------------------------------------- *)

(** One instruction of [image.code], decoded so that [exec] dispatches
    with one [match]: immediates are masked (and pre-signed where the op
    compares or multiplies signed), a subtract of an immediate is an add
    of its negation, shift counts are reduced, control targets are copied
    from [image.target], return and [licode] addresses are computed, and
    a load's width and signedness pick its constructor.  Register
    operands come first, then the immediate, target or address.  Add and
    Sub propagate bounds (Figure 3); no other ALU op does.

    An instruction is decoded the first time it executes.  A corpus
    program executes a median 7% of its image's instructions, most of
    the image being the runtime prelude linked in front of it, and
    decoding costs about 65 ns an instruction, mostly in allocating and
    promoting the op block: decoding the whole image in {!create} made
    creating and running a corpus program 17-25% slower. *)
type op =
  | Add_i of int * int * int  (** rd, rs, masked imm (add or negated sub) *)
  | Add_r of int * int * int  (** rd, rs, rs2 *)
  | Sub_r of int * int * int
  | Mul_i of int * int * int  (** signed imm *)
  | Mul_r of int * int * int
  | Div_i of int * int * int  (** signed imm *)
  | Div_r of int * int * int
  | Rem_i of int * int * int  (** signed imm *)
  | Rem_r of int * int * int
  | And_i of int * int * int
  | And_r of int * int * int
  | Or_i of int * int * int
  | Or_r of int * int * int
  | Xor_i of int * int * int
  | Xor_r of int * int * int
  | Shl_i of int * int * int  (** shift count *)
  | Shl_r of int * int * int
  | Shr_i of int * int * int  (** shift count *)
  | Shr_r of int * int * int
  | Sar_i of int * int * int  (** shift count *)
  | Sar_r of int * int * int
  | Slt_i of int * int * int  (** signed imm *)
  | Slt_r of int * int * int
  | Sle_i of int * int * int  (** signed imm *)
  | Sle_r of int * int * int
  | Seq_i of int * int * int
  | Seq_r of int * int * int
  | Sne_i of int * int * int
  | Sne_r of int * int * int
  | Sgt_i of int * int * int  (** signed imm *)
  | Sgt_r of int * int * int
  | Sge_i of int * int * int  (** signed imm *)
  | Sge_r of int * int * int
  | Sltu_i of int * int * int
  | Sltu_r of int * int * int
  | Fop of falu_op * int * int * int
  | Fneg_r of int * int
  | Fsqrt_r of int * int
  | Itof of int * int
  | Ftoi of int * int
  | Li_i of int * int  (** rd, masked value *)
  | Mov_r of int * int
  | Ld_w of int * int * int  (** dst, base, off *)
  | Ld_h of int * int * int
  | Ld_hs of int * int * int
  | Ld_b of int * int * int
  | Ld_bs of int * int * int
  | St_w of int * int * int  (** src, base, off *)
  | St_h of int * int * int
  | St_b of int * int * int
  | Bound_i of int * int * int  (** setbound dst, src, masked size *)
  | Bound_r of int * int * int  (** setbound dst, src, size register *)
  | Narrow_i of int * int * int  (** setbound.narrow *)
  | Narrow_r of int * int * int
  | Unsafe of int * int
  | Get_base of int * int
  | Get_bound of int * int
  | Code_addr of int * int  (** licode rd, the function's code address *)
  | Beq of int * int * int  (** r1, r2, target *)
  | Bne of int * int * int
  | Blt of int * int * int
  | Bge of int * int * int
  | Ble of int * int * int
  | Bgt of int * int * int
  | Jump of int
  | Call_to of int * int  (** target, return address *)
  | Call_via of int * int  (** register, return address *)
  | Return
  | Sys of syscall
  | Bad of string  (** a pseudo-instruction left in the image *)
  | Skip
  | Undecoded  (** not executed yet *)

let decode_op (image : Hb_isa.Program.image) i instr =
  let target = image.target.(i) in
  let ret_addr = Hb_isa.Program.addr_of_index (i + 1) in
  match instr with
  | Alu (op, rd, rs, Imm n) -> (
    let b = mask32 n in
    let sb = to_signed b in
    match op with
    | Add -> Add_i (rd, rs, b)
    | Sub -> Add_i (rd, rs, mask32 (-b))
    | Mul -> Mul_i (rd, rs, sb)
    | Div -> Div_i (rd, rs, sb)
    | Rem -> Rem_i (rd, rs, sb)
    | And -> And_i (rd, rs, b)
    | Or -> Or_i (rd, rs, b)
    | Xor -> Xor_i (rd, rs, b)
    | Shl -> Shl_i (rd, rs, b land 31)
    | Shr -> Shr_i (rd, rs, b land 31)
    | Sar -> Sar_i (rd, rs, b land 31)
    | Slt -> Slt_i (rd, rs, sb)
    | Sle -> Sle_i (rd, rs, sb)
    | Seq -> Seq_i (rd, rs, b)
    | Sne -> Sne_i (rd, rs, b)
    | Sgt -> Sgt_i (rd, rs, sb)
    | Sge -> Sge_i (rd, rs, sb)
    | Sltu -> Sltu_i (rd, rs, b))
  | Alu (op, rd, rs, Reg r2) -> (
    match op with
    | Add -> Add_r (rd, rs, r2)
    | Sub -> Sub_r (rd, rs, r2)
    | Mul -> Mul_r (rd, rs, r2)
    | Div -> Div_r (rd, rs, r2)
    | Rem -> Rem_r (rd, rs, r2)
    | And -> And_r (rd, rs, r2)
    | Or -> Or_r (rd, rs, r2)
    | Xor -> Xor_r (rd, rs, r2)
    | Shl -> Shl_r (rd, rs, r2)
    | Shr -> Shr_r (rd, rs, r2)
    | Sar -> Sar_r (rd, rs, r2)
    | Slt -> Slt_r (rd, rs, r2)
    | Sle -> Sle_r (rd, rs, r2)
    | Seq -> Seq_r (rd, rs, r2)
    | Sne -> Sne_r (rd, rs, r2)
    | Sgt -> Sgt_r (rd, rs, r2)
    | Sge -> Sge_r (rd, rs, r2)
    | Sltu -> Sltu_r (rd, rs, r2))
  | Falu (op, rd, r1, r2) -> Fop (op, rd, r1, r2)
  | Fneg (rd, rs) -> Fneg_r (rd, rs)
  | Fsqrt (rd, rs) -> Fsqrt_r (rd, rs)
  | Cvt_f_of_i (rd, rs) -> Itof (rd, rs)
  | Cvt_i_of_f (rd, rs) -> Ftoi (rd, rs)
  | Li (rd, v) -> Li_i (rd, mask32 v)
  | Mov (rd, rs) -> Mov_r (rd, rs)
  | Load { dst; base; off; width = W4; signed = _ } -> Ld_w (dst, base, off)
  | Load { dst; base; off; width = W2; signed } ->
    if signed then Ld_hs (dst, base, off) else Ld_h (dst, base, off)
  | Load { dst; base; off; width = W1; signed } ->
    if signed then Ld_bs (dst, base, off) else Ld_b (dst, base, off)
  | Store { src; base; off; width = W4 } -> St_w (src, base, off)
  | Store { src; base; off; width = W2 } -> St_h (src, base, off)
  | Store { src; base; off; width = W1 } -> St_b (src, base, off)
  | Setbound { dst; src; size = Imm v } -> Bound_i (dst, src, mask32 v)
  | Setbound { dst; src; size = Reg r } -> Bound_r (dst, src, r)
  | Setbound_narrow { dst; src; size = Imm v } -> Narrow_i (dst, src, mask32 v)
  | Setbound_narrow { dst; src; size = Reg r } -> Narrow_r (dst, src, r)
  | Setbound_unsafe (rd, rs) -> Unsafe (rd, rs)
  | Readbase (rd, rs) -> Get_base (rd, rs)
  | Readbound (rd, rs) -> Get_bound (rd, rs)
  | Licode (rd, _) -> Code_addr (rd, Hb_isa.Program.addr_of_index target)
  | Branch (c, r1, r2, _) -> (
    match c with
    | Eq -> Beq (r1, r2, target)
    | Ne -> Bne (r1, r2, target)
    | Lt -> Blt (r1, r2, target)
    | Ge -> Bge (r1, r2, target)
    | Le -> Ble (r1, r2, target)
    | Gt -> Bgt (r1, r2, target))
  | Jmp _ -> Jump target
  | Call _ -> Call_to (target, ret_addr)
  | Call_reg r -> Call_via (r, ret_addr)
  | Ret -> Return
  | Syscall s -> Sys s
  | Label _ -> Bad "unresolved label in code"
  | Line _ -> Bad "unstripped line marker in code"
  | Nop -> Skip

type t = {
  cfg : config;
  image : Hb_isa.Program.image;
  ops : op array;  (** [image.code], decoded as it first executes *)
  mem : Physmem.t;
  hier : Hierarchy.t;
  hb : bool;  (** the HardBound hardware is on: [cfg.mode <> Off] *)
  tag_bits : int;  (** [Encoding.tag_bits cfg.scheme] *)
  tag_mask : int;  (** [Layout.tag_mask ~bits:tag_bits] *)
  codec : Encoding.fields;  (** scratch record of word loads and stores *)
  regs : int array;
  rbase : int array;
  rbound : int array;
  aux_bits : (int, int) Hashtbl.t;
      (* Intern11 side store modelling stolen upper word bits. *)
  temporal : Temporal.t;
  stats : Stats.t;
  out : Buffer.t;
  mutable pc : int;
  mutable brk : int;
  mutable halted : status option;
  mutable override : override;
  (* Observability hooks: all default to off and cost the one [readings]
     check on the hot paths until attached. *)
  mutable tracer : Trace.t option;
  mutable attr : Attr.t option;
  mutable timeline : Timeline.t option;
  mutable flame : flame option;
  mutable readings : readings option;
      (* set once any hook is attached: the one check the per-instruction
         and per-access paths make for all four *)
}

(** The cumulative counters read around a charged instruction (see
    [charge]), preallocated so that charging allocates nothing. *)
and readings = { before : Cost.t; after : Cost.t }

(** Calling-context tree, the pc → function-id map its shadow call stack
    pushes with, and the context the executing instruction charges. *)
and flame = { cct : Flame.t; flame_ids : int array; mutable ctx : Cost.t }

let fault m msg = raise (Machine_fault (Printf.sprintf "%s (pc=%d, fn=%s)" msg m.pc
  (if m.pc >= 0 && m.pc < Array.length m.image.fn_of_index then
     m.image.fn_of_index.(m.pc)
   else "?")))

(** Create a machine for a linked image.  [globals] is the globals
    region: its size and the initialized bytes at their offsets.  In
    full-safety mode the stack and global pointers start life as bounded
    pointers covering their whole regions — the paper's compiler then
    *narrows* bounds for address-taken objects. *)
let create ?(config = default_config) ~(globals : Globals.t)
    (image : Hb_isa.Program.image) =
  let mem = Physmem.create () in
  (* The loader writes each init's non-zero bytes and nothing else: pages
     are zero-filled on first touch, so the zero-initialized globals (the
     object table's megabyte node pool), an all-zero initializer and the
     zero padding of [char s[64] = "ab"] materialize no page. *)
  List.iter
    (fun (off, s) ->
      let len = String.length s in
      if off < 0 || off + len > globals.size then
        Hb_error.fail ~component:"loader" ~addr:(Layout.globals_base + off)
          "globals init of %d bytes at offset %d outside the %d-byte region"
          len off globals.size;
      for i = 0 to len - 1 do
        let c = String.unsafe_get s i in
        if c <> '\000' then
          Physmem.write_u8 mem (Layout.globals_base + off + i) (Char.code c)
      done)
    globals.inits;
  let tag_bits = Encoding.tag_bits config.scheme in
  let hier = Hierarchy.create (Hierarchy.default_params ~tag_bits) in
  let m =
    {
      cfg = config;
      image;
      ops = Array.make (Array.length image.code) Undecoded;
      mem;
      hier;
      hb = config.mode <> Checker.Off;
      tag_bits;
      tag_mask = Layout.tag_mask ~bits:tag_bits;
      codec = Encoding.fields ();
      regs = Array.make num_regs 0;
      rbase = Array.make num_regs 0;
      rbound = Array.make num_regs 0;
      aux_bits = Hashtbl.create 256;
      temporal = Temporal.create ();
      stats = Stats.create ();
      out = Buffer.create 256;
      pc = image.entry;
      brk = Layout.heap_base;
      halted = None;
      override = No_override;
      tracer = None;
      attr = None;
      timeline = None;
      flame = None;
      readings = None;
    }
  in
  m.regs.(sp) <- Layout.stack_top;
  m.regs.(fp) <- Layout.stack_top;
  m.regs.(gp) <- Layout.globals_base;
  (if config.mode = Checker.Full then begin
     m.rbase.(sp) <- Layout.stack_base;
     m.rbound.(sp) <- Layout.stack_top;
     m.rbase.(fp) <- Layout.stack_base;
     m.rbound.(fp) <- Layout.stack_top;
     m.rbase.(gp) <- Layout.globals_base;
     m.rbound.(gp) <- Layout.globals_base + globals.size
   end);
  m

let reg_meta m r : Meta.t = { base = m.rbase.(r); bound = m.rbound.(r) }

(* Register writes.  Bounds move as plain ints — the register file's own
   representation — so the per-instruction paths build no [Meta.t]. *)
let set_bounds m r v ~base ~bound =
  if r <> zero then begin
    m.regs.(r) <- v;
    m.rbase.(r) <- base;
    m.rbound.(r) <- bound
  end

let set_reg m r v (md : Meta.t) = set_bounds m r v ~base:md.base ~bound:md.bound

(* ---- Tag space and side bits ------------------------------------------ *)

(* Tag-space byte holding the tag of [word_addr].  A HardBound access
   computes it once, for the tag-cache access, and hands it on as
   [~taddr] to the tag read or write itself. *)
let[@inline] tag_addr m word_addr = tag_addr_of ~bits:m.tag_bits word_addr

let[@inline] tag_shift m word_addr = tag_shift_of ~bits:m.tag_bits word_addr

let read_tag_at m ~taddr word_addr =
  Physmem.read_bits m.mem taddr (tag_shift m word_addr) m.tag_mask

let write_tag_at m ~taddr word_addr v =
  Physmem.write_bits m.mem taddr (tag_shift m word_addr) m.tag_mask v

(* [write_tag_at], returning the tag it replaced. *)
let exchange_tag_at m ~taddr word_addr v =
  Physmem.exchange_bits m.mem taddr (tag_shift m word_addr) m.tag_mask v

let read_tag m word_addr =
  read_tag_at m ~taddr:(tag_addr m word_addr) word_addr

let write_tag m word_addr v =
  write_tag_at m ~taddr:(tag_addr m word_addr) word_addr v

(** Non-materializing {!read_tag}: an absent tag page reads as 0 and is not
    created, for scans that must leave the touched-page counts alone. *)
let peek_tag m word_addr =
  (Physmem.peek_u8 m.mem (tag_addr m word_addr) lsr tag_shift m word_addr)
  land m.tag_mask

(** Intern11's stolen upper bits of the word at [word_addr] (0 if none).
    Intern11 is the only scheme that writes the side store, so every other
    scheme skips the lookup. *)
let read_aux m word_addr =
  match m.cfg.scheme with
  | Encoding.Intern11 -> (
    match Hashtbl.find m.aux_bits word_addr with
    | a -> a
    | exception Not_found -> 0)
  | Encoding.Uncompressed | Encoding.Extern4 | Encoding.Intern4 -> 0

let write_aux m word_addr aux =
  match m.cfg.scheme with
  | Encoding.Intern11 ->
    if aux <> 0 then Hashtbl.replace m.aux_bits word_addr aux
    else Hashtbl.remove m.aux_bits word_addr
  | Encoding.Uncompressed | Encoding.Extern4 | Encoding.Intern4 -> ()

(* ---- Observability -------------------------------------------------- *)

let fn_at m pc =
  if pc >= 0 && pc < Array.length m.image.fn_of_index then
    m.image.fn_of_index.(pc)
  else "?"

(** Raw debug-map unit line of a code index (0 = unknown) — trap records
    resolve it to a user line with the runtime-prelude offset, exactly as
    {!enable_attr} does. *)
let line_at m pc =
  if pc >= 0 && pc < Array.length m.image.line_of_index then
    m.image.line_of_index.(pc)
  else 0

(* Any hook turns on the one [readings] check the per-instruction and
   per-access paths make; attribution and the flame profiler also share
   its counter readings. *)
let start_hooks m =
  if Option.is_none m.readings then
    m.readings <- Some { before = Cost.create (); after = Cost.create () }

let[@inline] hooked m =
  match m.readings with None -> false | Some _ -> true

let attach_tracer m tr =
  m.tracer <- Some tr;
  start_hooks m

(** Start per-PC cost attribution, one accumulator slot per linked code
    index.  [line_base] is the 1-based unit line where user source starts
    (the runtime prelude's line count plus one, see
    {!Hb_runtime.Build.runtime_lines}); raw debug-map lines at or below it
    are runtime-prelude lines and are stored negated so reports render
    them [fn:rt.N] while user lines match the user's own source.
    Grouped by function ({!Attr.by_function}) the same records are the
    flat profile.  Idempotent; all counts restart from zero. *)
let enable_attr ?(line_base = 0) m =
  let lines =
    Array.map
      (fun raw ->
        if raw = 0 then 0
        else if raw > line_base then raw - line_base
        else -raw)
      m.image.line_of_index
  in
  m.attr <- Some (Attr.create ~fns:m.image.fn_of_index ~lines);
  start_hooks m

let attr m = m.attr

(** Start the calling-context profiler: intern the image's function names
    to dense ids and root the tree at the current function.  The machine
    then maintains the shadow call stack at its call/return sites and
    charges every retired instruction's attributable deltas to the
    context on top.  [max_depth] bounds the stack (deeper recursion
    clamps and counts truncations).  Idempotent; the recording restarts
    from zero. *)
let enable_flame ?max_depth m =
  let ids = Hashtbl.create 64 in
  let names = ref [] in
  let intern name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids name i;
      names := name :: !names;
      i
  in
  let flame_ids = Array.map intern m.image.fn_of_index in
  let names = Array.of_list (List.rev !names) in
  let cct = Flame.create ?max_depth ~names ~root:(fn_at m m.pc) () in
  m.flame <- Some { cct; flame_ids; ctx = (Flame.current cct).Flame.cost };
  start_hooks m

let flame m = Option.map (fun f -> f.cct) m.flame

(** Resolve the flame heat counters into rows: region names from the
    static {!Layout} map, residency via [Physmem.peek_u8] (absent pages
    read as zero and are never allocated, so the walk perturbs nothing). *)
let heat_rows m =
  match m.flame with
  | None -> []
  | Some f ->
    List.map
      (fun (page, accesses, checks) ->
        let addr = page * Layout.page_size in
        let resident = ref 0 in
        for i = 0 to Layout.page_size - 1 do
          if Physmem.peek_u8 m.mem (addr + i) <> 0 then incr resident
        done;
        {
          Flame.h_page = page;
          h_addr = addr;
          h_region = Layout.region_name (Layout.region_of addr);
          h_accesses = accesses;
          h_checks = checks;
          h_resident = !resident;
        })
      (Flame.heat_pages f.cct)

(* Point-in-time census of memory-resident bounded pointers, computed by
   scanning the materialized tag-space pages: each non-zero tag is decoded
   (with its word / side bits where the scheme needs them) and classified
   into the encoding distribution; distinct (base, bound) pairs are the
   live bounded objects.  Uses [Physmem.peek_*] exclusively — absent pages
   read as zero and are never allocated — so taking a census perturbs
   neither the Figure-6 touched-page counts nor the timing model. *)
let census m : Timeline.census =
  let scheme = m.cfg.scheme in
  let bits = m.tag_bits in
  let tag_mask = Layout.tag_mask ~bits in
  let words_per_byte = 8 / bits in
  let objects = Hashtbl.create 64 in
  let live = ref 0
  and ext4 = ref 0
  and int4 = ref 0
  and int11 = ref 0
  and full = ref 0
  and tag_bytes = ref 0 in
  Physmem.fold_pages m.mem ~init:() ~f:(fun () idx page ->
      let page_base = idx * Layout.page_size in
      if Layout.region_of page_base = Layout.Tag_space then
        Bytes.iteri
          (fun i c ->
            let byte = Char.code c in
            if byte <> 0 then begin
              incr tag_bytes;
              for slot = 0 to words_per_byte - 1 do
                let tag = (byte lsr (slot * bits)) land tag_mask in
                if tag <> 0 then begin
                  let word_addr =
                    Layout.tagged_word ~bits (page_base + i) slot
                  in
                  let word = Physmem.peek_u32 m.mem word_addr in
                  let aux = read_aux m word_addr in
                  match Encoding.decode scheme ~word ~tag ~aux with
                  | Encoding.Dec_non_pointer _ -> ()
                  | Encoding.Dec_inline (_, md) ->
                    incr live;
                    (match scheme with
                     | Encoding.Extern4 -> incr ext4
                     | Encoding.Intern4 -> incr int4
                     | Encoding.Intern11 -> incr int11
                     | Encoding.Uncompressed -> ());
                    Hashtbl.replace objects (md.Meta.base, md.Meta.bound) ()
                  | Encoding.Dec_shadow _ ->
                    incr live;
                    incr full;
                    let sa = Layout.shadow_addr word_addr in
                    Hashtbl.replace objects
                      ( Physmem.peek_u32 m.mem sa,
                        Physmem.peek_u32 m.mem (sa + 4) )
                      ()
                end
              done
            end)
          page);
  {
    Timeline.live_ptrs = !live;
    live_objects = Hashtbl.length objects;
    tag_bytes = !tag_bytes;
    shadow_bytes = 8 * !full;
    tag_pages = Physmem.pages_touched_in m.mem Layout.Tag_space;
    shadow_pages = Physmem.pages_touched_in m.mem Layout.Shadow_space;
    enc_ext4 = !ext4;
    enc_int4 = !int4;
    enc_int11 = !int11;
    enc_full = !full;
  }

(** The cumulative counter set the timeline samples: every [Stats] field
    plus the hierarchy's miss counters — also the [expect] side of
    [Timeline.check]. *)
let timeline_fields m = Stats.fields m.stats @ Hierarchy.fields m.hier

(** Attach a cycle-windowed timeline sampling every [interval] cycles.
    Raises {!Hb_error.Hb_error} when [interval <= 0].  Idempotent; the
    recording restarts from zero. *)
let enable_timeline ?(interval = 10_000) m =
  m.timeline <- Some (Timeline.create ~interval);
  start_hooks m

let timeline m = m.timeline

(* Cold path of the per-step boundary check in [step]. *)
let[@inline never] timeline_sample m (tl : Timeline.t) =
  Timeline.record tl ~cycle:(Stats.cycles m.stats)
    ~fields:(timeline_fields m) ~census:(census m)

(** Close the final partial window (call after the run, before reading
    windows or checking the accounting identity). *)
let timeline_flush m =
  match m.timeline with
  | None -> ()
  | Some tl ->
    Timeline.flush tl ~cycle:(Stats.cycles m.stats)
      ~fields:(timeline_fields m) ~census:(census m)

let emit m kind =
  match m.tracer with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~cycle:(Stats.cycles m.stats) ~pc:m.pc ~fn:(fn_at m m.pc)
      kind

(** Everything the machine knows, exported into one fresh registry:
    execution statistics, the cache hierarchy, the checker tally (a
    process-wide accumulator — see {!Hardbound.Checker.tally}), the
    metadata census and, with the flame profiler on, its gauges.  The
    per-function [profile.*] series are the caller's to add
    ({!Attr.export_profile}): attribution alone does not export them. *)
let metrics m =
  let reg = Hb_obs.Metrics.create () in
  Stats.export m.stats reg;
  Hierarchy.export m.hier reg;
  Checker.export_tally reg;
  (* metadata-footprint gauges: the census is peek-based (side-effect
     free), so the exposition covers it whether or not a timeline ran *)
  Timeline.export_census (census m) reg;
  (match m.flame with
   | Some f -> Flame.export f.cct reg
   | None -> ());
  reg

(* ---- Memory access path ------------------------------------------- *)

let[@inline never] null_fault m ea =
  fault m (Printf.sprintf "null-page dereference at 0x%x" ea)

let[@inline never] wrap_fault m ea =
  fault m (Printf.sprintf "address wrap at 0x%x" ea)

let[@inline] guard_ea m ea width =
  if ea < Layout.null_guard_limit then null_fault m ea;
  if ea + width > 0x100000000 then wrap_fault m ea

let[@inline] add_stall m n =
  if n > 0 then m.stats.stall_cycles <- m.stats.stall_cycles + n

let[@inline] charge_data m n =
  add_stall m n;
  m.stats.charged_data_stalls <- m.stats.charged_data_stalls + n

let charge_tag m n =
  add_stall m n;
  m.stats.charged_tag_stalls <- m.stats.charged_tag_stalls + n

(* Tag cache accessed in parallel with L1 (Figure 4): the pipeline stalls
   for the longer of the two; only the excess of the tag access is
   attributed to metadata. *)
let[@inline] charge_parallel m ~data ~tag =
  add_stall m (if data >= tag then data else tag);
  m.stats.charged_data_stalls <- m.stats.charged_data_stalls + data;
  if tag > data then
    m.stats.charged_tag_stalls <- m.stats.charged_tag_stalls + (tag - data)

let charge_bb m n =
  add_stall m n;
  m.stats.charged_bb_stalls <- m.stats.charged_bb_stalls + n

(* Cold path of [hier_access], run only with a hook attached: expand the
   hierarchy's last-access miss mask into per-level trace events, and
   count the touched page in the flame plane's heat map (program and
   metadata traffic alike: [cls] routes tag and shadow addresses here
   too).  Per-PC and per-context miss counts need nothing here: they are
   differences of the hierarchy's totals, taken by [charge]. *)
let[@inline never] observe_access m cls addr stall =
  (match m.tracer with
   | None -> ()
   | Some _ ->
     if stall > 0 then begin
       let mask = m.hier.Hierarchy.last_mask in
       let p = m.hier.Hierarchy.params in
       let cls_str = Hierarchy.class_name cls in
       let miss level penalty =
         emit m (Trace.Cache_miss { cls = cls_str; level; addr; penalty })
       in
       if mask land Hierarchy.miss_tlb <> 0 then
         miss
           (match cls with Hierarchy.Tag_meta -> "TTLB" | _ -> "DTLB")
           p.Hierarchy.tlb_miss_penalty;
       if mask land Hierarchy.miss_l1 <> 0 then
         miss
           (match cls with Hierarchy.Tag_meta -> "TagC" | _ -> "L1D")
           p.Hierarchy.l1_miss_penalty;
       if mask land Hierarchy.miss_l2 <> 0 then
         miss "L2" p.Hierarchy.l2_miss_penalty
     end);
  match m.flame with
  | None -> ()
  | Some f -> Flame.heat_touch f.cct (addr / Layout.page_size)

(* Route one access through the hierarchy: one call into it, plus the
   hooks' cold path when one is attached. *)
let[@inline] hier_access m cls addr =
  let stall = Hierarchy.access m.hier cls addr in
  if hooked m then observe_access m cls addr stall;
  stall

(* Shadow-call-stack maintenance — the flame plane's only transfer hooks,
   run behind the [readings] check at the call and return sites in
   [exec].  Both run *after* the transfer commits (the pc already points
   at the callee / return target), so a faulting indirect call or return
   never unbalances the stack. *)
let[@inline never] flame_call m =
  match m.flame with
  | None -> ()
  | Some f -> Flame.enter f.cct f.flame_ids.(m.pc)

let[@inline never] flame_ret m =
  match m.flame with None -> () | Some f -> Flame.leave f.cct

let[@inline never] trace_metadata_uop m sa ~is_store =
  match m.tracer with
  | None -> ()
  | Some _ -> emit m (Trace.Metadata_uop { addr = sa; is_store })

let[@inline never] trace_setbound m ~base ~bound ~unsafe =
  match m.tracer with
  | None -> ()
  | Some _ -> emit m (Trace.Setbound { base; bound; unsafe })

(* Cold path of a passed check with a hook attached. *)
let[@inline never] observe_check m ea width ~is_store ~base ~bound =
  (match m.flame with
   | None -> ()
   | Some f -> Flame.heat_check f.cct (ea / Layout.page_size));
  match m.tracer with
  | None -> ()
  | Some _ ->
    emit m (Trace.Checked_deref { addr = ea; width; is_store; base; bound })

(* The kind of the memory word a pointer store replaced — the "before"
   side of the enc_promotions / enc_demotions transition counters — from
   the tag and word the store exchanged out (the side bits are read
   before the store writes its own). *)
let stored_kind m ~tag ~word word_addr =
  if tag = 0 then Encoding.Non_pointer
  else
    Encoding.unpack m.cfg.scheme ~word ~tag ~aux:(read_aux m word_addr)
      m.codec

(* Perform the bounds check for a memory operation through register [r]
   with effective address [ea]: one call into the checker.  A pending
   [Skip_check] override (armed by a trap supervisor re-issuing the
   faulting access) suppresses exactly this one check; the unchecked
   retire is not counted as a checked dereference.  With the HardBound
   hardware off there is nothing to check, so the checker is not
   consulted. *)
let check_access m r ea width ~is_store =
  if m.override = Skip_check then m.override <- No_override
  else if m.hb then begin
    let base = m.rbase.(r) and bound = m.rbound.(r) in
    if
      Checker.check m.cfg.mode ~base ~bound ~pc:m.pc ~addr:ea
        ~value:m.regs.(r) ~width ~is_store
    then begin
      m.stats.checked_derefs <- m.stats.checked_derefs + 1;
      if hooked m then observe_check m ea width ~is_store ~base ~bound;
      (* Section 5.4 knob: a modest implementation checks uncompressed
         pointers with shared ALUs (one extra micro-op).  The stack,
         frame and global pointers are exempt: their whole-region bounds
         are pinned once at startup, so even the modest design keeps
         dedicated comparators for them (every frame access uses these
         registers). *)
      if
        m.cfg.checked_deref_uop
        && r <> sp && r <> fp && r <> gp
        && Encoding.needs_shadow m.cfg.scheme ~value:m.regs.(r) ~base ~bound
      then begin
        m.stats.check_uops <- m.stats.check_uops + 1;
        m.stats.uops <- m.stats.uops + 1
      end
    end
  end

(* A sub-word or unaligned read of [width] bytes, [Types.sign_extend]
   spelled out (-opaque: the call would not be inlined; test_cpu checks
   loads against it). *)
let[@inline] read_width m ea width ~signed =
  if width = 1 then
    let v = Physmem.read_u8 m.mem ea in
    if signed && v land 0x80 <> 0 then v lor 0xFFFFFF00 else v
  else if width = 2 then
    let v = Physmem.read_u16 m.mem ea in
    if signed && v land 0x8000 <> 0 then v lor 0xFFFF0000 else v
  else Physmem.read_u32 m.mem ea

let[@inline] write_width m ea v width =
  if width = 1 then Physmem.write_u8 m.mem ea v
  else if width = 2 then Physmem.write_u16 m.mem ea v
  else Physmem.write_u32 m.mem ea v

(* An aligned word load with the hardware on: the tag says whether the
   word holds a pointer, the codec where its bounds are. *)
let load_word m dst ~taddr word_addr =
  let tag = read_tag_at m ~taddr word_addr in
  let word = Physmem.read_u32 m.mem word_addr in
  (* a tag-0 word is a non-pointer whatever its side bits *)
  let aux = if tag = 0 then 0 else read_aux m word_addr in
  let f = m.codec in
  match Encoding.unpack m.cfg.scheme ~word ~tag ~aux f with
  | Encoding.Non_pointer -> set_bounds m dst f.value ~base:0 ~bound:0
  | Encoding.Narrow ->
    m.stats.ptr_loads <- m.stats.ptr_loads + 1;
    set_bounds m dst f.value ~base:f.base ~bound:f.bound
  | Encoding.Wide ->
    m.stats.ptr_loads <- m.stats.ptr_loads + 1;
    m.stats.ptr_loads_shadow <- m.stats.ptr_loads_shadow + 1;
    (* Loading a non-compressed pointer inserts the metadata micro-op and
       a second (sequential) L1 data access for the interleaved
       base/bound double word. *)
    m.stats.metadata_uops <- m.stats.metadata_uops + 1;
    m.stats.uops <- m.stats.uops + 1;
    let value = f.value in
    let sa = Layout.shadow_addr word_addr in
    if hooked m then trace_metadata_uop m sa ~is_store:false;
    charge_bb m (hier_access m Hierarchy.Base_bound sa);
    let base = Physmem.read_u32 m.mem sa in
    let bound = Physmem.read_u32 m.mem (sa + 4) in
    set_bounds m dst value ~base ~bound

let[@inline] load m dst basereg off width ~signed =
  m.stats.loads <- m.stats.loads + 1;
  if m.override = Squash_access then begin
    (* null-guard: the faulting load is annulled — the destination reads
       as 0 with no metadata, and no memory or cache state is touched *)
    m.override <- No_override;
    set_bounds m dst 0 ~base:0 ~bound:0
  end
  else begin
    let ea = mask32 (m.regs.(basereg) + off) in
    check_access m basereg ea width ~is_store:false;
    guard_ea m ea width;
    if m.cfg.temporal then Temporal.check_load m.temporal ~addr:ea;
    if not m.hb then begin
      charge_data m (hier_access m Hierarchy.Data ea);
      set_bounds m dst (read_width m ea width ~signed) ~base:0 ~bound:0
    end
    else begin
      let word_addr = ea land lnot 3 in
      let data_stall = hier_access m Hierarchy.Data ea in
      (* Tag metadata cache is accessed in parallel with the L1
         (Figure 4). *)
      let taddr = tag_addr m word_addr in
      let tag_stall = hier_access m Hierarchy.Tag_meta taddr in
      charge_parallel m ~data:data_stall ~tag:tag_stall;
      if width = 4 && ea land 3 = 0 then load_word m dst ~taddr word_addr
      else set_bounds m dst (read_width m ea width ~signed) ~base:0 ~bound:0
    end
  end

(* An aligned word store with the hardware on.  A pointer store exchanges
   the tag and word out as it writes them: the overwritten word's kind
   feeds the promotion/demotion counters. *)
let store_word m src ~taddr word_addr =
  let value = m.regs.(src) and base = m.rbase.(src)
  and bound = m.rbound.(src) in
  let f = m.codec in
  match Encoding.pack m.cfg.scheme ~value ~base ~bound f with
  | Encoding.Non_pointer ->
    Physmem.write_u32 m.mem word_addr f.word;
    write_tag_at m ~taddr word_addr 0;
    write_aux m word_addr 0
  | Encoding.Narrow ->
    m.stats.ptr_stores <- m.stats.ptr_stores + 1;
    let aux = f.aux in
    let word = Physmem.exchange_u32 m.mem word_addr f.word in
    let tag = exchange_tag_at m ~taddr word_addr f.tag in
    if stored_kind m ~tag ~word word_addr = Encoding.Wide then
      m.stats.enc_demotions <- m.stats.enc_demotions + 1;
    write_aux m word_addr aux
  | Encoding.Wide ->
    m.stats.ptr_stores <- m.stats.ptr_stores + 1;
    m.stats.ptr_stores_shadow <- m.stats.ptr_stores_shadow + 1;
    let word = Physmem.exchange_u32 m.mem word_addr f.word in
    let tag = exchange_tag_at m ~taddr word_addr f.tag in
    if stored_kind m ~tag ~word word_addr = Encoding.Narrow then
      m.stats.enc_promotions <- m.stats.enc_promotions + 1;
    m.stats.metadata_uops <- m.stats.metadata_uops + 1;
    m.stats.uops <- m.stats.uops + 1;
    write_aux m word_addr 0;
    let sa = Layout.shadow_addr word_addr in
    if hooked m then trace_metadata_uop m sa ~is_store:true;
    charge_bb m (hier_access m Hierarchy.Base_bound sa);
    Physmem.write_u32 m.mem sa base;
    Physmem.write_u32 m.mem (sa + 4) bound

(* A sub-word store cannot leave a valid bounded pointer in the
   containing word: clear the tag and materialize the decoded value
   (internal encodings keep metadata bits inside the word). *)
let clear_word_tag m ~taddr word_addr =
  let tag = exchange_tag_at m ~taddr word_addr 0 in
  if tag <> 0 then begin
    let word = Physmem.read_u32 m.mem word_addr in
    (match
       Encoding.unpack m.cfg.scheme ~word ~tag ~aux:(read_aux m word_addr)
         m.codec
     with
     | Encoding.Narrow -> Physmem.write_u32 m.mem word_addr m.codec.value
     | Encoding.Non_pointer | Encoding.Wide -> ());
    write_aux m word_addr 0
  end

let[@inline] store m src basereg off width =
  m.stats.stores <- m.stats.stores + 1;
  if m.override = Squash_access then
    (* null-guard: the faulting store is dropped entirely *)
    m.override <- No_override
  else begin
    let ea = mask32 (m.regs.(basereg) + off) in
    check_access m basereg ea width ~is_store:true;
    guard_ea m ea width;
    if m.cfg.temporal then Temporal.check_store m.temporal ~addr:ea;
    if m.cfg.tripwire then begin
      (* the validity bit lives in a 1-bit-per-word structure: model its
         lookup like a tag-space access *)
      charge_tag m (hier_access m Hierarchy.Tag_meta (tag_addr_of ~bits:1 ea));
      Temporal.check_tripwire m.temporal ~addr:ea
    end;
    if not m.hb then begin
      charge_data m (hier_access m Hierarchy.Data ea);
      write_width m ea m.regs.(src) width
    end
    else begin
      let word_addr = ea land lnot 3 in
      let data_stall = hier_access m Hierarchy.Data ea in
      let taddr = tag_addr m word_addr in
      let tag_stall = hier_access m Hierarchy.Tag_meta taddr in
      charge_parallel m ~data:data_stall ~tag:tag_stall;
      if width = 4 && ea land 3 = 0 then store_word m src ~taddr word_addr
      else begin
        clear_word_tag m ~taddr word_addr;
        write_width m ea m.regs.(src) width
      end
    end
  end

(* ---- Syscalls ------------------------------------------------------ *)

let do_syscall m s =
  let a0v = m.regs.(a0) in
  match s with
  | Sys_exit -> m.halted <- Some (Exited (to_signed a0v))
  | Sys_print_int -> Buffer.add_string m.out (string_of_int (to_signed a0v))
  | Sys_print_char -> Buffer.add_char m.out (Char.chr (a0v land 0xFF))
  | Sys_print_float ->
    Buffer.add_string m.out (Printf.sprintf "%.4f" (float_of_bits a0v))
  | Sys_sbrk ->
    let size = (a0v + 3) land lnot 3 in
    let old = m.brk in
    if m.brk + size > Layout.heap_limit then fault m "sbrk: out of heap";
    m.brk <- m.brk + size;
    set_reg m a0 old Meta.non_pointer
  | Sys_abort -> raise (Software_abort_exn (to_signed a0v))
  | Sys_mark_alloc ->
    if m.cfg.temporal || m.cfg.tripwire then
      Temporal.mark_alloc m.temporal ~addr:a0v ~size:m.regs.(a1)
  | Sys_mark_free ->
    if m.cfg.temporal || m.cfg.tripwire then
      Temporal.mark_free m.temporal ~addr:a0v ~size:m.regs.(a1)

(* ---- Instruction dispatch ------------------------------------------ *)

(* A pointer-propagating ALU op whose result no longer fits the scheme's
   inline encoding (e.g. [p + 4] under Extern4, where only [ptr = base]
   compresses) will force shadow traffic if it is ever stored — the
   timeline's ptr_arith_promotions counter.  Every scheme's inline form
   needs [value = base] ([Encoding.classify]), so only a narrow source at
   its base moved off it promotes: the result is then wide, and only the
   source's kind needs the codec.  Asking it only then keeps the call
   (-opaque: never inlined) off most pointer arithmetic; test_cpu checks
   the [value = base] rule against [classify]. *)
let count_arith_promotion m ~src v ~base ~bound =
  let sv = m.regs.(src) in
  if
    sv = base && v <> base
    && Encoding.classify m.cfg.scheme ~value:sv ~base ~bound = Encoding.Narrow
  then m.stats.ptr_arith_promotions <- m.stats.ptr_arith_promotions + 1

(* [rd <- v] inheriting [src]'s bounds (Figure 3 (A)/(B)). *)
let[@inline] arith_result m rd v src =
  let base = m.rbase.(src) and bound = m.rbound.(src) in
  if bounded ~base ~bound then count_arith_promotion m ~src v ~base ~bound;
  set_bounds m rd v ~base ~bound

(* [rd <- rs OP rs2] for Add and Sub: [rs]'s bounds if it is a pointer,
   else [rs2]'s.  This and [setbound] below are [Propagate]'s rules
   spelled out, as the decoder's choice of propagating ops is
   (-opaque: calls into [Propagate] would not be inlined); test_cpu
   checks the interpreter against [Propagate]. *)
let[@inline] arith_binop m rd v rs rs2 =
  arith_result m rd v
    (if bounded ~base:m.rbase.(rs) ~bound:m.rbound.(rs) then rs else rs2)

(* [rd <- v], a non-pointer. *)
let[@inline] set_int m rd v = set_bounds m rd v ~base:0 ~bound:0

let[@inline] flag b = if b then 1 else 0

let count_setbound_compressible m v ~base ~bound =
  if Encoding.classify m.cfg.scheme ~value:v ~base ~bound = Encoding.Narrow
  then m.stats.setbound_compressible <- m.stats.setbound_compressible + 1

(* setbound: [value, value + size). *)
let setbound m dst src sz =
  m.stats.setbound_instrs <- m.stats.setbound_instrs + 1;
  let v = m.regs.(src) in
  let base = v and bound = v + sz in
  count_setbound_compressible m v ~base ~bound;
  set_bounds m dst v ~base ~bound;
  if hooked m then trace_setbound m ~base ~bound ~unsafe:false

(* setbound.narrow intersects with the source's bounds: it can never
   grant access the source pointer lacked (catches structs cast to
   larger types); on a non-pointer it is a raw setbound. *)
let setbound_narrow m dst src sz =
  m.stats.setbound_instrs <- m.stats.setbound_instrs + 1;
  let v = m.regs.(src) in
  let b0 = m.rbase.(src) and d0 = m.rbound.(src) in
  let ptr = bounded ~base:b0 ~bound:d0 in
  let base = if ptr && b0 >= v then b0 else v in
  let bound = if ptr && d0 <= v + sz then d0 else v + sz in
  count_setbound_compressible m v ~base ~bound;
  set_bounds m dst v ~base ~bound;
  if hooked m then trace_setbound m ~base ~bound ~unsafe:false

let falu_eval op a b =
  let fa = float_of_bits a and fb = float_of_bits b in
  match op with
  | Fadd -> bits_of_float (fa +. fb)
  | Fsub -> bits_of_float (fa -. fb)
  | Fmul -> bits_of_float (fa *. fb)
  | Fdiv -> bits_of_float (fa /. fb)
  | Fslt -> if fa < fb then 1 else 0
  | Fsle -> if fa <= fb then 1 else 0
  | Feq -> if fa = fb then 1 else 0

let call_via m r ret_addr =
  (* Section 6.1: code pointers carry base = bound = MAXINT; in full mode
     forged (non-pointer) function pointers are rejected. *)
  if
    m.cfg.mode = Checker.Full
    && not
         (m.rbase.(r) = Meta.code_pointer.base
         && m.rbound.(r) = Meta.code_pointer.bound)
  then
    raise
      (Checker.Non_pointer_deref
         { pc = m.pc; addr = m.regs.(r); value = m.regs.(r); width = 4;
           meta = reg_meta m r; is_store = false });
  match Hb_isa.Program.index_of_addr m.regs.(r) with
  | Some idx when idx < Array.length m.ops ->
    set_int m ra ret_addr;
    m.pc <- idx;
    if hooked m then flame_call m
  | _ -> fault m (Printf.sprintf "indirect call to 0x%x" m.regs.(r))

let return m =
  match Hb_isa.Program.index_of_addr m.regs.(ra) with
  | Some idx when idx <= Array.length m.ops ->
    m.pc <- idx;
    if hooked m then flame_ret m
  | _ -> fault m (Printf.sprintf "return to 0x%x" m.regs.(ra))

let rec exec m op =
  let r = m.regs in
  let next = m.pc + 1 in
  match op with
  | Add_i (rd, rs, b) ->
    arith_result m rd (mask32 (r.(rs) + b)) rs;
    m.pc <- next
  | Add_r (rd, rs, rs2) ->
    arith_binop m rd (mask32 (r.(rs) + r.(rs2))) rs rs2;
    m.pc <- next
  | Sub_r (rd, rs, rs2) ->
    arith_binop m rd (mask32 (r.(rs) - r.(rs2))) rs rs2;
    m.pc <- next
  | Mul_i (rd, rs, sb) ->
    set_int m rd (mask32 (to_signed r.(rs) * sb));
    m.pc <- next
  | Mul_r (rd, rs, rs2) ->
    set_int m rd (mask32 (to_signed r.(rs) * to_signed r.(rs2)));
    m.pc <- next
  | Div_i (rd, rs, sb) ->
    if sb = 0 then fault m "division by zero";
    set_int m rd (mask32 (to_signed r.(rs) / sb));
    m.pc <- next
  | Div_r (rd, rs, rs2) ->
    let sb = to_signed r.(rs2) in
    if sb = 0 then fault m "division by zero";
    set_int m rd (mask32 (to_signed r.(rs) / sb));
    m.pc <- next
  | Rem_i (rd, rs, sb) ->
    if sb = 0 then fault m "remainder by zero";
    set_int m rd (mask32 (to_signed r.(rs) mod sb));
    m.pc <- next
  | Rem_r (rd, rs, rs2) ->
    let sb = to_signed r.(rs2) in
    if sb = 0 then fault m "remainder by zero";
    set_int m rd (mask32 (to_signed r.(rs) mod sb));
    m.pc <- next
  | And_i (rd, rs, b) -> set_int m rd (r.(rs) land b); m.pc <- next
  | And_r (rd, rs, rs2) -> set_int m rd (r.(rs) land r.(rs2)); m.pc <- next
  | Or_i (rd, rs, b) -> set_int m rd (r.(rs) lor b); m.pc <- next
  | Or_r (rd, rs, rs2) -> set_int m rd (r.(rs) lor r.(rs2)); m.pc <- next
  | Xor_i (rd, rs, b) -> set_int m rd (r.(rs) lxor b); m.pc <- next
  | Xor_r (rd, rs, rs2) -> set_int m rd (r.(rs) lxor r.(rs2)); m.pc <- next
  | Shl_i (rd, rs, n) -> set_int m rd (mask32 (r.(rs) lsl n)); m.pc <- next
  | Shl_r (rd, rs, rs2) ->
    set_int m rd (mask32 (r.(rs) lsl (r.(rs2) land 31)));
    m.pc <- next
  | Shr_i (rd, rs, n) -> set_int m rd (r.(rs) lsr n); m.pc <- next
  | Shr_r (rd, rs, rs2) ->
    set_int m rd (r.(rs) lsr (r.(rs2) land 31));
    m.pc <- next
  | Sar_i (rd, rs, n) ->
    set_int m rd (mask32 (to_signed r.(rs) asr n));
    m.pc <- next
  | Sar_r (rd, rs, rs2) ->
    set_int m rd (mask32 (to_signed r.(rs) asr (r.(rs2) land 31)));
    m.pc <- next
  | Slt_i (rd, rs, sb) -> set_int m rd (flag (to_signed r.(rs) < sb)); m.pc <- next
  | Slt_r (rd, rs, rs2) ->
    set_int m rd (flag (to_signed r.(rs) < to_signed r.(rs2)));
    m.pc <- next
  | Sle_i (rd, rs, sb) -> set_int m rd (flag (to_signed r.(rs) <= sb)); m.pc <- next
  | Sle_r (rd, rs, rs2) ->
    set_int m rd (flag (to_signed r.(rs) <= to_signed r.(rs2)));
    m.pc <- next
  | Seq_i (rd, rs, b) -> set_int m rd (flag (r.(rs) = b)); m.pc <- next
  | Seq_r (rd, rs, rs2) -> set_int m rd (flag (r.(rs) = r.(rs2))); m.pc <- next
  | Sne_i (rd, rs, b) -> set_int m rd (flag (r.(rs) <> b)); m.pc <- next
  | Sne_r (rd, rs, rs2) -> set_int m rd (flag (r.(rs) <> r.(rs2))); m.pc <- next
  | Sgt_i (rd, rs, sb) -> set_int m rd (flag (to_signed r.(rs) > sb)); m.pc <- next
  | Sgt_r (rd, rs, rs2) ->
    set_int m rd (flag (to_signed r.(rs) > to_signed r.(rs2)));
    m.pc <- next
  | Sge_i (rd, rs, sb) -> set_int m rd (flag (to_signed r.(rs) >= sb)); m.pc <- next
  | Sge_r (rd, rs, rs2) ->
    set_int m rd (flag (to_signed r.(rs) >= to_signed r.(rs2)));
    m.pc <- next
  | Sltu_i (rd, rs, b) -> set_int m rd (flag (r.(rs) < b)); m.pc <- next
  | Sltu_r (rd, rs, rs2) -> set_int m rd (flag (r.(rs) < r.(rs2))); m.pc <- next
  | Fop (op, rd, r1, r2) -> set_int m rd (falu_eval op r.(r1) r.(r2)); m.pc <- next
  | Fneg_r (rd, rs) ->
    set_int m rd (bits_of_float (-.float_of_bits r.(rs)));
    m.pc <- next
  | Fsqrt_r (rd, rs) ->
    set_int m rd (bits_of_float (sqrt (float_of_bits r.(rs))));
    m.pc <- next
  | Itof (rd, rs) ->
    set_int m rd (bits_of_float (float_of_int (to_signed r.(rs))));
    m.pc <- next
  | Ftoi (rd, rs) ->
    let f = float_of_bits r.(rs) in
    set_int m rd (mask32 (if Float.is_nan f then 0 else int_of_float f));
    m.pc <- next
  | Li_i (rd, v) -> set_int m rd v; m.pc <- next
  | Mov_r (rd, rs) ->
    set_bounds m rd r.(rs) ~base:m.rbase.(rs) ~bound:m.rbound.(rs);
    m.pc <- next
  | Ld_w (d, b, o) -> load m d b o 4 ~signed:false; m.pc <- next
  | Ld_h (d, b, o) -> load m d b o 2 ~signed:false; m.pc <- next
  | Ld_hs (d, b, o) -> load m d b o 2 ~signed:true; m.pc <- next
  | Ld_b (d, b, o) -> load m d b o 1 ~signed:false; m.pc <- next
  | Ld_bs (d, b, o) -> load m d b o 1 ~signed:true; m.pc <- next
  | St_w (s, b, o) -> store m s b o 4; m.pc <- next
  | St_h (s, b, o) -> store m s b o 2; m.pc <- next
  | St_b (s, b, o) -> store m s b o 1; m.pc <- next
  | Bound_i (d, s, sz) -> setbound m d s sz; m.pc <- next
  | Bound_r (d, s, rz) -> setbound m d s r.(rz); m.pc <- next
  | Narrow_i (d, s, sz) -> setbound_narrow m d s sz; m.pc <- next
  | Narrow_r (d, s, rz) -> setbound_narrow m d s r.(rz); m.pc <- next
  | Unsafe (rd, rs) ->
    m.stats.setbound_instrs <- m.stats.setbound_instrs + 1;
    set_reg m rd r.(rs) Meta.unsafe;
    if hooked m then
      trace_setbound m ~base:Meta.unsafe.Meta.base
        ~bound:Meta.unsafe.Meta.bound ~unsafe:true;
    m.pc <- next
  | Get_base (rd, rs) -> set_int m rd m.rbase.(rs); m.pc <- next
  | Get_bound (rd, rs) -> set_int m rd m.rbound.(rs); m.pc <- next
  | Code_addr (rd, a) ->
    set_reg m rd a Meta.code_pointer;
    m.pc <- next
  | Beq (r1, r2, t) -> m.pc <- (if r.(r1) = r.(r2) then t else next)
  | Bne (r1, r2, t) -> m.pc <- (if r.(r1) <> r.(r2) then t else next)
  | Blt (r1, r2, t) ->
    m.pc <- (if to_signed r.(r1) < to_signed r.(r2) then t else next)
  | Bge (r1, r2, t) ->
    m.pc <- (if to_signed r.(r1) >= to_signed r.(r2) then t else next)
  | Ble (r1, r2, t) ->
    m.pc <- (if to_signed r.(r1) <= to_signed r.(r2) then t else next)
  | Bgt (r1, r2, t) ->
    m.pc <- (if to_signed r.(r1) > to_signed r.(r2) then t else next)
  | Jump t -> m.pc <- t
  | Call_to (t, ret_addr) ->
    set_int m ra ret_addr;
    m.pc <- t;
    if hooked m then flame_call m
  | Call_via (rf, ret_addr) -> call_via m rf ret_addr
  | Return -> return m
  | Sys s ->
    do_syscall m s;
    m.pc <- next
  | Bad msg -> fault m msg
  | Skip -> m.pc <- next
  | Undecoded ->
    let op = decode_op m.image m.pc m.image.code.(m.pc) in
    m.ops.(m.pc) <- op;
    exec m op

(* The cumulative counters an instruction's cost is the difference of:
   [Stats] and the hierarchy's per-level miss totals.  Every hierarchy
   access happens inside [exec] while [m.pc] still names the issuing
   instruction, so its misses arrive through the same difference. *)
let read_counters m (c : Cost.t) =
  let s = m.stats and h = m.hier in
  let d = h.Hierarchy.data_stats
  and b = h.Hierarchy.bb_stats
  and g = h.Hierarchy.tag_stats in
  c.instrs <- s.instructions;
  c.uops <- s.uops;
  c.data_stalls <- s.charged_data_stalls;
  c.tag_stalls <- s.charged_tag_stalls;
  c.bb_stalls <- s.charged_bb_stalls;
  c.check_uops <- s.check_uops;
  c.metadata_uops <- s.metadata_uops;
  c.checked_derefs <- s.checked_derefs;
  c.setbounds <- s.setbound_instrs;
  c.tlb_misses <- d.tlb_misses + b.tlb_misses + g.tlb_misses;
  c.l1_misses <- d.l1_misses + b.l1_misses + g.l1_misses;
  c.l2_misses <- d.l2_misses + b.l2_misses + g.l2_misses

(* The one charge site of per-PC attribution and the flame profiler: add
   the counter differences across the instruction at [pc] to its PC's
   record and to the calling context captured before [exec] (a call or
   return's own cost belongs to the frame that issued it, not the one it
   transfers into). *)
let charge m { before; after } pc =
  read_counters m after;
  (match m.attr with
   | None -> ()
   | Some a -> Cost.add_diff a.Attr.costs.(pc) ~before ~after);
  match m.flame with
  | None -> ()
  | Some f -> Cost.add_diff f.ctx ~before ~after

(* [step] with a hook attached: the retire event, the charged execution
   and the timeline boundary. *)
let[@inline never] step_hooked m r op =
  let pc = m.pc in
  (match m.tracer with
   | Some tr when Trace.trace_retires tr ->
     emit m (Trace.Retire { instr = Hb_isa.Printer.instr_str m.image.code.(pc) })
   | _ -> ());
  if Option.is_none m.attr && Option.is_none m.flame then begin
    m.stats.instructions <- m.stats.instructions + 1;
    m.stats.uops <- m.stats.uops + 1;
    exec m op
  end
  else begin
    (match m.flame with
     | None -> ()
     | Some f -> f.ctx <- (Flame.current f.cct).Flame.cost);
    read_counters m r.before;
    m.stats.instructions <- m.stats.instructions + 1;
    m.stats.uops <- m.stats.uops + 1;
    (* a faulting instruction's uops and stalls are charged too, or the
       totals drift from [Stats.cycles] *)
    match exec m op with
    | () -> charge m r pc
    | exception e ->
      charge m r pc;
      raise e
  end;
  (* Timeline boundary: the sample itself (counter snapshot + shadow
     census) lives in the never-inlined cold path. *)
  match m.timeline with
  | None -> ()
  | Some tl ->
    if Stats.cycles m.stats >= tl.Timeline.next_boundary then
      timeline_sample m tl

let step m =
  let pc = m.pc in
  if pc < 0 || pc >= Array.length m.ops then fault m "pc out of code range";
  let op = Array.unsafe_get m.ops pc in
  match m.readings with
  | None ->
    m.stats.instructions <- m.stats.instructions + 1;
    m.stats.uops <- m.stats.uops + 1;
    exec m op
  | Some r -> step_hooked m r op

(* Record a violation in the trace (so the report's "last events" window
   ends with the fault itself). *)
let emit_violation m what (v : Checker.violation) =
  match m.tracer with
  | None -> ()
  | Some _ ->
    emit m
      (Trace.Violation
         { what; addr = v.Checker.addr; base = v.Checker.meta.Meta.base;
           bound = v.Checker.meta.Meta.bound })

(** The one map from what [step] raises to the status a run halts with:
    sets [m.halted] and returns the status.  Violations also go into the
    trace, so a report's "last events" window ends with the fault.  Any
    other exception is re-raised. *)
let halt_of_exn m e =
  let st =
    match e with
    | Checker.Bounds_violation v ->
      emit_violation m "bounds" v;
      Bounds_violation v
    | Checker.Non_pointer_deref v ->
      emit_violation m "non-pointer" v;
      Non_pointer_violation v
    | Software_abort_exn n -> Software_abort n
    | Temporal.Temporal_violation f -> Temporal_violation f
    | Machine_fault s -> Fault s
    | Hb_error.Hb_error (ctx, msg) -> Fault (Hb_error.to_string (ctx, msg))
    | e -> raise e
  in
  m.halted <- Some st;
  st

(** Run to completion.  Exceptions raised by checks become statuses. *)
let run m =
  let rec loop () =
    match m.halted with
    | Some st -> st
    | None ->
      if m.stats.instructions >= m.cfg.max_instrs then Out_of_fuel
      else begin
        step m;
        loop ()
      end
  in
  let st = try loop () with e -> halt_of_exn m e in
  m.halted <- Some st;
  st

(** Enriched violation report: what a trap handler sees — the faulting
    pointer's [{value; base; bound}], the enclosing function, and (when a
    tracer is attached) the retained window of trace events leading up to
    the fault.  [None] unless the machine halted on a violation. *)
let violation_report m =
  let mk what (v : Checker.violation) =
    let b = Buffer.create 256 in
    Printf.bprintf b "%s violation in %s (pc=%d)\n" what (fn_at m v.Checker.pc)
      v.Checker.pc;
    Printf.bprintf b "  %s of %d byte(s) at 0x%x\n"
      (if v.Checker.is_store then "store" else "load")
      v.Checker.width v.Checker.addr;
    Printf.bprintf b "  pointer { value = 0x%x; base = 0x%x; bound = 0x%x }\n"
      v.Checker.value v.Checker.meta.Meta.base v.Checker.meta.Meta.bound;
    (match m.tracer with
     | None -> ()
     | Some tr ->
       (match Trace.recent tr with
        | [] -> ()
        | events ->
          Printf.bprintf b "  last %d trace events:\n" (List.length events);
          List.iter
            (fun e -> Printf.bprintf b "    %s\n" (Trace.pretty e))
            events));
    Buffer.contents b
  in
  match m.halted with
  | Some (Bounds_violation v) -> Some (mk "bounds" v)
  | Some (Non_pointer_violation v) -> Some (mk "non-pointer" v)
  | _ -> None

let output m = Buffer.contents m.out
