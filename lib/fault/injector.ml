(** Single-bit fault injection into a live {!Machine}.

    Five fault sites cover the HardBound data/metadata pipeline:

    - [Mem_word]: a bit in a touched program-data word (globals / heap /
      stack) — a classic SWIFI memory flip.  The word's tag is left
      alone, modelling a hardware upset in the data array only.
    - [Tag_bits]: a bit of a word's pointer tag (1 or 4 bits depending
      on the encoding scheme) — corrupts the "is this a pointer?"
      metadata itself.
    - [Shadow_entry]: a bit in the base/bound shadow entry of a word
      tagged as a pointer — corrupts a stored pointer's bounds.
    - [Reg_value]: a bit in a live register value.
    - [Reg_bounds]: a bit in the base or bound metadata of a register
      currently carrying bounds.

    Data/register-value targets are chosen uniformly over *touched*
    state so injections land where the workload actually lives; the two
    metadata-bounds sites prefer *live* metadata (a flip in a never-
    consulted shadow slot would tell us nothing about the checker).  All
    randomness comes from the caller's {!Prng}. *)

module Machine = Hb_cpu.Machine
module Physmem = Hb_mem.Physmem
module Layout = Hb_mem.Layout
module Encoding = Hardbound.Encoding
module Trace = Hb_obs.Trace

type site = Mem_word | Tag_bits | Shadow_entry | Reg_value | Reg_bounds

let all_sites = [ Mem_word; Tag_bits; Shadow_entry; Reg_value; Reg_bounds ]

let site_name = function
  | Mem_word -> "mem"
  | Tag_bits -> "tag"
  | Shadow_entry -> "shadow"
  | Reg_value -> "reg"
  | Reg_bounds -> "regbounds"

let site_of_name = function
  | "mem" -> Some Mem_word
  | "tag" -> Some Tag_bits
  | "shadow" -> Some Shadow_entry
  | "reg" -> Some Reg_value
  | "regbounds" -> Some Reg_bounds
  | _ -> None

(** One applied corruption.  [target] is a byte address for memory
    sites and a register number for register sites. *)
type injection = {
  site : site;
  target : int;
  bit : int;
  before : int;
  after : int;
}

let describe (i : injection) =
  match i.site with
  | Reg_value -> Printf.sprintf "reg r%d bit %d" i.target i.bit
  | Reg_bounds ->
    Printf.sprintf "r%d %s bit %d" i.target
      (if i.bit >= 32 then "bound" else "base")
      (i.bit mod 32)
  | s -> Printf.sprintf "%s[0x%x] bit %d" (site_name s) i.target i.bit

(* ---- target selection ------------------------------------------------ *)

let pages_in m ~keep =
  let idxs =
    Physmem.fold_pages m.Machine.mem ~init:[] ~f:(fun acc idx _ ->
        if keep (Layout.region_of (idx * Layout.page_size)) then idx :: acc
        else acc)
  in
  Array.of_list (List.rev idxs)

let is_data = function
  | Layout.Globals | Layout.Heap | Layout.Stack -> true
  | _ -> false

let words_per_page = Layout.page_size / Layout.word

(* A uniformly chosen 4-byte-aligned address inside a touched page of the
   given region class; [globals_base] when the workload touched nothing
   there yet (possible only for injections at cycle 0). *)
let random_word_addr rng m ~keep =
  let pages = pages_in m ~keep in
  if Array.length pages = 0 then Layout.globals_base
  else
    let page = pages.(Prng.below rng (Array.length pages)) in
    (page * Layout.page_size) + (Layout.word * Prng.below rng words_per_page)

let random_data_word rng m = random_word_addr rng m ~keep:is_data

(* Data-region words currently tagged as pointers — the words whose
   shadow entries the checker will actually consult.  Deterministic scan
   in page/offset order.  Tags are peeked: the scan runs inside
   [fold_pages], which forbids creating pages, and must not count tag
   pages the program never touched. *)
let tagged_data_words (m : Machine.t) =
  let words = ref [] in
  Physmem.fold_pages m.Machine.mem ~init:() ~f:(fun () idx _ ->
      let base = idx * Layout.page_size in
      if is_data (Layout.region_of base) then
        for w = words_per_page - 1 downto 0 do
          let addr = base + (w * Layout.word) in
          if Machine.peek_tag m addr <> 0 then words := addr :: !words
        done);
  Array.of_list !words

(* Tagged words whose metadata actually lives in the shadow space.
   Compressed encodings reconstruct bounds from the tag (Extern4 sizes
   1..14) or from stolen pointer bits (Intern4/Intern11), so only
   [Dec_shadow] words ever cause a shadow read — flipping anyone else's
   shadow image could never reach the checker. *)
let shadow_backed_words (m : Machine.t) =
  let scheme = m.Machine.cfg.Machine.scheme in
  Array.of_list
    (List.filter
       (fun addr ->
         let tag = Machine.peek_tag m addr in
         let word = Physmem.peek_u32 m.Machine.mem addr in
         let aux = Machine.read_aux m addr in
         match Encoding.decode scheme ~word ~tag ~aux with
         | Encoding.Dec_shadow _ -> true
         | Encoding.Dec_inline _ | Encoding.Dec_non_pointer _ -> false)
       (Array.to_list (tagged_data_words m)))

(* Registers currently carrying non-trivial bounds metadata. *)
let live_bounded_regs (m : Machine.t) =
  let regs = ref [] in
  for r = Hb_isa.Types.num_regs - 1 downto 1 do
    if m.Machine.rbase.(r) <> 0 || m.Machine.rbound.(r) <> 0 then
      regs := r :: !regs
  done;
  Array.of_list !regs

let flip_u32 rng m addr =
  let bit = Prng.below rng 32 in
  let before = Physmem.read_u32 m.Machine.mem addr in
  let after = before lxor (1 lsl bit) in
  Physmem.write_u32 m.Machine.mem addr after;
  (bit, before, after)

(* ---- injection ------------------------------------------------------- *)

let inject rng (m : Machine.t) site : injection =
  let inj =
    match site with
    | Mem_word ->
      let addr = random_data_word rng m in
      let bit, before, after = flip_u32 rng m addr in
      { site; target = addr; bit; before; after }
    | Tag_bits ->
      let addr = random_data_word rng m in
      let bits = Encoding.tag_bits m.Machine.cfg.Machine.scheme in
      let bit = Prng.below rng bits in
      let before = Machine.read_tag m addr in
      let after = before lxor (1 lsl bit) in
      Machine.write_tag m addr after;
      { site; target = addr; bit; before; after }
    | Shadow_entry ->
      (* Corrupt metadata the checker will actually consult: the shadow
         entry (base or bound half) of a shadow-backed pointer word.
         Fall back to any tagged word's shadow image, then to an
         arbitrary data word's, when the encoding keeps every live
         pointer inline (e.g. Extern4 over small objects). *)
      let backed = shadow_backed_words m in
      let pool =
        if Array.length backed > 0 then backed else tagged_data_words m
      in
      let addr =
        if Array.length pool = 0 then
          Layout.shadow_addr (random_data_word rng m)
        else
          let word = pool.(Prng.below rng (Array.length pool)) in
          Layout.shadow_addr word + (if Prng.bool rng then Layout.word else 0)
      in
      let bit, before, after = flip_u32 rng m addr in
      { site; target = addr; bit; before; after }
    | Reg_value ->
      (* never r0: the zero register is architecturally immutable *)
      let r = 1 + Prng.below rng (Hb_isa.Types.num_regs - 1) in
      let bit = Prng.below rng 32 in
      let before = m.Machine.regs.(r) in
      let after = before lxor (1 lsl bit) in
      m.Machine.regs.(r) <- after;
      { site; target = r; bit; before; after }
    | Reg_bounds ->
      (* Prefer a register whose bounds are live; an idle register's
         [0,0) metadata is never consulted. *)
      let live = live_bounded_regs m in
      let r =
        if Array.length live = 0 then
          1 + Prng.below rng (Hb_isa.Types.num_regs - 1)
        else live.(Prng.below rng (Array.length live))
      in
      let arr, bit_off =
        if Prng.bool rng then (m.Machine.rbound, 32) else (m.Machine.rbase, 0)
      in
      let bit = Prng.below rng 32 in
      let before = arr.(r) in
      let after = before lxor (1 lsl bit) in
      arr.(r) <- after;
      { site; target = r; bit = bit + bit_off; before; after }
  in
  Machine.emit m
    (Trace.Fault_injected
       {
         site = site_name inj.site;
         target = inj.target;
         bit = inj.bit;
         before = inj.before;
         after = inj.after;
       });
  inj

(* ---- CLI spec -------------------------------------------------------- *)

(** Parsed form of the CLI's [--inject SITES:RATE:SEED].  [sites] is a
    name, a comma list, or ["all"]; [rate] is the per-instruction
    injection probability for stochastic single-run mode (campaigns
    inject exactly once per run and ignore it). *)
type spec = { sites : site list; rate : float; seed : int }

let known_sites () =
  String.concat ", " (List.map site_name all_sites) ^ ", all"

let parse_sites s =
  if s = "all" then Ok all_sites
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match site_of_name (String.trim p) with
        | Some site -> go (site :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown fault site %S (have: %s)" p
               (known_sites ())))
    in
    go [] parts

let parse_spec s : (spec, string) result =
  match String.split_on_char ':' s with
  | [ sites; rate; seed ] -> (
    match parse_sites sites with
    | Error _ as e -> e
    | Ok [] -> Error "empty fault-site list"
    | Ok sites -> (
      match (float_of_string_opt rate, int_of_string_opt seed) with
      | None, _ -> Error (Printf.sprintf "bad injection rate %S" rate)
      | _, None -> Error (Printf.sprintf "bad injection seed %S" seed)
      | Some rate, _ when not (rate >= 0. && rate <= 1.) ->
        Error (Printf.sprintf "rate %g out of range [0,1]" rate)
      | Some rate, Some seed -> Ok { sites; rate; seed }))
  | _ -> Error (Printf.sprintf "expected SITES:RATE:SEED, got %S" s)

(** [parse_spec] as a typed error: a malformed [--inject] argument
    raises {!Hb_error.Hb_error} carrying the reason and a usage hint
    instead of leaking a bare [Error] string to the caller. *)
let spec_of_string s : spec =
  match parse_spec s with
  | Ok spec -> spec
  | Error msg ->
    Hb_error.fail ~component:"inject"
      "%s (usage: --inject SITES:RATE:SEED — SITES is a comma list of %s; \
       RATE is a per-instruction probability in [0,1]; SEED is an integer)"
      msg (known_sites ())
