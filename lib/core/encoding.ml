(** Compressed bounded-pointer encodings (Section 4.3 of the paper).

    Four schemes:

    - {b Uncompressed}: 1-bit tag (pointer / non-pointer); every pointer's
      base and bound live in the shadow space.
    - {b Extern4}: 4-bit tag.  The 16 tag values encode: non-pointer (0),
      14 compressed sizes (tag t in 1..14 means [base = ptr],
      [bound = ptr + 4*t], i.e. objects of 4..56 bytes whose size is a
      multiple of 4), or non-compressed (15, metadata in shadow space).
    - {b Intern4}: 1-bit tag; 5 upper bits of the pointer word itself are
      hijacked: bit 31 (which selects the shadow-space half of the VA
      space, so no valid data pointer ever has it set) flags "compressed",
      bits 30..27 hold the same 4-bit size code as Extern4.  Only pointers
      into the lowest 128MB are eligible.
    - {b Intern11}: 1-bit tag; models the paper's 64-bit variant where 12
      upper bits are stolen (1 flag + 11 size bits, objects up to 4*2^11
      bytes with [base = ptr]).  On our 32-bit memory the stolen bits are
      held in a side store (see DESIGN.md): they cost no memory traffic and
      no pages, exactly like real upper word bits would.

    Encoding and decoding are performed by the hardware; software never
    observes compressed representations (Section 4.4). *)

type scheme = Uncompressed | Extern4 | Intern4 | Intern11

let all_schemes = [ Uncompressed; Extern4; Intern4; Intern11 ]

let scheme_name = function
  | Uncompressed -> "uncompressed"
  | Extern4 -> "extern-4"
  | Intern4 -> "intern-4"
  | Intern11 -> "intern-11"

let scheme_of_name = function
  | "uncompressed" -> Some Uncompressed
  | "extern-4" | "extern4" -> Some Extern4
  | "intern-4" | "intern4" -> Some Intern4
  | "intern-11" | "intern11" -> Some Intern11
  | _ -> None

(** Bits per word in the tag metadata space. *)
let tag_bits = function Extern4 -> 4 | Uncompressed | Intern4 | Intern11 -> 1

(* Size code shared by Extern4/Intern4: object size 4*c for c in 1..14,
   or 0 when the object does not compress (an int, not an option: the
   classifier runs on every pointer-producing ALU op). *)
let size_code ~value ~base ~bound =
  let size = bound - base in
  if base = value && size >= 4 && size <= 56 && size mod 4 = 0 then size / 4
  else 0

(* Intern11's inline form: [ptr = base], size a multiple of 4 up to
   4*2047 bytes. *)
let intern11_fits ~value ~base ~bound =
  let size = bound - base in
  base = value && size >= 4 && size mod 4 = 0 && size / 4 <= 2047

let extern4_uncompressed_tag = 15

(** Where a register's metadata would live if stored: compressed inline
    ([Narrow]) or in the base/bound shadow space ([Wide]). *)
type kind = Non_pointer | Narrow | Wide

let kind_name = function
  | Non_pointer -> "non_pointer"
  | Narrow -> "narrow"
  | Wide -> "wide"

(** Which pointers compress: the one definition {!pack} and {!encode}
    store by.  Total: a pointer into the shadow half of the address space
    under Intern4 classifies as [Wide], although {!pack} refuses to store
    it. *)
let classify scheme ~value ~base ~bound : kind =
  (* [Meta.bounded], spelled out: dune's dev profile compiles every unit
     with -opaque, so the call could not be inlined (test_core checks the
     two agree) *)
  if base = 0 && bound = 0 then Non_pointer
  else
    match scheme with
    | Uncompressed -> Wide
    | Extern4 -> if size_code ~value ~base ~bound <> 0 then Narrow else Wide
    | Intern4 ->
      if
        value < Hb_mem.Layout.internal_region_limit
        && size_code ~value ~base ~bound <> 0
      then Narrow
      else Wide
    | Intern11 -> if intern11_fits ~value ~base ~bound then Narrow else Wide

(* ---- The bit format ----------------------------------------------------

   Written once, as two allocation-free functions over a caller-owned
   record: the machine's word loads and stores fill one record per
   machine, and {!encode} / {!decode} wrap the same functions in a fresh
   one. *)

(** One memory word's two sides: the stored [word], [tag] and [aux] side
    bits, and the register image [value], [base], [bound]. *)
type fields = {
  mutable word : int;
  mutable tag : int;
  mutable aux : int;
  mutable value : int;
  mutable base : int;
  mutable bound : int;
}

let fields () = { word = 0; tag = 0; aux = 0; value = 0; base = 0; bound = 0 }

(** Store side: set [f.word], [f.tag] and [f.aux] for the register
    [{value; base; bound}] and return its kind.  Raises
    {!Hb_error.Hb_error} for an Intern4 pointer into the shadow half of
    the address space: its flag bit would read back as "compressed". *)
let pack scheme ~value ~base ~bound f =
  let kind = classify scheme ~value ~base ~bound in
  f.word <- value;
  f.aux <- 0;
  (match kind with
   | Non_pointer -> f.tag <- 0
   | Wide -> (
     match scheme with
     | Extern4 -> f.tag <- extern4_uncompressed_tag
     | Intern4 ->
       if value >= 0x80000000 then
         (* The flag bit doubles as the shadow-space address bit; data
            pointers into that region cannot exist (Section 4.3). *)
         Hb_error.fail ~component:"encoding" ~addr:value
           "intern-4: pointer into shadow half of address space";
       f.tag <- 1
     | Uncompressed | Intern11 -> f.tag <- 1)
   | Narrow -> (
     match scheme with
     | Extern4 -> f.tag <- size_code ~value ~base ~bound
     | Intern4 ->
       (* bit 31 flags the inline form, bits 30..27 hold the size code *)
       f.word <- 0x80000000 lor (size_code ~value ~base ~bound lsl 27) lor value;
       f.tag <- 1
     | Intern11 ->
       f.tag <- 1;
       f.aux <- (bound - base) / 4
     | Uncompressed -> assert false (* never narrow *)));
  kind

(* An inline pointer's register image: [ptr = base] in every scheme. *)
let narrow f value size =
  f.value <- value;
  f.base <- value;
  f.bound <- value + size;
  Narrow

(** Load side: set [f.value] for the memory word [word] with its [tag]
    and side bits [aux] and return its kind; a [Narrow] word also sets
    [f.base] and [f.bound] (a [Wide] one's live in the shadow space).
    Total over every word, including those only a fault injection makes
    (say Intern4's flag with size code 0, which decodes to empty
    bounds). *)
let unpack scheme ~word ~tag ~aux f =
  f.value <- word;
  if tag = 0 then Non_pointer
  else
    match scheme with
    | Uncompressed -> Wide
    | Extern4 ->
      if tag = extern4_uncompressed_tag then Wide else narrow f word (4 * tag)
    | Intern4 ->
      if word land 0x80000000 <> 0 then
        narrow f (word land 0x07FFFFFF) (4 * ((word lsr 27) land 0xF))
      else Wide
    | Intern11 -> if aux <> 0 then narrow f word (4 * aux) else Wide

(* ---- The variant API ---------------------------------------------------- *)

(** Result of encoding a register's {value, metadata} for a memory store. *)
type encoded =
  | Enc_non_pointer of int
      (** stored word (= value); tag 0. *)
  | Enc_inline of { word : int; tag : int; aux : int }
      (** compressed: no shadow-space write needed.  [aux] models stolen
          upper word bits for Intern11 (0 otherwise). *)
  | Enc_shadow of { word : int; tag : int }
      (** tag marks a non-compressed pointer; base and bound must also be
          written to the shadow space. *)

let encode scheme ~value (m : Meta.t) : encoded =
  let f = fields () in
  match pack scheme ~value ~base:m.base ~bound:m.bound f with
  | Non_pointer -> Enc_non_pointer f.word
  | Narrow -> Enc_inline { word = f.word; tag = f.tag; aux = f.aux }
  | Wide -> Enc_shadow { word = f.word; tag = f.tag }

(** Result of decoding a loaded word given its tag (and side bits). *)
type decoded =
  | Dec_non_pointer of int
  | Dec_inline of int * Meta.t  (** reconstructed value and metadata *)
  | Dec_shadow of int           (** value; base/bound must be loaded *)

let decode scheme ~word ~tag ~aux : decoded =
  let f = fields () in
  match unpack scheme ~word ~tag ~aux f with
  | Non_pointer -> Dec_non_pointer f.value
  | Narrow -> Dec_inline (f.value, { Meta.base = f.base; bound = f.bound })
  | Wide -> Dec_shadow f.value

(** True if storing this register would need a shadow-space access (and the
    extra metadata micro-op of Section 5.4).  Total, like {!classify}. *)
let needs_shadow scheme ~value ~base ~bound =
  classify scheme ~value ~base ~bound = Wide

(** Round-trip check used by tests: decode (encode x) = x for compressible
    and shadow pointers alike. *)
let roundtrip_exact scheme ~value m =
  match encode scheme ~value m with
  | Enc_non_pointer w -> (
    match decode scheme ~word:w ~tag:0 ~aux:0 with
    | Dec_non_pointer v -> v = value
    | _ -> false)
  | Enc_inline { word; tag; aux } -> (
    match decode scheme ~word ~tag ~aux with
    | Dec_inline (v, m') -> v = value && Meta.equal m m'
    | _ -> false)
  | Enc_shadow { word; tag } -> (
    match decode scheme ~word ~tag ~aux:0 with
    | Dec_shadow v -> v = value
    | _ -> false)
