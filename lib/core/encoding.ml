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
  if not (Meta.is_pointer m) then Enc_non_pointer value
  else
    match scheme with
    | Uncompressed -> Enc_shadow { word = value; tag = 1 }
    | Extern4 ->
      let c = size_code ~value ~base:m.base ~bound:m.bound in
      if c <> 0 then Enc_inline { word = value; tag = c; aux = 0 }
      else Enc_shadow { word = value; tag = extern4_uncompressed_tag }
    | Intern4 ->
      if value >= 0x80000000 then
        (* The flag bit doubles as the shadow-space address bit; data
           pointers into that region cannot exist (Section 4.3). *)
        Hb_error.fail ~component:"encoding" ~addr:value
          "intern-4: pointer into shadow half of address space";
      let c = size_code ~value ~base:m.base ~bound:m.bound in
      if c <> 0 && value < Hb_mem.Layout.internal_region_limit then
        Enc_inline
          { word = 0x80000000 lor (c lsl 27) lor value; tag = 1; aux = 0 }
      else Enc_shadow { word = value; tag = 1 }
    | Intern11 ->
      if intern11_fits ~value ~base:m.base ~bound:m.bound then
        Enc_inline { word = value; tag = 1; aux = Meta.size m / 4 }
      else Enc_shadow { word = value; tag = 1 }

(** Result of decoding a loaded word given its tag (and side bits). *)
type decoded =
  | Dec_non_pointer of int
  | Dec_inline of int * Meta.t  (** reconstructed value and metadata *)
  | Dec_shadow of int           (** value; base/bound must be loaded *)

let decode scheme ~word ~tag ~aux : decoded =
  match scheme with
  | Uncompressed ->
    if tag = 0 then Dec_non_pointer word else Dec_shadow word
  | Extern4 ->
    if tag = 0 then Dec_non_pointer word
    else if tag = extern4_uncompressed_tag then Dec_shadow word
    else Dec_inline (word, Meta.make ~base:word ~size:(4 * tag))
  | Intern4 ->
    if tag = 0 then Dec_non_pointer word
    else if word land 0x80000000 <> 0 then
      let c = (word lsr 27) land 0xF in
      let value = word land 0x07FFFFFF in
      Dec_inline (value, Meta.make ~base:value ~size:(4 * c))
    else Dec_shadow word
  | Intern11 ->
    if tag = 0 then Dec_non_pointer word
    else if aux <> 0 then Dec_inline (word, Meta.make ~base:word ~size:(4 * aux))
    else Dec_shadow word

(** Where a register's metadata would live if stored — the total,
    never-raising shape of {!encode} used by the timeline's
    encoding-transition telemetry.  Unlike [encode], a pointer into the
    shadow half of the address space under Intern4 classifies as [Wide]
    instead of raising: the classifier only observes, it never stores. *)
type kind = Non_pointer | Narrow | Wide

let kind_name = function
  | Non_pointer -> "non_pointer"
  | Narrow -> "narrow"
  | Wide -> "wide"

let classify scheme ~value ~base ~bound : kind =
  if not (Meta.bounded ~base ~bound) then Non_pointer
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

(** True if storing this register would need a shadow-space access (and the
    extra metadata micro-op of Section 5.4). *)
let needs_shadow scheme ~value ~base ~bound =
  match encode scheme ~value { Meta.base; bound } with
  | Enc_shadow _ -> true
  | Enc_non_pointer _ | Enc_inline _ -> false

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
