(** Compressed bounded-pointer encodings (Section 4.3 of the paper).

    The hardware performs all encoding and decoding; software never
    observes compressed representations (Section 4.4).  What an encoding
    buys is fewer accesses to the base/bound shadow space: a pointer whose
    metadata fits the inline form costs nothing beyond its tag bits. *)

type scheme =
  | Uncompressed
      (** 1-bit tag; every pointer's base/bound lives in the shadow
          space. *)
  | Extern4
      (** 4-bit tag: non-pointer, one of 14 sizes (4..56 bytes, multiple
          of 4, [ptr = base]), or non-compressed. *)
  | Intern4
      (** 1-bit tag; 5 upper pointer bits hijacked (flag + size code).
          Pointers into the lowest 128MB only. *)
  | Intern11
      (** 1-bit tag; models the paper's 64-bit variant: 12 stolen bits
          encode objects up to 4*2^11 bytes with [ptr = base]. *)

val all_schemes : scheme list
val scheme_name : scheme -> string
val scheme_of_name : string -> scheme option

val tag_bits : scheme -> int
(** Bits per word in the tag metadata space (1 or 4). *)

val extern4_uncompressed_tag : int
(** The tag value (15) marking a non-compressed pointer under Extern4. *)

(** Where a register's metadata would live if stored: compressed inline
    ([Narrow]) or in the base/bound shadow space ([Wide]). *)
type kind = Non_pointer | Narrow | Wide

val kind_name : kind -> string

val classify : scheme -> value:int -> base:int -> bound:int -> kind
(** Which pointers compress, for a value with bounds [\[base, bound)]
    given as plain ints: the one definition {!pack} and {!encode} store
    by.  Total (never raising): even addresses [pack] rejects (Intern4
    shadow-half pointers) classify as [Wide].  Also drives the timeline's
    encoding-transition counters. *)

(** {2 The bit format}

    Each scheme's format is written once, as two allocation-free
    functions over a caller-owned record; {!encode} and {!decode} wrap
    them. *)

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

val fields : unit -> fields
(** A fresh, zeroed record. *)

val pack : scheme -> value:int -> base:int -> bound:int -> fields -> kind
(** Store side: set [word], [tag] and [aux] (Intern11's stolen bits, 0
    otherwise) for the register [{value; base; bound}]; returns its
    {!classify} kind.  Raises {!Hb_error.Hb_error} for an Intern4 pointer
    into the shadow half of the address space. *)

val unpack : scheme -> word:int -> tag:int -> aux:int -> fields -> kind
(** Load side: set [value] for a memory word with its tag and side bits;
    a [Narrow] word also sets [base] and [bound] (a [Wide] one's live in
    the shadow space).  Total over every word, including those only a
    fault injection produces. *)

(** {2 The variant API} *)

(** How a register's [{value, metadata}] is represented in memory. *)
type encoded =
  | Enc_non_pointer of int  (** stored word; tag 0 *)
  | Enc_inline of { word : int; tag : int; aux : int }
      (** compressed: no shadow-space traffic.  [aux] models Intern11's
          stolen upper word bits (0 otherwise). *)
  | Enc_shadow of { word : int; tag : int }
      (** base and bound must also be written to the shadow space. *)

val encode : scheme -> value:int -> Meta.t -> encoded
(** {!pack} into a fresh variant. *)

(** Result of decoding a loaded word given its tag (and side bits). *)
type decoded =
  | Dec_non_pointer of int
  | Dec_inline of int * Meta.t  (** reconstructed value and metadata *)
  | Dec_shadow of int           (** base/bound must be loaded *)

val decode : scheme -> word:int -> tag:int -> aux:int -> decoded
(** {!unpack} into a fresh variant. *)

val needs_shadow : scheme -> value:int -> base:int -> bound:int -> bool
(** Would storing this register need a shadow-space access (and the
    metadata micro-op of Section 5.4)?  [classify ... = Wide]: total, so
    an Intern4 shadow-half pointer answers [true] instead of raising. *)

val roundtrip_exact : scheme -> value:int -> Meta.t -> bool
(** Test hook: decode (encode x) reproduces x exactly. *)
