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

(** How a register's [{value, metadata}] is represented in memory. *)
type encoded =
  | Enc_non_pointer of int  (** stored word; tag 0 *)
  | Enc_inline of { word : int; tag : int; aux : int }
      (** compressed: no shadow-space traffic.  [aux] models Intern11's
          stolen upper word bits (0 otherwise). *)
  | Enc_shadow of { word : int; tag : int }
      (** base and bound must also be written to the shadow space. *)

val encode : scheme -> value:int -> Meta.t -> encoded

(** Result of decoding a loaded word given its tag (and side bits). *)
type decoded =
  | Dec_non_pointer of int
  | Dec_inline of int * Meta.t  (** reconstructed value and metadata *)
  | Dec_shadow of int           (** base/bound must be loaded *)

val decode : scheme -> word:int -> tag:int -> aux:int -> decoded

(** Where a register's metadata would live if stored: compressed inline
    ([Narrow]) or in the base/bound shadow space ([Wide]). *)
type kind = Non_pointer | Narrow | Wide

val kind_name : kind -> string

val classify : scheme -> value:int -> base:int -> bound:int -> kind
(** Total (never-raising) shape of {!encode} for a value with bounds
    [\[base, bound)], given as plain ints so the per-instruction caller
    builds no record: observes without storing, so even addresses
    [encode] rejects (Intern4 shadow-half pointers) classify as [Wide].
    Drives the timeline's encoding-transition counters. *)

val needs_shadow : scheme -> value:int -> base:int -> bound:int -> bool
(** Would storing this register need a shadow-space access (and the
    metadata micro-op of Section 5.4)? *)

val roundtrip_exact : scheme -> value:int -> Meta.t -> bool
(** Test hook: decode (encode x) reproduces x exactly. *)
