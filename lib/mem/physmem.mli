(** Sparse paged physical memory.  Pages are allocated (zero-filled) on
    first touch; the per-region touched-page counts drive the paper's
    Figure 6 (memory overhead in distinct 4KB pages).  Pages are found
    through a two-level page table (1024 leaves of 1024 pages), so an
    access neither hashes nor allocates. *)

type t

val create : unit -> t

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit

val read_bits : t -> int -> int -> int -> int
(** [read_bits t addr shift mask]: extract a bit field from a byte — used
    for the tag metadata space. *)

val write_bits : t -> int -> int -> int -> int -> unit
(** [write_bits t addr shift mask v]: read-modify-write a bit field. *)

val exchange_bits : t -> int -> int -> int -> int -> int
(** [exchange_bits t addr shift mask v]: {!write_bits}, returning the
    field's old value. *)

val exchange_u32 : t -> int -> int -> int
(** [exchange_u32 t addr v]: {!write_u32}, returning the word it
    replaced. *)

val peek_u8 : t -> int -> int
(** Non-materializing read: an absent page reads as zero and is not
    allocated, so observers (e.g. the shadow-metadata census) never
    perturb the touched-page counts. *)

val peek_u32 : t -> int -> int

val pages_touched : t -> int
(** Distinct pages materialized so far. *)

val pages_touched_in : t -> Layout.region -> int

val fold_pages : t -> init:'a -> f:('a -> int -> Bytes.t -> 'a) -> 'a
(** Iterate live pages as [(page_index, bytes)] in increasing page-index
    order (deterministic).  The walk reads the page table live, so the
    callback must not mutate the memory: no writes and no creating reads
    (use {!peek_u8}/{!peek_u32}). *)

val export_pages : t -> (int * Bytes.t) array
(** Deep-copied live pages, sorted by page index — the raw material of a
    machine snapshot. *)

val import_pages : t -> (int * Bytes.t) array -> unit
(** Replace the entire memory contents with a previously exported set;
    recomputes the per-region touched-page counters from the imported
    pages. *)
