(** Temporal-safety tracking extension (Section 6.2 of the paper).

    The paper notes that, since HardBound already tracks one metadata bit
    per word, adding Purify/MemTracker-style allocated/initialized tracking
    "would be a natural extension".  This module implements that extension
    for the heap region: per-word allocation state driven by the runtime's
    [mark_alloc]/[mark_free] syscalls, detecting use-after-free and
    uninitialized heap reads. *)

type word_state = Unallocated | Allocated_uninit | Allocated_init

type kind = Use_after_free | Uninitialized_read | Unallocated_access

type fault = { kind : kind; addr : int; is_store : bool }

exception Temporal_violation of fault

let kind_name = function
  | Use_after_free -> "use-after-free"
  | Uninitialized_read -> "uninitialized-read"
  | Unallocated_access -> "unallocated-access"

type t = {
  state : (int, word_state) Hashtbl.t; (* word index -> state *)
  ever_allocated : (int, unit) Hashtbl.t;
}

(* Every machine creates the tables, but only temporal and tripwire runs
   fill them, so they start small (minor-heap blocks) and grow; nothing
   iterates them, so their size changes no result. *)
let create () = { state = Hashtbl.create 16; ever_allocated = Hashtbl.create 16 }

let word_of addr = addr lsr 2

let in_heap addr =
  addr >= Hb_mem.Layout.heap_base && addr < Hb_mem.Layout.heap_limit

let mark_alloc t ~addr ~size =
  let w0 = word_of addr and w1 = word_of (addr + size - 1) in
  for w = w0 to w1 do
    Hashtbl.replace t.state w Allocated_uninit;
    Hashtbl.replace t.ever_allocated w ()
  done

let mark_free t ~addr ~size =
  let w0 = word_of addr and w1 = word_of (addr + size - 1) in
  for w = w0 to w1 do
    Hashtbl.replace t.state w Unallocated
  done

let state_of t addr =
  match Hashtbl.find_opt t.state (word_of addr) with
  | Some s -> s
  | None -> Unallocated

(** Check a heap access.  Non-heap addresses are never temporal-checked
    (stack/global lifetimes need the compiler support the paper defers to
    CCured-style heapification). *)
let check_load t ~addr =
  if in_heap addr then
    match state_of t addr with
    | Allocated_init -> ()
    | Allocated_uninit ->
      raise
        (Temporal_violation
           { kind = Uninitialized_read; addr; is_store = false })
    | Unallocated ->
      let kind =
        if Hashtbl.mem t.ever_allocated (word_of addr) then Use_after_free
        else Unallocated_access
      in
      raise (Temporal_violation { kind; addr; is_store = false })

(** Red-zone tripwire check (Section 2.1 baseline): fault only when the
    word was never (or is no longer) allocated — uninitialized data is
    fine, that is the completeness gap of tripwire schemes. *)
let check_tripwire t ~addr =
  if in_heap addr then
    match state_of t addr with
    | Allocated_init | Allocated_uninit -> ()
    | Unallocated ->
      let kind =
        if Hashtbl.mem t.ever_allocated (word_of addr) then Use_after_free
        else Unallocated_access
      in
      raise (Temporal_violation { kind; addr; is_store = true })

let check_store t ~addr =
  if in_heap addr then
    match state_of t addr with
    | Allocated_init -> ()
    | Allocated_uninit ->
      Hashtbl.replace t.state (word_of addr) Allocated_init
    | Unallocated ->
      let kind =
        if Hashtbl.mem t.ever_allocated (word_of addr) then Use_after_free
        else Unallocated_access
      in
      raise (Temporal_violation { kind; addr; is_store = true })
