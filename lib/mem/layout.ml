(** Virtual address-space layout.

    All program data lives below [2^27] (128MB) so that the paper's 4-bit
    *internal* compressed encoding — which requires pointers into the lowest
    (or highest) 128MB of the address space — applies to every program
    pointer, matching the paper's evaluation setup.

    The two metadata regions follow Section 4.1 of the paper:
    - the base/bound shadow space at [shadow_base + addr*2] (base and bound
      interleaved so both are one double-word access), and
    - a tag space holding 1 or 4 bits per 32-bit word. *)

let page_size = 4096
let word = 4

let null_guard_limit = 0x1000
(** Page zero is never mapped; dereferencing a null-ish address is a bug in
    generated code (distinct from a HardBound bounds violation). *)

let globals_base = 0x00100000
let globals_limit = 0x00400000

let heap_base = 0x01000000
let heap_limit = 0x05000000

let stack_top = 0x07000000
let stack_size = 0x00400000 (* 4MB *)
let stack_base = stack_top - stack_size

let internal_region_limit = 0x08000000
(** Below this, the top 5 address bits are zero: eligible for the internal
    compressed encodings. *)

let tag_base = 0x70000000
let shadow_base = 0x80000000

(** Address of the interleaved {base,bound} double word for data word
    [addr] (which must be 4-byte aligned). *)
let shadow_addr addr = shadow_base + (addr * 2)

(** Tag-space addressing under a tag of [bits] bits per word (1 or 4):
    word [w = addr / 4] owns bits [w*bits .. w*bits+bits-1] of the tag
    space, so its tag lives in byte [tag_addr], [tag_shift] bits up, under
    [tag_mask].  Three functions rather than one returning a tuple: every
    checked load and store computes them, and none of them allocates. *)
let tag_addr ~bits addr = tag_base + (((addr lsr 2) * bits) lsr 3)

let tag_shift ~bits addr = ((addr lsr 2) * bits) land 7

let tag_mask ~bits = (1 lsl bits) - 1

(** The inverse walk, for scans over the tag space: the data word whose
    tag sits in slot [slot] (0 .. 8/bits - 1) of tag byte [tag_byte]. *)
let tagged_word ~bits tag_byte slot =
  ((((tag_byte - tag_base) * 8) + (slot * bits)) / bits) * word

type region = Code | Globals | Heap | Stack | Tag_space | Shadow_space | Other

let region_of addr =
  if addr >= shadow_base then Shadow_space
  else if addr >= tag_base then Tag_space
  else if addr >= stack_base && addr < stack_top then Stack
  else if addr >= heap_base && addr < heap_limit then Heap
  else if addr >= globals_base && addr < globals_limit then Globals
  else if addr >= 0x00010000 && addr < globals_base then Code
  else Other

let region_name = function
  | Code -> "code"
  | Globals -> "globals"
  | Heap -> "heap"
  | Stack -> "stack"
  | Tag_space -> "tag"
  | Shadow_space -> "shadow"
  | Other -> "other"
