(** A program's globals region as codegen lays it out and the loader
    receives it: the region's size in bytes and the bytes the program
    initializes, at their offsets from {!Layout.globals_base} — an object
    file's [.data] plus a [.bss] size.  Every byte no init covers starts
    zero. *)

type t = { size : int; inits : (int * string) list }

(** No globals region: a hand-written assembly program's. *)
let empty = { size = 0; inits = [] }
