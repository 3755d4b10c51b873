(** Compile MiniC programs against the runtime and execute them on the
    simulated HardBound machine. *)

module Codegen = Hb_minic.Codegen
module Driver = Hb_minic.Driver
module Machine = Hb_cpu.Machine
module Encoding = Hardbound.Encoding

(** Number of translation-unit lines occupied by the runtime prelude:
    user-source line L sits at unit line [runtime_lines + L].  Pass as
    [line_base] to [Machine.enable_attr] so attribution reports show the
    user's own line numbers. *)
let runtime_lines =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1
    Runtime_src.source

(** Compile runtime + user source (one translation unit); errors name
    the user's own lines. *)
let compile ~(mode : Codegen.mode) (user_source : string) =
  Driver.build ~line_base:runtime_lines ~mode
    (Runtime_src.source ^ "\n" ^ user_source)

let default_fuel = 400_000_000

let config_for ?(scheme = Encoding.Extern4) ?(temporal = false)
    ?(tripwire = false) ?(checked_deref_uop = false)
    ?(max_instrs = default_fuel) (mode : Codegen.mode) : Machine.config =
  {
    Machine.scheme;
    mode = Codegen.machine_mode mode;
    checked_deref_uop;
    temporal;
    tripwire;
    max_instrs;
  }

(** Compile and run; returns final status and the machine (for output,
    stats, page counts). *)
let run ?scheme ?temporal ?tripwire ?checked_deref_uop ?max_instrs ~mode
    user_source =
  let image, globals = compile ~mode user_source in
  let config =
    config_for ?scheme ?temporal ?tripwire ?checked_deref_uop ?max_instrs mode
  in
  let m = Machine.create ~config ~globals image in
  let status = Machine.run m in
  (status, m)
