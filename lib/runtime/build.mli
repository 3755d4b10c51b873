(** Compile MiniC programs against the runtime and execute them on the
    simulated HardBound machine. *)

val compile :
  mode:Hb_minic.Codegen.mode ->
  string ->
  Hb_isa.Program.image * Hb_mem.Globals.t
(** Compile runtime + user source as one translation unit; returns the
    linked image and the globals region.  A lex or parse error names
    the user's line (a runtime line as [rt.N]). *)

val runtime_lines : int
(** Translation-unit lines occupied by the runtime prelude: user-source
    line L sits at unit line [runtime_lines + L].  Pass as [line_base] to
    [Hb_cpu.Machine.enable_attr] so attribution reports show user line
    numbers (runtime lines render as [fn:rt.N]). *)

val default_fuel : int

val config_for :
  ?scheme:Hardbound.Encoding.scheme ->
  ?temporal:bool ->
  ?tripwire:bool ->
  ?checked_deref_uop:bool ->
  ?max_instrs:int ->
  Hb_minic.Codegen.mode ->
  Hb_cpu.Machine.config
(** Machine configuration matching a compilation mode. *)

val run :
  ?scheme:Hardbound.Encoding.scheme ->
  ?temporal:bool ->
  ?tripwire:bool ->
  ?checked_deref_uop:bool ->
  ?max_instrs:int ->
  mode:Hb_minic.Codegen.mode ->
  string ->
  Hb_cpu.Machine.status * Hb_cpu.Machine.t
(** Compile and run; the returned machine gives access to program output,
    statistics and page counts. *)
