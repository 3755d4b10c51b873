(** The benchmark's calls into the simulator's layers, one span each:
    the same steps [Hb_runtime.Build.compile] and [Build.run] take, made
    one at a time so a traced run can see them apart. *)

module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Hierarchy = Hb_cache.Hierarchy
module Physmem = Hb_mem.Physmem
module Layout = Hb_mem.Layout
module Program = Hb_isa.Program
module Build = Hb_runtime.Build

(** MiniC source (without the runtime) → linked image and globals. *)
let compile st ~mode user_source =
  let source = Hb_runtime.Runtime_src.source ^ "\n" ^ user_source in
  let tunit =
    Stage.span st "minic.parse" (fun () -> Hb_minic.Parser.parse_tunit source)
  in
  let typed =
    Stage.span st "minic.typecheck" (fun () ->
        Hb_minic.Typecheck.check_tunit tunit)
  in
  let compiled =
    Stage.span st "minic.codegen" (fun () -> Codegen.compile ~mode typed)
  in
  Stage.span st "isa.link" (fun () ->
      (match Program.validate compiled.Codegen.program with
       | Ok () -> ()
       | Error e -> Hb_error.fail ~component:"perfbench" "invalid code: %s" e);
      (Program.link compiled.Codegen.program, compiled.Codegen.globals_image))

let create st ~config (image, globals) =
  Stage.span st "cpu.create" (fun () -> Machine.create ~config ~globals image)

(** Run to completion; the status and the host seconds [Machine.run]
    took. *)
let run st m = Stage.time (fun () -> Stage.span st "cpu.run" (fun () -> Machine.run m))

(** Add a finished machine's counters to the run's tallies. *)
let account st (m : Machine.t) =
  let s = m.Machine.stats in
  let h = Hierarchy.fields m.Machine.hier in
  let pages r = Physmem.pages_touched_in m.Machine.mem r in
  List.iter
    (fun (k, v) -> Stage.add st k v)
    [
      ("cpu.instructions", s.Stats.instructions);
      ("cpu.uops", s.Stats.uops);
      ("cpu.cycles", Stats.cycles s);
      ("core.checked_derefs", s.Stats.checked_derefs);
      ("core.metadata_uops", s.Stats.metadata_uops);
      ( "core.shadow_ptr_accesses",
        s.Stats.ptr_loads_shadow + s.Stats.ptr_stores_shadow );
      ("cache.mem_accesses", List.assoc "mem_accesses" h);
      ("cache.l1_misses", List.assoc "l1_misses" h);
      ("cache.tag_cache_misses", List.assoc "tag_cache_misses" h);
      ("mem.tag_pages", pages Layout.Tag_space);
      ("mem.shadow_pages", pages Layout.Shadow_space);
    ]

(** Tally a program's verdict the way the violation corpus does: a
    trap on a program that should run clean is a false positive. *)
let classify st ~should_trap status =
  let v = Hb_violations.Runner.classify status in
  (match (v, should_trap) with
   | Hb_violations.Runner.Detected, true -> Stage.add st "violations.detected" 1
   | Hb_violations.Runner.Detected, false ->
     Stage.add st "violations.false_positives" 1
   | _ -> ());
  v
