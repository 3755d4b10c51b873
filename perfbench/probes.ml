(** Fixed per-layer probes of a traced run, the same on every workload.
    The micro rows call the same public functions as the [bechamel] group
    in [bench/main.ml]; the hook and checker rows run slices of Olden
    programs.  Spans go on the probe's own profile, so they never mix
    with the workload's per-layer sums. *)

module Encoding = Hardbound.Encoding
module Meta = Hardbound.Meta
module Hierarchy = Hb_cache.Hierarchy
module Machine = Hb_cpu.Machine
module Codegen = Hb_minic.Codegen
module Build = Hb_runtime.Build
module Workloads = Hb_workloads.Workloads

let reps = 3

(* median over [reps] timed loops of [n] calls, in ns per call *)
let per_call_ns st name n f =
  Stage.median
    (List.init reps (fun _ ->
         let (), secs =
           Stage.time (fun () ->
               Stage.span st name (fun () ->
                   for i = 1 to n do
                     f i
                   done))
         in
         secs *. 1e9 /. float_of_int n))

(** [Encoding.encode] + [decode] of one bounded pointer, per scheme. *)
let codec st scheme =
  let meta = Meta.make ~base:0x100000 ~size:16 in
  per_call_ns st ("probe.codec." ^ Encoding.scheme_name scheme) 200_000 (fun _ ->
      match Encoding.encode scheme ~value:0x100000 meta with
      | Encoding.Enc_inline { word; tag; aux } ->
        ignore (Encoding.decode scheme ~word ~tag ~aux)
      | Encoding.Enc_shadow { word; tag } ->
        ignore (Encoding.decode scheme ~word ~tag ~aux:0)
      | Encoding.Enc_non_pointer w ->
        ignore (Encoding.decode scheme ~word:w ~tag:0 ~aux:0))

(** One [Hierarchy.access] of the given class over a 64 KB stride. *)
let cache_access st cls =
  let hier = Hierarchy.create (Hierarchy.default_params ~tag_bits:1) in
  per_call_ns st ("probe.cache." ^ Hierarchy.class_name cls) 200_000 (fun i ->
      ignore (Hierarchy.access hier cls (0x100000 + (i * 4 land 0xFFFF))))

(* host ns per simulated instruction over the first [slice] instructions
   of a fresh machine *)
let slice_ns_per_instr st name ~config ~slice ?(hook = ignore) image =
  let config = { config with Machine.max_instrs = slice } in
  let m = Layers.create st ~config image in
  hook m;
  let _, secs =
    Stage.time (fun () -> Stage.span st name (fun () -> Machine.run m))
  in
  secs *. 1e9 /. float_of_int m.Machine.stats.Hb_cpu.Stats.instructions

(* each variant's median over [reps] rounds, the variants interleaved
   within a round (after one warm-up round) so drift in the host's speed
   hits them alike *)
let interleaved variants =
  let round () = List.map (fun (_, f) -> f ()) variants in
  ignore (round ());
  let rounds = List.init reps (fun _ -> round ()) in
  List.mapi
    (fun i (name, _) -> (name, Stage.median (List.map (fun r -> List.nth r i) rounds)))
    variants

(** Host cost of each observability hook when it is on alone, over the
    hooks-off cost: one olden-hb program (treeadd, under its olden-hb
    encoding). *)
let hooks st =
  let w = Workloads.find "treeadd" in
  let config =
    Build.config_for ~scheme:(List.assoc "treeadd" Olden.assignment) Codegen.Hardbound
  in
  let image = Layers.compile st ~mode:Codegen.Hardbound w.Workloads.source in
  let at name hook () =
    slice_ns_per_instr st ("probe.hook." ^ name) ~config ~slice:1_000_000 ~hook image
  in
  match
    interleaved
      [
        ("off", at "off" ignore);
        ("obs.attr_ns_per_instr", at "attr" (Machine.enable_attr ~line_base:Build.runtime_lines));
        ("obs.flame_ns_per_instr", at "flame" (fun m -> Machine.enable_flame m));
        ("obs.timeline_ns_per_instr", at "timeline" (Machine.enable_timeline ~interval:10_000));
      ]
  with
  | (_, off) :: on -> List.map (fun (name, v) -> (name, v -. off)) on
  | [] -> []

(** Host cost of checks and metadata: per program, olden-hb ns/instr
    minus olden-base ns/instr over the same slice, averaged over the nine
    programs. *)
let hb_delta st =
  let deltas =
    List.map
      (fun (w : Workloads.t) ->
        let at config =
          let image = Layers.compile st ~mode:(Olden.mode config) w.Workloads.source in
          fun () ->
            slice_ns_per_instr st ("probe.delta." ^ w.Workloads.name) ~slice:300_000
              ~config:(Olden.machine_config config w.Workloads.name)
              image
        in
        match interleaved [ ("hb", at Olden.Hb); ("base", at Olden.Base) ] with
        | [ (_, hb); (_, base) ] -> hb -. base
        | _ -> assert false)
      Workloads.all
  in
  List.fold_left ( +. ) 0. deltas /. float_of_int (List.length deltas)

let run st =
  [
    ("core.hb_ns_per_instr_delta", "ns/instr", hb_delta st);
  ]
  @ List.map
      (fun s -> ("core.codec_ns." ^ Encoding.scheme_name s, "ns", codec st s))
      [ Encoding.Extern4; Encoding.Intern4; Encoding.Intern11 ]
  @ [
      ("cache.access_ns.data", "ns", cache_access st Hierarchy.Data);
      ("cache.access_ns.tag", "ns", cache_access st Hierarchy.Tag_meta);
    ]
  @ List.map (fun (k, v) -> (k, "ns/instr", v)) (hooks st)
