(** The olden-base and olden-hb workloads: the nine Olden programs,
    compiled, loaded and run to completion one after another.  Their
    inputs are fixed programs; the benchmark seed does not change them. *)

module Workloads = Hb_workloads.Workloads
module Encoding = Hardbound.Encoding
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Build = Hb_runtime.Build
module Json = Hb_obs.Json

type config =
  | Base
      (** olden-base: [Nochecks] binaries.  The dispatch loop and the
          data-side cache model do nearly all the work; the checker and
          the metadata path are idle, so a checker-only change must leave
          this workload unchanged. *)
  | Hb
      (** olden-hb: full HardBound, the paper's Figure 5 configuration.
          Checks, metadata propagation, the shadow space and the tag
          cache are on the hot path. *)

(* olden-hb gives each program one encoding, round-robin in suite order,
   so extern-4, intern-4 and intern-11 each cover three programs. *)
let assignment =
  let schemes = [| Encoding.Extern4; Encoding.Intern4; Encoding.Intern11 |] in
  List.mapi
    (fun i (w : Workloads.t) -> (w.Workloads.name, schemes.(i mod 3)))
    Workloads.all

let assignment_json =
  Json.Obj
    (List.map
       (fun (name, s) -> (name, Json.String (Encoding.scheme_name s)))
       assignment)

let mode = function Base -> Codegen.Nochecks | Hb -> Codegen.Hardbound

(* the baseline keeps [Build.config_for]'s default scheme, as the
   committed snapshot was measured *)
let scheme config name =
  match config with
  | Base -> Encoding.Extern4
  | Hb -> List.assoc name assignment

(** The configuration's name in [BENCH_hardbound.json]. *)
let label config name =
  match config with
  | Base -> "baseline"
  | Hb -> "hb-" ^ Encoding.scheme_name (scheme config name)

(* ---- expected results ------------------------------------------------ *)

type expected = {
  counts : (string * string, int * int * int) Hashtbl.t;
      (** (program, configuration) → instructions, uops, cycles *)
  outputs : (string, string) Hashtbl.t;
      (** program → MD5 of its baseline output *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fail fmt = Hb_error.fail ~component:"perfbench" fmt

let member path key j =
  match Json.member key j with
  | Some v -> v
  | None -> fail "%s: missing %S" path key

let int_member path key j =
  match Json.to_int (member path key j) with
  | Some n -> n
  | None -> fail "%s: %S is not an integer" path key

let string_member path key j =
  match member path key j with
  | Json.String s -> s
  | _ -> fail "%s: %S is not a string" path key

let list_member path key j =
  match Json.to_list (member path key j) with
  | Some l -> l
  | None -> fail "%s: %S is not a list" path key

(** [snapshot] is [BENCH_hardbound.json]; [outputs] maps each program to
    the MD5 of its baseline output. *)
let load_expected ~snapshot ~outputs =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun w ->
      let name = string_member snapshot "name" w in
      List.iter
        (fun r ->
          Hashtbl.replace counts
            (name, string_member snapshot "config" r)
            ( int_member snapshot "instructions" r,
              int_member snapshot "uops" r,
              int_member snapshot "cycles" r ))
        (list_member snapshot "runs" w))
    (list_member snapshot "workloads" (Json.of_string (read_file snapshot)));
  let out = Hashtbl.create 16 in
  (match member outputs "outputs" (Json.of_string (read_file outputs)) with
   | Json.Obj kvs ->
     List.iter
       (fun (k, v) ->
         match v with
         | Json.String h -> Hashtbl.replace out k h
         | _ -> fail "%s: output digest of %s is not a string" outputs k)
       kvs
   | _ -> fail "%s: \"outputs\" is not an object" outputs);
  { counts; outputs = out }

let output_digest m = Digest.to_hex (Digest.string (Machine.output m))

(** What is wrong with one finished program, as the error-rate column
    defines it: it did not exit cleanly, its output differs from the
    baseline's, or its instructions, uops or cycles differ from the
    committed snapshot. *)
let problems exp config name (m : Machine.t) status =
  let s = m.Machine.stats in
  let lbl = label config name in
  let exit_problem =
    match status with
    | Machine.Exited 0 -> []
    | st -> [ "status " ^ Machine.status_name st ]
  in
  let output_problem =
    match Hashtbl.find_opt exp.outputs name with
    | None -> [ "no expected output" ]
    | Some h when h <> output_digest m -> [ "output differs from baseline" ]
    | Some _ -> []
  in
  let count_problems =
    match Hashtbl.find_opt exp.counts (name, lbl) with
    | None -> [ Printf.sprintf "%s not in the snapshot" lbl ]
    | Some (i, u, c) ->
      List.filter_map
        (fun (what, got, want) ->
          if got = want then None
          else Some (Printf.sprintf "%s %d, expected %d" what got want))
        [
          ("instructions", s.Stats.instructions, i);
          ("uops", s.Stats.uops, u);
          ("cycles", Stats.cycles s, c);
        ]
  in
  exit_problem @ output_problem @ count_problems

(* |simulated hb/baseline cycle ratio - the paper's ratio| for one
   program under its encoding (Figure 5) *)
let fig5_gap exp name cycles =
  let module P = Hb_harness.Paper_data in
  let published =
    match List.assoc name assignment with
    | Encoding.Extern4 -> P.hardbound_extern4
    | Encoding.Intern4 -> P.hardbound_intern4
    | _ -> P.hardbound_intern11
  in
  match Hashtbl.find_opt exp.counts (name, "baseline") with
  | Some (_, _, base) ->
    Float.abs ((float_of_int cycles /. float_of_int base) -. P.get published name)
  | None -> nan

(* ---- one pass --------------------------------------------------------- *)

let machine_config config name =
  Build.config_for ~scheme:(scheme config name) (mode config)

(* parse → Machine.create for all nine images; each program's share *)
let setup st config =
  Stage.span st "setup" (fun () ->
      List.map
        (fun (w : Workloads.t) ->
          let m, secs =
            Stage.time (fun () ->
                let image = Layers.compile st ~mode:(mode config) w.source in
                Layers.create st ~config:(machine_config config w.name) image)
          in
          (w.Workloads.name, m, secs))
        Workloads.all)

type item = {
  name : string;
  item_s : float;  (** compile + create + run + check *)
  run_s : float;
  speed : float;  (** host speed factor from the chunks taken during the run *)
  instrs : int;
  cycles : int;
}

(* the reference work runs before the pass, after each program and in
   chunks while each runs; its time is taken out of the pass's wall
   time and the chunks' out of each program's *)
let pass st check exp config =
  let cal0 = st.Stage.ref_total_s in
  Stage.calibrate st;
  let (items, setup_s), wall =
    Stage.time (fun () ->
        Stage.span st "pass" (fun () ->
            let machines, setup_s = Stage.time (fun () -> setup st config) in
            let items =
              List.map
                (fun (name, m, prep_s) ->
                  Stage.span st ("program:" ^ name) (fun () ->
                      let (status, run_s), chunks_s, chunks =
                        Stage.sampled st (fun () -> Layers.run st m)
                      in
                      let run_s = run_s -. chunks_s in
                      let (), check_s =
                        Stage.time (fun () ->
                            Stage.span st "check" (fun () ->
                                ignore
                                  (Layers.classify st ~should_trap:false status);
                                Layers.account st m;
                                Check.record check ~what:(name ^ "/" ^ label config name)
                                  (problems exp config name m status)))
                      in
                      let s = m.Machine.stats in
                      {
                        name;
                        item_s = prep_s +. run_s +. check_s;
                        run_s;
                        speed =
                          Stage.speed_factor ~nominal:Stage.chunk_reference_s chunks;
                        instrs = s.Stats.instructions;
                        cycles = Stats.cycles s;
                      })
                  |> fun item ->
                  Stage.calibrate st;
                  item)
                machines
            in
            (items, setup_s)))
  in
  (items, setup_s, wall -. (st.Stage.ref_total_s -. cal0))

(** [passes] passes.  [extra_setups] set-ups are timed first, so
    [setup_s] is a median even when one pass fills the run.  Peak memory
    is read after the first pass, before a later pass's garbage adds to
    it. *)
let run st check exp config ~passes ~extra_setups =
  let setups =
    Stage.scaled_setups st ~n:extra_setups ~per:1 (fun () ->
        snd (Stage.time (fun () -> setup st config)))
  in
  let first = pass st check exp config in
  let peak_rss_kb = Hb_obs.Host.peak_rss_kb () in
  let passes = first :: List.init (passes - 1) (fun _ -> pass st check exp config) in
  let med f = Stage.median (List.map f passes) in
  let items_of (items, _, _) = items in
  let last = items_of (List.nth passes (List.length passes - 1)) in
  let fig5 =
    match config with
    | Base -> []
    | Hb ->
      [
        ( "fig5_error",
          Json.Float
            (List.fold_left (fun a i -> a +. fig5_gap exp i.name i.cycles) 0. last
            /. float_of_int (List.length last)) );
      ]
  in
  (* each program's speed scaled by the chunks taken while it ran *)
  let ips ~scaled =
    med (fun p ->
        Stage.geomean
          (List.map
             (fun i ->
               float_of_int i.instrs /. (i.run_s *. if scaled then i.speed else 1.))
             (items_of p)))
  in
  let sim_ips = ips ~scaled:false in
  {
    Summary.wall_s = med (fun (_, _, w) -> w);
    setup_s =
      Stage.median (if setups = [] then List.map (fun (_, s, _) -> s) passes else setups);
    sim_ips;
    items_per_s =
      med (fun (items, _, w) -> float_of_int (List.length items) /. w);
    item_p50_s = med (fun p -> Stage.median (List.map (fun i -> i.item_s) (items_of p)));
    time_factor = Stage.speed_factor ~nominal:Stage.chunk_reference_s st.Stage.run_samples;
    sim_factor = sim_ips /. ips ~scaled:true;
    passes = List.length passes;
    peak_rss_kb;
    notes =
      fig5
      @ [
          ( "programs",
            Json.Obj
              (List.map
                 (fun i ->
                   ( i.name,
                     Json.Obj
                       [
                         ("scheme", Json.String (Encoding.scheme_name (scheme config i.name)));
                         ("instructions", Json.Int i.instrs);
                         ("cycles", Json.Int i.cycles);
                         ("run_s", Json.Float i.run_s);
                         ("item_s", Json.Float i.item_s);
                       ] ))
                 last) );
        ];
  }
