(** The corpus workload: the 436-pair violation corpus
    ([Hb_violations.Gen.all_cases]) under HardBound extern-4.  Each of the
    872 programs is compiled, loaded and runs only a few hundred
    instructions, half of them ending in a trap — so the compiler and
    [Machine.create] dominate, the dispatch loop does almost nothing, and
    the checker's trap path runs instead of its pass path.  The inputs
    are fixed programs; the benchmark seed does not change them. *)

module Gen = Hb_violations.Gen
module Runner = Hb_violations.Runner
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Machine = Hb_cpu.Machine
module Json = Hb_obs.Json

(* the corpus harness's own settings ([Runner.run_case]) *)
let config =
  Hb_runtime.Build.config_for ~scheme:Encoding.Extern4 ~max_instrs:5_000_000
    Codegen.Hardbound

(** The verdict [Runner.classify] must give: the bad twin traps, the good
    twin runs clean.  Anything else is a missed detection or a false
    positive. *)
let judge ~should_trap verdict =
  match (verdict, should_trap) with
  | Runner.Detected, true | Runner.Clean, false -> []
  | Runner.Clean, true -> [ "missed detection" ]
  | Runner.Detected, false -> [ "false positive" ]
  | Runner.Wrong s, _ -> [ "unexpected status " ^ s ]

(* one program: compiled, loaded, run and classified; its simulated speed,
   unless a reference chunk fell inside its few-µs Machine.run *)
let program st check ~what ~should_trap source =
  let m = Layers.create st ~config (Layers.compile st ~mode:Codegen.Hardbound source) in
  let n0 = !Stage.chunks_taken in
  let status, run_s = Layers.run st m in
  let clean = !Stage.chunks_taken = n0 in
  Stage.span st "check" (fun () ->
      let verdict = Layers.classify st ~should_trap status in
      Layers.account st m;
      Check.record check ~what (judge ~should_trap verdict));
  if clean then Some (float_of_int m.Machine.stats.Hb_cpu.Stats.instructions /. run_s)
  else None

(* the reference work runs in chunks throughout the pass; their time is
   taken out of the pass's wall time *)
let pass st check =
  let cal0 = st.Stage.ref_total_s in
  let (ips, pair_s, setup_s), wall =
    Stage.time (fun () ->
        Stage.span st "pass" (fun () ->
            let cases, setup_s =
              Stage.time (fun () -> Stage.span st "setup" Gen.all_cases)
            in
            let per_case, _, _ =
              Stage.sampled st (fun () ->
                  List.map
                    (fun (c : Gen.case) ->
                      Stage.time (fun () ->
                          Stage.span st "pair" (fun () ->
                              [
                                program st check ~what:(c.Gen.id ^ "/good")
                                  ~should_trap:false c.Gen.good;
                                program st check ~what:(c.Gen.id ^ "/bad")
                                  ~should_trap:true c.Gen.bad;
                              ])))
                    cases)
            in
            ( List.concat_map (fun (runs, _) -> List.filter_map Fun.id runs) per_case,
              List.map snd per_case,
              setup_s )))
  in
  (ips, pair_s, setup_s, wall -. (st.Stage.ref_total_s -. cal0))

(** [passes] passes, after [extra_setups] timed set-ups; peak memory is
    read after the first pass. *)
let run st check ~passes ~extra_setups =
  let setups =
    Stage.scaled_setups st ~n:extra_setups ~per:10 (fun () ->
        snd (Stage.time Gen.all_cases))
  in
  let first = pass st check in
  let peak_rss_kb = Hb_obs.Host.peak_rss_kb () in
  let passes = first :: List.init (passes - 1) (fun _ -> pass st check) in
  let med f = Stage.median (List.map f passes) in
  {
    Summary.wall_s = med (fun (_, _, _, w) -> w);
    setup_s =
      Stage.median
        (if setups = [] then List.map (fun (_, _, s, _) -> s) passes else setups);
    sim_ips = med (fun (ips, _, _, _) -> Stage.geomean ips);
    items_per_s =
      med (fun (_, pairs, _, w) -> float_of_int (List.length pairs) /. w);
    item_p50_s = med (fun (_, pairs, _, _) -> Stage.median pairs);
    time_factor = Stage.speed_factor ~nominal:Stage.chunk_reference_s st.Stage.run_samples;
    sim_factor = Stage.speed_factor ~nominal:Stage.chunk_reference_s st.Stage.run_samples;
    passes = List.length passes;
    peak_rss_kb;
    notes =
      [
        ("pairs", Json.Int (List.length (Gen.all_cases ())));
        ("detected", Json.Int (Stage.count st "violations.detected"));
        ("false_positives", Json.Int (Stage.count st "violations.false_positives"));
      ];
  }
