(* Self-test of the benchmark's correctness checks: a doctored expected
   value must be counted as a failed operation, never silently passed.

     dune test perfbench *)

open Perfbench

let expected () =
  Olden.load_expected ~snapshot:"../BENCH_hardbound.json"
    ~outputs:"expected_outputs.json"

let fails = ref 0

let expect what cond =
  if not cond then begin
    incr fails;
    Printf.printf "FAIL %s\n" what
  end
  else Printf.printf "ok   %s\n" what

(* power, the shortest Olden program, through the olden-base check *)
let () =
  let st = Stage.create ~traced:false "selftest" in
  let name = "power" in
  let w = Hb_workloads.Workloads.find name in
  let m =
    Layers.create st ~config:(Olden.machine_config Olden.Base name)
      (Layers.compile st ~mode:(Olden.mode Olden.Base) w.source)
  in
  let status, _ = Layers.run st m in
  let tally exp =
    let c = Check.create () in
    Check.record c ~what:name (Olden.problems exp Olden.Base name m status);
    (c.Check.attempted, c.Check.failed)
  in
  let exp = expected () in
  expect "the committed snapshot passes" (tally exp = (1, 0));
  let doctored field =
    let exp = expected () in
    let i, u, c = Hashtbl.find exp.Olden.counts (name, "baseline") in
    Hashtbl.replace exp.Olden.counts (name, "baseline")
      (match field with
       | `Instructions -> (i + 1, u, c)
       | `Uops -> (i, u + 1, c)
       | `Cycles -> (i, u, c + 1));
    exp
  in
  expect "cycles one off the snapshot fails"
    (tally (doctored `Cycles) = (1, 1));
  expect "uops one off the snapshot fails" (tally (doctored `Uops) = (1, 1));
  expect "instructions one off the snapshot fails"
    (tally (doctored `Instructions) = (1, 1));
  let exp = expected () in
  Hashtbl.replace exp.Olden.outputs name (Digest.to_hex (Digest.string "doctored"));
  expect "a different baseline output fails" (tally exp = (1, 1))

(* the corpus verdict check: a missed detection and a false positive *)
let () =
  let module R = Hb_violations.Runner in
  expect "a trapping bad twin passes" (Corpus.judge ~should_trap:true R.Detected = []);
  expect "a clean good twin passes" (Corpus.judge ~should_trap:false R.Clean = []);
  expect "a missed detection fails" (Corpus.judge ~should_trap:true R.Clean <> []);
  expect "a false positive fails" (Corpus.judge ~should_trap:false R.Detected <> [])

let () = if !fails > 0 then exit 1
