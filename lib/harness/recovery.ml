(** Recovery-policy matrix over the violation corpus.

    The corpus harness ({!Hb_violations.Runner}) answers the paper's
    Section 5.2 question for the abort policy only: does every bad
    program trap?  This module asks the stronger question the trap
    supervisor raises — under *every* recovery policy, is the violation
    still detected (at least one precise trap fires), and what does the
    program's termination look like once the policy has had its say?

    Outcome taxonomy for a supervised run (documented here because the
    report/null-guard satellites pin tests to it):

    - [Detected_abort]: the run terminated with the violation status —
      the abort policy always, or a continuing policy whose budget ran
      out / whose trap was not a load/store;
    - [Detected_survived]: trap(s) were absorbed and the program still
      exited cleanly (status 0) — null-guard's and report's best case;
    - [Detected_impaired]: trap(s) were absorbed but the program then
      misbehaved (non-zero exit, fault, software abort, fuel) — e.g. an
      unchecked retire under [report] corrupting later control flow;
    - [Missed]: no trap and a clean exit — a detection failure for a bad
      program, the expected verdict for a good one;
    - [Anomalous]: no trap, yet the run did not exit cleanly. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Encoding = Hardbound.Encoding
module Gen = Hb_violations.Gen
module Policy = Hb_recover.Policy
module Recover = Hb_recover.Recover
module Json = Hb_obs.Json

type outcome_class =
  | Detected_abort
  | Detected_survived
  | Detected_impaired
  | Missed
  | Anomalous of string

(** Compile and run one source under the supervisor. *)
let supervised ?(scheme = Encoding.Extern4) ?(mode = Codegen.Hardbound)
    ?(max_instrs = 5_000_000) ~policy src : Recover.outcome =
  let image, globals = Build.compile ~mode src in
  let config = Build.config_for ~scheme ~max_instrs mode in
  let m = Machine.create ~config ~globals image in
  Recover.run ~line_base:Build.runtime_lines
    ~config:(Policy.with_policy policy) m

let classify (o : Recover.outcome) : outcome_class =
  let trapped = o.Recover.traps <> [] in
  match o.Recover.status with
  | Machine.Bounds_violation _ | Machine.Non_pointer_violation _ ->
    Detected_abort
  | Machine.Exited 0 -> if trapped then Detected_survived else Missed
  | st ->
    if trapped then Detected_impaired
    else Anomalous (Machine.status_name st)

(** One row of the matrix: the whole corpus under one policy. *)
type cell = {
  policy : Policy.t;
  total : int;
  detected : int;  (** bad versions that trapped, however they ended *)
  aborted : int;
  survived : int;
  impaired : int;
  missed : int;  (** bad versions that ran clean — detection failures *)
  false_positives : int;  (** good versions that trapped *)
  traps : int;  (** traps dispatched across all bad runs *)
  rollbacks : int;
  escalations : int;
  anomalies : (string * string) list;  (** case id, what went wrong *)
}

let matrix ?scheme ?mode ?max_instrs ?(cases = Gen.all_cases ())
    ?(policies = Policy.all) () : cell list =
  List.map
    (fun policy ->
      let aborted = ref 0 and survived = ref 0 in
      let impaired = ref 0 and missed = ref 0 in
      let fps = ref 0 and traps = ref 0 in
      let rbs = ref 0 and escs = ref 0 in
      let anomalies = ref [] in
      List.iter
        (fun (case : Gen.case) ->
          let bad = supervised ?scheme ?mode ?max_instrs ~policy case.Gen.bad in
          traps := !traps + List.length bad.Recover.traps;
          rbs := !rbs + bad.Recover.rollbacks;
          escs := !escs + bad.Recover.escalations;
          (match classify bad with
          | Detected_abort -> incr aborted
          | Detected_survived -> incr survived
          | Detected_impaired -> incr impaired
          | Missed ->
            incr missed;
            anomalies := (case.Gen.id, "bad version ran clean") :: !anomalies
          | Anomalous s ->
            anomalies := (case.Gen.id, "bad version: " ^ s) :: !anomalies);
          let good = supervised ?scheme ?mode ?max_instrs ~policy case.Gen.good in
          match classify good with
          | Missed -> ()  (* clean and trap-free: the expected verdict *)
          | Detected_abort | Detected_survived | Detected_impaired ->
            incr fps;
            anomalies := (case.Gen.id, "good version trapped") :: !anomalies
          | Anomalous s ->
            anomalies := (case.Gen.id, "good version: " ^ s) :: !anomalies)
        cases;
      {
        policy;
        total = List.length cases;
        detected = !aborted + !survived + !impaired;
        aborted = !aborted;
        survived = !survived;
        impaired = !impaired;
        missed = !missed;
        false_positives = !fps;
        traps = !traps;
        rollbacks = !rbs;
        escalations = !escs;
        anomalies = List.rev !anomalies;
      })
    policies

(** Every bad case detected, no good case flagged, under every policy. *)
let all_detected (cells : cell list) =
  List.for_all
    (fun c -> c.detected = c.total && c.missed = 0 && c.false_positives = 0)
    cells

let to_table (cells : cell list) : string =
  let b = Buffer.create 512 in
  Printf.bprintf b "%-10s %5s %8s %7s %8s %8s %6s %5s %5s %9s %10s\n" "policy"
    "cases" "detected" "aborted" "survived" "impaired" "missed" "fps" "traps"
    "rollbacks" "escalations";
  List.iter
    (fun c ->
      Printf.bprintf b "%-10s %5d %8d %7d %8d %8d %6d %5d %5d %9d %10d\n"
        (Policy.name c.policy) c.total c.detected c.aborted c.survived
        c.impaired c.missed c.false_positives c.traps c.rollbacks
        c.escalations)
    cells;
  Buffer.contents b

let to_json (cells : cell list) : Json.t =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [
             ("policy", Json.String (Policy.name c.policy));
             ("cases", Json.Int c.total);
             ("detected", Json.Int c.detected);
             ("aborted", Json.Int c.aborted);
             ("survived", Json.Int c.survived);
             ("impaired", Json.Int c.impaired);
             ("missed", Json.Int c.missed);
             ("false_positives", Json.Int c.false_positives);
             ("traps", Json.Int c.traps);
             ("rollbacks", Json.Int c.rollbacks);
             ("escalations", Json.Int c.escalations);
             ( "anomalies",
               Json.List
                 (List.map
                    (fun (id, what) ->
                      Json.Obj
                        [
                          ("case", Json.String id); ("what", Json.String what);
                        ])
                    c.anomalies) );
           ])
       cells)
