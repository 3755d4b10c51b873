(** Recovery-policy matrix over the violation corpus: does every bad
    program still trap under every {!Hb_recover.Policy.t}, and how does
    each run terminate once the policy has handled the trap? *)

module Codegen := Hb_minic.Codegen
module Encoding := Hardbound.Encoding
module Gen := Hb_violations.Gen
module Policy := Hb_recover.Policy
module Recover := Hb_recover.Recover
module Json := Hb_obs.Json

(** Termination taxonomy for a supervised run (see the implementation
    notes for the full definitions). *)
type outcome_class =
  | Detected_abort  (** terminated with the violation status *)
  | Detected_survived  (** trap(s) absorbed, clean exit *)
  | Detected_impaired  (** trap(s) absorbed, then misbehaved *)
  | Missed  (** clean exit, no trap *)
  | Anomalous of string  (** no trap, yet did not exit cleanly *)

val supervised :
  ?scheme:Encoding.scheme ->
  ?mode:Codegen.mode ->
  ?max_instrs:int ->
  policy:Policy.t ->
  string ->
  Recover.outcome
(** Compile one MiniC source against the runtime and run it under the
    trap supervisor with the given policy (default knobs otherwise). *)

val classify : Recover.outcome -> outcome_class

type cell = {
  policy : Policy.t;
  total : int;
  detected : int;
  aborted : int;
  survived : int;
  impaired : int;
  missed : int;
  false_positives : int;
  traps : int;
  rollbacks : int;
  escalations : int;
  anomalies : (string * string) list;
}

val matrix :
  ?scheme:Encoding.scheme ->
  ?mode:Codegen.mode ->
  ?max_instrs:int ->
  ?cases:Gen.case list ->
  ?policies:Policy.t list ->
  unit ->
  cell list
(** Run every case's good and bad version under every policy; one cell
    per policy. *)

val all_detected : cell list -> bool
(** Every bad case trapped and no good case flagged, in every cell. *)

val to_table : cell list -> string
val to_json : cell list -> Json.t
