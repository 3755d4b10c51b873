(** Collects the full measurement matrix once (baseline + three HardBound
    encodings + the two software baselines per Olden benchmark); the
    figure printers read from it. *)

type per_workload = {
  name : string;
  baseline : Run.record;
  hb_extern4 : Run.record;
  hb_intern4 : Run.record;
  hb_intern11 : Run.record;
  softfat : Run.record option;
  objtable : Run.record option;
}

val hb_runs : per_workload -> (Hardbound.Encoding.scheme * Run.record) list

val collect :
  ?software:bool -> ?progress:(string -> unit) -> unit -> per_workload list
(** Runs every workload under every configuration; checks that every
    instrumented run reproduced the baseline's output (transparency). *)

val mean : float list -> float

val snapshot_json : per_workload list -> Hb_obs.Json.t
(** Deterministic perf-trajectory snapshot (instructions / uops / cycles
    for the baseline and each HardBound encoding of every workload) — the
    document committed as [BENCH_hardbound.json]. *)

val check_baseline :
  baseline:Hb_obs.Json.t -> per_workload list -> (unit, string list) result
(** Compare a freshly measured suite against a committed {!snapshot_json}
    document, exactly: the simulator is deterministic, so [Error] lists
    every (workload, config) whose instructions, uops or cycles differ
    from the recorded value at all (one message per differing count), and
    every pair the snapshot does not cover.  Raises
    [Hb_obs.Json.Parse_error] when [baseline] is not a snapshot. *)
