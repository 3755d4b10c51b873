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

val snapshot_runs : per_workload -> (string * Run.record) list
(** The (config name, record) pairs the committed trajectories track:
    baseline plus the three HardBound encodings. *)

val collect :
  ?software:bool -> ?progress:(string -> unit) -> unit -> per_workload list
(** Runs every workload under every configuration; checks that every
    instrumented run reproduced the baseline's output (transparency). *)

val geo_mean : float list -> float
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

val wall_point :
  ?extra:(string * Hb_obs.Json.t) list ->
  label:string ->
  per_workload list ->
  Hb_obs.Json.t
(** One host wall-clock trajectory point: wall_ms / sim_ips /
    gc_major_words for every (workload, tracked config) pair, tagged
    with a label (typically the PR) and the host's [nproc].  [extra]
    fields (e.g. the sharded speedup table) are merged into the point.
    Host-varying by nature. *)

val append_wall :
  ?extra:(string * Hb_obs.Json.t) list ->
  trajectory:Hb_obs.Json.t option ->
  label:string ->
  per_workload list ->
  Hb_obs.Json.t
(** The [BENCH_wall.json] document with a fresh {!wall_point} appended to
    [trajectory] (a previous document, or [None] to start a series).
    Raises [Hb_obs.Json.Parse_error] when [trajectory] is malformed. *)

val trend : ?band:float -> trajectory:Hb_obs.Json.t -> unit -> Hb_obs.Json.t
(** Deterministic point-to-point analysis of a committed wall-trajectory
    document ([BENCH_wall.json]): a pure function of the document, no
    fresh measurement.  The result
    ([{"bench":"hb-wall-trend","version":1,...}]) carries one step per
    consecutive pair of points with per-(workload, config) wall /
    sim_ips / gc_major_words deltas and a summary (geomean ratios,
    advisory-band breach count; [band] defaults to ±50%).  Advisory by
    construction — wall numbers are host-varying.  Raises
    [Hb_obs.Json.Parse_error] on a malformed trajectory. *)

val trend_table : ?band:float -> trajectory:Hb_obs.Json.t -> unit -> string
(** Human rendering of {!trend}: one summary line per step plus a
    per-entry table, band breaches flagged with [!]. *)

val wall_advisory :
  ?band:float ->
  trajectory:Hb_obs.Json.t ->
  per_workload list ->
  string list
(** Advisory notes comparing a fresh suite's wall times against the last
    recorded trajectory point; an empty list when everything sits inside
    the variance [band] (default ±50%).  Never a gate. *)
