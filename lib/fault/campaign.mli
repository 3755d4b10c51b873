(** Deterministic fault-injection campaigns.

    A campaign answers the paper's robustness question — *what fraction
    of injected corruptions does the HardBound checker catch?* — by
    running N single-fault injections of a workload against a golden
    (uninjected) reference and classifying every run into exactly one
    {!Outcome} bucket.  Everything derives from one explicit seed: the
    same [config] and workload produce a byte-identical JSON report. *)

module Machine := Hb_cpu.Machine
module Metrics := Hb_obs.Metrics
module Json := Hb_obs.Json

type config = {
  label : string;  (** workload name, for reports *)
  runs : int;
  seed : int;
  sites : Injector.site list;
  checkpoints : int;
      (** intermediate golden-divergence checkpoints across the run
          (digest compares at [instrs / (checkpoints+1)] intervals) *)
  watchdog_factor : int;
      (** hang budget, as a multiple of the golden instruction count *)
  keep_run_records : bool;  (** include per-run records in the JSON *)
  window_interval : int;
      (** instruction width of the timeline windows each injection is
          binned into ([window = at / window_interval] in the per-run
          JSON) — aligns campaign records with [Hb_obs.Timeline] phase
          windows without perturbing the injection draws *)
  policy : Hb_recover.Policy.t;
      (** recovery policy each injected run executes under.  [Abort]
          (the default) is the historical stop-at-first-violation
          behavior; any other policy routes traps through the
          {!Hb_recover.Recover} supervisor, classifying a run as
          [Detected] as soon as one trap fires even if the policy then
          carries it to a clean exit *)
  violation_budget : int;
      (** traps a continuing policy may absorb per run before the
          supervisor forces an abort *)
}

val default : config
(** 100 runs, seed 1, all sites, 16 checkpoints, watchdog x3,
    10k-instruction report windows, abort policy, budget 64. *)

type record = {
  idx : int;
  run_seed : int;  (** reproduces this run's target/bit choices alone *)
  site : Injector.site;
  at_instr : int;  (** injected after this many retired instructions *)
  injection : Injector.injection;
  outcome : Outcome.t;
  status : string;  (** final machine status / hang / exception detail *)
  latency : int option;
      (** instructions from injection to trap ([Detected] only) *)
  diverged_at : int option;
      (** first checkpoint where the architectural digest left golden *)
}

type report = {
  config : config;
  golden_status : string;
  golden_instrs : int;
  golden_output_bytes : int;
  golden_digest : int64;
  checkpoint_interval : int;
  records : record list;  (** one per run, in plan order *)
  deadline_expired : bool;
      (** the wall-clock budget ran out first: [records] is the
          completed prefix, and the journal (if one was written) can
          resume the remainder *)
}

val run :
  ?journal:string ->
  ?resume:string ->
  ?deadline:Hb_recover.Deadline.t ->
  ?progress:Hb_obs.Progress.t ->
  ?observe:(record -> Machine.t -> unit) ->
  mk:(unit -> Machine.t) ->
  config ->
  report
(** Execute a campaign.  [mk] builds a fresh machine for the workload
    (the library deliberately does not know how to compile programs).
    Raises {!Hb_error.Hb_error} if the golden run does not exit cleanly
    or the config is out of range: no runs, no sites, a non-positive
    window interval, or a negative checkpoint count or violation budget.

    [observe] sees each freshly-executed record together with the
    machine that produced it, before the next run reuses that machine —
    the CLI's flame aggregator reads per-run calling-context trees this
    way.  It is strictly read-only with respect to the campaign: the
    report and journal are byte-identical with and without it.

    [journal] writes a crash-resilient JSONL journal: a header binding
    the config and golden reference, then one fsync'd record per
    completed run.  [resume] re-opens such a journal, re-derives the
    plan (a pure function of the config seed), executes only the runs
    the journal never recorded, and returns a report byte-identical to
    an uninterrupted campaign's; the config must match the journal's
    header and the same build/workload must reproduce its golden digest.
    The two are mutually exclusive — a resumed campaign appends to the
    journal it resumes from.  [deadline] bounds wall-clock time, checked
    between runs: on expiry the report covers the completed prefix and
    is flagged [deadline_expired].

    [progress] attaches a live {!Hb_obs.Progress} tracker (injection
    index, outcome tallies, ETA) for the [/progress] endpoint and the
    stderr ticker; it is read-only with respect to the campaign, whose
    report/journal stay byte-identical with or without it.  When an
    ambient {!Hb_obs.Host} profiler is installed, the golden reference
    and the injection sweep run under spans, and a GC/RSS telemetry
    sample is taken every 25 executed runs. *)

(** {2 Sharded execution hooks}

    Everything {!Hb_shard} needs to partition a campaign across forked
    worker processes and deterministically reassemble the serial report:
    the plan is a pure function of the config, each record is a pure
    function of its plan entry plus the golden reference, and the
    journal-record codecs below define the shard files' on-disk format.
    None of these entry points perturb the serial path — [run] is
    implemented on top of them. *)

type golden
(** The golden (uninjected) reference: status, output, instruction
    count, checkpoint digests.  Deterministic for a given workload and
    build. *)

val prepare : mk:(unit -> Machine.t) -> config -> golden
(** Validate the config and execute the golden reference (under a
    ["golden"] host span).  Raises {!Hb_error.Hb_error} as {!run} does. *)

type plan_entry = {
  p_idx : int;
  p_seed : int;
  p_site : Injector.site;
  p_at : int;
}

val plan : config -> golden -> plan_entry list
(** The campaign's full injection plan, in index order.  A pure function
    of (config, golden): every process re-derives the identical list. *)

val execute_plan :
  mk:(unit -> Machine.t) ->
  cfg:config ->
  golden:golden ->
  ?select:(int -> bool) ->
  ?on_start:(plan_entry -> unit) ->
  ?on_record:(record -> unit) ->
  ?observe:(record -> Machine.t -> unit) ->
  ?writer:Hb_recover.Journal.writer ->
  ?deadline:Hb_recover.Deadline.t ->
  ?progress:Hb_obs.Progress.t ->
  prior:record list ->
  unit ->
  report
(** Execute the plan entries that [select] claims (all, by default) and
    that [prior] has not already recorded, journaling each fresh record
    to [writer].  [on_start] fires before each run (shard workers write
    their heartbeat here), [on_record] after its record is journaled;
    neither influences the records.  The returned report covers
    [prior] plus the fresh records of the selected slice only — its
    [deadline_expired] flag is set if the wall clock ran out first. *)

val header_json : config -> golden -> Hb_obs.Json.t
val check_header : string -> Hb_obs.Json.t -> config -> unit
val check_golden : string -> Hb_obs.Json.t -> golden -> unit

val run_record_json : window_interval:int -> record -> Hb_obs.Json.t
(** A record as journaled (the per-run report JSON plus
    [{"type":"run"}]). *)

val record_of_json : string -> Hb_obs.Json.t -> record
(** Decode a journaled run record; the string names the journal in
    errors. *)

val load_journal : string -> Hb_obs.Json.t * record list * bool
(** Read a campaign journal: (header, completed records deduplicated
    first-wins, saw-done-marker).  Raises on a missing header or a
    record that is neither run/ckpt/done. *)

val report_of_header :
  cfg:config ->
  ?deadline_expired:bool ->
  string ->
  Hb_obs.Json.t ->
  record list ->
  report
(** Assemble a report from a journal header and run records without
    executing anything — byte-identical to the serial runner's report
    for the same records. *)

val count : report -> Injector.site option -> Outcome.t -> int
(** Runs of [site] (all sites if [None]) that landed in the bucket. *)

val coverage_table : report -> string
(** Per-site outcome counts and detection coverage, as aligned text. *)

val to_json : report -> Json.t
(** Deterministic report: same seed in, byte-identical JSON out. *)

val export_metrics : report -> Metrics.t -> unit
(** Publish [fault.*] counters and the detection-latency histogram into
    an [hb_obs] metrics registry. *)

(** {2 Stochastic single-run mode}

    The CLI's [--inject SITES:RATE:SEED] without [--campaign]: one run,
    each retired instruction injecting with probability [rate]. *)

type stochastic = {
  injections : (int * Injector.injection) list;
      (** (instruction count, corruption), in program order *)
  s_outcome : Outcome.t;
  s_status : string;
  s_instrs : int;
}

val stochastic_run : mk:(unit -> Machine.t) -> Injector.spec -> stochastic
