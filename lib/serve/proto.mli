(** The daemon's wire protocol: job specifications as JSON.

    A job is a fault campaign — the same knobs the CLI's
    [--workload/--mode/--inject/--campaign] flags expose, as one JSON
    object.  The codec is strict (unknown fields and bad names are typed
    errors naming the field, never silent defaults for typos) and
    canonical ([spec_of_json (spec_to_json s) = s]), because the encoded
    spec is what the queue journal persists and replays after a crash. *)

module Codegen := Hb_minic.Codegen
module Encoding := Hardbound.Encoding
module Injector := Hb_fault.Injector
module Policy := Hb_recover.Policy
module Campaign := Hb_fault.Campaign
module Json := Hb_obs.Json

(** Deliberate misbehavior for robustness tests and CI soaks: a [Hang]
    job never journals a byte (the watchdog must kill it); [Crash k]
    dies with an unclean exit on its first [k] attempts, then runs
    normally (retry/backoff must absorb it). *)
type chaos = Hang | Crash of int

type spec = {
  tenant : string;  (** fairness/quota bucket; default ["default"] *)
  workload : string;  (** Olden workload name *)
  mode : Codegen.mode;
  scheme : Encoding.scheme;
  runs : int;
  seed : int;
  sites : Injector.site list;
  checkpoints : int;
  policy : Policy.t;
  violation_budget : int;
  deadline_s : float option;
      (** per-job wall budget; the daemon's default applies when absent *)
  jobs : int;  (** shard workers inside the job (1 = serial) *)
  chaos : chaos option;
}

val default : spec
(** A 1-run hardbound/extern-4 treeadd campaign with the campaign
    defaults (seed 1, all sites, 16 checkpoints, abort policy); the base
    every parsed spec overrides. *)

val sites_of_string : string -> Injector.site list
(** ["all"] or a comma list of [mem|tag|shadow|reg|regbounds].  Raises a
    typed {!Hb_error.Hb_error} on unknown names. *)

val chaos_of_string : string -> chaos
(** ["hang"] or ["crash:K"].  Raises a typed {!Hb_error.Hb_error}
    otherwise. *)

val chaos_to_string : chaos -> string

val spec_of_json : Json.t -> spec
(** Decode and validate a job spec.  Raises a typed
    {!Hb_error.Hb_error} naming the offending field for: a missing or
    unknown [workload], unknown [mode]/[scheme]/[policy]/[sites] names,
    non-positive [runs]/[deadline_s], [jobs] outside 1-256, and any
    unknown field (a typo must never silently become a default). *)

val spec_to_json : spec -> Json.t
(** Canonical encoding; [spec_of_json] round-trips it exactly. *)

val campaign_config : spec -> Campaign.config
(** The campaign configuration a CLI invocation with the same flags
    builds — field for field, so the daemon's reports are byte-identical
    to [hardbound_run --workload W --inject SITES:0:SEED --campaign N]. *)

val source : spec -> string
(** The workload's MiniC source ({!Hb_workloads.Workloads.find}). *)
