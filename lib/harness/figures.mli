(** Regeneration of the paper's evaluation tables and figures as text
    tables and structured JSON (EXPERIMENTS.md tracks paper-vs-measured).

    The suite-driven figures take the shared {!Suite.collect} result and
    offer both renderings; the self-contained experiments come as
    [*_report] functions returning the text table together with its JSON
    form from a single measurement pass. *)

val figure5 : Suite.per_workload list -> string
(** Runtime overhead of HardBound by pointer encoding, decomposed into
    the paper's four segments. *)

val figure5_json : Suite.per_workload list -> Hb_obs.Json.t
(** Per-benchmark, per-encoding cycles and overhead decomposition. *)

val figure6 : Suite.per_workload list -> string
(** Extra distinct 4KB pages touched, split into tag and base/bound
    metadata. *)

val figure6_json : Suite.per_workload list -> Hb_obs.Json.t

val figure7 : Suite.per_workload list -> string
(** Comparison against the software-only schemes (published columns
    transcribed, simulated columns measured). *)

val figure7_json : Suite.per_workload list -> Hb_obs.Json.t

val uop_ablation_report : unit -> string * Hb_obs.Json.t
(** Section 5.4: charge one extra micro-op per bounds check of an
    uncompressed pointer. *)

val correctness_report : unit -> string * Hb_obs.Json.t
(** Section 5.2: full violation-corpus sweep. *)

val malloc_only_report : unit -> string * Hb_obs.Json.t
(** Section 3.2: detection scope of the legacy-binary mode. *)

val redzone_report : unit -> string * Hb_obs.Json.t
(** Section 2.1: red-zone tripwire baseline — detection and its gap. *)

val temporal_report : unit -> string * Hb_obs.Json.t
(** Section 6.2: the temporal-tracking extension on micro-tests. *)
