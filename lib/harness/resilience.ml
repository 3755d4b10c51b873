(** Fault-campaign harness: glue between the workload registry and the
    [hb_fault] campaign runner, for the bench experiments.

    [hb_fault] deliberately takes an opaque machine factory; this module
    supplies one — compile a workload once, then stamp out identical
    machines per run.  Campaigns with other modes, encodings, journals or
    workers go through [hardbound_run --workload NAME --campaign N]. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Campaign = Hb_fault.Campaign

(** Compile workload [name] once under HardBound's default configuration;
    the returned thunk stamps out fresh, identically-configured machines —
    the [mk] a campaign needs. *)
let machine_maker name =
  let w = Hb_workloads.Workloads.find name in
  let image, globals = Build.compile ~mode:Codegen.Hardbound w.source in
  let config = Build.config_for Codegen.Hardbound in
  fun () -> Machine.create ~config ~globals image

(** Run a campaign over a named Olden workload.  [config.label] is
    overridden with the workload name. *)
let campaign (config : Campaign.config) name =
  Campaign.run ~mk:(machine_maker name) { config with Campaign.label = name }

(** Sharded variant of {!campaign}: partition the plan across
    [shard_cfg.jobs] forked, supervised workers ({!Hb_shard.Shard}); the
    merged report is byte-identical to {!campaign}'s. *)
let sharded_campaign ~(shard_cfg : Hb_shard.Supervisor.config)
    (config : Campaign.config) name =
  Hb_shard.Shard.run ~cfg:shard_cfg ~mk:(machine_maker name)
    { config with Campaign.label = name }
