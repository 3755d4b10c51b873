(** Deterministic fault-injection campaign runner.

    Strategy: run the workload once uninjected (the *golden* run) to
    learn its instruction count, output and checkpoint digests; then for
    each of the N planned injections, fast-forward to the injection
    point by restoring an architectural snapshot of the golden prefix
    (valid because execution is deterministic from architectural state),
    apply exactly one corruption, and run the suffix under a watchdog.

    Two optimizations keep thousand-run campaigns on multi-million
    instruction workloads tractable, neither affecting classification:

    - the golden prefix is never re-executed (runs are executed in
      injection-point order so one replay machine streams forward once);
    - a suffix whose digest matches golden's at a checkpoint has
      *converged*: the remainder is deterministic and identical, so the
      run is classified immediately ([Masked], or [Divergence] if it had
      strayed earlier).

    Both shortcuts are disabled when the machine runs the temporal or
    tripwire extensions, whose allocation maps live outside the
    architectural snapshot; those campaigns re-execute every prefix. *)

module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Snapshot = Hb_cpu.Snapshot
module Json = Hb_obs.Json
module Metrics = Hb_obs.Metrics
module Host = Hb_obs.Host
module Progress = Hb_obs.Progress
module Policy = Hb_recover.Policy
module Recover = Hb_recover.Recover
module Journal = Hb_recover.Journal
module Deadline = Hb_recover.Deadline
module Interrupt = Hb_recover.Interrupt

type config = {
  label : string;
  runs : int;
  seed : int;
  sites : Injector.site list;
  checkpoints : int;
  watchdog_factor : int;
  keep_run_records : bool;
  window_interval : int;
      (* instruction width of the timeline windows each injection is
         binned into in the JSON report; purely a reporting concern, so
         it cannot perturb the planned injection draws *)
  policy : Policy.t;
      (* recovery policy each injected run executes under; [Abort] is
         the historical stop-at-first-violation behavior *)
  violation_budget : int;
}

let default =
  {
    label = "campaign";
    runs = 100;
    seed = 1;
    sites = Injector.all_sites;
    checkpoints = 16;
    watchdog_factor = 3;
    keep_run_records = true;
    window_interval = 10_000;
    policy = Policy.Abort;
    violation_budget = 64;
  }

type record = {
  idx : int;
  run_seed : int;
  site : Injector.site;
  at_instr : int;
  injection : Injector.injection;
  outcome : Outcome.t;
  status : string;
  latency : int option;
  diverged_at : int option;
}

type report = {
  config : config;
  golden_status : string;
  golden_instrs : int;
  golden_output_bytes : int;
  golden_digest : int64;
  checkpoint_interval : int;
  records : record list;
  deadline_expired : bool;
      (* the wall-clock budget ran out before every planned run
         executed: [records] is the completed prefix and the journal (if
         any) can resume the remainder *)
}

(* ---- golden reference ------------------------------------------------ *)

type golden = {
  g_status : string;
  g_exit : int;
  g_output : string;
  g_instrs : int;
  g_interval : int;
  g_digests : (int, int64) Hashtbl.t;
  g_digest : int64;
}

let instrs_of m = m.Machine.stats.Stats.instructions

(* Run [m] to a halt or to [limit], calling [at m] after each instruction
   that retires normally (the halting one too) on the count [next n], the
   first checkpoint above [n], asked at the start and after each [at].
   [Machine.halt_of_exn] maps what the run raises and re-raises the rest
   ([Converged]).  [None] when the limit stopped a runnable machine. *)
let drive ~limit ~next ~at m =
  let rec go () =
    match m.Machine.halted with
    | Some st -> Some st
    | None ->
      let n = instrs_of m in
      if n >= limit then None
      else begin
        let c = next n in
        Machine.run_to m (min c limit);
        if instrs_of m = c then at m;
        go ()
      end
  in
  try go () with e -> Some (Machine.halt_of_exn m e)

(* The first checkpoint count above [n]: a multiple of [interval] below
   [instrs], the golden run's length. *)
let next_checkpoint ~interval ~instrs n =
  let c = ((n / interval) + 1) * interval in
  if c < instrs then c else max_int

(* An injected run's outcome, status and detection latency from how it
   ended on [m] ([None]: at the watchdog limit), against the reference
   run's exit code, output and digest. *)
let verdict ~g_exit ~g_output ~g_digest ~diverged ~from m ended =
  match ended with
  | None ->
    (Outcome.Hang, Printf.sprintf "hang(@%d instrs)" (instrs_of m), None)
  | Some st -> (
    let name = Machine.status_name st in
    match st with
    | Machine.Bounds_violation _ | Machine.Non_pointer_violation _
    | Machine.Temporal_violation _ | Machine.Software_abort _ ->
      (Outcome.Detected, name, Some (instrs_of m - from))
    | Machine.Fault _ -> (Outcome.Crash, name, None)
    | Machine.Out_of_fuel -> (Outcome.Hang, name, None)
    | Machine.Exited n ->
      if n <> g_exit || Machine.output m <> g_output then
        (Outcome.Silent_corruption, name, None)
      else if diverged <> None || Snapshot.digest m <> g_digest then
        (Outcome.Divergence, name, None)
      else (Outcome.Masked, name, None))

(* Two passes: the first learns the instruction count (needed to place
   checkpoints), the second records a digest at each checkpoint. *)
let golden_of ~(cfg : config) ~mk : golden =
  let m = mk () in
  let st = Machine.run m in
  let g_exit =
    match st with
    | Machine.Exited n -> n
    | st ->
      Hb_error.fail ~component:"campaign"
        "golden run of %s did not exit cleanly: %s" cfg.label
        (Machine.status_name st)
  in
  let g_instrs = instrs_of m in
  if g_instrs < 2 then
    Hb_error.fail ~component:"campaign" "golden run of %s too short (%d instrs)"
      cfg.label g_instrs;
  let g_interval = max 1 (g_instrs / (cfg.checkpoints + 1)) in
  let g_digests = Hashtbl.create 64 in
  let m2 = mk () in
  let record m = Hashtbl.replace g_digests (instrs_of m) (Snapshot.digest m) in
  let next = next_checkpoint ~interval:g_interval ~instrs:g_instrs in
  (match drive ~limit:(g_instrs + 1) ~next ~at:record m2 with
  | Some (Machine.Exited n) when n = g_exit -> ()
  | r ->
    Hb_error.fail ~component:"campaign" "golden replay of %s diverged: %s"
      cfg.label
      (Option.fold r ~some:Machine.status_name
         ~none:(Printf.sprintf "hang(@%d instrs)" (instrs_of m2))));
  {
    g_status = Machine.status_name st;
    g_exit;
    g_output = Machine.output m;
    g_instrs;
    g_interval;
    g_digests;
    g_digest = Snapshot.digest m2;
  }

(* ---- per-run record JSON --------------------------------------------- *)

let record_json ~window_interval (rec_ : record) : Json.t =
  let opt = function None -> Json.Null | Some n -> Json.Int n in
  Json.Obj
    [
      ("run", Json.Int rec_.idx);
      ("seed", Json.Int rec_.run_seed);
      ("site", Json.String (Injector.site_name rec_.site));
      ("at", Json.Int rec_.at_instr);
      ("window", Json.Int (rec_.at_instr / window_interval));
      ("target", Json.Int rec_.injection.Injector.target);
      ("bit", Json.Int rec_.injection.Injector.bit);
      ("before", Json.Int rec_.injection.Injector.before);
      ("after", Json.Int rec_.injection.Injector.after);
      ("outcome", Json.String (Outcome.name rec_.outcome));
      ("status", Json.String rec_.status);
      ("latency", opt rec_.latency);
      ("diverged_at", opt rec_.diverged_at);
    ]

(* ---- write-ahead journal --------------------------------------------- *)

(* The journal is one JSONL file: a header record binding the campaign
   config and golden reference, then one fsync'd record per completed
   run (in execution = injection-point order), a "ckpt" marker every 25
   records, and a final "done" marker.  Resuming reads the intact
   records back, re-derives the plan from the config (it is a pure
   function of the seed), and executes only the missing indices — the
   merged report is byte-identical to an uninterrupted campaign's. *)

let jmem path j k =
  match Json.member k j with
  | Some v -> v
  | None ->
    Hb_error.fail ~component:"journal" "%s: journal record lacks field %S" path
      k

let jstr path j k =
  match jmem path j k with
  | Json.String s -> s
  | _ ->
    Hb_error.fail ~component:"journal" "%s: journal field %S is not a string"
      path k

let jint path j k =
  match Json.to_int (jmem path j k) with
  | Some n -> n
  | None ->
    Hb_error.fail ~component:"journal" "%s: journal field %S is not an integer"
      path k

let jint_opt path j k =
  match jmem path j k with
  | Json.Null -> None
  | v -> (
    match Json.to_int v with
    | Some n -> Some n
    | None ->
      Hb_error.fail ~component:"journal"
        "%s: journal field %S is not an integer" path k)

let run_record_json ~window_interval r =
  match record_json ~window_interval r with
  | Json.Obj fields -> Json.Obj (("type", Json.String "run") :: fields)
  | _ -> assert false

let record_of_json path j : record =
  let site =
    let s = jstr path j "site" in
    match Injector.site_of_name s with
    | Some site -> site
    | None ->
      Hb_error.fail ~component:"journal" "%s: unknown fault site %S" path s
  in
  let outcome =
    let s = jstr path j "outcome" in
    match Outcome.of_name s with
    | Some o -> o
    | None ->
      Hb_error.fail ~component:"journal" "%s: unknown outcome %S" path s
  in
  {
    idx = jint path j "run";
    run_seed = jint path j "seed";
    site;
    at_instr = jint path j "at";
    injection =
      {
        Injector.site;
        target = jint path j "target";
        bit = jint path j "bit";
        before = jint path j "before";
        after = jint path j "after";
      };
    outcome;
    status = jstr path j "status";
    latency = jint_opt path j "latency";
    diverged_at = jint_opt path j "diverged_at";
  }

let header_json (cfg : config) (g : golden) : Json.t =
  Json.Obj
    [
      ("type", Json.String "header");
      ("journal", Json.String "hb-campaign");
      ("version", Json.Int 1);
      ("label", Json.String cfg.label);
      ("runs", Json.Int cfg.runs);
      ("seed", Json.Int cfg.seed);
      ( "sites",
        Json.List
          (List.map (fun s -> Json.String (Injector.site_name s)) cfg.sites) );
      ("checkpoints", Json.Int cfg.checkpoints);
      ("watchdog_factor", Json.Int cfg.watchdog_factor);
      ("window_interval", Json.Int cfg.window_interval);
      ("policy", Json.String (Policy.name cfg.policy));
      ("violation_budget", Json.Int cfg.violation_budget);
      ("golden_status", Json.String g.g_status);
      ("golden_instrs", Json.Int g.g_instrs);
      ("golden_output_bytes", Json.Int (String.length g.g_output));
      ("golden_digest", Json.String (Snapshot.hex g.g_digest));
      ("checkpoint_interval", Json.Int g.g_interval);
    ]

(* Read a journal back: (header, completed records first-idx-wins in
   journal order, saw-done-marker). *)
let load_journal path =
  let entries = Journal.read path in
  match entries with
  | [] ->
    Hb_error.fail ~component:"campaign" "%s: empty journal, nothing to resume"
      path
  | header :: rest ->
    (match Json.member "journal" header with
    | Some (Json.String "hb-campaign") -> ()
    | _ ->
      Hb_error.fail ~component:"campaign" "%s: not an hb-campaign journal" path);
    (match jint path header "version" with
    | 1 -> ()
    | v ->
      Hb_error.fail ~component:"campaign"
        "%s: unsupported journal version %d (have 1)" path v);
    let prior = ref [] in
    let done_ = ref false in
    List.iter
      (fun j ->
        match Json.member "type" j with
        | Some (Json.String "run") -> prior := record_of_json path j :: !prior
        | Some (Json.String "ckpt") -> ()
        | Some (Json.String "done") -> done_ := true
        | _ ->
          Hb_error.fail ~component:"campaign"
            "%s: unrecognized journal record" path)
      rest;
    let seen = Hashtbl.create 64 in
    let prior =
      List.filter
        (fun r ->
          if Hashtbl.mem seen r.idx then false
          else begin
            Hashtbl.add seen r.idx ();
            true
          end)
        (List.rev !prior)
    in
    (header, prior, !done_)

(* Resuming under a different config would splice incompatible plans
   together; refuse rather than produce a quietly wrong report. *)
let check_header path header (cfg : config) =
  let mismatch : 'a. string -> 'a =
   fun what ->
    Hb_error.fail ~component:"campaign"
      "%s: journal %s does not match the requested campaign" path what
  in
  if jstr path header "label" <> cfg.label then mismatch "workload label";
  if jint path header "runs" <> cfg.runs then mismatch "run count";
  if jint path header "seed" <> cfg.seed then mismatch "seed";
  (match jmem path header "sites" with
  | Json.List l ->
    let names =
      List.map (function Json.String s -> s | _ -> mismatch "site list") l
    in
    if names <> List.map Injector.site_name cfg.sites then mismatch "site list"
  | _ -> mismatch "site list");
  if jint path header "checkpoints" <> cfg.checkpoints then
    mismatch "checkpoint count";
  if jint path header "watchdog_factor" <> cfg.watchdog_factor then
    mismatch "watchdog factor";
  if jint path header "window_interval" <> cfg.window_interval then
    mismatch "window interval";
  if jstr path header "policy" <> Policy.name cfg.policy then
    mismatch "recovery policy";
  if jint path header "violation_budget" <> cfg.violation_budget then
    mismatch "violation budget"

let check_golden path header (g : golden) =
  if
    jint path header "golden_instrs" <> g.g_instrs
    || jstr path header "golden_digest" <> Snapshot.hex g.g_digest
  then
    Hb_error.fail ~component:"campaign"
      "%s: journal was recorded against a different build or workload \
       (golden run mismatch)"
      path

(* A finished journal carries everything a report needs; nothing has to
   execute.  The shard merge step reuses this to assemble the campaign
   report from shard-journal records: every report field derives from
   the header + records, so the result is byte-identical to the serial
   runner's. *)
let report_of_header ~cfg ?(deadline_expired = false) path header
    (records : record list) : report =
  {
    config = cfg;
    golden_status = jstr path header "golden_status";
    golden_instrs = jint path header "golden_instrs";
    golden_output_bytes = jint path header "golden_output_bytes";
    golden_digest = Int64.of_string ("0x" ^ jstr path header "golden_digest");
    checkpoint_interval = jint path header "checkpoint_interval";
    records = List.sort (fun a b -> compare a.idx b.idx) records;
    deadline_expired;
  }

(* ---- campaign execution ---------------------------------------------- *)

exception Converged
(** Raised at a checkpoint when the suffix digest matches golden's: the
    remainder of the run is provably identical. *)

let validate (cfg : config) =
  if cfg.runs <= 0 then
    Hb_error.fail ~component:"campaign" "runs must be positive (got %d)"
      cfg.runs;
  if cfg.sites = [] then
    Hb_error.fail ~component:"campaign" "no fault sites selected";
  if cfg.window_interval <= 0 then
    Hb_error.fail ~component:"campaign"
      "window interval must be positive (got %d)" cfg.window_interval;
  if cfg.checkpoints < 0 then
    Hb_error.fail ~component:"campaign"
      "checkpoints must be >= 0 (got %d)" cfg.checkpoints;
  if cfg.violation_budget < 0 then
    Hb_error.fail ~component:"campaign"
      "violation budget must be >= 0 (got %d)" cfg.violation_budget

let prepare ~mk (cfg : config) : golden =
  validate cfg;
  (* the golden reference is a wall-clock phase worth profiling; the span
     hook is a no-op unless a host profiler is installed *)
  Host.span "golden" (fun () ->
      let g = golden_of ~cfg ~mk in
      Host.annotate_live "instrs" g.g_instrs;
      g)

type plan_entry = {
  p_idx : int;
  p_seed : int;
  p_site : Injector.site;
  p_at : int;
}

(* Plan every injection up front from the master stream, so execution
   order (sorted by injection point) cannot influence the draws.  The
   plan is a pure function of (config, golden instruction count): any
   process — the serial runner, a resumed campaign, or a forked shard
   worker — re-derives the identical list.  The per-index draw order
   (seed, then site, then point) is part of the journal contract;
   changing it invalidates every journal and the CI coverage pin. *)
let plan (cfg : config) (golden : golden) : plan_entry list =
  let master = Prng.create ~seed:cfg.seed in
  let site_arr = Array.of_list cfg.sites in
  List.init cfg.runs (fun p_idx ->
      let p_seed = Prng.derive_seed master in
      let p_site = site_arr.(Prng.below master (Array.length site_arr)) in
      let p_at = 1 + Prng.below master (golden.g_instrs - 1) in
      { p_idx; p_seed; p_site; p_at })

(* Execute every planned run that [select] claims (all, for the serial
   runner) and whose index is not already in [prior] (records recovered
   from a journal), appending each fresh record to [writer] before
   moving on.  The plan is re-derived from the config seed, so a resumed
   campaign executes exactly the runs the interrupted one never
   recorded.  [on_start]/[on_record] bracket each run for shard workers
   (heartbeat before, acknowledgement after); both default off and
   nothing they do flows back into the records.  [observe] sees each
   fresh record together with the machine that produced it (before the
   next run restores over it) — the flame aggregator reads per-run
   calling-context trees this way; it is strictly read-only with respect
   to the report, which stays byte-identical with and without it. *)
let execute ~mk ~(cfg : config) ~(golden : golden) ~writer ~deadline
    ~progress ~select ~on_start ~on_record ~observe
    ~(prior : record list) : report =
  let done_idx = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace done_idx r.idx ()) prior;
  let mine p =
    (match select with None -> true | Some f -> f p.p_idx)
    && not (Hashtbl.mem done_idx p.p_idx)
  in
  let by_point =
    List.stable_sort
      (fun a b -> compare a.p_at b.p_at)
      (List.filter mine (plan cfg golden))
  in
  let replay = mk () in
  let fast =
    not (replay.Machine.cfg.Machine.temporal || replay.Machine.cfg.Machine.tripwire)
  in
  let scratch = if fast then mk () else replay in
  (* Live progress is strictly off to the side: it reads the plan and
     the in-flight machine, and nothing it computes flows back, so the
     report is byte-identical with and without a tracker attached. *)
  (match progress with
  | None -> ()
  | Some p ->
    Progress.begin_campaign p ~label:cfg.label ~total:cfg.runs
      ~prior:(List.length prior);
    List.iter
      (fun r -> Progress.seed_outcome p ~outcome:(Outcome.name r.outcome))
      prior);
  let use_recover = cfg.policy <> Policy.Abort in
  let pcfg =
    {
      Policy.default with
      Policy.policy = cfg.policy;
      violation_budget = cfg.violation_budget;
    }
  in
  (* Abort-policy runs stop at the watchdog limit only; [Recover] also
     stops at the machine's fuel (DESIGN.md, "One stepping loop") *)
  let limit = (cfg.watchdog_factor * golden.g_instrs) + 4096 in
  let next_checkpoint =
    next_checkpoint ~interval:golden.g_interval ~instrs:golden.g_instrs
  in
  (* digest-compare against golden at checkpoint boundaries; convergence
     early-exit must stay off under recovery policies, whose
     classification needs the traps to play out *)
  let checkpoint ~early_exit diverged m =
    let n = instrs_of m in
    match Hashtbl.find_opt golden.g_digests n with
    | None -> ()
    | Some d ->
      if Snapshot.digest m = d then begin
        if early_exit then raise Converged
      end
      else if !diverged = None then diverged := Some n
  in
  let last_snap = ref None in
  let snapshot_at at =
    match !last_snap with
    | Some (a, s) when a = at -> s
    | _ ->
      Machine.run_to replay at;
      let s = Snapshot.capture replay in
      last_snap := Some (at, s);
      s
  in
  let last_m = ref None in
  (match progress with
  | None -> ()
  | Some p ->
    Progress.set_poll p (fun () ->
        let m =
          if fast then scratch
          else match !last_m with Some m -> m | None -> replay
        in
        (instrs_of m, Stats.cycles m.Machine.stats)));
  let exec { p_idx = idx; p_seed = run_seed; p_site = site; p_at = at_instr } :
      record =
    let rng = Prng.create ~seed:run_seed in
    let diverged = ref None in
    let inj = ref None in
    let supervise m checkpoint =
      (* supervisor-level Hb_errors (e.g. a broken accounting identity
         after rollback) must surface, not classify as Crash *)
      try `O (Recover.run ~checkpoint ~limit ~config:pcfg m)
      with
      | Hb_error.Hb_error _ as e -> raise e
      | e -> `Crash (Printexc.to_string e)
    in
    let result, final_m =
      if fast then begin
        Snapshot.restore scratch (snapshot_at at_instr);
        scratch.Machine.stats.Stats.instructions <- at_instr;
        inj := Some (Injector.inject rng scratch site);
        let r =
          if use_recover then
            supervise scratch
              (next_checkpoint, checkpoint ~early_exit:false diverged)
          else
            let at = checkpoint ~early_exit:true diverged in
            try `R (drive ~limit ~next:next_checkpoint ~at scratch) with
            | Converged -> `Converged
            | e -> `Crash (Printexc.to_string e)
        in
        (r, scratch)
      end
      else begin
        (* temporal/tripwire state is not snapshot-capturable: re-run
           the prefix and inject on the fly *)
        let m = mk () in
        let next n = if n < at_instr then at_instr else next_checkpoint n in
        let at m =
          if instrs_of m = at_instr then inj := Some (Injector.inject rng m site)
          else checkpoint ~early_exit:false diverged m
        in
        let r =
          if use_recover then supervise m (next, at)
          else
            try `R (drive ~limit ~next ~at m)
            with e -> `Crash (Printexc.to_string e)
        in
        (r, m)
      end
    in
    last_m := Some final_m;
    let verdict =
      verdict ~g_exit:golden.g_exit ~g_output:golden.g_output
        ~g_digest:golden.g_digest ~diverged:!diverged ~from:at_instr final_m
    in
    let outcome, status, latency =
      match result with
      | `Crash msg -> (Outcome.Crash, "exception: " ^ msg, None)
      | `Converged -> (
        match !diverged with
        | None -> (Outcome.Masked, "converged", None)
        | Some _ -> (Outcome.Divergence, "converged-after-divergence", None))
      | `R ended -> verdict ended
      | `O (o : Recover.outcome) ->
        (* a trap fired and the policy handled it: the corruption was
           detected, whatever happened afterwards *)
        if o.Recover.hung then verdict None
        else if o.Recover.traps <> [] then
          let first = List.hd o.Recover.traps in
          ( Outcome.Detected,
            Printf.sprintf "%s after %d trap(s)"
              (Machine.status_name o.Recover.status)
              (List.length o.Recover.traps),
            Some (first.Recover.trap.Hb_recover.Trap.at_instr - at_instr) )
        else verdict (Some o.Recover.status)
    in
    let injection =
      match !inj with
      | Some i -> i
      | None ->
        Hb_error.fail ~component:"campaign"
          "run %d never reached injection point %d" idx at_instr
    in
    {
      idx;
      run_seed;
      site;
      at_instr;
      injection;
      outcome;
      status;
      latency;
      diverged_at = !diverged;
    }
  in
  let ddl = ref false in
  let journaled = ref (List.length prior) in
  let emit_record r =
    match writer with
    | None -> ()
    | Some w ->
      Journal.append w (run_record_json ~window_interval:cfg.window_interval r);
      incr journaled;
      if !journaled mod 25 = 0 then
        Journal.append w
          (Json.Obj
             [ ("type", Json.String "ckpt"); ("completed", Json.Int !journaled) ])
  in
  let executed = ref 0 in
  let fresh =
    List.filter_map
      (fun p ->
        if !ddl then None
        else if Deadline.expired deadline || Interrupt.requested () then begin
          (* an interrupt winds down through the deadline path: stop
             selecting runs, keep everything already journaled, and
             report a well-formed resumable partial *)
          ddl := true;
          None
        end
        else begin
          (match progress with
          | Some pr -> Progress.start_run pr p.p_idx
          | None -> ());
          (match on_start with Some f -> f p | None -> ());
          let r = exec p in
          emit_record r;
          (match observe with
          | Some f -> (
            match !last_m with Some m -> f r m | None -> ())
          | None -> ());
          (match on_record with Some f -> f r | None -> ());
          incr executed;
          (* host-telemetry checkpoint: GC/RSS census every 25 executed
             runs, mirroring the journal's ckpt cadence *)
          if !executed mod 25 = 0 then
            Host.sample_live ~counts:[ ("runs", !executed) ] ();
          (match progress with
          | Some pr ->
            Progress.finish_run pr ~outcome:(Outcome.name r.outcome)
          | None -> ());
          Some r
        end)
      by_point
  in
  let records =
    List.sort (fun a b -> compare a.idx b.idx) (prior @ fresh)
  in
  let complete = List.length records = cfg.runs in
  if complete then begin
    (match writer with
    | Some w -> Journal.append w (Json.Obj [ ("type", Json.String "done") ])
    | None -> ());
    match progress with Some p -> Progress.finish p | None -> ()
  end;
  (* after a recovery-policy or resumed campaign, re-check the timing
     model's accounting identities on the last machine that ran *)
  (match !last_m with
  | Some m when use_recover || prior <> [] -> (
    match Stats.check_invariants m.Machine.stats with
    | Ok () -> ()
    | Error msg ->
      Hb_error.fail ~component:"campaign"
        "accounting identity broken after campaign: %s" msg)
  | _ -> ());
  {
    config = cfg;
    golden_status = golden.g_status;
    golden_instrs = golden.g_instrs;
    golden_output_bytes = String.length golden.g_output;
    golden_digest = golden.g_digest;
    checkpoint_interval = golden.g_interval;
    records;
    deadline_expired = !ddl;
  }

(* Shard workers drive the same engine over a sub-plan: [select] claims
   the worker's indices, [on_start]/[on_record] bracket each run for the
   heartbeat/acknowledgement protocol, and [writer] is the worker's own
   shard journal. *)
let execute_plan ~mk ~(cfg : config) ~golden ?select ?on_start ?on_record
    ?observe ?writer ?(deadline = Deadline.none) ?progress ~prior () : report =
  execute ~mk ~cfg ~golden ~writer ~deadline ~progress ~select ~on_start
    ~on_record ~observe ~prior

let run ?journal ?resume ?(deadline = Deadline.none) ?progress ?observe ~mk
    (cfg : config) : report =
  validate cfg;
  (* the golden reference and the injection sweep are the two wall-clock
     phases worth profiling; span hooks are no-ops unless a host
     profiler is installed and never touch the report *)
  let golden_of ~cfg ~mk = prepare ~mk cfg in
  let execute ~writer ~prior ~golden =
    Host.span "runs" (fun () ->
        Host.annotate_live "runs" (cfg.runs - List.length prior);
        execute ~mk ~cfg ~golden ~writer ~deadline ~progress ~select:None
          ~on_start:None ~on_record:None ~observe ~prior)
  in
  match resume with
  | None -> (
    let golden = golden_of ~cfg ~mk in
    match journal with
    | None -> execute ~writer:None ~prior:[] ~golden
    | Some path ->
      (match progress with Some p -> Progress.set_journal p path | None -> ());
      let w = Journal.create path in
      Fun.protect
        ~finally:(fun () -> Journal.close w)
        (fun () ->
          Journal.append w (header_json cfg golden);
          execute ~writer:(Some w) ~prior:[] ~golden))
  | Some path ->
    if journal <> None then
      Hb_error.fail ~component:"campaign"
        "--journal and --resume are exclusive (a resumed campaign appends \
         to the journal it resumes from)";
    (match progress with Some p -> Progress.set_resume p path | None -> ());
    let header, prior, done_ = load_journal path in
    check_header path header cfg;
    if done_ then begin
      if List.length prior <> cfg.runs then
        Hb_error.fail ~component:"campaign"
          "%s: journal is marked done but holds %d of %d run records" path
          (List.length prior) cfg.runs;
      report_of_header ~cfg path header prior
    end
    else begin
      let golden = golden_of ~cfg ~mk in
      check_golden path header golden;
      let w = Journal.append_to path in
      Fun.protect
        ~finally:(fun () -> Journal.close w)
        (fun () -> execute ~writer:(Some w) ~prior ~golden)
    end

(* ---- reporting ------------------------------------------------------- *)

let count (r : report) site outcome =
  List.fold_left
    (fun acc rec_ ->
      if rec_.outcome = outcome
         && (match site with None -> true | Some s -> rec_.site = s)
      then acc + 1
      else acc)
    0 r.records

let site_total (r : report) site =
  List.fold_left
    (fun acc rec_ -> if rec_.site = site then acc + 1 else acc)
    0 r.records

let coverage site_runs detected =
  if site_runs = 0 then 0. else float_of_int detected /. float_of_int site_runs

let coverage_table (r : report) : string =
  let b = Buffer.create 512 in
  Printf.bprintf b "%-10s %6s" "site" "runs";
  List.iter
    (fun o -> Printf.bprintf b " %9s" (Outcome.name o))
    Outcome.all;
  Printf.bprintf b " %9s\n" "coverage";
  let row name total site =
    Printf.bprintf b "%-10s %6d" name total;
    List.iter (fun o -> Printf.bprintf b " %9d" (count r site o)) Outcome.all;
    Printf.bprintf b " %8.1f%%\n"
      (100. *. coverage total (count r site Outcome.Detected))
  in
  List.iter
    (fun s -> row (Injector.site_name s) (site_total r s) (Some s))
    r.config.sites;
  row "total" (List.length r.records) None;
  Buffer.contents b

let to_json (r : report) : Json.t =
  let cfg = r.config in
  let coverage_rows =
    List.map
      (fun site ->
        let total = site_total r site in
        Json.Obj
          (("site", Json.String (Injector.site_name site))
           :: ("runs", Json.Int total)
           :: List.map
                (fun o -> (Outcome.name o, Json.Int (count r (Some site) o)))
                Outcome.all
           @ [
               ( "coverage",
                 Json.Float (coverage total (count r (Some site) Outcome.Detected))
               );
             ]))
      cfg.sites
    @ [
        (let total = List.length r.records in
         Json.Obj
           (("site", Json.String "total")
            :: ("runs", Json.Int total)
            :: List.map
                 (fun o -> (Outcome.name o, Json.Int (count r None o)))
                 Outcome.all
            @ [
                ( "coverage",
                  Json.Float (coverage total (count r None Outcome.Detected)) );
              ]));
      ]
  in
  Json.Obj
    ([
       ( "campaign",
         Json.Obj
           [
             ("label", Json.String cfg.label);
             ("runs", Json.Int cfg.runs);
             ("seed", Json.Int cfg.seed);
             ( "sites",
               Json.List
                 (List.map
                    (fun s -> Json.String (Injector.site_name s))
                    cfg.sites) );
             ("checkpoints", Json.Int cfg.checkpoints);
             ("watchdog_factor", Json.Int cfg.watchdog_factor);
             ("window_interval", Json.Int cfg.window_interval);
             ("policy", Json.String (Policy.name cfg.policy));
             ("violation_budget", Json.Int cfg.violation_budget);
           ] );
       ( "golden",
         Json.Obj
           [
             ("status", Json.String r.golden_status);
             ("instrs", Json.Int r.golden_instrs);
             ("output_bytes", Json.Int r.golden_output_bytes);
             ("digest", Json.String (Snapshot.hex r.golden_digest));
             ("checkpoint_interval", Json.Int r.checkpoint_interval);
           ] );
       ("coverage", Json.List coverage_rows);
     ]
    @ (if r.deadline_expired then
         [
           ("deadline_expired", Json.Bool true);
           ("completed", Json.Int (List.length r.records));
         ]
       else [])
    @
    if cfg.keep_run_records then
      [ ("runs",
         Json.List
           (List.map
              (record_json ~window_interval:cfg.window_interval)
              r.records)) ]
    else [])

let export_metrics (r : report) (reg : Metrics.t) =
  let wl = ("workload", r.config.label) in
  Metrics.set_counter reg ~labels:[ wl ] "fault.golden_instrs" r.golden_instrs;
  List.iter
    (fun site ->
      List.iter
        (fun o ->
          Metrics.set_counter reg
            ~labels:
              [ wl; ("site", Injector.site_name site); ("outcome", Outcome.name o) ]
            "fault.runs"
            (count r (Some site) o))
        Outcome.all)
    r.config.sites;
  let h = Metrics.histogram reg ~labels:[ wl ] "fault.detect_latency" in
  List.iter
    (fun rec_ ->
      match rec_.latency with Some l -> Metrics.observe h l | None -> ())
    r.records

(* ---- stochastic single-run mode -------------------------------------- *)

type stochastic = {
  injections : (int * Injector.injection) list;
  s_outcome : Outcome.t;
  s_status : string;
  s_instrs : int;
}

let stochastic_run ~mk (spec : Injector.spec) : stochastic =
  let g = mk () in
  let g_exit =
    match Machine.run g with
    | Machine.Exited n -> n
    | st ->
      Hb_error.fail ~component:"campaign"
        "reference run did not exit cleanly: %s" (Machine.status_name st)
  in
  let g_instrs = instrs_of g in
  let g_output = Machine.output g in
  let g_digest = Snapshot.digest g in
  let rng = Prng.create ~seed:spec.Injector.seed in
  let sites = Array.of_list spec.Injector.sites in
  let m = mk () in
  let injections = ref [] in
  let limit = (4 * g_instrs) + 4096 in
  (* one draw per retired instruction, the halting one included: the
     next injection falls on the first count whose draw is under the
     rate, and no count past the limit retires *)
  let rec next n =
    let n = n + 1 in
    if n > limit || Prng.float rng < spec.Injector.rate then n else next n
  in
  let at m =
    let site = sites.(Prng.below rng (Array.length sites)) in
    let i = Injector.inject rng m site in
    injections := (instrs_of m, i) :: !injections
  in
  let s_outcome, s_status, _ =
    match drive ~limit ~next ~at m with
    | ended -> verdict ~g_exit ~g_output ~g_digest ~diverged:None ~from:0 m ended
    | exception e -> (Outcome.Crash, "exception: " ^ Printexc.to_string e, None)
  in
  {
    injections = List.rev !injections;
    s_outcome;
    s_status;
    s_instrs = instrs_of m;
  }
