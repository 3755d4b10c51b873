(* Sharded campaign engine tests: static partitioning, byte-identical
   merge at every worker count, crash-and-respawn convergence under real
   SIGKILLs (including two workers racing on respawn and a whole-tree
   kill with a torn shard tail), the heartbeat watchdog on a hung
   worker, jobs-mismatch rejection on resume, and graceful degradation
   when the respawn budget is exhausted. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Json = Hb_obs.Json
module Journal = Hb_recover.Journal
module Campaign = Hb_fault.Campaign
module Partition = Hb_shard.Partition
module Merge = Hb_shard.Merge
module Supervisor = Hb_shard.Supervisor
module Pool = Hb_shard.Pool
module Shard = Hb_shard.Shard

(* ---- fixtures ---------------------------------------------------------- *)

(* Real pointer traffic, sized so one campaign run takes long enough
   that a test can SIGKILL/SIGSTOP a worker mid-slice. *)
let chunky_src =
  {|
int main() {
  int *cells[32];
  int i;
  int k;
  int sum;
  for (i = 0; i < 32; i++) {
    cells[i] = (int*)malloc(16);
    cells[i][0] = i * 3;
    cells[i][1] = i;
  }
  sum = 0;
  k = 0;
  for (i = 0; i < 6000; i++) {
    sum = sum + cells[k][0] + cells[k][1];
    k = k + 1;
    if (k == 32) { k = 0; }
  }
  print_int(sum);
  return 0;
}
|}

let maker () =
  let image, globals = Build.compile ~mode:Codegen.Hardbound chunky_src in
  let config = Build.config_for Codegen.Hardbound in
  fun () -> Machine.create ~config ~globals image

let campaign_cfg ~runs =
  { Campaign.default with Campaign.label = "shard-test"; runs; seed = 11 }

let report_string r = Json.to_string_pretty (Campaign.to_json r)

let temp_base () =
  let p = Filename.temp_file "hb_shard_test" ".jsonl" in
  Sys.remove p;
  p

let remove_if_exists p = if Sys.file_exists p then Sys.remove p

let cleanup ~base ~jobs =
  remove_if_exists base;
  List.iter
    (fun shard -> remove_if_exists (Partition.shard_path ~base ~shard))
    (List.init jobs (fun k -> k))

let scfg ?(jobs = 2) ?(max_worker_restarts = 3) ?(heartbeat_timeout_s = 60.)
    () =
  { Supervisor.default with
    Supervisor.jobs;
    max_worker_restarts;
    heartbeat_timeout_s }

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  end

(* tolerant concurrent read: parse what parses, skip torn lines *)
let parsed_records path =
  List.filter_map
    (fun l -> match Json.of_string l with j -> Some j | exception _ -> None)
    (read_lines path)

let run_record_count ~base ~jobs =
  List.fold_left
    (fun acc shard ->
      let recs = parsed_records (Partition.shard_path ~base ~shard) in
      acc
      + List.length
          (List.filter (fun j -> Journal.record_type j = Some "run") recs))
    0
    (List.init jobs (fun k -> k))

(* (pid, completed) of the last heartbeat in one shard journal *)
let last_heartbeat path =
  List.fold_left
    (fun acc j ->
      if Journal.is_heartbeat j then
        match
          ( Option.bind (Json.member "pid" j) Json.to_int,
            Option.bind (Json.member "completed" j) Json.to_int )
        with
        | Some pid, Some completed -> Some (pid, completed)
        | _ -> acc
      else acc)
    None (parsed_records path)

(* Fork a saboteur process: poll the shard journals for worker
   heartbeats and deliver [signal] to the current worker of [count]
   distinct shards (at most once per shard — a respawned worker is left
   alone) once that shard acknowledges [min_completed] runs.  The parent
   SIGKILLs it when the campaign is over, so a missed window cannot
   hang the test. *)
let fork_saboteur ~base ~jobs ~signal ~count ?(min_completed = 0) () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let hit = Hashtbl.create 4 in
    let deadline = Unix.gettimeofday () +. 60.0 in
    let rec loop () =
      if Hashtbl.length hit >= count || Unix.gettimeofday () > deadline then
        Unix._exit 0;
      List.iter
        (fun shard ->
          if Hashtbl.length hit < count && not (Hashtbl.mem hit shard) then
            match last_heartbeat (Partition.shard_path ~base ~shard) with
            | Some (pid, completed) when completed >= min_completed ->
              (try
                 Unix.kill pid signal;
                 Hashtbl.add hit shard ()
               with Unix.Unix_error _ -> ())
            | _ -> ())
        (List.init jobs (fun k -> k));
      ignore (Unix.select [] [] [] 0.005);
      loop ()
    in
    loop ()
  | pid -> pid

let reap_saboteur pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* ---- partition --------------------------------------------------------- *)

let test_partition () =
  Alcotest.(check int) "owner is index mod jobs" 2 (Partition.owner ~jobs:3 5);
  Alcotest.(check bool) "select agrees with owner" true
    (Partition.select ~jobs:3 ~shard:2 5);
  (* sizes partition the run count exactly, for any remainder *)
  List.iter
    (fun (jobs, runs) ->
      let total =
        List.fold_left
          (fun acc shard -> acc + Partition.size ~jobs ~shard ~runs)
          0
          (List.init jobs (fun k -> k))
      in
      Alcotest.(check int)
        (Printf.sprintf "sizes sum to runs (%d jobs, %d runs)" jobs runs)
        runs total)
    [ (1, 7); (3, 7); (4, 8); (8, 3) ];
  (match Partition.validate ~jobs:0 with
   | () -> Alcotest.fail "jobs=0 must be rejected"
   | exception Hb_error.Hb_error _ -> ());
  (match Partition.validate ~jobs:1000 with
   | () -> Alcotest.fail "jobs=1000 must be rejected"
   | exception Hb_error.Hb_error _ -> ())

(* ---- byte-identity ----------------------------------------------------- *)

let test_jobs1_identical () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:10 in
  let serial = Campaign.run ~mk cfg in
  let sharded = Shard.run ~cfg:(scfg ~jobs:1 ()) ~mk cfg in
  Alcotest.(check string) "--jobs 1 is byte-identical to the serial runner"
    (report_string serial) (report_string sharded)

let test_jobs3_identical_and_merged_journal () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:14 in
  let serial = Campaign.run ~mk cfg in
  let base = temp_base () in
  let sharded = Shard.run ~journal:base ~cfg:(scfg ~jobs:3 ()) ~mk cfg in
  Alcotest.(check string) "--jobs 3 merge is byte-identical"
    (report_string serial) (report_string sharded);
  (* the completed sharded run left a normal done journal at the base:
     both the serial and the sharded resume paths reconstruct from it
     with zero execution *)
  let serial_resumed = Campaign.run ~resume:base ~mk cfg in
  Alcotest.(check string) "serial --resume replays the merged journal"
    (report_string serial) (report_string serial_resumed);
  let sharded_resumed =
    Shard.run ~resume:base ~cfg:(scfg ~jobs:3 ()) ~mk cfg
  in
  Alcotest.(check string) "sharded --resume replays the merged journal"
    (report_string serial) (report_string sharded_resumed);
  cleanup ~base ~jobs:3

(* ---- worker death and respawn ------------------------------------------ *)

let test_sigkill_two_workers () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:36 in
  let serial = Campaign.run ~mk cfg in
  let base = temp_base () in
  (* kill the live worker of two different shards as soon as each has a
     heartbeat: both respawn (racing through the backoff window) and
     must converge on the identical report *)
  let saboteur =
    fork_saboteur ~base ~jobs:3 ~signal:Sys.sigkill ~count:2 ()
  in
  let sharded = Shard.run ~journal:base ~cfg:(scfg ~jobs:3 ()) ~mk cfg in
  reap_saboteur saboteur;
  Alcotest.(check string)
    "two SIGKILLed workers respawn and converge byte-identically"
    (report_string serial) (report_string sharded);
  cleanup ~base ~jobs:3

let test_watchdog_hung_worker () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:24 in
  let serial = Campaign.run ~mk cfg in
  let base = temp_base () in
  (* SIGSTOP one worker late in its slice (around the final injections):
     its journal stops growing, the watchdog must SIGKILL it and the
     respawn finishes the remainder *)
  let per_shard = Partition.size ~jobs:2 ~shard:0 ~runs:24 in
  let saboteur =
    fork_saboteur ~base ~jobs:2 ~signal:Sys.sigstop ~count:1
      ~min_completed:(per_shard - 3) ()
  in
  let sharded =
    Shard.run ~journal:base
      ~cfg:(scfg ~jobs:2 ~heartbeat_timeout_s:0.6 ())
      ~mk cfg
  in
  reap_saboteur saboteur;
  Alcotest.(check string)
    "hung worker is SIGKILLed by the watchdog and its respawn converges"
    (report_string serial) (report_string sharded);
  cleanup ~base ~jobs:2

let test_kill_tree_then_resume () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:36 in
  let serial = Campaign.run ~mk cfg in
  let base = temp_base () in
  flush stdout;
  flush stderr;
  (match Unix.fork () with
   | 0 ->
     (try ignore (Shard.run ~journal:base ~cfg:(scfg ~jobs:2 ()) ~mk cfg)
      with _ -> ());
     Unix._exit 0
   | sup ->
     (* wait for some acknowledged records, then kill the whole tree:
        supervisor first, surviving workers after *)
     let deadline = Unix.gettimeofday () +. 60.0 in
     while
       run_record_count ~base ~jobs:2 < 4
       && Unix.gettimeofday () < deadline
     do
       ignore (Unix.select [] [] [] 0.01)
     done;
     Alcotest.(check bool) "campaign made progress before the kill" true
       (run_record_count ~base ~jobs:2 >= 4);
     Unix.kill sup Sys.sigkill;
     ignore (Unix.waitpid [] sup);
     let worker_pids =
       List.filter_map
         (fun shard ->
           Option.map fst
             (last_heartbeat (Partition.shard_path ~base ~shard)))
         [ 0; 1 ]
     in
     List.iter
       (fun pid ->
         try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
       worker_pids;
     (* orphaned workers are init's children, not ours: poll until the
        SIGKILLs have landed *)
     let gone pid =
       match Unix.kill pid 0 with
       | () -> false
       | exception Unix.Unix_error _ -> true
     in
     let deadline = Unix.gettimeofday () +. 10.0 in
     while
       not (List.for_all gone worker_pids)
       && Unix.gettimeofday () < deadline
     do
       ignore (Unix.select [] [] [] 0.01)
     done);
  (* worst-case shard states: one worker died between fork and its
     header write (empty file), the other left a torn tail *)
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_trunc ]
      0o644
      (Partition.shard_path ~base ~shard:0)
  in
  close_out oc;
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_append ]
      0o644
      (Partition.shard_path ~base ~shard:1)
  in
  output_string oc {|{"type": "run", "idx|};
  close_out oc;
  let resumed = Shard.run ~resume:base ~cfg:(scfg ~jobs:2 ()) ~mk cfg in
  Alcotest.(check string)
    "whole-tree SIGKILL + empty shard + torn tail resumes byte-identically"
    (report_string serial) (report_string resumed);
  cleanup ~base ~jobs:2

let test_heartbeat_only_torn_tail_resume () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:14 in
  let serial = Campaign.run ~mk cfg in
  let base = temp_base () in
  ignore (Shard.run ~journal:base ~cfg:(scfg ~jobs:2 ()) ~mk cfg);
  (* forge the nastiest crash shape: no merged base journal, shard 0
     missing its done marker and its last acknowledged run record, and
     the file ending in a heartbeat whose write was torn mid-line (the
     nosync channel heartbeats ride makes exactly this tail possible) *)
  Sys.remove base;
  let shard0 = Partition.shard_path ~base ~shard:0 in
  let lines = read_lines shard0 in
  let keep =
    let last_run =
      List.fold_left
        (fun (i, last) l ->
          let is_run =
            match Json.of_string l with
            | j -> Journal.record_type j = Some "run"
            | exception _ -> false
          in
          (i + 1, if is_run then i else last))
        (0, -1) lines
      |> snd
    in
    List.filteri
      (fun i l ->
        i <> last_run
        &&
        match Json.of_string l with
        | j -> Journal.record_type j <> Some "done"
        | exception _ -> true)
      lines
  in
  Alcotest.(check bool) "the doctored shard really lost records" true
    (List.length keep < List.length lines);
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 shard0
  in
  List.iter (fun l -> output_string oc (l ^ "\n")) keep;
  output_string oc {|{"type": "hb", "pid": 1, "seq": 99, "completed": 6|};
  close_out oc;
  let resumed = Shard.run ~resume:base ~cfg:(scfg ~jobs:2 ()) ~mk cfg in
  Alcotest.(check string)
    "heartbeat-only torn tail + missing done marker resumes byte-identically"
    (report_string serial) (report_string resumed);
  cleanup ~base ~jobs:2

let test_exhausted_restarts_adopted () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:24 in
  let serial = Campaign.run ~mk cfg in
  let base = temp_base () in
  (* zero respawn budget: the first SIGKILL exhausts the shard and the
     parent must adopt the slice inline (graceful degradation) *)
  let saboteur =
    fork_saboteur ~base ~jobs:2 ~signal:Sys.sigkill ~count:1 ()
  in
  let sharded =
    Shard.run ~journal:base
      ~cfg:(scfg ~jobs:2 ~max_worker_restarts:0 ())
      ~mk cfg
  in
  reap_saboteur saboteur;
  Alcotest.(check string)
    "exhausted respawn budget degrades to inline adoption, identically"
    (report_string serial) (report_string sharded);
  cleanup ~base ~jobs:2

(* ---- typed failures ---------------------------------------------------- *)

let test_jobs_mismatch_rejected () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:10 in
  let golden = Campaign.prepare ~mk cfg in
  let base = temp_base () in
  (* a shard journal pinned to jobs=2 cannot be resumed with jobs=3 *)
  let w = Journal.create (Partition.shard_path ~base ~shard:0) in
  Journal.append w
    (Journal.shard_header_json
       ~campaign:(Campaign.header_json cfg golden)
       ~shard:0 ~jobs:2);
  Journal.close w;
  (match Shard.run ~resume:base ~cfg:(scfg ~jobs:3 ()) ~mk cfg with
   | _ -> Alcotest.fail "resume with a different --jobs must be rejected"
   | exception Hb_error.Hb_error (ctx, msg) ->
     Alcotest.(check string) "typed component" "shard"
       ctx.Hb_error.component;
     Alcotest.(check bool)
       (Printf.sprintf "escalation carries a resume hint: %S" msg)
       true
       (let needle = "--resume" in
        let nh = String.length msg and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub msg i nn = needle || go (i + 1))
        in
        go 0));
  cleanup ~base ~jobs:3

let test_journal_resume_exclusive () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:4 in
  let base = temp_base () in
  (match Shard.run ~journal:base ~resume:base ~cfg:(scfg ()) ~mk cfg with
   | _ -> Alcotest.fail "--journal with --resume must be rejected"
   | exception Hb_error.Hb_error _ -> ());
  cleanup ~base ~jobs:2

(* Respawn backoff is a pure function of (base, cap, restart ordinal):
   deterministic, monotone non-decreasing, and capped — and the cap must
   be reachable inside the restart budget, or it is dead configuration. *)
let test_backoff_schedule () =
  let schedule ~base_s ~cap_s ~restarts =
    List.init restarts (fun i -> Pool.backoff ~base_s ~cap_s ~restart:(i + 1))
  in
  let base_s = 0.25 and cap_s = 2.0 in
  (* deterministic: same inputs, same delays *)
  Alcotest.(check (list (float 1e-9)))
    "pure function of the restart ordinal"
    (schedule ~base_s ~cap_s ~restarts:8)
    (schedule ~base_s ~cap_s ~restarts:8);
  let sched = schedule ~base_s ~cap_s ~restarts:8 in
  Alcotest.(check int) "one delay per allowed restart" 8 (List.length sched);
  Alcotest.(check (list (float 1e-9)))
    "doubles from the base, then saturates at the cap"
    [ 0.25; 0.5; 1.0; 2.0; 2.0; 2.0; 2.0; 2.0 ]
    sched;
  (* monotone non-decreasing *)
  ignore
    (List.fold_left
       (fun prev d ->
         Alcotest.(check bool) "monotone" true (d >= prev);
         d)
       0. sched);
  (* the cap is reached strictly before the budget poisons the shard *)
  let hits_cap = List.filteri (fun i d -> i < 7 && d >= cap_s) sched in
  Alcotest.(check bool) "cap reached before the restart budget" true
    (hits_cap <> []);
  (* restart 0 (first spawn) waits nothing; negatives are clamped *)
  Alcotest.(check (float 1e-9)) "no delay before the first spawn" 0.
    (Pool.backoff ~base_s ~cap_s ~restart:0);
  Alcotest.(check (float 1e-9)) "negative ordinal clamps to zero" 0.
    (Pool.backoff ~base_s ~cap_s ~restart:(-3));
  (* the stock config's schedule, pinned: a change must be deliberate *)
  let d = Supervisor.default in
  Alcotest.(check (list (float 1e-9)))
    "default schedule" [ 0.25; 0.5; 1.0 ]
    (schedule ~base_s:d.Supervisor.backoff_base_s
       ~cap_s:d.Supervisor.backoff_cap_s ~restarts:d.Supervisor.max_worker_restarts)

(* An exception that leaves the supervisor — here the log sink raising
   on the second "spawned" line — takes the workers with it: every pid
   logged so far is SIGKILLed and reaped before the exception arrives. *)
let test_escape_kills_workers () =
  let mk = maker () in
  let cfg = campaign_cfg ~runs:24 in
  let base = temp_base () in
  let pids = ref [] in
  let log line =
    match
      Scanf.sscanf line "[shard] worker %d pid %d spawned" (fun _ pid -> pid)
    with
    | pid ->
      pids := pid :: !pids;
      if List.length !pids = 2 then failwith "log sink failed"
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
  in
  (match
     Shard.run ~journal:base
       ~cfg:{ (scfg ~jobs:2 ()) with Supervisor.log = Some log }
       ~mk cfg
   with
   | _ -> Alcotest.fail "the log sink's exception must leave Shard.run"
   | exception Failure msg ->
     Alcotest.(check string) "the sink's own exception" "log sink failed" msg);
  Alcotest.(check int) "two workers were logged" 2 (List.length !pids);
  let alive =
    List.filter
      (fun pid ->
        match Unix.kill pid 0 with
        | () -> true
        | exception Unix.Unix_error _ -> false)
      !pids
  in
  (* leave nothing running, whatever the verdict *)
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    alive;
  cleanup ~base ~jobs:2;
  Alcotest.(check (list int)) "every logged worker is gone" [] alive

(* A pool child that dies by a signal is named by the signal, as the
   interrupt path names SIGTERM: a SIGKILLed worker logs and journals
   "killed by SIGKILL", not OCaml's own negative signal number. *)
let test_killed_child_names_signal () =
  let pool = Pool.create ~attempts:1 ~backoff_base_s:0. ~backoff_cap_s:0. in
  (match
     Pool.spawn pool () ~timeout_s:60. (fun () ->
         Unix.kill (Unix.getpid ()) Sys.sigkill;
         Pool.Ok)
   with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
  let rec ending polls =
    match Pool.poll pool with
    | [] when polls > 0 ->
      Unix.sleepf 0.01;
      ending (polls - 1)
    | [ (_, _, Pool.Exited (Pool.Crashed why)) ] -> why
    | _ -> Alcotest.fail "expected one crashed child"
  in
  Alcotest.(check string) "crash reason" "killed by SIGKILL" (ending 3000)

let () =
  Alcotest.run "shard"
    [
      ("partition", [ Alcotest.test_case "algebra" `Quick test_partition ]);
      ( "backoff",
        [ Alcotest.test_case "deterministic-monotone-capped" `Quick
            test_backoff_schedule ] );
      ( "identity",
        [
          Alcotest.test_case "jobs-1" `Quick test_jobs1_identical;
          Alcotest.test_case "jobs-3-journal" `Quick
            test_jobs3_identical_and_merged_journal;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "sigkill-two-workers" `Slow
            test_sigkill_two_workers;
          Alcotest.test_case "watchdog-hung-worker" `Slow
            test_watchdog_hung_worker;
          Alcotest.test_case "kill-tree-resume" `Slow
            test_kill_tree_then_resume;
          Alcotest.test_case "heartbeat-torn-tail-resume" `Slow
            test_heartbeat_only_torn_tail_resume;
          Alcotest.test_case "exhausted-adoption" `Slow
            test_exhausted_restarts_adopted;
          Alcotest.test_case "escape-kills-workers" `Quick
            test_escape_kills_workers;
          Alcotest.test_case "killed child names its signal" `Quick
            test_killed_child_names_signal;
        ] );
      ( "typed-failures",
        [
          Alcotest.test_case "jobs-mismatch" `Quick
            test_jobs_mismatch_rejected;
          Alcotest.test_case "journal-resume-exclusive" `Quick
            test_journal_resume_exclusive;
        ] );
    ]
