(* The simulation daemon: wire protocol codec, crash-resilient job
   queue (incl. torn-tail recovery at every byte boundary), admission
   control, and the daemon itself end to end — submit over HTTP, crash
   it mid-flight, restart it on the same queue journal, and check
   exactly-once completion with reports byte-identical to a direct
   in-process campaign. *)

module Proto = Hb_serve.Proto
module Queue = Hb_serve.Queue
module Admission = Hb_serve.Admission
module Daemon = Hb_serve.Daemon
module Campaign = Hb_fault.Campaign
module Injector = Hb_fault.Injector
module Policy = Hb_recover.Policy
module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Build = Hb_runtime.Build
module Machine = Hb_cpu.Machine
module Json = Hb_obs.Json
module Clock = Hb_obs.Clock
module Serve = Hb_obs.Serve

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hb_serve_test_%d_%d" (Unix.getpid ()) !n)
    in
    let rec rm p =
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
    in
    if Sys.file_exists d then rm d;
    Unix.mkdir d 0o755;
    d

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---- wire protocol ---------------------------------------------------- *)

let spec_eq (a : Proto.spec) (b : Proto.spec) =
  a.Proto.tenant = b.Proto.tenant
  && a.Proto.workload = b.Proto.workload
  && a.Proto.mode = b.Proto.mode
  && a.Proto.scheme = b.Proto.scheme
  && a.Proto.runs = b.Proto.runs
  && a.Proto.seed = b.Proto.seed
  && a.Proto.sites = b.Proto.sites
  && a.Proto.checkpoints = b.Proto.checkpoints
  && a.Proto.policy = b.Proto.policy
  && a.Proto.violation_budget = b.Proto.violation_budget
  && a.Proto.deadline_s = b.Proto.deadline_s
  && a.Proto.jobs = b.Proto.jobs
  && a.Proto.chaos = b.Proto.chaos

let test_proto_roundtrip () =
  let specs =
    [
      Proto.default;
      { Proto.tenant = "ci";
        workload = "power";
        mode = Codegen.Softfat;
        scheme = Encoding.Intern11;
        runs = 40;
        seed = 99;
        sites = [ Injector.Mem_word; Injector.Tag_bits ];
        checkpoints = 4;
        policy = Policy.Null_guard;
        violation_budget = 7;
        deadline_s = Some 12.5;
        jobs = 4;
        chaos = Some (Proto.Crash 2) };
      { Proto.default with Proto.chaos = Some Proto.Hang };
    ]
  in
  List.iter
    (fun s ->
      let s' = Proto.spec_of_json (Proto.spec_to_json s) in
      Alcotest.(check bool) "canonical round-trip" true (spec_eq s s'))
    specs;
  (* the one mode vocabulary (both CLIs and job specs): every canonical
     name round-trips, so a journaled spec replays whichever spelling the
     codec itself emits, and every alias decodes *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("mode name round-trips: " ^ Codegen.mode_name m)
        true
        (Codegen.mode_of_name (Codegen.mode_name m) = Some m))
    [ Codegen.Nochecks; Codegen.Hardbound; Codegen.Hardbound_malloc_only;
      Codegen.Softfat; Codegen.Objtable ];
  List.iter
    (fun (alias, m) ->
      Alcotest.(check bool) ("mode alias: " ^ alias) true
        (Codegen.mode_of_name alias = Some m);
      let spec =
        Proto.spec_of_json
          (Json.of_string
             (Printf.sprintf {|{"workload": "power", "mode": %S}|} alias))
      in
      Alcotest.(check string) ("job spec alias: " ^ alias)
        (Codegen.mode_name m) (Codegen.mode_name spec.Proto.mode))
    [ ("none", Codegen.Nochecks); ("full", Codegen.Hardbound);
      ("malloc-only", Codegen.Hardbound_malloc_only);
      ("ccured", Codegen.Softfat); ("jk", Codegen.Objtable) ];
  Alcotest.(check bool) "unknown mode name" true
    (Codegen.mode_of_name "bogus" = None)

let check_rejects ~what json =
  match Proto.spec_of_json (Json.of_string json) with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Hb_error.Hb_error (ctx, _) ->
    (* most rejections are the codec's own; an unknown workload is typed
       by the workload table it consults *)
    Alcotest.(check bool) ("typed error for " ^ what) true
      (List.mem ctx.Hb_error.component [ "proto"; "workloads" ])

let test_proto_rejects () =
  check_rejects ~what:"unknown field (typo)"
    {|{"workload":"treeadd","runz":5}|};
  check_rejects ~what:"unknown workload" {|{"workload":"quicksort"}|};
  check_rejects ~what:"unknown mode"
    {|{"workload":"treeadd","mode":"fastmode"}|};
  check_rejects ~what:"unknown scheme"
    {|{"workload":"treeadd","scheme":"intern-5"}|};
  check_rejects ~what:"unknown policy"
    {|{"workload":"treeadd","policy":"panic"}|};
  check_rejects ~what:"bad sites"
    {|{"workload":"treeadd","sites":"mem,cache"}|};
  check_rejects ~what:"non-positive runs" {|{"workload":"treeadd","runs":0}|};
  check_rejects ~what:"jobs out of range"
    {|{"workload":"treeadd","jobs":1000}|};
  check_rejects ~what:"non-positive deadline"
    {|{"workload":"treeadd","deadline_s":-1}|};
  check_rejects ~what:"bad chaos"
    {|{"workload":"treeadd","chaos":"explode"}|};
  check_rejects ~what:"missing workload" {|{"runs":5}|}

(* ---- queue journal ---------------------------------------------------- *)

let small_spec = { Proto.default with Proto.runs = 2 }

let test_queue_replay () =
  let dir = temp_dir () in
  let q = Queue.open_ ~dir in
  let j1 = Queue.submit q ~spec:small_spec in
  let j2 =
    Queue.submit q ~spec:{ small_spec with Proto.tenant = "other" }
  in
  let j3 = Queue.submit q ~spec:small_spec in
  Queue.mark_start q j1 ~pid:111;
  Queue.mark_done q j1;
  Queue.mark_start q j2 ~pid:222;
  (* j2 is running when the daemon "dies" — no close, like a SIGKILL *)
  ignore j3;
  let q' = Queue.open_ ~dir in
  let find id = Option.get (Queue.find q' id) in
  Alcotest.(check bool) "done stays done" true
    ((find 1).Queue.state = Queue.Done);
  (* running jobs are re-admitted: pids do not survive a restart *)
  Alcotest.(check bool) "running re-admitted as queued" true
    ((find 2).Queue.state = Queue.Queued);
  Alcotest.(check int) "attempt count survives" 1 (find 2).Queue.attempts;
  Alcotest.(check string) "tenant survives" "other" (find 2).Queue.tenant;
  Alcotest.(check bool) "queued stays queued" true
    ((find 3).Queue.state = Queue.Queued);
  let queued, running, done_, poisoned, failed = Queue.counts q' in
  Alcotest.(check (list int)) "counts" [ 2; 0; 1; 0; 0 ]
    [ queued; running; done_; poisoned; failed ];
  (* the reopened writer keeps appending — and the next id is fresh *)
  let j4 = Queue.submit q' ~spec:small_spec in
  Alcotest.(check int) "ids never reused" 4 j4.Queue.id;
  Queue.close q';
  Queue.close q

let test_queue_terminal_states () =
  let dir = temp_dir () in
  let q = Queue.open_ ~dir in
  let j1 = Queue.submit q ~spec:small_spec in
  let j2 = Queue.submit q ~spec:small_spec in
  Queue.mark_start q j1 ~pid:1;
  Queue.mark_poisoned q j1 ~reason:"stuck";
  Queue.mark_start q j2 ~pid:2;
  Queue.mark_failed q j2 ~error:"unknown workload";
  let q' = Queue.open_ ~dir in
  let find id = Option.get (Queue.find q' id) in
  (match (find 1).Queue.state with
   | Queue.Poisoned r ->
     Alcotest.(check string) "poison reason survives" "stuck" r
   | _ -> Alcotest.fail "j1 not poisoned after replay");
  (match (find 2).Queue.state with
   | Queue.Failed e ->
     Alcotest.(check string) "failure survives" "unknown workload" e
   | _ -> Alcotest.fail "j2 not failed after replay");
  Alcotest.(check bool) "terminal jobs are not eligible" true
    (Queue.next_eligible q' ~now_ns:0L = None);
  Queue.close q';
  Queue.close q

(* Satellite: truncate the journal at every byte boundary of its last
   record.  Every cut must reopen cleanly: the acknowledged prefix comes
   back exactly, the torn record is dropped, and the repaired journal
   accepts new appends. *)
let test_queue_torn_tail_every_byte () =
  let dir = temp_dir () in
  let q = Queue.open_ ~dir in
  let j1 = Queue.submit q ~spec:small_spec in
  let _j2 = Queue.submit q ~spec:{ small_spec with Proto.tenant = "b" } in
  Queue.mark_start q j1 ~pid:42;
  Queue.close q;
  let journal = Filename.concat dir "queue.jsonl" in
  let full = read_file journal in
  let size = String.length full in
  (* the last record = everything after the penultimate newline *)
  let last_start =
    let rec prev i = if full.[i] = '\n' then i + 1 else prev (i - 1) in
    prev (size - 2)
  in
  Alcotest.(check bool) "several cut points" true (size - last_start > 10);
  (* every strict prefix of the record is invalid JSON and must be
     dropped; the full record missing only its newline (cut = size-1) is
     checked separately below — the reader recovers it *)
  for cut = last_start to size - 2 do
    let oc = open_out_bin journal in
    output_string oc (String.sub full 0 cut);
    close_out oc;
    let q' = Queue.open_ ~dir in
    (* the torn [start j1] record is gone: both jobs are plain queued *)
    let j1' = Option.get (Queue.find q' 1) in
    Alcotest.(check bool)
      (Printf.sprintf "cut@%d: j1 back to queued" cut)
      true
      (j1'.Queue.state = Queue.Queued && j1'.Queue.attempts = 0);
    Alcotest.(check bool)
      (Printf.sprintf "cut@%d: j2 survives" cut)
      true
      (match Queue.find q' 2 with
       | Some j -> j.Queue.state = Queue.Queued && j.Queue.tenant = "b"
       | None -> false);
    (* the repaired journal must accept (and persist) new records *)
    Queue.mark_start q' j1' ~pid:7;
    Queue.close q';
    let q'' = Queue.open_ ~dir in
    Alcotest.(check int)
      (Printf.sprintf "cut@%d: repaired tail persists" cut)
      1
      (Option.get (Queue.find q'' 1)).Queue.attempts;
    Queue.close q''
  done;
  (* a clean cut exactly before the last record is the same prefix *)
  let oc = open_out_bin journal in
  output_string oc (String.sub full 0 last_start);
  close_out oc;
  let q' = Queue.open_ ~dir in
  Alcotest.(check bool) "clean prefix cut" true
    ((Option.get (Queue.find q' 1)).Queue.state = Queue.Queued);
  Queue.close q';
  (* a complete record missing only its newline is not torn: the reader
     recovers it and the writer repair finishes the line, so j1's start
     survives and the job is re-admitted with its attempt on record *)
  let oc = open_out_bin journal in
  output_string oc (String.sub full 0 (size - 1));
  close_out oc;
  let q' = Queue.open_ ~dir in
  let j1' = Option.get (Queue.find q' 1) in
  Alcotest.(check bool) "newline-only tear: start record recovered" true
    (j1'.Queue.state = Queue.Queued && j1'.Queue.attempts = 1);
  Queue.close q'

let test_queue_fairness_and_backoff () =
  let dir = temp_dir () in
  let q = Queue.open_ ~dir in
  let spec t = { small_spec with Proto.tenant = t } in
  let _a1 = Queue.submit q ~spec:(spec "a") in
  let _a2 = Queue.submit q ~spec:(spec "a") in
  let _a3 = Queue.submit q ~spec:(spec "a") in
  let _b1 = Queue.submit q ~spec:(spec "b") in
  let take () =
    match Queue.next_eligible q ~now_ns:0L with
    | None -> Alcotest.fail "queue unexpectedly empty"
    | Some j ->
      Queue.mark_start q j ~pid:1;
      Queue.mark_done q j;
      (j.Queue.tenant, j.Queue.id)
  in
  (* round-robin: after tenant a is served once, b's waiting job goes
     ahead of a's remaining two (lets are sequenced — a bare list would
     evaluate the takes right to left) *)
  let p1 = take () in
  let p2 = take () in
  let p3 = take () in
  let p4 = take () in
  Alcotest.(check (list (pair string int)))
    "least-recently-served tenant first"
    [ ("a", 1); ("b", 4); ("a", 2); ("a", 3) ]
    [ p1; p2; p3; p4 ];
  (* backoff gate: a requeued job is invisible until its not_before *)
  let j5 = Queue.submit q ~spec:(spec "a") in
  Queue.mark_start q j5 ~pid:1;
  Queue.mark_requeue q j5 ~reason:"crash" ~not_before_ns:1_000L;
  Alcotest.(check bool) "inside backoff window: ineligible" true
    (Queue.next_eligible q ~now_ns:999L = None);
  Alcotest.(check bool) "after backoff window: eligible" true
    (match Queue.next_eligible q ~now_ns:1_000L with
     | Some j -> j.Queue.id = 5
     | None -> false);
  Alcotest.(check string) "requeue reason recorded" "crash" j5.Queue.note;
  (* the backoff gate survives a restart: the journaled delay is
     re-applied from replay time, so a crash-looping job cannot retry
     immediately against a freshly restarted daemon *)
  Queue.mark_requeue q j5 ~backoff_s:30. ~reason:"crash loop"
    ~not_before_ns:(Int64.add (Clock.now_ns ()) (Clock.ns_of_s 30.));
  Queue.close q;
  let q' = Queue.open_ ~dir in
  let j5' = Option.get (Queue.find q' 5) in
  Alcotest.(check bool) "replayed gate is in the future" true
    (j5'.Queue.not_before_ns > Clock.now_ns ());
  Alcotest.(check bool) "inside replayed backoff: ineligible" true
    (Queue.next_eligible q' ~now_ns:(Clock.now_ns ()) = None);
  Alcotest.(check bool) "past replayed backoff: eligible again" true
    (match
       Queue.next_eligible q'
         ~now_ns:(Int64.add (Clock.now_ns ()) (Clock.ns_of_s 60.))
     with
     | Some j -> j.Queue.id = 5
     | None -> false);
  Queue.close q'

(* ---- admission -------------------------------------------------------- *)

let test_admission () =
  let cfg =
    { (Admission.default ~workers:4) with
      Admission.max_queued = 3;
      max_per_tenant = 2;
      mem_soft_kb = 1000;
      mem_hard_kb = 2000 }
  in
  let admit level queued tenant_queued =
    Admission.decide cfg ~level ~queued ~tenant:"t" ~tenant_queued
  in
  Alcotest.(check bool) "admits under all bounds" true
    (admit Admission.Normal 2 1 = Admission.Admit);
  (match admit Admission.Normal 3 0 with
   | Admission.Overloaded r ->
     Alcotest.(check bool) "queue-full reason names the bound" true
       (contains ~needle:"bound 3" r)
   | Admission.Admit -> Alcotest.fail "admitted past max_queued");
  (match admit Admission.Normal 2 2 with
   | Admission.Overloaded r ->
     Alcotest.(check bool) "quota reason names the tenant" true
       (contains ~needle:{|"t"|} r)
   | Admission.Admit -> Alcotest.fail "admitted past tenant quota");
  (match admit Admission.Refuse 0 0 with
   | Admission.Overloaded _ -> ()
   | Admission.Admit -> Alcotest.fail "admitted while refusing");
  (* pressure probe: disk failure dominates, then hard/soft memory *)
  Alcotest.(check bool) "disk failure refuses" true
    (Admission.probe cfg ~rss_kb:0 ~disk_failing:true = Admission.Refuse);
  Alcotest.(check bool) "hard memory refuses" true
    (Admission.probe cfg ~rss_kb:2000 ~disk_failing:false = Admission.Refuse);
  Alcotest.(check bool) "soft memory shrinks" true
    (Admission.probe cfg ~rss_kb:1500 ~disk_failing:false = Admission.Shrink);
  Alcotest.(check bool) "no pressure is normal" true
    (Admission.probe cfg ~rss_kb:10 ~disk_failing:false = Admission.Normal);
  Alcotest.(check int) "normal pool" 4
    (Admission.workers_for cfg Admission.Normal);
  Alcotest.(check int) "shrunk pool" 2
    (Admission.workers_for cfg Admission.Shrink);
  Alcotest.(check bool) "rss readable on this host" true
    (Admission.rss_kb () > 0)

(* ---- the daemon end to end -------------------------------------------- *)

(* wait until [pred] on the queue holds, polling; campaigns take real
   wall time, so the budget is generous — the pass case returns fast *)
let await ?(timeout = 120.) ~what pred =
  let t0 = Clock.now_ns () in
  let rec go () =
    if pred () then ()
    else if Clock.elapsed_s ~t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let job_state d id =
  match Queue.find (Daemon.queue d) id with
  | Some j -> j.Queue.state
  | None -> Alcotest.failf "job %d vanished" id

(* "power" is the cheapest workload in wall time; 1-2 runs keeps each
   daemon test a few seconds *)
let e2e_spec =
  { Proto.default with Proto.workload = "power"; runs = 2; seed = 11 }

let expected_report_bytes spec =
  let image, globals = Build.compile ~mode:spec.Proto.mode (Proto.source spec) in
  let config =
    Build.config_for ~scheme:spec.Proto.scheme ~temporal:false
      ~max_instrs:Build.default_fuel spec.Proto.mode
  in
  Hardbound.Checker.reset_tally ();
  let mk () = Machine.create ~config ~globals image in
  let report = Campaign.run ~mk (Proto.campaign_config spec) in
  Json.to_string_pretty (Campaign.to_json report) ^ "\n"

let quick_cfg dir =
  { (Daemon.default ~port:0 ~dir) with
    Daemon.backoff_base_s = 0.05;
    backoff_cap_s = 0.2;
    poll_interval_s = 0.02 }

let test_daemon_end_to_end () =
  let dir = temp_dir () in
  let d = Daemon.start (quick_cfg dir) in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let port = Daemon.port d in
      let body = Json.to_string (Proto.spec_to_json e2e_spec) in
      let r = Serve.request ~port ~meth:"POST" ~path:"/jobs" ~body () in
      Alcotest.(check int) "submit accepted (202)" 202 r.Serve.code;
      Alcotest.(check bool) "reply names the job" true
        (contains ~needle:{|"job": "j1"|} r.Serve.body);
      await ~what:"job j1 to finish" (fun () ->
          match job_state d 1 with
          | Queue.Done -> true
          | Queue.Poisoned r | Queue.Failed r ->
            Alcotest.failf "job j1 died: %s" r
          | _ -> false);
      let get path = Serve.request ~port ~meth:"GET" ~path () in
      Alcotest.(check bool) "status shows done" true
        (contains ~needle:{|"state": "done"|} (get "/jobs/j1").Serve.body);
      Alcotest.(check string) "report bytes == direct campaign"
        (expected_report_bytes e2e_spec)
        (get "/jobs/j1/report").Serve.body;
      (* live planes stay up alongside the job endpoints *)
      Alcotest.(check bool) "metrics served" true
        (contains ~needle:"hb_serve_done_total 1" (get "/metrics").Serve.body);
      Alcotest.(check bool) "progress served" true
        (contains ~needle:{|"daemon": "hb-serve"|}
           (get "/progress").Serve.body);
      (* unknown job and not-ready report are typed, not hangs *)
      Alcotest.(check int) "unknown job 404" 404 (get "/jobs/j9").Serve.code;
      Alcotest.(check int) "bad spec 400" 400
        (Serve.request ~port ~meth:"POST" ~path:"/jobs" ~body:"{nope" ())
          .Serve.code;
      (* a Done job whose report file vanished (crash before the rename
         was directory-durable, manual deletion) is typed too — and must
         not wedge the daemon's mutex: the planes stay live after *)
      Sys.remove
        (Filename.concat (Queue.job_dir (Daemon.queue d) 1) "report.json");
      let r = get "/jobs/j1/report" in
      Alcotest.(check int) "missing report is a 500" 500 r.Serve.code;
      Alcotest.(check bool) "missing report is typed" true
        (contains ~needle:{|"error": "report_missing"|} r.Serve.body);
      Alcotest.(check bool) "daemon still answers status" true
        (contains ~needle:{|"state": "done"|} (get "/jobs/j1").Serve.body);
      Alcotest.(check bool) "metrics still served" true
        (contains ~needle:"hb_serve_up" (get "/metrics").Serve.body))

let test_daemon_crash_restart_exactly_once () =
  let dir = temp_dir () in
  let d = Daemon.start (quick_cfg dir) in
  let port = Daemon.port d in
  let submit seed =
    let body =
      Json.to_string (Proto.spec_to_json { e2e_spec with Proto.seed })
    in
    Alcotest.(check int) "submit accepted" 202
      (Serve.request ~port ~meth:"POST" ~path:"/jobs" ~body ()).Serve.code
  in
  submit 21;
  submit 22;
  (* let at least one worker start, then die like a SIGKILL: children
     killed, nothing journaled past the fsync'd acknowledgements *)
  await ~what:"a worker to start" (fun () ->
      List.exists
        (fun j -> match j.Queue.state with Queue.Running _ -> true | _ -> false)
        (Queue.jobs (Daemon.queue d)));
  Daemon.stop ~hard:true d;
  let d' = Daemon.start (quick_cfg dir) in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d')
    (fun () ->
      await ~what:"both jobs to finish after restart" (fun () ->
          List.for_all
            (fun j -> j.Queue.state = Queue.Done)
            (Queue.jobs (Daemon.queue d')));
      let _, _, done_, poisoned, failed = Queue.counts (Daemon.queue d') in
      Alcotest.(check (list int)) "exactly once: 2 done, none lost"
        [ 2; 0; 0 ] [ done_; poisoned; failed ];
      List.iter
        (fun (id, seed) ->
          let got =
            read_file
              (Filename.concat (Queue.job_dir (Daemon.queue d') id)
                 "report.json")
          in
          Alcotest.(check bool)
            (Printf.sprintf "j%d report byte-identical after crash" id)
            true
            (got = expected_report_bytes { e2e_spec with Proto.seed }))
        [ (1, 21); (2, 22) ])

let test_daemon_chaos_crash_retry () =
  let dir = temp_dir () in
  let d = Daemon.start (quick_cfg dir) in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let spec =
        { e2e_spec with Proto.runs = 1; chaos = Some (Proto.Crash 1) }
      in
      let body = Json.to_string (Proto.spec_to_json spec) in
      ignore
        (Serve.request ~port:(Daemon.port d) ~meth:"POST" ~path:"/jobs" ~body
           ());
      await ~what:"crash-once job to succeed on retry" (fun () ->
          job_state d 1 = Queue.Done);
      let j = Option.get (Queue.find (Daemon.queue d) 1) in
      Alcotest.(check int) "first attempt crashed, second ran" 2
        j.Queue.attempts)

let test_daemon_hang_poisoned () =
  let dir = temp_dir () in
  let cfg =
    { (quick_cfg dir) with
      Daemon.job_deadline_s = 0.3;
      watchdog_grace_s = 0.3;
      max_attempts = 2 }
  in
  let d = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let spec =
        { e2e_spec with Proto.runs = 1; chaos = Some Proto.Hang }
      in
      let body = Json.to_string (Proto.spec_to_json spec) in
      ignore
        (Serve.request ~port:(Daemon.port d) ~meth:"POST" ~path:"/jobs" ~body
           ());
      await ~timeout:30. ~what:"hung job to be poisoned" (fun () ->
          match job_state d 1 with Queue.Poisoned _ -> true | _ -> false);
      let j = Option.get (Queue.find (Daemon.queue d) 1) in
      Alcotest.(check int) "watchdog spent the whole attempt budget" 2
        j.Queue.attempts;
      Alcotest.(check bool) "reason names the watchdog" true
        (contains ~needle:"watchdog" j.Queue.note);
      (* surfaced on the live plane, not just in the queue *)
      let p =
        Serve.request ~port:(Daemon.port d) ~meth:"GET" ~path:"/progress" ()
      in
      Alcotest.(check bool) "poisoned visible in /progress" true
        (contains ~needle:{|"state": "poisoned"|} p.Serve.body))

let test_daemon_overload_typed () =
  let dir = temp_dir () in
  let cfg =
    { (quick_cfg dir) with
      Daemon.admission =
        { (Admission.default ~workers:1) with
          Admission.max_queued = 2; max_per_tenant = 2; retry_after_s = 3. };
      job_deadline_s = 60. }
  in
  let d = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop ~hard:true d)
    (fun () ->
      let port = Daemon.port d in
      (* hang jobs hold their queue slots for the whole test *)
      let body =
        Json.to_string
          (Proto.spec_to_json { e2e_spec with Proto.chaos = Some Proto.Hang })
      in
      ignore (Serve.request ~port ~meth:"POST" ~path:"/jobs" ~body ());
      ignore (Serve.request ~port ~meth:"POST" ~path:"/jobs" ~body ());
      let r = Serve.request ~port ~meth:"POST" ~path:"/jobs" ~body () in
      Alcotest.(check int) "typed 503" 503 r.Serve.code;
      Alcotest.(check bool) "overloaded error code" true
        (contains ~needle:{|"error": "overloaded"|} r.Serve.body);
      Alcotest.(check (option string)) "Retry-After hint" (Some "3")
        (List.assoc_opt "retry-after" r.Serve.headers);
      Alcotest.(check bool) "reason names the bound" true
        (contains ~needle:"bound 2" r.Serve.body);
      (* shedding is a response, not a hang — and it is counted *)
      let m = Serve.request ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check bool) "shed counter" true
        (contains ~needle:"hb_serve_shed_total 1" m.Serve.body))

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "spec round-trip" `Quick test_proto_roundtrip;
          Alcotest.test_case "typed rejections" `Quick test_proto_rejects;
        ] );
      ( "queue",
        [
          Alcotest.test_case "replay after crash" `Quick test_queue_replay;
          Alcotest.test_case "terminal states survive" `Quick
            test_queue_terminal_states;
          Alcotest.test_case "torn tail at every byte" `Quick
            test_queue_torn_tail_every_byte;
          Alcotest.test_case "tenant fairness and backoff gate" `Quick
            test_queue_fairness_and_backoff;
        ] );
      ( "admission",
        [ Alcotest.test_case "bounds and pressure" `Quick test_admission ] );
      ( "daemon",
        [
          Alcotest.test_case "submit to byte-identical report" `Slow
            test_daemon_end_to_end;
          Alcotest.test_case "crash, restart, exactly once" `Slow
            test_daemon_crash_restart_exactly_once;
          Alcotest.test_case "crash chaos absorbed by retry" `Slow
            test_daemon_chaos_crash_retry;
          Alcotest.test_case "hung job watchdog-poisoned" `Slow
            test_daemon_hang_poisoned;
          Alcotest.test_case "typed overload shedding" `Slow
            test_daemon_overload_typed;
        ] );
    ]
