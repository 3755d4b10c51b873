(** The serve workload: an in-process [Hb_serve.Daemon] with two workers
    and a closed-loop client on the benchmark's main thread, over
    loopback HTTP.  It is the only workload that exercises [lib/serve]
    (the fsync'd submit, the fork, the report write) and [lib/fault]
    (golden run, snapshot fast-forward, digests) end to end; it is not
    one of BENCHMARK.json's workloads, because its figures spread 12–25%
    between runs (with one worker too), but the traced run of every
    workload measures those layers through {!probe}.

    The client keeps four small fault-campaign jobs outstanding — two per
    worker, so the scheduler never finds the queue empty — across two
    tenants, opening one connection at a time.  Jobs are power, with
    every fourth one perimeter, one injection each, on [Nochecks]
    binaries: the service path is what this workload isolates (the
    checker is on olden-hb and corpus), and cheap jobs give a run enough
    of them for a stable median.  The benchmark seed orders the jobs
    within each round of a fixed pool and picks which of the two
    alternating tenants submits first.  Each job runs serially ([jobs = 1]):
    sharding inside a job would put more processes than cores beside the
    daemon's two workers. *)

module Daemon = Hb_serve.Daemon
module Proto = Hb_serve.Proto
module Campaign = Hb_fault.Campaign
module Build = Hb_runtime.Build
module Machine = Hb_cpu.Machine
module Json = Hb_obs.Json
module Clock = Hb_obs.Clock

let outstanding = 4

(* ---- loopback HTTP, one connection per request ----------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(** (status code, body) of one request. *)
let request ~port ~meth ~path ?(body = "") () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all sock
        (Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: \
            application/json\r\nContent-Length: %d\r\nConnection: \
            close\r\n\r\n%s"
           meth path (String.length body) body);
      let raw = read_all sock in
      let code =
        match String.split_on_char ' ' raw with
        | _ :: c :: _ -> Option.value (int_of_string_opt c) ~default:0
        | _ -> 0
      in
      let rec head_end i =
        if i + 3 >= String.length raw then String.length raw
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else head_end (i + 1)
      in
      let b = head_end 0 in
      (code, String.sub raw b (String.length raw - b)))

let json_field key body =
  match Json.member key (Json.of_string body) with
  | v -> v
  | exception Json.Parse_error _ -> None

(* ---- the job stream ------------------------------------------------- *)

(* The campaigns a run's jobs draw from: four power seeds and one
   perimeter seed.  Every run submits each the same number of times, so
   runs at different benchmark seeds do the same work: a campaign's cost
   depends on where its seed injects. *)
let pool =
  [ ("power", 101); ("power", 202); ("power", 303); ("power", 404); ("perimeter", 505) ]

(** [rounds] rounds of the pool, each in an order drawn from the
    benchmark seed; the tenants alternate, and the seed picks which one
    submits first. *)
let job_specs ~seed ~rounds =
  let rng = Random.State.make [| seed |] in
  let tenants =
    if Random.State.bool rng then [| "alpha"; "beta" |] else [| "beta"; "alpha" |]
  in
  let shuffled () =
    let a = Array.of_list pool in
    for i = Array.length a - 1 downto 1 do
      let k = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(k);
      a.(k) <- x
    done;
    Array.to_list a
  in
  List.concat (List.init rounds (fun _ -> shuffled ()))
  |> List.mapi (fun k (workload, campaign_seed) ->
         {
           Proto.default with
           Proto.tenant = tenants.(k mod 2);
           workload;
           mode = Hb_minic.Codegen.Nochecks;
           runs = 1;
           seed = campaign_seed;
           jobs = 1;
         })

(* ---- one session ---------------------------------------------------- *)

type job = {
  spec : Proto.spec;
  jid : string;
  submit_t : float;  (** seconds since the session's daemon came up *)
  accepted_t : float;  (** the 202 arrived *)
  mutable running_t : float option;
  mutable report_t : float option;  (** the report was readable *)
  mutable attempts : int;
  mutable report : string;
}

let rec rm p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

(* Daemon.start until /healthz answers *)
let start_daemon dir =
  rm dir;
  Stage.time (fun () ->
      let d = Daemon.start (Daemon.default ~port:0 ~dir) in
      let rec wait () =
        match request ~port:(Daemon.port d) ~meth:"GET" ~path:"/healthz" () with
        | 200, _ -> ()
        | _ | (exception Unix.Unix_error _) ->
          Unix.sleepf 0.001;
          wait ()
      in
      wait ();
      d)

type session = {
  setup_s : float list;
  jobs : job list;  (** every accepted job, in submission order *)
  serve_s : float;  (** daemon up → last report readable *)
  peak_rss_kb : int;  (** the daemon's process, before any check ran *)
}

(** Run [specs] through a fresh daemon, at most {!outstanding} at a
    time, then drain.  [extra_setups] daemons are started and stopped
    first, so set-up time is a median. *)
let session st check ~dir ~specs ~extra_setups =
  let setups =
    Stage.scaled_setups st ~n:extra_setups ~per:10 (fun () ->
        let d_i = dir ^ "-setup" in
        let d, secs = start_daemon d_i in
        Daemon.stop d;
        rm d_i;
        secs)
  in
  let d, setup_s = start_daemon dir in
  let jobs, serve_s =
    Fun.protect
      ~finally:(fun () ->
        Daemon.stop d;
        rm dir)
      (fun () ->
        let port = Daemon.port d in
        let t0 = Clock.now_ns () in
        let now () = setup_s +. Clock.elapsed_s ~t0 in
        let accepted = ref [] and live = ref [] and pending = ref specs in
        let submit spec =
          let submit_t = now () in
          match
            Stage.span st "serve.submit" (fun () ->
                request ~port ~meth:"POST" ~path:"/jobs"
                  ~body:(Json.to_string (Proto.spec_to_json spec))
                  ())
          with
          | 202, body ->
            let jid =
              match json_field "job" body with
              | Some (Json.String j) -> j
              | _ -> Hb_error.fail ~component:"perfbench" "202 without a job id"
            in
            let j =
              {
                spec;
                jid;
                submit_t;
                accepted_t = now ();
                running_t = None;
                report_t = None;
                attempts = 0;
                report = "";
              }
            in
            accepted := j :: !accepted;
            live := !live @ [ j ]
          | code, body ->
            Check.record check ~what:"submit"
              [ Printf.sprintf "refused with %d: %s" code (String.trim body) ]
        in
        (* one status request for every job; a job leaves [live] once it
           is done (its report read) or given up *)
        let poll () =
          let _, body =
            Stage.span st "serve.poll" (fun () ->
                request ~port ~meth:"GET" ~path:"/jobs" ())
          in
          let states =
            match json_field "jobs" body with
            | Some (Json.List l) ->
              List.filter_map
                (fun j ->
                  match (Json.member "job" j, Json.member "state" j) with
                  | Some (Json.String id), Some (Json.String state) ->
                    Some
                      ( id,
                        ( state,
                          Option.bind (Json.member "attempts" j) Json.to_int ) )
                  | _ -> None)
                l
            | _ -> []
          in
          let still_live j =
            match List.assoc_opt j.jid states with
            | None -> true
            | Some (state, attempts) -> (
              Option.iter (fun a -> j.attempts <- a) attempts;
              if state <> "queued" && j.running_t = None then
                j.running_t <- Some (now ());
              match state with
              | "done" ->
                let code, report =
                  Stage.span st "serve.report" (fun () ->
                      request ~port ~meth:"GET"
                        ~path:("/jobs/" ^ j.jid ^ "/report")
                        ())
                in
                if code = 200 then begin
                  j.report <- report;
                  j.report_t <- Some (now ())
                end;
                false
              | "poisoned" | "failed" -> false
              | _ -> true)
          in
          live := List.filter still_live !live
        in
        while !pending <> [] || !live <> [] do
          while !pending <> [] && List.length !live < outstanding do
            let spec = List.hd !pending in
            pending := List.tl !pending;
            submit spec
          done;
          Unix.sleepf 0.05;
          poll ()
        done;
        (List.rev !accepted, now ()))
  in
  {
    setup_s = (if setups = [] then [ setup_s ] else setups);
    jobs;
    serve_s;
    peak_rss_kb = Hb_obs.Host.peak_rss_kb ();
  }

(* ---- the direct copies the reports are checked against -------------- *)

type direct = {
  report : string;
  golden_s : float;  (** [Campaign.prepare] *)
  execute_s : float;  (** [Campaign.execute_plan] *)
  to_json_s : float;
  runs : int;
}

let machine_config (spec : Proto.spec) =
  Build.config_for ~scheme:spec.Proto.scheme ~temporal:false
    ~max_instrs:Build.default_fuel spec.Proto.mode

(** The campaign a job runs, in process, exactly as the daemon's worker
    builds it. *)
let direct_copy st (spec : Proto.spec) =
  let image = Layers.compile st ~mode:spec.Proto.mode (Proto.source spec) in
  let config = machine_config spec in
  let mk () = Layers.create st ~config image in
  let cfg = Proto.campaign_config spec in
  Hardbound.Checker.reset_tally ();
  let golden, golden_s =
    Stage.time (fun () ->
        Stage.span st "fault.prepare" (fun () -> Campaign.prepare ~mk cfg))
  in
  let report, execute_s =
    Stage.time (fun () ->
        Stage.span st "fault.execute" (fun () ->
            Campaign.execute_plan ~mk ~cfg ~golden ~prior:[] ()))
  in
  let report, to_json_s =
    Stage.time (fun () ->
        Stage.span st "fault.to_json" (fun () ->
            Json.to_string_pretty (Campaign.to_json report) ^ "\n"))
  in
  { report; golden_s; execute_s; to_json_s; runs = cfg.Campaign.runs }

let spec_key (s : Proto.spec) = (s.Proto.workload, s.Proto.seed)

let directs st jobs =
  List.fold_left
    (fun acc j ->
      let key = spec_key j.spec in
      if List.mem_assoc key acc then acc else (key, direct_copy st j.spec) :: acc)
    [] jobs

(** Every job must be done, with a report byte-identical to its direct
    copy. *)
let check_jobs check directs jobs =
  List.iter
    (fun j ->
      let d = List.assoc (spec_key j.spec) directs in
      Check.record check ~what:j.jid
        (match j.report_t with
         | None -> [ "not done" ]
         | Some _ when j.report <> d.report ->
           [ "report differs from the direct campaign" ]
         | Some _ -> []))
    jobs

let done_jobs s = List.filter (fun j -> j.report_t <> None) s.jobs
let turnaround j = Option.get j.report_t -. j.submit_t

(** [fault.*] and [serve.*] per-layer rows of one checked session. *)
let layer_metrics s directs =
  let dn = done_jobs s in
  let med f = Stage.median (List.map f dn) in
  let all_d = List.map snd directs in
  let direct_wall j =
    let d = List.assoc (spec_key j.spec) directs in
    d.golden_s +. d.execute_s +. d.to_json_s
  in
  let sum f = List.fold_left (fun a d -> a +. f d) 0. all_d in
  [
    ("fault.golden_s", "s", Stage.median (List.map (fun d -> d.golden_s) all_d));
    ( "fault.inject_ms_per_run",
      "ms",
      1e3 *. sum (fun d -> d.execute_s) /. sum (fun d -> float_of_int d.runs) );
    ("fault.report_ms", "ms", 1e3 *. Stage.median (List.map (fun d -> d.to_json_s) all_d));
    ("serve.submit_ms", "ms", 1e3 *. med (fun j -> j.accepted_t -. j.submit_t));
    ( "serve.queue_wait_s",
      "s",
      med (fun j -> Option.get j.running_t -. j.accepted_t) );
    ("serve.run_s", "s", med (fun j -> Option.get j.report_t -. Option.get j.running_t));
    ("serve.overhead_s", "s", med (fun j -> turnaround j -. direct_wall j));
    ( "serve.attempts_per_job",
      "ratio",
      float_of_int (List.fold_left (fun a j -> a + j.attempts) 0 dn)
      /. float_of_int (List.length dn) );
  ]

(* plain runs of each job program (median of five), for the
   simulation-speed figure *)
let plain_runs st jobs =
  let one_per_workload =
    List.fold_left
      (fun acc j ->
        if List.mem_assoc j.spec.Proto.workload acc then acc
        else acc @ [ (j.spec.Proto.workload, j.spec) ])
      [] jobs
  in
  List.map
    (fun (_, (spec : Proto.spec)) ->
      let image = Layers.compile st ~mode:spec.Proto.mode (Proto.source spec) in
      Stage.median
        (List.init 5 (fun _ ->
             let m = Layers.create st ~config:(machine_config spec) image in
             let status, run_s = Layers.run st m in
             ignore (Layers.classify st ~should_trap:false status);
             Layers.account st m;
             Stage.calibrate st;
             float_of_int m.Machine.stats.Hb_cpu.Stats.instructions /. run_s)))
    one_per_workload

(** The highest percentile with at least ten samples beyond it, and its
    value; [None] below eleven samples. *)
let tail xs =
  let n = List.length xs in
  if n < 11 then None
  else
    let a = Array.of_list xs in
    Array.sort compare a;
    Some (100. *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

(** [rounds] rounds of the job pool: a fixed amount of work, so the
    metrics are not quantized by how many jobs happened to finish inside
    a time window. *)
let run st check ~dir ~seed ~rounds ~extra_setups =
  (* The workers keep both cores busy during the session, so the
     reference work runs on this process just before and after it, while
     they idle, and after each plain run: a sampler beside the workers
     would compete with them for the cores and time the scheduler. *)
  let calibrate_around () = for _ = 1 to 5 do Stage.calibrate st done in
  calibrate_around ();
  let s = session st check ~dir ~specs:(job_specs ~seed ~rounds) ~extra_setups in
  calibrate_around ();
  let session_refs = st.Stage.ref_samples in
  (* plain runs first, on the small heap the session left; they are
     scaled by the reference samples taken between them *)
  let ips = Stage.span st "check" (fun () -> plain_runs st s.jobs) in
  let plain_refs =
    List.filteri
      (fun i _ -> i < List.length st.Stage.ref_samples - List.length session_refs)
      st.Stage.ref_samples
  in
  let ds = Stage.span st "check" (fun () -> directs st s.jobs) in
  check_jobs check ds s.jobs;
  let dn = done_jobs s in
  let first_submit =
    List.fold_left (fun a j -> Float.min a j.submit_t) infinity s.jobs
  in
  let turnarounds = List.map turnaround dn in
  let summary =
    {
      Summary.wall_s = s.serve_s;
      setup_s = Stage.median s.setup_s;
      sim_ips = Stage.geomean ips;
      items_per_s = float_of_int (List.length dn) /. (s.serve_s -. first_submit);
      item_p50_s = Stage.median turnarounds;
      time_factor = Stage.speed_factor session_refs;
      sim_factor = Stage.speed_factor plain_refs;
      passes = 1;
      peak_rss_kb = s.peak_rss_kb;
      notes =
        [
          ("jobs_done", Json.Int (List.length dn));
          ("turnaround_s", Json.List (List.map (fun t -> Json.Float t) turnarounds));
          ( "turnaround_tail",
            match tail turnarounds with
            | None -> Json.Null
            | Some (pct, v) ->
              Json.Obj [ ("percentile", Json.Float pct); ("s", Json.Float v) ] );
          ( "jobs",
            Json.List
              (List.map
                 (fun j ->
                   Json.String
                     (Printf.sprintf "%s %s/%d %s" j.jid j.spec.Proto.workload
                        j.spec.Proto.seed j.spec.Proto.tenant))
                 s.jobs) );
        ];
    }
  in
  (summary, layer_metrics s ds)

(** The [fault.*] and [serve.*] rows for a workload that never reaches
    those layers: one round of the pool through a fresh daemon, checked
    against the direct copies like the serve workload's. *)
let probe st check ~dir ~seed =
  let s = session st check ~dir ~specs:(job_specs ~seed ~rounds:1) ~extra_setups:0 in
  let ds = directs st s.jobs in
  check_jobs check ds s.jobs;
  layer_metrics s ds
