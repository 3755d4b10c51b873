(* Client for the hb_serve simulation daemon (hardbound_run --daemon):
   submit campaign jobs, poll their status, fetch reports, drain the
   queue, or ask the daemon to shut down.

     hb_client --port 9290 submit --workload treeadd --runs 50 --seed 7
     hb_client --port 9290 status j3
     hb_client --port 9290 report j3 > report.json
     hb_client --port 9290 wait j3 --timeout 120
     hb_client --port 9290 drain --timeout 600

   Exit codes: 0 ok; 1 transport/protocol error; 2 usage; 3 the daemon
   shed the submission with a typed `overloaded` response (retry later);
   wait/drain add 4 poisoned, 5 failed, 6 timed out. *)

open Cmdliner

module Json = Hb_obs.Json
module Clock = Hb_obs.Clock
module Proto = Hb_serve.Proto
module Serve = Hb_obs.Serve

let die fmt = Printf.ksprintf (fun s -> Printf.eprintf "error: %s\n" s; exit 1) fmt

(* (status code, body) for one request; transport failures exit 1 with
   their typed message (a reconnect hint) rather than a backtrace *)
let request ~port ~meth ~path ?body () =
  match Serve.request ~port ~meth ~path ?body () with
  | { Serve.code; body; _ } -> (code, body)
  | exception Hb_error.Hb_error (_, msg) -> die "%s" msg

let member_string key body =
  match Json.member key (Json.of_string body) with
  | Some (Json.String s) -> Some s
  | _ -> None
  | exception Json.Parse_error _ -> None

let member_int key body =
  match Option.bind (Json.member key (Json.of_string body)) Json.to_int with
  | v -> v
  | exception Json.Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)

let port_arg =
  Arg.(required & opt (some int) None
       & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"Daemon port (hardbound_run --daemon PORT)")

let submit port tenant workload mode scheme runs seed sites checkpoints
    policy violation_budget deadline jobs chaos quiet =
  (* build the spec JSON from the provided flags only, then validate it
     client-side with the daemon's own codec: typos die here with a
     typed message instead of a 400 round trip *)
  let opt k v f = match v with Some x -> [ (k, f x) ] | None -> [] in
  let spec_json =
    Json.Obj
      ([ ("workload", Json.String workload) ]
      @ opt "tenant" tenant (fun s -> Json.String s)
      @ opt "mode" mode (fun s -> Json.String s)
      @ opt "scheme" scheme (fun s -> Json.String s)
      @ opt "runs" runs (fun n -> Json.Int n)
      @ opt "seed" seed (fun n -> Json.Int n)
      @ opt "sites" sites (fun s -> Json.String s)
      @ opt "checkpoints" checkpoints (fun n -> Json.Int n)
      @ opt "policy" policy (fun s -> Json.String s)
      @ opt "violation_budget" violation_budget (fun n -> Json.Int n)
      @ opt "deadline_s" deadline (fun d -> Json.Float d)
      @ opt "jobs" jobs (fun n -> Json.Int n)
      @ opt "chaos" chaos (fun s -> Json.String s))
  in
  let spec =
    try Proto.spec_of_json spec_json
    with Hb_error.Hb_error (ctx, msg) ->
      Printf.eprintf "error: %s\n" (Hb_error.to_string (ctx, msg));
      exit 2
  in
  let body = Json.to_string (Proto.spec_to_json spec) in
  match request ~port ~meth:"POST" ~path:"/jobs" ~body () with
  | 202, reply -> (
    match member_string "job" reply with
    | Some id ->
      if quiet then print_endline id
      else Printf.printf "%s accepted (poll with: hb_client --port %d \
                          status %s)\n" id port id;
      0
    | None -> die "daemon accepted the job but sent no id: %s" reply)
  | 503, reply ->
    Printf.eprintf "overloaded: %s\n"
      (Option.value (member_string "reason" reply) ~default:reply);
    3
  | code, reply ->
    Printf.eprintf "submit rejected (HTTP %d): %s" code reply;
    1

let parse_job_id s =
  let s = String.trim s in
  let num =
    if String.length s > 1 && s.[0] = 'j' then
      String.sub s 1 (String.length s - 1)
    else s
  in
  match int_of_string_opt num with
  | Some n -> n
  | None ->
    Printf.eprintf "error: %S is not a job id (expected jN)\n" s;
    exit 2

let job_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB"
         ~doc:"Job id as printed by submit (jN)")

let status port job =
  let id = parse_job_id job in
  match request ~port ~meth:"GET" ~path:(Printf.sprintf "/jobs/j%d" id) () with
  | 200, body ->
    print_string body;
    0
  | 404, _ ->
    Printf.eprintf "no job j%d\n" id;
    1
  | code, body ->
    Printf.eprintf "HTTP %d: %s" code body;
    1

let report port job =
  let id = parse_job_id job in
  match
    request ~port ~meth:"GET" ~path:(Printf.sprintf "/jobs/j%d/report" id) ()
  with
  | 200, body ->
    print_string body;
    0
  | 409, body ->
    Printf.eprintf "job j%d has no report yet (state %s)\n" id
      (Option.value (member_string "state" body) ~default:"unknown");
    1
  | 404, _ ->
    Printf.eprintf "no job j%d\n" id;
    1
  | code, body ->
    Printf.eprintf "HTTP %d: %s" code body;
    1

let list_jobs port =
  match request ~port ~meth:"GET" ~path:"/jobs" () with
  | 200, body ->
    print_string body;
    0
  | code, body ->
    Printf.eprintf "HTTP %d: %s" code body;
    1

let wait port job timeout poll =
  let id = parse_job_id job in
  let t0 = Clock.now_ns () in
  let rec go () =
    match
      request ~port ~meth:"GET" ~path:(Printf.sprintf "/jobs/j%d" id) ()
    with
    | 200, body -> (
      match member_string "state" body with
      | Some "done" -> 0
      | Some "poisoned" ->
        Printf.eprintf "job j%d poisoned: %s\n" id
          (Option.value (member_string "note" body) ~default:"");
        4
      | Some "failed" ->
        Printf.eprintf "job j%d failed: %s\n" id
          (Option.value (member_string "note" body) ~default:"");
        5
      | _ ->
        if Clock.elapsed_s ~t0 > timeout then begin
          Printf.eprintf "timed out after %.0fs waiting for job j%d\n"
            timeout id;
          6
        end
        else begin
          Unix.sleepf poll;
          go ()
        end)
    | 404, _ ->
      Printf.eprintf "no job j%d\n" id;
      1
    | code, body ->
      Printf.eprintf "HTTP %d: %s" code body;
      1
  in
  go ()

let drain port timeout poll =
  let t0 = Clock.now_ns () in
  let rec go () =
    match request ~port ~meth:"GET" ~path:"/progress" () with
    | 200, body -> (
      match (member_int "queued" body, member_int "running" body) with
      | Some 0, Some 0 -> 0
      | Some q, Some r ->
        if Clock.elapsed_s ~t0 > timeout then begin
          Printf.eprintf
            "timed out after %.0fs with %d queued, %d running\n" timeout q r;
          6
        end
        else begin
          Unix.sleepf poll;
          go ()
        end
      | _ -> die "unexpected /progress document: %s" body)
    | code, body ->
      Printf.eprintf "HTTP %d: %s" code body;
      1
  in
  go ()

let shutdown port =
  match request ~port ~meth:"POST" ~path:"/shutdown" () with
  | 200, _ ->
    print_endline "daemon draining";
    0
  | code, body ->
    Printf.eprintf "HTTP %d: %s" code body;
    1

(* ------------------------------------------------------------------ *)

let timeout_arg default =
  Arg.(value & opt float default
       & info [ "timeout" ] ~docv:"SECS" ~doc:"Give up after SECS")

let poll_arg =
  Arg.(value & opt float 0.2
       & info [ "poll" ] ~docv:"SECS" ~doc:"Poll interval")

let submit_cmd =
  let tenant =
    Arg.(value & opt (some string) None
         & info [ "tenant" ] ~docv:"NAME" ~doc:"Fairness/quota bucket")
  in
  let workload =
    Arg.(required & opt (some string) None
         & info [ "workload" ] ~docv:"NAME" ~doc:"Olden workload name")
  in
  let mode =
    Arg.(value & opt (some string) None
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"nochecks | hardbound | malloc-only | softfat | objtable")
  in
  let scheme =
    Arg.(value & opt (some string) None
         & info [ "scheme" ] ~docv:"ENC"
             ~doc:"uncompressed | extern-4 | intern-4 | intern-11")
  in
  let runs =
    Arg.(value & opt (some int) None
         & info [ "runs" ] ~docv:"N" ~doc:"Campaign runs")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed")
  in
  let sites =
    Arg.(value & opt (some string) None
         & info [ "sites" ] ~docv:"SITES"
             ~doc:"Comma list of mem|tag|shadow|reg|regbounds, or 'all'")
  in
  let checkpoints =
    Arg.(value & opt (some int) None
         & info [ "checkpoints" ] ~docv:"K"
             ~doc:"Golden-divergence checkpoints per run")
  in
  let policy =
    Arg.(value & opt (some string) None
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"abort | report | null-guard | rollback")
  in
  let violation_budget =
    Arg.(value & opt (some int) None
         & info [ "violation-budget" ] ~docv:"N"
             ~doc:"Traps a continuing policy may absorb")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECS"
             ~doc:"Per-job wall budget (daemon default applies if absent)")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"N" ~doc:"Shard workers inside the job")
  in
  let chaos =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Deliberate misbehavior for robustness tests: 'hang' or \
                   'crash:K'")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet"; "q" ] ~doc:"Print only the job id")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a campaign job")
    Term.(const submit $ port_arg $ tenant $ workload $ mode $ scheme $ runs
          $ seed $ sites $ checkpoints $ policy $ violation_budget $ deadline
          $ jobs $ chaos $ quiet)

let status_cmd =
  Cmd.v (Cmd.info "status" ~doc:"Print a job's status document")
    Term.(const status $ port_arg $ job_arg)

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Print a finished job's campaign report \
                             (byte-identical to the serial CLI's)")
    Term.(const report $ port_arg $ job_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List all jobs the daemon knows")
    Term.(const list_jobs $ port_arg)

let wait_cmd =
  Cmd.v
    (Cmd.info "wait"
       ~doc:"Block until a job reaches a terminal state (exit 0 done, 4 \
             poisoned, 5 failed, 6 timeout)")
    Term.(const wait $ port_arg $ job_arg $ timeout_arg 300. $ poll_arg)

let drain_cmd =
  Cmd.v
    (Cmd.info "drain"
       ~doc:"Block until nothing is queued or running (exit 6 on timeout)")
    Term.(const drain $ port_arg $ timeout_arg 600. $ poll_arg)

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask the daemon to stop accepting work, finish its running \
             attempts and exit; queued jobs stay journaled for the next \
             start")
    Term.(const shutdown $ port_arg)

let cmd =
  Cmd.group
    (Cmd.info "hb_client" ~doc:"client for the hb_serve simulation daemon")
    [
      submit_cmd; status_cmd; report_cmd; list_cmd; wait_cmd; drain_cmd;
      shutdown_cmd;
    ]

let () = exit (Cmd.eval' cmd)
