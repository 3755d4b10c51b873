(** Cooperative shutdown requests: SIGTERM/SIGINT as data.

    Campaign mode must die well: on SIGTERM (orchestrator drains the
    node) or SIGINT (operator hits Ctrl-C) the process should stop
    accepting work, fsync and close its journal, emit a well-formed
    partial report with a [--resume] hint, and exit with a distinct
    code — not vanish mid-write and leave the journal's torn-tail
    repair to do the honours.

    The handler itself only flips a flag; every long-running loop
    (campaign runs, supervisor polls, the daemon scheduler) checks
    {!requested} at its natural yield point and winds down through the
    same partial-report path a {!Deadline} expiry takes, so the
    interrupted artifacts are exactly as well-formed as deadline ones.

    Nothing here touches the clock or entropy: an uninstalled or
    untripped handler leaves every deterministic artifact
    byte-identical. *)

let flag : int option ref = ref None
let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    let note signum =
      Sys.set_signal signum (Sys.Signal_handle (fun s -> flag := Some s))
    in
    note Sys.sigterm;
    note Sys.sigint
  end

let requested () = !flag <> None

(* OCaml's own (negative) numbers for the signals that end a process *)
let name s =
  match
    List.assoc_opt s
      Sys.[ (sigkill, "SIGKILL"); (sigterm, "SIGTERM"); (sigint, "SIGINT");
            (sigsegv, "SIGSEGV"); (sigabrt, "SIGABRT"); (sigbus, "SIGBUS");
            (sigfpe, "SIGFPE"); (sigill, "SIGILL"); (sigpipe, "SIGPIPE");
            (sighup, "SIGHUP"); (sigquit, "SIGQUIT"); (sigalrm, "SIGALRM") ]
  with
  | Some n -> n
  | None -> Printf.sprintf "signal %d" s

let signal_name () = match !flag with Some s -> name s | None -> "none"

(* Tests fork-free simulate a delivery by resetting between cases. *)
let reset () = flag := None
let simulate () = flag := Some Sys.sigterm

(* Distinct from 0 (ok), 1 (violation found), 2 (usage), and the worker
   protocol codes 3/4/5: an interrupted-but-well-formed partial exit. *)
let exit_code = 6
