(** Correctness tally: every operation a workload attempts is counted,
    and an operation whose output is wrong is counted as failed — never
    skipped.  [failed / attempted] is the run's error rate. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (** newest first, at most 20 *)
}

let create () = { attempted = 0; failed = 0; first_failures = [] }

(** Count one operation; [problems] lists what was wrong with it. *)
let record t ~what problems =
  t.attempted <- t.attempted + 1;
  match problems with
  | [] -> ()
  | ps ->
    t.failed <- t.failed + 1;
    if List.length t.first_failures < 20 then
      t.first_failures <-
        (what ^ ": " ^ String.concat "; " ps) :: t.first_failures

let error_rate t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted
