(** The one process supervisor: fork, classify exits, kill the silent,
    back off between attempts.  See pool.mli. *)

module Clock = Hb_obs.Clock

type exit = Ok | Partial | Error | Crashed of string

(* The exit-code protocol between a child and [poll]. *)
let code = function Ok -> 0 | Error -> 3 | Partial -> 4 | Crashed _ -> 5

type ending = Exited of exit | Hung of float

type 'a child = {
  key : 'a;
  pid : int;
  watch : string option;
  timeout_s : float;
  mutable size : int;
  mutable beat_ns : int64;  (* spawn, or the watched file's last growth *)
}

type 'a t = {
  attempts : int;
  base_s : float;
  cap_s : float;
  mutable live : 'a child list;  (* spawn order *)
}

let create ~attempts ~backoff_base_s ~backoff_cap_s =
  { attempts; base_s = backoff_base_s; cap_s = backoff_cap_s; live = [] }

let backoff ~base_s ~cap_s ~restart =
  if restart <= 0 then 0.
  else Float.min cap_s (base_s *. (2. ** float_of_int (restart - 1)))

let retry t ~attempt =
  if attempt >= t.attempts then None
  else Some (backoff ~base_s:t.base_s ~cap_s:t.cap_s ~restart:attempt)

let file_size = function
  | None -> 0
  | Some path -> (
    match Unix.stat path with
    | { Unix.st_size; _ } -> st_size
    | exception Unix.Unix_error (_, _, _) -> 0)

let spawn t key ?watch ~timeout_s f =
  (* the child inherits the parent's stdio buffers but [_exit]s without
     flushing them; flushing here keeps buffered parent output from
     being lost to the fork entirely *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | exception Unix.Unix_error (err, _, _) ->
    Result.Error (Printf.sprintf "fork failed: %s" (Unix.error_message err))
  | 0 ->
    (* [_exit] always: the child must not run the parent's [at_exit]
       hooks (host-span dumps, stdio flush of inherited buffers) *)
    Unix._exit
      (match f () with
      | c -> code c
      | exception e -> code (Crashed (Printexc.to_string e)))
  | pid ->
    let size = file_size watch and beat_ns = Clock.now_ns () in
    t.live <- t.live @ [ { key; pid; watch; timeout_s; size; beat_ns } ];
    Result.Ok pid

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  | 0, _ | _, Unix.WSTOPPED _ -> None
  | _, Unix.WEXITED 0 -> Some Ok
  | _, Unix.WEXITED 3 -> Some Error
  | _, Unix.WEXITED 4 -> Some Partial
  | _, Unix.WEXITED c -> Some (Crashed (Printf.sprintf "exited with code %d" c))
  | _, Unix.WSIGNALED sg ->
    Some (Crashed ("killed by " ^ Hb_recover.Interrupt.name sg))

let sigkill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  reap ()

let silence c = Clock.elapsed_s ~t0:c.beat_ns

let poll t =
  let check c =
    match reaped c.pid with
    | Some e -> Either.Left (c.key, c.pid, Exited e)
    | None ->
      let size = file_size c.watch in
      if size > c.size then begin
        c.size <- size;
        c.beat_ns <- Clock.now_ns ()
      end;
      let silent = silence c in
      if silent > c.timeout_s then begin
        sigkill c.pid;
        Either.Left (c.key, c.pid, Hung silent)
      end
      else Either.Right c
  in
  let ended, live = List.partition_map check t.live in
  t.live <- live;
  ended

let live t = List.map (fun c -> (c.key, silence c)) t.live

let kill_all t =
  let killed = List.map (fun c -> (c.key, c.pid)) t.live in
  List.iter (fun c -> sigkill c.pid) t.live;
  t.live <- [];
  killed
