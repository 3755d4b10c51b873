(** Write-ahead JSONL journal.

    One JSON object per line, each line [fsync]'d before [append]
    returns: a record that [append] has acknowledged survives a SIGKILL
    of the writing process.  The reader tolerates a *torn tail* — a
    final line cut short by a crash mid-write — by dropping it; a
    malformed line anywhere else means real corruption and raises a
    typed {!Hb_error.Hb_error}. *)

module Json = Hb_obs.Json

type writer = { oc : out_channel; fd : Unix.file_descr; path : string }

let writer_of path oc =
  { oc; fd = Unix.descr_of_out_channel oc; path }

(* A signal delivered mid-[fsync] (the shard supervisor SIGKILLs
   siblings, SIGCHLD from a dying worker, ...) surfaces as [EINTR];
   the write is still wanted, so retry.  Any other failure is a real
   I/O error a user must act on — surface it as a typed error naming
   the journal, not a raw [Unix_error]/[Sys_error] backtrace. *)
let rec fsync_retrying path fd =
  match Unix.fsync fd with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fsync_retrying path fd
  | exception Unix.Unix_error (err, fn, _) ->
    Hb_error.fail ~component:"journal" "%s: %s failed: %s" path fn
      (Unix.error_message err)

let guarded path f =
  match f () with
  | v -> v
  | exception Sys_error msg ->
    Hb_error.fail ~component:"journal" "%s: journal I/O failed: %s" path msg
  | exception Unix.Unix_error (err, fn, _) ->
    Hb_error.fail ~component:"journal" "%s: %s failed: %s" path fn
      (Unix.error_message err)

(** Create (truncate) [path] for a fresh journal. *)
let create path =
  guarded path (fun () ->
      writer_of path
        (open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path))

(* Appending straight after a crash's torn tail would glue the next
   record onto the partial line, turning a tolerated tail into mid-file
   corruption.  Repair the tail to a record boundary first, mirroring
   [read]'s policy exactly: a final unterminated line that parses is a
   complete record missing only its newline (finish it), anything else
   is dropped. *)
let repair_tail path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    if len > 0 && contents.[len - 1] <> '\n' then begin
      let start =
        match String.rindex_opt contents '\n' with
        | Some i -> i + 1
        | None -> 0
      in
      let last = String.sub contents start (len - start) in
      match Json.of_string last with
      | _ ->
        let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
        output_char oc '\n';
        close_out oc
      | exception Json.Parse_error _ ->
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate fd start;
        Unix.close fd
    end
  end

(** Open [path] for appending — resuming a journal continues the same
    file, so an interrupted resume can itself be resumed.  A torn tail
    left by the previous writer's crash is repaired to a record boundary
    before the first append. *)
let append_to path =
  guarded path (fun () ->
      repair_tail path;
      writer_of path
        (open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path))

(* One record: compact JSON (newline-free) plus ['\n'], flushed to the
   kernel.  Durability is the caller's choice ([append] vs
   [append_nosync]). *)
let push w (j : Json.t) =
  guarded w.path (fun () ->
      output_string w.oc (Json.to_string j);
      output_char w.oc '\n';
      flush w.oc)

(** Append one record durably: when [append] returns, the record is on
    disk ([fsync]'d, with [EINTR] retried). *)
let append w (j : Json.t) =
  push w j;
  fsync_retrying w.path w.fd

(** Append one record without the [fsync] — for liveness signals
    (heartbeats) whose loss costs nothing.  Ordering is still safe: a
    later [append]'s fsync flushes these bytes too, so an un-synced
    record can only ever be the torn tail. *)
let append_nosync = push

let close w = guarded w.path (fun () -> close_out w.oc)

(** Read every intact record.  The last line is the torn-tail candidate:
    if it fails to parse (or the file does not end in a newline), it is
    dropped silently — that is the crash the journal exists to survive.
    An unparsable line before the tail raises, naming the exact 1-based
    line: the number is derived from the line's position up front, so no
    accumulator bookkeeping can skew it. *)
let read path : Json.t list =
  let contents =
    guarded path (fun () ->
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let contents = really_input_string ic len in
        close_in ic;
        contents)
  in
  (* a file ending in '\n' splits into lines @ [""] — that sentinel (or,
     without the newline, the final unterminated line) is the tail *)
  let numbered =
    List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' contents)
  in
  let rec go acc = function
    | [] | [ (_, "") ] -> List.rev acc
    | [ (_, last) ] -> (
      match Json.of_string last with
      | j -> List.rev (j :: acc)
      | exception Json.Parse_error _ -> List.rev acc)
    | (line_no, line) :: rest -> (
      match Json.of_string line with
      | j -> go (j :: acc) rest
      | exception Json.Parse_error msg ->
        Hb_error.fail ~component:"journal" "%s: corrupt record at line %d: %s"
          path line_no msg)
  in
  go [] numbered

(** [read] for files that may legitimately not exist yet (a worker
    killed between fork and its first write): missing or empty reads as
    no records. *)
let read_or_empty path : Json.t list =
  if Sys.file_exists path then read path else []

(* ---- shard records ----------------------------------------------------- *)

(* Record shapes the sharded campaign engine ([hb_shard]) journals
   per-worker: a shard header binding the worker's slice to the campaign
   it partitions, and heartbeat records the supervisor's watchdog reads
   for liveness.  They live here so the journal format has one home. *)

(** Shard journal header: wraps the campaign's own header record with
    the (shard, jobs) coordinates of this slice. *)
let shard_header_json ~campaign ~shard ~jobs : Json.t =
  Json.Obj
    [
      ("type", Json.String "shard-header");
      ("journal", Json.String "hb-campaign-shard");
      ("version", Json.Int 1);
      ("shard", Json.Int shard);
      ("jobs", Json.Int jobs);
      ("campaign", campaign);
    ]

(** Worker liveness beacon, appended (un-synced) before each run: the
    writing pid, a monotonically increasing sequence number, how many of
    the shard's runs are acknowledged, and the index about to execute. *)
let heartbeat_json ~pid ~seq ~completed ~next : Json.t =
  Json.Obj
    [
      ("type", Json.String "hb");
      ("pid", Json.Int pid);
      ("seq", Json.Int seq);
      ("completed", Json.Int completed);
      ("next", match next with Some i -> Json.Int i | None -> Json.Null);
    ]

let record_type j =
  match Json.member "type" j with Some (Json.String s) -> Some s | _ -> None

let is_heartbeat j = record_type j = Some "hb"
