(** Crash-resilient write-ahead JSONL journal.

    One JSON record per line.  [append] is the durability boundary:
    once it returns, that record survives SIGKILL of the writer.  A
    crash mid-write leaves a {e torn tail} — a final partial line —
    which [read] silently drops; malformed lines anywhere earlier are
    genuine corruption and raise a typed {!Hb_error.Hb_error} naming
    the journal path and the 1-based line number.  All I/O failures
    (including [EINTR]-interrupted [fsync], which is retried) surface
    as typed errors naming the path, never as raw [Unix_error]s. *)

type writer

val create : string -> writer
(** Truncate-and-open a fresh journal at the given path. *)

val append_to : string -> writer
(** Open an existing journal (or create it) for appending — used when
    resuming, so an interrupted resume can itself be resumed.  A torn
    tail left by the previous writer's crash is first repaired to a
    record boundary (matching {!read}'s policy: a parseable final line
    missing its newline is completed, a partial one is dropped), so new
    records never glue onto a torn line. *)

val append : writer -> Hb_obs.Json.t -> unit
(** Write one record and [fsync]: durable on return. *)

val append_nosync : writer -> Hb_obs.Json.t -> unit
(** Write one record flushed to the kernel but not [fsync]'d — for
    records whose loss is harmless (heartbeats).  A subsequent [append]
    makes it durable too (same fd, ordered bytes). *)

val close : writer -> unit

val read : string -> Hb_obs.Json.t list
(** All intact records; drops a torn tail; raises a typed error on
    mid-file corruption, naming path and line. *)

val read_or_empty : string -> Hb_obs.Json.t list
(** [read], but a missing file yields [[]] — a worker killed between
    fork and first write leaves nothing, which is a valid journal. *)

(** {1 Shard records}

    Record shapes used by the sharded campaign engine ({!Hb_shard}):
    kept here so the on-disk journal format has a single home. *)

val shard_header_json :
  campaign:Hb_obs.Json.t -> shard:int -> jobs:int -> Hb_obs.Json.t
(** First record of a shard journal: wraps the campaign header with the
    (shard, jobs) coordinates of the slice this file covers. *)

val heartbeat_json :
  pid:int -> seq:int -> completed:int -> next:int option -> Hb_obs.Json.t
(** Worker liveness beacon ([append_nosync]'d before each run). *)

val record_type : Hb_obs.Json.t -> string option
(** The record's ["type"] field, when present and a string. *)

val is_heartbeat : Hb_obs.Json.t -> bool
