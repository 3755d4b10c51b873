(** Live status endpoint: a tiny HTTP server on a background thread
    serving [GET /metrics] (OpenMetrics exposition), [/progress] (live
    campaign JSON) and [/healthz].  The built-in routes only call the
    snapshot callbacks the front end provided; nothing flows back into
    the simulation, so deterministic artifacts are byte-identical with
    and without a server attached.  A front end that wants extra routes
    (the hb_serve daemon) supplies a [handler] with first refusal on
    every request.

    Every connection reads under a per-connection timeout and a total
    request size bound, so a stalled or hostile client cannot wedge the
    accept loop: silent sockets get [408], oversized requests [413]. *)

type response = {
  status : string;  (** e.g. ["200 OK"] *)
  content_type : string;
  headers : (string * string) list;  (** extra headers, e.g. Retry-After *)
  body : string;
}

type handler = meth:string -> path:string -> body:string -> response option
(** Custom route hook: [Some response] claims the request, [None] falls
    through to the built-in [GET /metrics], [/progress], [/healthz]
    routes (and [404]/[405] otherwise). *)

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:string ->
  string ->
  response
(** Build a {!response}; [content_type] defaults to [text/plain]. *)

type t

val parse_port : string -> int
(** Parse and validate a [--serve] port.  Raises a typed
    {!Hb_error.Hb_error} with a usage hint for non-numeric input, 0,
    negatives, and ports above 65535. *)

val start :
  ?port:int ->
  ?read_timeout_s:float ->
  ?max_request:int ->
  ?handler:handler ->
  metrics:(unit -> string) ->
  progress:(unit -> Json.t) ->
  unit ->
  t
(** Listen on loopback:[port] (default 0: an ephemeral port, for
    tests — the CLI validates user ports via {!parse_port} first) and
    serve on a background thread.  [read_timeout_s] (default 5 s) bounds
    each blocking read on a connection; [max_request] (default 64 KiB)
    bounds the request head and body sizes.  Raises a typed
    {!Hb_error.Hb_error} when the port is already bound or cannot be
    opened. *)

val port : t -> int
(** The actually bound port (resolves an ephemeral request). *)

val listen_fd : t -> Unix.file_descr
(** The listening socket — forked children must close their inherited
    copy or the port outlives the daemon. *)

val stop : t -> unit
(** Close the listener and join the serve thread. *)

type reply = {
  code : int;  (** e.g. [200] *)
  headers : (string * string) list;  (** names lower-cased *)
  body : string;
}

val request :
  port:int -> meth:string -> path:string -> ?body:string -> unit -> reply
(** The one client for these servers: send one request to
    loopback:[port] ([Connection: close]) and read the reply to EOF.
    Raises a typed {!Hb_error.Hb_error} when nothing accepts on the port
    (the message says how to start a daemon) or the reply has no status
    line. *)
