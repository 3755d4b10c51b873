(** Live status endpoint: a tiny HTTP server on a background thread.

    [--serve PORT] turns a run into a scrapeable process — the first
    concrete piece of the simulation-as-a-service direction:

    - [GET /metrics]: the Prometheus/OpenMetrics exposition of the
      session registry, host gauges included;
    - [GET /progress]: the live campaign document ({!Progress.to_json});
    - [GET /healthz]: liveness probe.

    The built-in routes are read-only and strictly off to the side:
    handlers call the snapshot callbacks the front end provided, and
    nothing they compute flows back into the simulation, so every
    deterministic artifact is byte-identical with and without [--serve].
    A front end that *wants* writable routes (the hb_serve daemon's
    [POST /jobs]) supplies a [handler] that gets first refusal on every
    request and falls through to the built-ins.

    Robustness contract: the accept loop can never be wedged by a
    stalled or hostile client.  Every connection reads under a
    [SO_RCVTIMEO] deadline ([read_timeout_s]) and a total size bound
    ([max_request]); a silent socket gets [408], an oversized request
    [413], garbage [400] — and the loop moves on.

    Malformed ports and bind failures surface as typed {!Hb_error}
    diagnostics with usage hints rather than raw [Unix.Unix_error]
    escapes. *)

type response = {
  status : string;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

type handler = meth:string -> path:string -> body:string -> response option

type t = {
  sock : Unix.file_descr;
  port : int;
  thread : Thread.t;
  stop_flag : bool ref;
}

let usage_hint = "usage: --serve PORT with 1 <= PORT <= 65535, e.g. --serve 9090"

(** CLI adapter: parse and validate a [--serve] port.  Port 0 is
    rejected on purpose — a scrape endpoint on an ephemeral port is
    unreachable by the tooling that wants it. *)
let parse_port s =
  match int_of_string_opt (String.trim s) with
  | None ->
    Hb_error.fail ~component:"serve" "--serve port %S is not a number (%s)" s
      usage_hint
  | Some p when p <= 0 ->
    Hb_error.fail ~component:"serve"
      "--serve port %d is out of range: a listening port needs 1-65535 (%s)"
      p usage_hint
  | Some p when p > 65535 ->
    Hb_error.fail ~component:"serve"
      "--serve port %d is out of range: TCP ports end at 65535 (%s)" p
      usage_hint
  | Some p -> p

let response ?(headers = []) ?(content_type = "text/plain") ~status body =
  { status; content_type; headers; body }

let render { status; content_type; headers; body } =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\n%sContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type extra (String.length body) body

let http_response ~status ~content_type body =
  render { status; content_type; headers = []; body }

let openmetrics_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

(* ------------------------------------------------------------------ *)
(* Bounded request reader                                              *)

type read_result =
  | Req of { meth : string; path : string; body : string }
  | Timeout  (* client connected but went silent past [read_timeout_s] *)
  | Too_large  (* headers or declared body exceed [max_request] *)
  | Closed  (* client hung up before sending anything *)
  | Bad  (* unparsable request framing *)

(* Index of "\r\n\r\n" in [s] (the body starts 4 bytes later), or -1. *)
let header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then -1
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then i
    else go (i + 1)
  in
  go 0

let content_length head =
  let lines = String.split_on_char '\n' head in
  List.fold_left
    (fun acc line ->
      let line = String.trim line in
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.sub line 0 i) = "content-length"
        -> (
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        match int_of_string_opt v with Some n -> Some n | None -> Some (-1))
      | _ -> acc)
    (Some 0) lines

let request_line head =
  match String.split_on_char '\r' head with
  | line :: _ -> (
    match String.split_on_char ' ' line with
    | [ meth; path; _ ] -> Some (meth, path)
    | _ -> None)
  | [] -> None

(** Read one full request (headers + declared body) under the
    per-connection timeout and total size bound.  The timeout applies to
    each blocking read, so a client must keep bytes flowing; the size
    bound applies to headers and body independently. *)
let read_request ~read_timeout_s ~max_request fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s
   with Unix.Unix_error (_, _, _) -> ());
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 2048 in
  let rec fill need =
    (* the bound first: a request that arrives complete in one read must
       not dodge the cap *)
    if Buffer.length buf > max_request then Too_large
    else
      (* grow the buffer until [need buf] says we have a full request *)
      match need (Buffer.contents buf) with
      | Some r -> r
      | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length buf = 0 then Closed else Bad
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          fill need
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          Timeout
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill need
        | exception _ -> Closed)
  in
  fill (fun raw ->
      let he = header_end raw in
      if he < 0 then None
      else
        let head = String.sub raw 0 he in
        match request_line head with
        | None -> Some Bad
        | Some (meth, path) -> (
          match content_length head with
          | Some clen when clen < 0 -> Some Bad
          | Some clen when clen > max_request -> Some Too_large
          | Some clen ->
            let have = String.length raw - (he + 4) in
            if have >= clen then
              Some (Req { meth; path; body = String.sub raw (he + 4) clen })
            else None (* keep reading the body *)
          | None -> Some Bad))

let handle ~read_timeout_s ~max_request ~handler ~metrics ~progress fd =
  let reply =
    match read_request ~read_timeout_s ~max_request fd with
    | Closed -> None
    | Timeout ->
      Some
        (http_response ~status:"408 Request Timeout" ~content_type:"text/plain"
           "request timed out: no bytes within the read timeout\n")
    | Too_large ->
      Some
        (http_response ~status:"413 Content Too Large"
           ~content_type:"text/plain" "request exceeds the size bound\n")
    | Bad ->
      Some
        (http_response ~status:"400 Bad Request" ~content_type:"text/plain"
           "bad request\n")
    | Req { meth; path; body } ->
      Some
        ((* a failing snapshot callback or handler must not kill the
            serve loop *)
         try
           match handler ~meth ~path ~body with
           | Some r -> render r
           | None -> (
             match (meth, path) with
             | "GET", "/metrics" ->
               http_response ~status:"200 OK" ~content_type:openmetrics_type
                 (metrics ())
             | "GET", "/progress" ->
               http_response ~status:"200 OK" ~content_type:"application/json"
                 (Json.to_string_pretty (progress ()) ^ "\n")
             | "GET", ("/healthz" | "/") ->
               http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
             | "GET", _ ->
               http_response ~status:"404 Not Found" ~content_type:"text/plain"
                 (path ^ " not found; have /metrics /progress /healthz\n")
             | _ ->
               http_response ~status:"405 Method Not Allowed"
                 ~content_type:"text/plain" "method not allowed\n")
         with e ->
           http_response ~status:"500 Internal Server Error"
             ~content_type:"text/plain"
             (Printexc.to_string e ^ "\n"))
  in
  (match reply with
  | Some reply -> (
    try ignore (Unix.write_substring fd reply 0 (String.length reply))
    with _ -> ())
  | None -> ());
  (* shutdown acts on the socket itself, not this descriptor: the client
     sees EOF even when a process forked mid-connection (the daemon's
     job workers) still holds an inherited dup of the fd *)
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
  try Unix.close fd with _ -> ()

let no_handler ~meth:_ ~path:_ ~body:_ = None

(** Start serving on loopback:[port] (port 0 binds an ephemeral port —
    tests use it; the CLI validates user ports first with
    {!parse_port}).  Raises a typed {!Hb_error} when the port is
    already bound or cannot be opened. *)
let start ?(port = 0) ?(read_timeout_s = 5.) ?(max_request = 65536)
    ?(handler = no_handler) ~metrics ~progress () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 16
   with
  | Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
    (try Unix.close sock with _ -> ());
    Hb_error.fail ~component:"serve"
      "--serve port %d is already bound by another process: pick a free \
       port or stop the other listener (%s)"
      port usage_hint
  | Unix.Unix_error (e, _, _) ->
    (try Unix.close sock with _ -> ());
    Hb_error.fail ~component:"serve" "--serve %d failed to listen: %s (%s)"
      port (Unix.error_message e) usage_hint);
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stop_flag = ref false in
  let thread =
    Thread.create
      (fun () ->
        while not !stop_flag do
          match Unix.accept sock with
          | fd, _ ->
            handle ~read_timeout_s ~max_request ~handler ~metrics ~progress fd
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
            (* listener closed by [stop] *)
            stop_flag := true
          | exception _ -> ()
        done)
      ()
  in
  { sock; port = actual_port; thread; stop_flag }

let port t = t.port

(* Forked children inherit the listening socket; a worker that keeps it
   open would hold the port after the daemon dies. *)
let listen_fd t = t.sock

(* Closing the listener bounces the blocked [accept], which sees the
   stop flag and exits; joining makes shutdown deterministic. *)
let stop t =
  t.stop_flag := true;
  (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with _ -> ());
  (try Unix.close t.sock with _ -> ());
  try Thread.join t.thread with _ -> ()

(* ------------------------------------------------------------------ *)
(* Loopback client                                                     *)

type reply = { code : int; headers : (string * string) list; body : string }

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

(* "Name: value" header lines; names lower-cased *)
let header_fields lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i ->
        Some
          ( String.lowercase_ascii (String.sub line 0 i),
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          )
      | None -> None)
    lines

let request ~port ~meth ~path ?(body = "") () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      (try Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with Unix.Unix_error (e, _, _) ->
         Hb_error.fail ~component:"serve"
           "cannot reach the daemon on 127.0.0.1:%d: %s (is it running? \
            start one with: hardbound_run --daemon %d --queue-dir DIR)"
           port (Unix.error_message e) port);
      write_all sock
        (Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: \
            application/json\r\nContent-Length: %d\r\nConnection: \
            close\r\n\r\n%s"
           meth path (String.length body) body);
      let raw = read_all sock in
      let he = header_end raw in
      let head, body =
        if he < 0 then (raw, "")
        else
          ( String.sub raw 0 he,
            String.sub raw (he + 4) (String.length raw - he - 4) )
      in
      let lines = List.map String.trim (String.split_on_char '\n' head) in
      let code =
        match lines with
        | status :: _ -> (
          match String.split_on_char ' ' status with
          | _http :: code :: _ -> int_of_string_opt code
          | _ -> None)
        | [] -> None
      in
      match code with
      | Some code when code > 0 ->
        { code; headers = header_fields (List.tl lines); body }
      | _ ->
        Hb_error.fail ~component:"serve" "malformed response from 127.0.0.1:%d"
          port)
