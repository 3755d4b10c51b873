(* Host observability plane tests: the monotonic clock, the span
   profiler's accounting identity, the progress tracker, the live status
   endpoint, and the campaign's byte-identity promise under all of it. *)

module Build = Hb_runtime.Build
module Codegen = Hb_minic.Codegen
module Machine = Hb_cpu.Machine
module Json = Hb_obs.Json
module Metrics = Hb_obs.Metrics
module Clock = Hb_obs.Clock
module Host = Hb_obs.Host
module Progress = Hb_obs.Progress
module Serve = Hb_obs.Serve
module Campaign = Hb_fault.Campaign

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tmp suffix = Filename.temp_file "hb_host_test" suffix

(* ---- clock ------------------------------------------------------------ *)

let test_clock_monotone () =
  let a = Clock.now_ns () in
  let prev = ref a in
  for _ = 1 to 1000 do
    let t = Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock went backwards: %Ld after %Ld" t !prev;
    prev := t
  done;
  Alcotest.(check bool) "elapsed_s never negative" true
    (Clock.elapsed_s ~t0:a >= 0.);
  (* a t0 from the future clamps to zero rather than going negative *)
  let future = Int64.add (Clock.now_ns ()) 1_000_000_000L in
  Alcotest.(check (float 0.0)) "future t0 clamps" 0.0
    (Clock.elapsed_s ~t0:future);
  Alcotest.(check int64) "ns_of_s" 1_500_000_000L (Clock.ns_of_s 1.5);
  Alcotest.(check (float 1e-9)) "s_of_ns inverse" 1.5
    (Clock.s_of_ns 1_500_000_000L)

(* ---- span tree accounting --------------------------------------------- *)

let test_span_tree_identity () =
  let t = Host.create ~name:"session" () in
  Host.with_span t "a" (fun () ->
      Host.with_span t "a1" (fun () -> ignore (Sys.opaque_identity (ref 0)));
      Host.with_span t "a2" (fun () -> ()));
  Host.with_span t "b" (fun () -> Host.annotate t "instrs" 1234);
  Host.sample t;
  Host.finish t;
  (match Host.check t with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "well-formed profile rejected: %s" msg);
  let kids = List.rev t.Host.root.Host.children_rev in
  Alcotest.(check (list string)) "children in open order" [ "a"; "b" ]
    (List.map (fun (s : Host.span) -> s.Host.sp_name) kids);
  (* every closed span carries a non-negative wall time *)
  let rec walk (sp : Host.span) =
    if Int64.compare sp.Host.wall_ns 0L < 0 then
      Alcotest.failf "span %s left open" sp.Host.sp_name;
    List.iter walk sp.Host.children_rev
  in
  walk t.Host.root;
  Alcotest.(check int) "one telemetry sample" 1
    (List.length t.Host.samples_rev)

let test_doctored_sum_rejected () =
  let t = Host.create () in
  Host.with_span t "a" (fun () -> ());
  Host.finish t;
  (match t.Host.root.Host.children_rev with
   | [ sp ] ->
     (* doctor the child past its parent: the identity must catch it *)
     sp.Host.wall_ns <- Int64.add t.Host.root.Host.wall_ns 1L
   | _ -> Alcotest.fail "expected exactly one child");
  match Host.check t with
  | Ok () -> Alcotest.fail "doctored child-sum accepted"
  | Error msg ->
    Alcotest.(check bool) "message names the parent" true
      (contains msg "session" || contains msg "exceed")

let test_open_span_is_an_error () =
  let t = Host.create () in
  Host.open_span t "dangling";
  (match Host.check t with
   | Ok () -> Alcotest.fail "open span accepted by check"
   | Error _ -> ());
  Host.close_span t;
  Host.finish t;
  (match Host.check t with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  (* closing with nothing open is a typed error, not a crash *)
  match Host.close_span t with
  | () -> Alcotest.fail "close without an open span accepted"
  | exception Hb_error.Hb_error _ -> ()

let test_span_closes_on_raise () =
  let t = Host.create () in
  (try Host.with_span t "boom" (fun () -> failwith "deliberate")
   with Failure _ -> ());
  Host.finish t;
  (match Host.check t with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "raise left the tree ill-formed: %s" msg);
  match t.Host.root.Host.children_rev with
  | [ sp ] ->
    Alcotest.(check bool) "span closed despite the raise" true
      (Int64.compare sp.Host.wall_ns 0L >= 0)
  | _ -> Alcotest.fail "expected exactly one child"

(* A span's minor words are the words allocated inside it, whether or
   not a minor collection fell there: 15 blocks of 200 words (header
   included) read as 3,000 plus the profiler's own few words. *)
let test_span_minor_words_precise () =
  let t = Host.create () in
  let sink = ref [||] in
  Host.with_span t "alloc" (fun () ->
      for _ = 1 to 15 do
        sink := Sys.opaque_identity (Array.make 199 0)
      done);
  Host.finish t;
  match t.Host.root.Host.children_rev with
  | [ sp ] ->
    let w = sp.Host.gc.Host.minor_words in
    Alcotest.(check bool)
      (Printf.sprintf "3000 <= minor words (%.0f) < 3200" w)
      true
      (w >= 3000. && w < 3200.)
  | _ -> Alcotest.fail "expected exactly one child"

(* ---- sinks ------------------------------------------------------------ *)

let test_sinks_parse_back () =
  let t = Host.create () in
  Host.with_span t "phase" (fun () -> Host.annotate t "instrs" 1000);
  Host.sample ~counts:[ ("runs", 7) ] t;
  Host.finish t;
  let jpath = tmp ".json" and cpath = tmp ".chrome.json" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove jpath with _ -> ());
      try Sys.remove cpath with _ -> ())
    (fun () ->
      Host.write_json jpath t;
      Host.write_chrome cpath t;
      let j = Json.of_string (read_file jpath) in
      (match Json.member "host" j with
       | Some (Json.String "hb-span-profile") -> ()
       | _ -> Alcotest.fail "span JSON missing its magic");
      (match Json.member "root" j with
       | Some _ -> ()
       | None -> Alcotest.fail "span JSON missing the root span");
      match Json.of_string (read_file cpath) with
      | Json.List (ev :: _ as evs) ->
        Alcotest.(check bool) "root + phase events" true
          (List.length evs >= 2);
        (match Json.member "ph" ev with
         | Some (Json.String "X") -> ()
         | _ -> Alcotest.fail "chrome events must be complete (ph=X)")
      | _ -> Alcotest.fail "chrome trace is not a JSON array")

(* ---- ambient profiler + export ---------------------------------------- *)

let test_ambient_and_export () =
  (* hooks are transparent when nothing is installed *)
  Alcotest.(check int) "span passthrough" 7 (Host.span "x" (fun () -> 7));
  Host.annotate_live "instrs" 1;
  Host.sample_live ();
  let t = Host.install () in
  ignore
    (Host.span "golden" (fun () ->
         Host.annotate_live "instrs" 1_000_000;
         Host.annotate_live "cycles" 2_000_000;
         1));
  Host.sample_live ~counts:[ ("runs", 25) ] ();
  Host.uninstall ();
  Host.finish t;
  (match Host.check t with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  Alcotest.(check (list string)) "ambient spans landed" [ "golden" ]
    (List.map
       (fun (s : Host.span) -> s.Host.sp_name)
       (List.rev t.Host.root.Host.children_rev));
  let reg = Metrics.create () in
  Host.export t reg;
  let text = Metrics.to_prometheus reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains text needle))
    [
      "hb_host_wall_ns";
      "hb_host_sim_ips";
      "hb_host_sim_cps";
      "hb_host_gc_minor_words";
      "hb_host_checkpoint_samples 1";
      "span=\"golden\"";
    ]

(* ---- progress --------------------------------------------------------- *)

let test_progress_tracker () =
  let pr = Progress.create () in
  Progress.begin_campaign pr ~label:"little" ~total:10 ~prior:2;
  Progress.seed_outcome pr ~outcome:"masked";
  Progress.seed_outcome pr ~outcome:"detected";
  Alcotest.(check int) "prior counts as completed" 2 pr.Progress.completed;
  Alcotest.(check (option (float 0.)) ) "no rate from prior alone" None
    (Progress.rate pr);
  Progress.start_run pr 4;
  Alcotest.(check (option int)) "current in flight" (Some 4)
    pr.Progress.current;
  Progress.finish_run pr ~outcome:"detected";
  Alcotest.(check int) "completed bumped" 3 pr.Progress.completed;
  Alcotest.(check (option int)) "nothing in flight" None pr.Progress.current;
  Alcotest.(check (list (pair string int))) "tally sorted and merged"
    [ ("detected", 2); ("masked", 1) ]
    pr.Progress.tally;
  (match Progress.eta_s pr with
   | None -> Alcotest.fail "one fresh run must yield an ETA"
   | Some e ->
     Alcotest.(check bool) "eta never negative" true (e >= 0.));
  let j = Progress.to_json pr in
  (match Json.member "label" j with
   | Some (Json.String "little") -> ()
   | _ -> Alcotest.fail "label missing from /progress JSON");
  Alcotest.(check bool) "render names the campaign" true
    (contains (Progress.render pr) "little");
  Progress.finish pr;
  Alcotest.(check bool) "finished" true pr.Progress.finished;
  (* ticker: starts and stops cleanly *)
  let stop = Progress.ticker ~period_s:0.01 pr in
  Thread.delay 0.03;
  stop ()

(* ---- serve ------------------------------------------------------------ *)

let test_parse_port () =
  List.iter
    (fun s ->
      match Serve.parse_port s with
      | p -> Alcotest.failf "accepted %S as port %d" s p
      | exception Hb_error.Hb_error (ctx, msg) ->
        Alcotest.(check string) "component" "serve" ctx.Hb_error.component;
        Alcotest.(check bool) ("usage hint for " ^ s) true
          (contains msg "--serve PORT"))
    [ "abc"; "0"; "-3"; "70000"; "" ];
  Alcotest.(check int) "valid port" 9090 (Serve.parse_port "9090");
  Alcotest.(check int) "trimmed" 80 (Serve.parse_port " 80 ")

(* A raw socket exchange, for what the server must survive but
   [Serve.request] never sends: write [req] as is (empty: connect and go
   silent) and read to EOF. *)
let raw_exchange port req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
      in
      (try loop () with _ -> ());
      Buffer.contents buf)

let get port path = Serve.request ~port ~meth:"GET" ~path ()

let test_serve_endpoints () =
  let pr = Progress.create () in
  Progress.begin_campaign pr ~label:"srv" ~total:5 ~prior:0;
  let reg = Metrics.create () in
  Metrics.set_counter reg "cache.misses" 3;
  let metrics () = Metrics.to_prometheus reg in
  let progress () = Progress.to_json pr in
  let srv = Serve.start ~metrics ~progress () in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
      let h = get port "/healthz" in
      Alcotest.(check int) "healthz 200" 200 h.Serve.code;
      Alcotest.(check bool) "healthz body" true (contains h.Serve.body "ok");
      let m = get port "/metrics" in
      Alcotest.(check bool) "openmetrics content type" true
        (contains
           (Option.value ~default:""
              (List.assoc_opt "content-type" m.Serve.headers))
           "application/openmetrics-text");
      Alcotest.(check bool) "series served" true
        (contains m.Serve.body "cache_misses 3");
      Alcotest.(check bool) "EOF framing" true (contains m.Serve.body "# EOF");
      let p = get port "/progress" in
      (match Json.member "label" (Json.of_string p.Serve.body) with
       | Some (Json.String "srv") -> ()
       | _ -> Alcotest.fail "/progress body is not the tracker JSON");
      Alcotest.(check int) "unknown path 404" 404 (get port "/nope").Serve.code;
      (* a second server on the same (now bound) port is a typed error *)
      match Serve.start ~port ~metrics ~progress () with
      | s2 ->
        Serve.stop s2;
        Alcotest.fail "double bind accepted"
      | exception Hb_error.Hb_error (ctx, msg) ->
        Alcotest.(check string) "component" "serve" ctx.Hb_error.component;
        Alcotest.(check bool) "names the port" true
          (contains msg (string_of_int port)))

(* The reader is bounded: a connected-but-silent client gets a typed 408
   after the read timeout (the serve loop stays live for the next
   client), an oversized request gets a typed 413, and a custom handler
   hook takes precedence over the built-ins without shadowing them. *)
let test_serve_bounded_reader () =
  let metrics () = "" in
  let progress () = Json.Obj [] in
  let handler ~meth ~path ~body =
    if meth = "POST" && path = "/echo" then
      Some (Serve.response ~status:"200 OK" body)
    else None
  in
  let srv =
    Serve.start ~read_timeout_s:0.3 ~max_request:256 ~handler ~metrics
      ~progress ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      let still_serving what =
        Alcotest.(check int) ("still serving after " ^ what) 200
          (get port "/healthz").Serve.code
      in
      (* connect and go silent: the server must answer 408, not hang *)
      let r = raw_exchange port "" in
      Alcotest.(check bool) "silent socket gets 408" true
        (contains r "408 Request Timeout");
      Alcotest.(check bool) "408 body explains the timeout" true
        (contains r "read timeout");
      (* ... and the loop survives to serve the next client *)
      still_serving "a timeout";
      (* an oversized request is refused with a typed 413 *)
      let big =
        raw_exchange port
          (Printf.sprintf "GET /%s HTTP/1.1\r\nHost: localhost\r\n\r\n"
             (String.make 400 'x'))
      in
      Alcotest.(check bool) "oversized request gets 413" true
        (contains big "413 Content Too Large");
      still_serving "a 413";
      (* handler hook: takes POST /echo, defers everything else *)
      let echo =
        Serve.request ~port ~meth:"POST" ~path:"/echo" ~body:"hello" ()
      in
      Alcotest.(check string) "handler hook answers" "hello" echo.Serve.body;
      still_serving "the handler hook";
      (* a non-GET with no handler match is a 405, not a hang *)
      Alcotest.(check int) "non-GET without handler is 405" 405
        (Serve.request ~port ~meth:"DELETE" ~path:"/metrics" ()).Serve.code)

(* ---- campaign byte-identity under the host plane ----------------------- *)

let little_src =
  {|
int main() {
  int *cells[40];
  int i;
  int sum;
  for (i = 0; i < 40; i++) {
    cells[i] = (int*)malloc(8);
    cells[i][0] = i * 3;
    cells[i][1] = i;
  }
  sum = 0;
  for (i = 0; i < 40; i++) {
    sum = sum + cells[i][0];
  }
  print_int(sum);
  return 0;
}
|}

let maker () =
  let image, globals = Build.compile ~mode:Codegen.Hardbound little_src in
  let config = Build.config_for Codegen.Hardbound in
  fun () -> Machine.create ~config ~globals image

let test_campaign_progress_identity () =
  let mk = maker () in
  let cfg =
    { Campaign.default with Campaign.label = "little"; runs = 25; seed = 5 }
  in
  let plain = Campaign.run ~mk cfg in
  let pr = Progress.create () in
  let prof = Host.install () in
  let tracked =
    Fun.protect ~finally:Host.uninstall (fun () ->
        Campaign.run ~progress:pr ~mk cfg)
  in
  Host.finish prof;
  (match Host.check prof with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "campaign profile ill-formed: %s" msg);
  Alcotest.(check (list string)) "campaign phases under spans"
    [ "golden"; "runs" ]
    (List.map
       (fun (s : Host.span) -> s.Host.sp_name)
       (List.rev prof.Host.root.Host.children_rev));
  (* the whole point: the report cannot see the host plane *)
  Alcotest.(check string) "byte-identical report"
    (Json.to_string (Campaign.to_json plain))
    (Json.to_string (Campaign.to_json tracked));
  Alcotest.(check int) "tracker saw every run" cfg.Campaign.runs
    pr.Progress.completed;
  Alcotest.(check bool) "tracker finished" true pr.Progress.finished;
  Alcotest.(check int) "tally sums to runs" cfg.Campaign.runs
    (List.fold_left (fun a (_, n) -> a + n) 0 pr.Progress.tally)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "host"
    [
      ("clock", [ tc "monotone, clamped, unit conversions" test_clock_monotone ]);
      ( "spans",
        [
          tc "child-sum <= parent identity holds" test_span_tree_identity;
          tc "doctored child-sum rejected" test_doctored_sum_rejected;
          tc "open span flagged; close misuse typed" test_open_span_is_an_error;
          tc "span closes when the body raises" test_span_closes_on_raise;
          tc "minor words counted between collections"
            test_span_minor_words_precise;
          tc "JSON + chrome sinks parse back" test_sinks_parse_back;
          tc "ambient profiler + hb_host_* export" test_ambient_and_export;
        ] );
      ( "progress",
        [ tc "tallies, ETA clamp, ticker lifecycle" test_progress_tracker ] );
      ( "serve",
        [
          tc "--serve port validation is typed" test_parse_port;
          tc "endpoints end-to-end on an ephemeral port" test_serve_endpoints;
          tc "bounded reader: 408/413, handler hook, 405"
            test_serve_bounded_reader;
        ] );
      ( "campaign",
        [
          tc "byte-identical report under progress + spans"
            test_campaign_progress_identity;
        ] );
    ]
