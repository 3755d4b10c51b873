(* Determinism hygiene gate.

   Everything under lib/ is on (or reachable from) the simulation path,
   and the fault-injection campaigns promise byte-identical reports from
   a given seed.  That promise dies the moment any module reaches for
   ambient entropy, so this test greps every lib/ source for the stdlib's
   entropy points.  All randomness must flow through the one seeded PRNG,
   [Hb_fault.Prng]. *)

let lib_root = "../lib"

(* substrings forbidden in lib/ sources (checked outside comments) *)
let forbidden =
  [
    "Random.";         (* incl. Random.self_init — unseeded global state *)
    "Unix.time";
    "Unix.gettimeofday";
    "Sys.time";
  ]

(* The one sanctioned wall-clock reader: [Hb_obs.Clock] wraps the OS
   monotonic clock for the host observability plane (span profiling,
   progress ETAs) and the campaign deadline.  Nothing it reads may feed
   the injection plan or any simulated state — wall time flows only
   through the explicitly host-varying channels (span dumps, hb_host_*
   gauges, /progress, the advisory wall trajectory).  Keep the entire
   raw-clock surface confined to this file. *)
let exempt path = Filename.basename path = "clock.ml"

(* Modules allowed to consume [Hb_obs.Clock] — the host plane (fleet
   telemetry included: run wall latencies and event timestamps are
   host-varying by definition), the campaign deadline, and the shard
   supervisor (heartbeat watchdog and respawn backoff are wall-clock
   decisions about host processes; none of them feed the injection plan
   or any simulated state).  Everything else in lib/ must stay
   clock-free so a new wall-clock reader has to show up here, in
   review. *)
let clock_consumers =
  [
    "host.ml"; "progress.ml"; "deadline.ml"; "supervisor.ml"; "fleet.ml";
    (* the daemon's backoff gates and watchdog kill-afters are wall-clock
       decisions about host worker processes, exactly like the shard
       supervisor's; job reports stay deterministic *)
    "daemon.ml";
    (* queue replay re-applies a journaled requeue's backoff delay from
       restart time — the same host-scheduling decision as the daemon's
       gate, persisted; it never touches simulated state *)
    "queue.ml";
    (* the process pool's liveness rule: a child silent past its
       timeout is SIGKILLed — a wall-clock decision about host
       processes, like the supervisor's and the daemon's gates *)
    "pool.ml";
  ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Strip OCaml comments so prose mentioning [Random] doesn't trip the
   gate; string literals are kept (a "Random." in user-facing text would
   be strange enough to flag anyway). *)
let strip_comments src =
  let b = Buffer.create (String.length src) in
  let n = String.length src in
  let rec go i depth =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      go (i + 2) (depth + 1)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' && depth > 0 then
      go (i + 2) (depth - 1)
    else begin
      if depth = 0 then Buffer.add_char b src.[i];
      go (i + 1) depth
    end
  in
  go 0 0;
  Buffer.contents b

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let rec source_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then source_files path
         else if
           Filename.check_suffix entry ".ml"
           || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])

let test_no_ambient_entropy () =
  let files = source_files lib_root in
  if List.length files < 20 then
    Alcotest.failf "suspiciously few lib sources found (%d) — wrong cwd?"
      (List.length files);
  let offenders =
    List.concat_map
      (fun path ->
        if exempt path then []
        else
        let code = strip_comments (read_file path) in
        List.filter_map
          (fun needle ->
            if contains ~needle code then Some (path ^ " uses " ^ needle)
            else None)
          forbidden)
      files
  in
  match offenders with
  | [] -> ()
  | off ->
    Alcotest.failf
      "ambient entropy on the simulation path (route it through \
       Hb_fault.Prng):\n%s"
      (String.concat "\n" off)

(* The clock-confinement gate: the raw monotonic source appears only in
   the exempt [clock.ml], and [Clock.] itself only in the sanctioned
   consumer modules.  A clock leak into the simulation path would let
   host timing perturb deterministic artifacts. *)
let test_clock_confinement () =
  let files = source_files lib_root in
  let offenders =
    List.concat_map
      (fun path ->
        let base = Filename.basename path in
        let code = strip_comments (read_file path) in
        let raw =
          if (not (exempt path)) && contains ~needle:"Monotonic_clock." code
          then [ path ^ " reads the raw monotonic clock" ]
          else []
        in
        let consumer =
          if
            (not (exempt path))
            && (not (List.mem base clock_consumers))
            && contains ~needle:"Clock." code
          then [ path ^ " uses Clock. outside the sanctioned consumers" ]
          else []
        in
        raw @ consumer)
      files
  in
  (match offenders with
   | [] -> ()
   | off ->
     Alcotest.failf
       "clock leak (confine wall time to Hb_obs.Clock and its listed \
        consumers):\n%s"
       (String.concat "\n" off));
  (* the whitelist must describe reality: every listed consumer exists
     and actually reads the clock, or the list has gone stale *)
  List.iter
    (fun base ->
      match
        List.find_opt (fun p -> Filename.basename p = base) files
      with
      | None -> Alcotest.failf "clock consumer %s not found under lib/" base
      | Some p ->
        if not (contains ~needle:"Clock." (strip_comments (read_file p)))
        then Alcotest.failf "clock consumer %s no longer uses Clock." base)
    clock_consumers

(* The gate must actually be able to see the code it polices. *)
let test_scanner_sees_the_prng () =
  let files = source_files lib_root in
  Alcotest.(check bool) "lib/fault/prng.ml is in view" true
    (List.exists
       (fun p -> Filename.basename p = "prng.ml")
       files);
  (* the clock exemption must point at a real, unique file — a rename
     would silently widen the gate otherwise *)
  Alcotest.(check int) "exactly one exempt clock module" 1
    (List.length (List.filter exempt files))

(* ---- the build the benchmark measures -------------------------------- *)

(* perfbench builds the default dev profile, so a speedup has to come
   from the code: no dune-workspace at the root (it could pick another
   profile) and no dune file that sets compiler flags or a profile.  The
   dune files under these directories are this test's deps. *)
let build_dirs = [ ".."; "../lib"; "../bin"; "../perfbench"; "."; "../bench";
                   "../examples" ]

let build_fields = [ "flags"; "ocamlopt_flags"; "ocamlc_flags"; "env"; "profile" ]

(* dune files at [dir] (and below it, except the root, whose other
   subdirectories are not ours to police) *)
let rec dune_files ~deep dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry = "dune" && not (Sys.is_directory path) then [ path ]
         else if
           deep && Sys.is_directory path && entry.[0] <> '.' && entry.[0] <> '_'
         then dune_files ~deep path
         else [])

(* The field names a dune file opens, outside comments and strings: every
   atom that directly follows an open parenthesis. *)
let opened_fields src =
  let n = String.length src in
  let is_atom c =
    not (c = '(' || c = ')' || c = '"' || c = ';' || c = ' ' || c = '\t'
         || c = '\n' || c = '\r')
  in
  let rec skip_string i =
    if i >= n then n
    else if src.[i] = '\\' then skip_string (i + 2)
    else if src.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match src.[i] with
      | ';' -> (
        match String.index_from_opt src i '\n' with
        | Some j -> go j acc
        | None -> List.rev acc)
      | '"' -> go (skip_string (i + 1)) acc
      | '(' ->
        let j = ref (i + 1) in
        while !j < n && (src.[!j] = ' ' || src.[!j] = '\t' || src.[!j] = '\n') do
          incr j
        done;
        let k = ref !j in
        while !k < n && is_atom src.[!k] do incr k done;
        go !k (String.sub src !j (!k - !j) :: acc)
      | _ -> go (i + 1) acc
  in
  go 0 []

let test_default_build () =
  if Sys.file_exists "../dune-workspace" then
    Alcotest.fail "a dune-workspace at the root changes the measured build";
  let files =
    List.concat_map (fun d -> dune_files ~deep:(d <> "..") d) build_dirs
  in
  if List.length files < 20 then
    Alcotest.failf "suspiciously few dune files found (%d) -- missing deps?"
      (List.length files);
  let offenders =
    List.concat_map
      (fun path ->
        List.filter_map
          (fun f ->
            if List.mem f build_fields then Some (path ^ " sets (" ^ f ^ " ...)")
            else None)
          (opened_fields (read_file path)))
      files
  in
  match offenders with
  | [] -> ()
  | off ->
    Alcotest.failf
      "dune files must leave flags and profile to dune's defaults:\n%s"
      (String.concat "\n" off)

let () =
  Alcotest.run "hygiene"
    [
      ( "determinism",
        [
          Alcotest.test_case "no ambient entropy in lib/" `Quick
            test_no_ambient_entropy;
          Alcotest.test_case "clock confinement" `Quick
            test_clock_confinement;
          Alcotest.test_case "scanner coverage" `Quick
            test_scanner_sees_the_prng;
        ] );
      ( "build",
        [
          Alcotest.test_case "default profile, no flags" `Quick
            test_default_build;
        ] );
    ]
