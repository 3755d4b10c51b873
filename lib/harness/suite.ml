(** Collects the full measurement matrix once; the figure printers read
    from it.  One baseline + three HardBound encodings + the two software
    baselines per Olden benchmark. *)

module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Host = Hb_obs.Host

type per_workload = {
  name : string;
  baseline : Run.record;
  hb_extern4 : Run.record;
  hb_intern4 : Run.record;
  hb_intern11 : Run.record;
  softfat : Run.record option;
  objtable : Run.record option;
}

let hb_runs w =
  List.map (fun r -> (r.Run.scheme, r))
    [ w.hb_extern4; w.hb_intern4; w.hb_intern11 ]

let collect ?(software = true) ?(progress = fun _ -> ()) () :
    per_workload list =
  List.map
    (fun (w : Hb_workloads.Workloads.t) ->
      progress w.name;
      Host.span (Printf.sprintf "workload:%s" w.name) @@ fun () ->
      let baseline = Run.measure ~mode:Codegen.Nochecks w in
      let hb scheme = Run.measure ~scheme ~mode:Codegen.Hardbound w in
      let sw mode = if software then Some (Run.measure ~mode w) else None in
      let r =
        {
          name = w.name;
          baseline;
          hb_extern4 = hb Encoding.Extern4;
          hb_intern4 = hb Encoding.Intern4;
          hb_intern11 = hb Encoding.Intern11;
          softfat = sw Codegen.Softfat;
          objtable = sw Codegen.Objtable;
        }
      in
      (* protection transparency: every instrumented run reproduced the
         baseline's output *)
      List.iter
        (fun (r' : Run.record) ->
          if r'.Run.output <> baseline.Run.output then
            Hb_error.fail ~component:"harness"
              "%s: output diverged under instrumentation" w.name)
        ([ r.hb_extern4; r.hb_intern4; r.hb_intern11 ]
        @ (match r.softfat with Some x -> [ x ] | None -> [])
        @ (match r.objtable with Some x -> [ x ] | None -> []));
      r)
    Hb_workloads.Workloads.all

let geo_mean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ---- performance-trajectory snapshot -------------------------------- *)

module Json = Hb_obs.Json

(* The configurations the committed baseline tracks.  Software baselines
   are excluded on purpose: they are comparison points, not the simulator
   surface this gate protects. *)
let snapshot_runs w =
  [
    ("baseline", w.baseline);
    ("hb-extern-4", w.hb_extern4);
    ("hb-intern-4", w.hb_intern4);
    ("hb-intern-11", w.hb_intern11);
  ]

(** Deterministic perf-trajectory snapshot of the suite: instructions,
    micro-ops and cycles for the baseline and each HardBound encoding of
    every workload.  Committed as [BENCH_hardbound.json] and compared by
    {!check_baseline} in CI. *)
let snapshot_json (suite : per_workload list) =
  Json.Obj
    [
      ( "workloads",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("name", Json.String w.name);
                   ( "runs",
                     Json.List
                       (List.map
                          (fun (config, (r : Run.record)) ->
                            Json.Obj
                              [
                                ("config", Json.String config);
                                ("instructions", Json.Int r.Run.instructions);
                                ("uops", Json.Int r.Run.uops);
                                ("cycles", Json.Int r.Run.cycles);
                              ])
                          (snapshot_runs w)) );
                 ])
             suite) );
    ]

let snap_fail fmt =
  Printf.ksprintf (fun m -> raise (Json.Parse_error ("baseline: " ^ m))) fmt

(* The counts a snapshot pins for each (workload, config) entry. *)
let snapshot_fields =
  [
    ("instructions", fun (r : Run.record) -> r.Run.instructions);
    ("uops", fun (r : Run.record) -> r.Run.uops);
    ("cycles", fun (r : Run.record) -> r.Run.cycles);
  ]

(* (workload, config, field) -> count of a parsed snapshot document. *)
let snapshot_counts json =
  let tbl = Hashtbl.create 64 in
  let geti obj key =
    match Option.bind (Json.member key obj) Json.to_int with
    | Some v -> v
    | None -> snap_fail "missing int field %S" key
  in
  let gets obj key =
    match Json.member key obj with
    | Some (Json.String s) -> s
    | _ -> snap_fail "missing string field %S" key
  in
  let workloads =
    match Option.bind (Json.member "workloads" json) Json.to_list with
    | Some l -> l
    | None -> snap_fail "missing \"workloads\" list"
  in
  List.iter
    (fun w ->
      let name = gets w "name" in
      let runs =
        match Option.bind (Json.member "runs" w) Json.to_list with
        | Some l -> l
        | None -> snap_fail "%s: missing \"runs\" list" name
      in
      List.iter
        (fun r ->
          let config = gets r "config" in
          List.iter
            (fun (field, _) ->
              Hashtbl.replace tbl (name, config, field) (geti r field))
            snapshot_fields)
        runs)
    workloads;
  tbl

(** Compare a freshly measured suite against a committed snapshot
    document.  The simulator is deterministic, so the comparison is
    exact: [Error] lists every (workload, config, count) whose
    instructions, uops or cycles differ from the recorded value by even
    one, and every pair the snapshot does not cover — an unexplained perf
    regression *or* an unrecorded improvement both fail, forcing the
    baseline update into the same change.  Raises
    {!Hb_obs.Json.Parse_error} when [baseline] is not a snapshot. *)
let check_baseline ~baseline (suite : per_workload list) =
  let recorded = snapshot_counts baseline in
  let drifts =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun (config, (r : Run.record)) ->
            List.filter_map
              (fun (field, count) ->
                match Hashtbl.find_opt recorded (w.name, config, field) with
                | None ->
                  Some
                    (Printf.sprintf "%s/%s: %s not in the committed baseline"
                       w.name config field)
                | Some expect when count r <> expect ->
                  Some
                    (Printf.sprintf
                       "%s/%s: %s %d differs from baseline %d (%+d)" w.name
                       config field (count r) expect (count r - expect))
                | Some _ -> None)
              snapshot_fields)
          (snapshot_runs w))
      suite
  in
  match drifts with [] -> Ok () | msgs -> Error msgs

(* ---- host wall-clock trajectory (advisory) -------------------------- *)

(* BENCH_wall.json is the host-varying sibling of BENCH_hardbound.json:
   an append-per-PR series of wall-clock / throughput points.  It is
   deliberately NOT a gate — wall time depends on the machine that ran
   it — so comparisons only ever produce advisory notes. *)

let wall_point ?(extra = []) ~label (suite : per_workload list) =
  Json.Obj
    ([
       ("label", Json.String label);
       (* wall numbers mean little without the core count they ran on *)
       ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ( "entries",
         Json.List
           (List.concat_map
              (fun w ->
                List.map
                  (fun (config, (r : Run.record)) ->
                    Json.Obj
                      [
                        ("workload", Json.String w.name);
                        ("config", Json.String config);
                        ("wall_ms", Json.Float (Run.wall_ms r));
                        ("sim_ips", Json.Float (Run.sim_ips r));
                        ( "gc_major_words",
                          Json.Int r.Run.host.Run.gc_major_words );
                      ])
                  (snapshot_runs w))
              suite) );
     ]
    @ extra)

let wall_points json =
  match Option.bind (Json.member "points" json) Json.to_list with
  | Some l -> l
  | None -> snap_fail "missing \"points\" list in wall trajectory"

let append_wall ?extra ~trajectory ~label (suite : per_workload list) =
  let prior = match trajectory with Some j -> wall_points j | None -> [] in
  Json.Obj
    [
      ("bench", Json.String "hb-wall-trajectory");
      ("version", Json.Int 1);
      ("points", Json.List (prior @ [ wall_point ?extra ~label suite ]));
    ]

let point_label p =
  match Json.member "label" p with
  | Some (Json.String s) -> s
  | _ -> snap_fail "wall point: missing \"label\""

let point_entries p =
  match Option.bind (Json.member "entries" p) Json.to_list with
  | Some l -> l
  | None -> snap_fail "wall point %S: missing \"entries\" list" (point_label p)

let jnum = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* ---- wall-trend analysis (advisory, point-to-point) ------------------ *)

(* One (workload, config) entry compared across two consecutive
   trajectory points. *)
type trend_row = {
  t_workload : string;
  t_config : string;
  t_wall0 : float;
  t_wall1 : float;
  t_wall_ratio : float;
  t_ips0 : float;
  t_ips1 : float;
  t_ips_ratio : float;
  t_gc0 : int;
  t_gc1 : int;
  t_breach : bool;
}

(* (workload, config) -> (wall_ms, sim_ips, gc_major_words) of a point;
   malformed entries are skipped (old points may predate a field). *)
let entry_map p =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match (Json.member "workload" e, Json.member "config" e) with
      | Some (Json.String w), Some (Json.String c) -> (
        match
          ( jnum (Json.member "wall_ms" e),
            jnum (Json.member "sim_ips" e),
            Option.bind (Json.member "gc_major_words" e) Json.to_int )
        with
        | Some wall, Some ips, Some gc -> Hashtbl.replace tbl (w, c) (wall, ips, gc)
        | _ -> ())
      | _ -> ())
    (point_entries p);
  tbl

(* (from point, to point) -> (from label, to label, rows in the "to"
   point's entry order, restricted to pairs present in both). *)
let trend_step ~band (a, b) =
  let prior = entry_map a in
  let rows =
    List.filter_map
      (fun e ->
        match (Json.member "workload" e, Json.member "config" e) with
        | Some (Json.String w), Some (Json.String c) -> (
          match
            ( Hashtbl.find_opt prior (w, c),
              jnum (Json.member "wall_ms" e),
              jnum (Json.member "sim_ips" e),
              Option.bind (Json.member "gc_major_words" e) Json.to_int )
          with
          | Some (wall0, ips0, gc0), Some wall1, Some ips1, Some gc1
            when wall0 > 0.0 ->
            let wall_ratio = wall1 /. wall0 in
            Some
              {
                t_workload = w;
                t_config = c;
                t_wall0 = wall0;
                t_wall1 = wall1;
                t_wall_ratio = wall_ratio;
                t_ips0 = ips0;
                t_ips1 = ips1;
                t_ips_ratio = (if ips0 > 0.0 then ips1 /. ips0 else 0.0);
                t_gc0 = gc0;
                t_gc1 = gc1;
                t_breach =
                  wall_ratio > 1.0 +. band || wall_ratio < 1.0 -. band;
              }
          | _ -> None)
        | _ -> None)
      (point_entries b)
  in
  (point_label a, point_label b, rows)

let rec consecutive = function
  | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
  | _ -> []

let trend_steps ~band trajectory =
  List.map (trend_step ~band) (consecutive (wall_points trajectory))

let geo_or_one = function [] -> 1.0 | xs -> geo_mean xs

let step_summary rows =
  let breaches = List.length (List.filter (fun r -> r.t_breach) rows) in
  (* a zero-wall point (clock too coarse, or a hand-edited trajectory)
     would drive the geomean's log to -inf: ratios that are not positive
     contribute nothing, exactly like the ips filter below *)
  let wall_g =
    geo_or_one
      (List.filter_map
         (fun r -> if r.t_wall_ratio > 0.0 then Some r.t_wall_ratio else None)
         rows)
  in
  let ips_g =
    geo_or_one
      (List.filter_map
         (fun r -> if r.t_ips_ratio > 0.0 then Some r.t_ips_ratio else None)
         rows)
  in
  let gc_delta = List.fold_left (fun a r -> a + (r.t_gc1 - r.t_gc0)) 0 rows in
  (breaches, wall_g, ips_g, gc_delta)

(** Deterministic point-to-point analysis of a committed wall trajectory
    (a pure function of the document: no fresh measurement).  One step
    per consecutive pair of points; each step carries the per-
    (workload, config) wall / throughput / GC deltas and a summary with
    geomean ratios and the count of advisory-band breaches.  Advisory by
    construction — the underlying numbers are host-varying. *)
let trend ?(band = 0.5) ~trajectory () =
  let steps = trend_steps ~band trajectory in
  Json.Obj
    [
      ("bench", Json.String "hb-wall-trend");
      ("version", Json.Int 1);
      ("band", Json.Float band);
      ("points", Json.Int (List.length (wall_points trajectory)));
      ( "steps",
        Json.List
          (List.map
             (fun (from_l, to_l, rows) ->
               let breaches, wall_g, ips_g, gc_delta = step_summary rows in
               Json.Obj
                 [
                   ("from", Json.String from_l);
                   ("to", Json.String to_l);
                   ( "entries",
                     Json.List
                       (List.map
                          (fun r ->
                            Json.Obj
                              [
                                ("workload", Json.String r.t_workload);
                                ("config", Json.String r.t_config);
                                ("wall_ms_from", Json.Float r.t_wall0);
                                ("wall_ms_to", Json.Float r.t_wall1);
                                ("wall_ratio", Json.Float r.t_wall_ratio);
                                ("sim_ips_from", Json.Float r.t_ips0);
                                ("sim_ips_to", Json.Float r.t_ips1);
                                ("ips_ratio", Json.Float r.t_ips_ratio);
                                ("gc_major_words_from", Json.Int r.t_gc0);
                                ("gc_major_words_to", Json.Int r.t_gc1);
                                ( "gc_major_words_delta",
                                  Json.Int (r.t_gc1 - r.t_gc0) );
                                ("breach", Json.Bool r.t_breach);
                              ])
                          rows) );
                   ( "summary",
                     Json.Obj
                       [
                         ("entries", Json.Int (List.length rows));
                         ("breaches", Json.Int breaches);
                         ("wall_ratio_geomean", Json.Float wall_g);
                         ("ips_ratio_geomean", Json.Float ips_g);
                         ("gc_major_words_delta", Json.Int gc_delta);
                       ] );
                 ])
             steps) );
    ]

(** Human rendering of the same analysis: one summary line per step plus
    a per-entry table (band breaches flagged with [!]). *)
let trend_table ?(band = 0.5) ~trajectory () =
  let b = Buffer.create 1024 in
  let points = wall_points trajectory in
  Printf.bprintf b
    "wall trend: %d point%s, %d step%s, band \xc2\xb1%.0f%%  (advisory \
     \xe2\x80\x94 wall times are host-varying)\n"
    (List.length points)
    (if List.length points = 1 then "" else "s")
    (max 0 (List.length points - 1))
    (if List.length points = 2 then "" else "s")
    (100.0 *. band);
  let steps = trend_steps ~band trajectory in
  if steps = [] then
    Buffer.add_string b "  (fewer than two points: nothing to compare)\n"
  else
    List.iter
      (fun (from_l, to_l, rows) ->
        let breaches, wall_g, ips_g, gc_delta = step_summary rows in
        Printf.bprintf b
          "\n%s -> %s   entries %d   breaches %d   wall x%.2f (geomean)   \
           ips x%.2f   gc \xce\x94%+d words\n"
          from_l to_l (List.length rows) breaches wall_g ips_g gc_delta;
        Printf.bprintf b "  %-24s %22s %7s %7s %12s\n" "workload/config"
          "wall ms (from -> to)" "ratio" "ips x" "gc \xce\x94words";
        List.iter
          (fun r ->
            Printf.bprintf b "  %-24s %10.2f -> %-8.2f %7.2f %7.2f %+12d%s\n"
              (r.t_workload ^ "/" ^ r.t_config)
              r.t_wall0 r.t_wall1 r.t_wall_ratio r.t_ips_ratio
              (r.t_gc1 - r.t_gc0)
              (if r.t_breach then "  !" else ""))
          rows)
      steps;
  Buffer.contents b

(** Advisory comparison of a fresh suite against the last recorded
    trajectory point: per-config wall-time ratios outside the variance
    [band] (default ±50% — hosts differ) come back as human-readable
    notes.  Never an error: this trajectory is informational. *)
let wall_advisory ?(band = 0.5) ~trajectory (suite : per_workload list) =
  match List.rev (wall_points trajectory) with
  | [] -> []
  | last :: _ ->
    let prior = Hashtbl.create 64 in
    let entries =
      match Option.bind (Json.member "entries" last) Json.to_list with
      | Some l -> l
      | None -> snap_fail "wall point: missing \"entries\" list"
    in
    List.iter
      (fun e ->
        match
          ( Json.member "workload" e,
            Json.member "config" e,
            Json.member "wall_ms" e )
        with
        | Some (Json.String w), Some (Json.String c), Some (Json.Float ms)
          ->
          Hashtbl.replace prior (w, c) ms
        | _ -> ())
      entries;
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (config, (r : Run.record)) ->
            match Hashtbl.find_opt prior (w.name, config) with
            | Some was when was > 0.0 ->
              let now = Run.wall_ms r in
              let ratio = now /. was in
              if ratio > 1.0 +. band || ratio < 1.0 -. band then
                Some
                  (Printf.sprintf
                     "%s/%s: wall %.2fms vs %.2fms last point (%.0f%%) — \
                      advisory only"
                     w.name config now was (100.0 *. ratio))
              else None
            | _ -> None)
          (snapshot_runs w))
      suite
