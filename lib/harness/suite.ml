(** Collects the full measurement matrix once; the figure printers read
    from it.  One baseline + three HardBound encodings + the two software
    baselines per Olden benchmark. *)

module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding

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
