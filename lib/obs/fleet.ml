(** Fleet-wide observability for sharded campaigns.

    Worker side: each forked shard worker appends crash-tolerant JSONL
    telemetry (periodic snapshots carrying a metrics registry dump, its
    open/closed span tree, GC quick-stat deltas and peak RSS, plus one
    observation record per executed injection) to a sidecar file next to
    its journal shard.  Supervisor side: an ambient collector records
    process-lifecycle events and tails the sidecars on demand, so the
    live endpoints serve an aggregated, worker-labeled fleet view while
    the campaign runs; post-run the same data merges into one unified
    Chrome trace with supervisor and worker tracks keyed by pid.

    The discipline that keeps this safe: sidecars have their own [.fleet]
    suffix (the shard merge never opens them), writes are flushed but
    never fsync'd (telemetry loss is harmless), and reads skip anything
    unparsable (a torn tail is expected, not an error).  Nothing here
    can perturb campaign reports, journals, or the perf gate. *)

type config = {
  sidecars : bool;
  chrome : string option;
}

let disabled = { sidecars = false; chrome = None }

let active c = c.sidecars || c.chrome <> None

(* A distinct extension on top of the shard journal path: [Merge] globs
   nothing and opens only [base.shardK], so telemetry can never be
   mistaken for campaign records. *)
let sidecar_path path = path ^ ".fleet"

(* ---- worker side ----------------------------------------------------- *)

type worker = {
  w_shard : int;
  w_pid : int;
  w_oc : out_channel;
  w_profile : Host.t;
      (* worker-local span tree (lifetime root + one span per run);
         deliberately NOT the ambient profiler, so the parent adopting an
         exhausted shard keeps its own profile intact *)
  w_reg : Metrics.t;
  mutable w_seq : int;
  mutable w_run_t0 : int64;
  mutable w_completed : int;
  mutable w_since_snap : int;
}

let snap_interval = 5

let append_line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n';
  flush oc

let gc_json (g0 : Gc.stat) (g : Gc.stat) =
  Json.Obj
    [
      ("minor_words", Json.Float (g.Gc.minor_words -. g0.Gc.minor_words));
      ("major_words", Json.Float (g.Gc.major_words -. g0.Gc.major_words));
      ("minor_gcs", Json.Int (g.Gc.minor_collections - g0.Gc.minor_collections));
      ("major_gcs", Json.Int (g.Gc.major_collections - g0.Gc.major_collections));
    ]

let snapshot w =
  w.w_seq <- w.w_seq + 1;
  w.w_since_snap <- 0;
  append_line w.w_oc
    (Json.Obj
       [
         ("type", Json.String "snap");
         ("shard", Json.Int w.w_shard);
         ("pid", Json.Int w.w_pid);
         ("seq", Json.Int w.w_seq);
         ("t0_ns", Json.Int (Int64.to_int w.w_profile.Host.t0));
         ("at_ns", Json.Int (Int64.to_int (Clock.now_ns ())));
         ("completed", Json.Int w.w_completed);
         ("rss_kb", Json.Int (Host.peak_rss_kb ()));
         ("gc", gc_json w.w_profile.Host.root.Host.g0 (Host.gc_stat ()));
         ("metrics", Metrics.snapshot w.w_reg);
         ("profile", Host.to_json w.w_profile);
       ])

let worker_begin ~path ~shard ~completed =
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_append ]
      0o644 (sidecar_path path)
  in
  let w =
    {
      w_shard = shard;
      w_pid = Unix.getpid ();
      w_oc = oc;
      w_profile = Host.create ~name:(Printf.sprintf "worker-%d" shard) ();
      w_reg = Metrics.create ();
      w_seq = 0;
      w_run_t0 = 0L;
      w_completed = completed;
      w_since_snap = 0;
    }
  in
  snapshot w;
  w

let run_start w ~idx =
  w.w_run_t0 <- Clock.now_ns ();
  Host.open_span w.w_profile (Printf.sprintf "run %d" idx)

let run_done w ~idx ~outcome ~latency ~completed =
  Host.close_span w.w_profile;
  w.w_completed <- completed;
  let wall =
    let d = Int64.to_int (Int64.sub (Clock.now_ns ()) w.w_run_t0) in
    if d < 0 then 0 else d
  in
  Metrics.observe
    (Metrics.histogram w.w_reg
       ~labels:[ ("outcome", outcome) ]
       "hb_fleet.run_wall_ns")
    wall;
  (match latency with
  | Some l ->
    Metrics.observe
      (Metrics.histogram w.w_reg
         ~labels:[ ("outcome", outcome) ]
         "hb_fleet.detect_latency_instrs")
      l
  | None -> ());
  Metrics.inc
    (Metrics.counter w.w_reg ~labels:[ ("outcome", outcome) ] "hb_fleet.runs");
  append_line w.w_oc
    (Json.Obj
       [
         ("type", Json.String "obs");
         ("shard", Json.Int w.w_shard);
         ("pid", Json.Int w.w_pid);
         ("idx", Json.Int idx);
         ("outcome", Json.String outcome);
         ("wall_ns", Json.Int wall);
         ( "latency",
           match latency with None -> Json.Null | Some l -> Json.Int l );
       ]);
  w.w_since_snap <- w.w_since_snap + 1;
  if w.w_since_snap >= snap_interval then snapshot w

let worker_end w =
  Host.finish w.w_profile;
  (try snapshot w with Sys_error _ -> ());
  close_out_noerr w.w_oc

(* ---- supervisor events + ambient collector --------------------------- *)

type event = {
  e_at_ns : int64;
  e_kind : string;
  e_shard : int;
  e_pid : int option;
  e_detail : string;
}

type collector = {
  c_sidecars : string list;
  mutable c_events_rev : event list;
}

let current : collector option ref = ref None

let install ~sidecars = current := Some { c_sidecars = sidecars; c_events_rev = [] }
let uninstall () = current := None
let installed () = !current <> None

let event ~kind ~shard ?pid detail =
  match !current with
  | None -> ()
  | Some c ->
    c.c_events_rev <-
      {
        e_at_ns = Clock.now_ns ();
        e_kind = kind;
        e_shard = shard;
        e_pid = pid;
        e_detail = detail;
      }
      :: c.c_events_rev

let events () =
  match !current with None -> [] | Some c -> List.rev c.c_events_rev

(* ---- tolerant sidecar reader ----------------------------------------- *)

type snap = {
  n_pid : int;
  n_seq : int;
  n_t0_ns : int;
  n_at_ns : int;
  n_completed : int;
  n_rss_kb : int;
  n_gc_minor_words : float;
  n_gc_major_words : float;
  n_gc_minor : int;
  n_gc_major : int;
  n_profile : Json.t option;
}

type obs = {
  o_outcome : string;
  o_wall_ns : int;
  o_latency : int option;
}

type telemetry = { snaps : snap list; obs : obs list }

let jint ?(default = 0) k j =
  match Option.bind (Json.member k j) Json.to_int with
  | Some v -> v
  | None -> default

let jstr k j =
  match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let jfloat k j =
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.

(* A sidecar's writer may be SIGKILLed mid-line at any moment; the
   reader skips anything that does not parse (a torn tail, a truncated
   record) rather than raising — telemetry is advisory, and a parse
   failure here must never take down the serving thread. *)
let read_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> go (line :: acc)
        in
        go [])

let read_sidecar path : telemetry =
  let records =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | j -> Some j
        | exception Json.Parse_error _ -> None)
      (read_lines path)
  in
  let snaps, obs =
    List.fold_left
      (fun (snaps, obs) j ->
        match jstr "type" j with
        | Some "snap" ->
          let gc = Json.member "gc" j in
          let gf k = match gc with Some g -> jfloat k g | None -> 0. in
          let gi k = match gc with Some g -> jint k g | None -> 0 in
          ( {
              n_pid = jint "pid" j;
              n_seq = jint "seq" j;
              n_t0_ns = jint "t0_ns" j;
              n_at_ns = jint "at_ns" j;
              n_completed = jint "completed" j;
              n_rss_kb = jint "rss_kb" j;
              n_gc_minor_words = gf "minor_words";
              n_gc_major_words = gf "major_words";
              n_gc_minor = gi "minor_gcs";
              n_gc_major = gi "major_gcs";
              n_profile = Json.member "profile" j;
            }
            :: snaps,
            obs )
        | Some "obs" -> (
          match jstr "outcome" j with
          | Some o ->
            ( snaps,
              {
                o_outcome = o;
                o_wall_ns = jint "wall_ns" j;
                o_latency = Option.bind (Json.member "latency" j) Json.to_int;
              }
              :: obs )
          | None -> (snaps, obs))
        | _ -> (snaps, obs))
      ([], []) records
  in
  { snaps = List.rev snaps; obs = List.rev obs }

let last_snap t =
  match List.rev t.snaps with [] -> None | s :: _ -> Some s

(* ---- aggregation ------------------------------------------------------ *)

let export_view reg c =
  let completed_sum = ref 0 and rss_sum = ref 0 and up = ref 0 in
  List.iteri
    (fun shard path ->
      let t = read_sidecar path in
      let wl = ("worker", string_of_int shard) in
      (match last_snap t with
      | None -> ()
      | Some s ->
        incr up;
        completed_sum := !completed_sum + s.n_completed;
        rss_sum := !rss_sum + s.n_rss_kb;
        let set name v = Metrics.set_counter reg ~labels:[ wl ] name v in
        set "hb_fleet.worker_completed" s.n_completed;
        set "hb_fleet.worker_pid" s.n_pid;
        set "hb_fleet.worker_seq" s.n_seq;
        set "hb_fleet.worker_rss_kb" s.n_rss_kb;
        set "hb_fleet.worker_snaps" (List.length t.snaps);
        set "hb_fleet.worker_gc_minor_words"
          (int_of_float s.n_gc_minor_words);
        set "hb_fleet.worker_gc_major_words"
          (int_of_float s.n_gc_major_words);
        set "hb_fleet.worker_gc_minor_collections" s.n_gc_minor;
        set "hb_fleet.worker_gc_major_collections" s.n_gc_major);
      List.iter
        (fun o ->
          let ol = ("outcome", o.o_outcome) in
          Metrics.observe
            (Metrics.histogram reg ~labels:[ ol; wl ] "hb_fleet.run_wall_ns")
            o.o_wall_ns;
          Metrics.observe
            (Metrics.histogram reg ~labels:[ ol ] "hb_fleet.run_wall_ns")
            o.o_wall_ns;
          match o.o_latency with
          | Some l ->
            Metrics.observe
              (Metrics.histogram reg ~labels:[ ol; wl ]
                 "hb_fleet.detect_latency_instrs")
              l;
            Metrics.observe
              (Metrics.histogram reg ~labels:[ ol ]
                 "hb_fleet.detect_latency_instrs")
              l
          | None -> ())
        t.obs)
    c.c_sidecars;
  Metrics.set_counter reg "hb_fleet.workers" !up;
  Metrics.set_counter reg "hb_fleet.completed" !completed_sum;
  Metrics.set_counter reg "hb_fleet.rss_kb" !rss_sum;
  (* event counters, per (kind, worker) and rolled up per kind *)
  let tally = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let bump k =
        Hashtbl.replace tally k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
      in
      bump (e.e_kind, Some e.e_shard);
      bump (e.e_kind, None))
    (List.rev c.c_events_rev);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort compare
  |> List.iter (fun ((kind, shard), n) ->
         let labels =
           ("kind", kind)
           ::
           (match shard with
           | Some s -> [ ("worker", string_of_int s) ]
           | None -> [])
         in
         Metrics.set_counter reg ~labels "hb_fleet.events" n)

let export_live reg =
  match !current with None -> () | Some c -> export_view reg c

let event_json e =
  Json.Obj
    ([
       ("at_ns", Json.Int (Int64.to_int e.e_at_ns));
       ("kind", Json.String e.e_kind);
       ("shard", Json.Int e.e_shard);
     ]
    @ (match e.e_pid with Some p -> [ ("pid", Json.Int p) ] | None -> [])
    @ [ ("detail", Json.String e.e_detail) ])

let live_json () =
  match !current with
  | None -> None
  | Some c ->
    let workers =
      List.mapi
        (fun shard path ->
          let t = read_sidecar path in
          Json.Obj
            ([ ("shard", Json.Int shard) ]
            @ (match last_snap t with
              | None -> [ ("seen", Json.Bool false) ]
              | Some s ->
                [
                  ("seen", Json.Bool true);
                  ("pid", Json.Int s.n_pid);
                  ("completed", Json.Int s.n_completed);
                  ("rss_kb", Json.Int s.n_rss_kb);
                  ("gc_major_words", Json.Float s.n_gc_major_words);
                  ("snaps", Json.Int (List.length t.snaps));
                ])
            @ [ ("observations", Json.Int (List.length t.obs)) ]))
        c.c_sidecars
    in
    Some
      (Json.Obj
         [
           ("workers", Json.List workers);
           ( "events",
             Json.List (List.rev_map event_json c.c_events_rev) );
         ])

(* ---- the unified Chrome trace ----------------------------------------- *)

(* One incarnation per pid: a respawned shard gets a fresh track, so the
   timeline shows the dead worker's truncated track next to its
   successor's. *)
let incarnations t =
  List.fold_left
    (fun acc s ->
      if List.mem_assoc s.n_pid acc then
        List.map (fun (p, old) -> if p = s.n_pid then (p, s) else (p, old)) acc
      else acc @ [ (s.n_pid, s) ])
    [] t.snaps

(* A span-profile JSON tree ([Host.to_json]'s ["root"]) re-emitted as
   Chrome complete events on the track keyed by [pid], shifted onto the
   unified timebase.  An open span (wall_ns -1 in a mid-run snapshot)
   renders with zero duration. *)
let rec span_events ~pid ~shift_us depth j acc =
  let name = Option.value ~default:"?" (jstr "name" j) in
  let start_us = float_of_int (jint "start_ns" j) /. 1e3 in
  let wall = jint "wall_ns" j in
  let acc =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "X");
        ("ts", Json.Float (start_us +. shift_us));
        ("dur", Json.Float (float_of_int (max 0 wall) /. 1e3));
        ("pid", Json.Int pid);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("depth", Json.Int depth) ]);
      ]
    :: acc
  in
  match Option.bind (Json.member "children" j) Json.to_list with
  | None -> acc
  | Some children ->
    List.fold_left (fun acc c -> span_events ~pid ~shift_us (depth + 1) c acc)
      acc children

let meta_event ~pid name value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 1);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

let unified_chrome ?host ~events ~sidecars () =
  let telems = List.mapi (fun shard p -> (shard, read_sidecar p)) sidecars in
  (* unified timebase: the monotonic clock is shared across processes on
     one machine, so the earliest absolute timestamp anywhere becomes 0 *)
  let t0_ref =
    let cands =
      (match host with Some h -> [ h.Host.t0 ] | None -> [])
      @ List.map (fun e -> e.e_at_ns) events
      @ List.concat_map
          (fun (_, t) ->
            List.map (fun s -> Int64.of_int s.n_t0_ns) t.snaps)
          telems
    in
    match cands with [] -> 0L | c -> List.fold_left min (List.hd c) c
  in
  let shift_of abs_ns = Int64.to_float (Int64.sub abs_ns t0_ref) /. 1e3 in
  let sup_pid = Unix.getpid () in
  let sup =
    meta_event ~pid:sup_pid "process_name"
      (Printf.sprintf "supervisor (pid %d)" sup_pid)
    ::
    (match host with
    | None -> []
    | Some h -> Host.chrome_events ~pid:sup_pid ~shift_us:(shift_of h.Host.t0) h)
  in
  let workers =
    List.concat_map
      (fun (shard, t) ->
        List.concat_map
          (fun (pid, (s : snap)) ->
            let track =
              meta_event ~pid "process_name"
                (Printf.sprintf "worker %d (pid %d)" shard pid)
            in
            match Option.bind s.n_profile (Json.member "root") with
            | None -> [ track ]
            | Some root ->
              track
              :: List.rev
                   (span_events ~pid
                      ~shift_us:(shift_of (Int64.of_int s.n_t0_ns))
                      0 root []))
          (incarnations t))
      telems
  in
  let instants =
    List.map
      (fun e ->
        Json.Obj
          [
            ( "name",
              Json.String (Printf.sprintf "%s worker %d" e.e_kind e.e_shard) );
            ("ph", Json.String "i");
            ("s", Json.String "g");
            ("ts", Json.Float (shift_of e.e_at_ns));
            ("pid", Json.Int sup_pid);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                ([
                   ("kind", Json.String e.e_kind);
                   ("shard", Json.Int e.e_shard);
                 ]
                @ (match e.e_pid with
                  | Some p -> [ ("worker_pid", Json.Int p) ]
                  | None -> [])
                @ [ ("detail", Json.String e.e_detail) ]) );
          ])
      events
  in
  Json.List (sup @ workers @ instants)

let write_chrome ?host ~events ~sidecars path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string_pretty (unified_chrome ?host ~events ~sidecars ())
        ^ "\n"))
