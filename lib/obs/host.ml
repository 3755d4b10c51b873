(** Host-side observability: a hierarchical wall-clock span profiler with
    GC and RSS telemetry.

    The *simulated* machine has been deeply observable since PR 1
    (metrics, attr, timeline, traps); this module instruments the host
    simulator itself.  A profile is a tree of spans (compile → load →
    warmup → run → report, nested freely) measured against the monotonic
    {!Clock}; each span also records the {!gc_stat} delta it covered,
    and may be annotated with simulated-progress counters (instructions,
    cycles, runs) so throughput gauges can be derived.

    The same accounting discipline the simulated side enjoys applies
    here: in a well-formed profile the summed wall time of any span's
    children never exceeds the parent's ({!check}, mirroring
    [Stats.check_invariants]).

    Everything here is host-varying by construction and must stay out of
    the deterministic artifacts; dumps go to their own sinks (JSON and
    Chrome-trace) and to [hb_host_*] gauges in the metrics registry.
    Profiling is off unless a profiler is {!install}ed, and the
    simulator's per-µop hot path is untouched: spans wrap whole phases,
    never single steps. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  compactions : int;
}

let gc_zero =
  {
    minor_words = 0.;
    major_words = 0.;
    promoted_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    compactions = 0;
  }

(* [Gc.quick_stat]'s [minor_words] advances only at a minor collection
   under OCaml 5, so a span inside one collection cycle would read 0;
   [Gc.minor_words] also counts the words allocated since. *)
let gc_stat () = { (Gc.quick_stat ()) with Gc.minor_words = Gc.minor_words () }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    major_words = b.Gc.major_words -. a.Gc.major_words;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    minor_gcs = b.Gc.minor_collections - a.Gc.minor_collections;
    major_gcs = b.Gc.major_collections - a.Gc.major_collections;
    compactions = b.Gc.compactions - a.Gc.compactions;
  }

type span = {
  sp_name : string;
  start_ns : int64;  (* absolute monotonic *)
  g0 : Gc.stat;      (* gc_stat at entry *)
  mutable wall_ns : int64;  (* -1L while the span is open *)
  mutable gc : gc_delta;    (* filled at close *)
  mutable counts : (string * int) list;  (* annotations, newest first *)
  mutable children_rev : span list;
}

type sample = {
  at_ns : int64;  (* relative to profile start *)
  s_rss_kb : int;
  s_minor_words : float;
  s_major_words : float;
  s_minor_gcs : int;
  s_major_gcs : int;
  s_counts : (string * int) list;
}

type t = {
  t0 : int64;
  root : span;
  mutable stack : span list;  (* open spans, innermost first; [] once finished *)
  mutable samples_rev : sample list;
}

let open_ name =
  {
    sp_name = name;
    start_ns = Clock.now_ns ();
    g0 = gc_stat ();
    wall_ns = -1L;
    gc = gc_zero;
    counts = [];
    children_rev = [];
  }

let create ?(name = "session") () =
  let root = open_ name in
  { t0 = root.start_ns; root; stack = [ root ]; samples_rev = [] }

let is_open sp = Int64.equal sp.wall_ns (-1L)

let close_span_record sp =
  sp.wall_ns <- Int64.sub (Clock.now_ns ()) sp.start_ns;
  sp.gc <- gc_delta sp.g0 (gc_stat ())

let open_span t name =
  let sp = open_ name in
  (match t.stack with
  | parent :: _ -> parent.children_rev <- sp :: parent.children_rev
  | [] ->
    Hb_error.fail ~component:"host" "span %S opened on a finished profile" name);
  t.stack <- sp :: t.stack

let close_span t =
  match t.stack with
  | sp :: (_ :: _ as rest) ->
    close_span_record sp;
    t.stack <- rest
  | _ ->
    Hb_error.fail ~component:"host"
      "close_span with no open span (root closes via finish)"

(* The closing discipline is what makes [check] meaningful on error
   paths: a span abandoned by an exception still records the wall time
   it actually covered. *)
let with_span t name f =
  open_span t name;
  Fun.protect ~finally:(fun () -> close_span t) f

let annotate t key v =
  match t.stack with
  | sp :: _ -> sp.counts <- (key, v) :: sp.counts
  | [] -> t.root.counts <- (key, v) :: t.root.counts

let peak_rss_kb () =
  (* VmHWM ("high water mark") from the proc status file; 0 where /proc
     is unavailable — a gauge, never an error *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              let digits =
                String.to_seq line
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
              in
              match int_of_string_opt digits with Some n -> n | None -> 0
            else go ()
        in
        go ())

let sample ?(counts = []) t =
  let g = gc_stat () in
  t.samples_rev <-
    {
      at_ns = Int64.sub (Clock.now_ns ()) t.t0;
      s_rss_kb = peak_rss_kb ();
      s_minor_words = g.Gc.minor_words;
      s_major_words = g.Gc.major_words;
      s_minor_gcs = g.Gc.minor_collections;
      s_major_gcs = g.Gc.major_collections;
      s_counts = counts;
    }
    :: t.samples_rev

let finish t =
  List.iter close_span_record t.stack;
  t.stack <- []

(* ---- the ambient profiler ------------------------------------------- *)

(* One profiler per process is the common case (a CLI run); the ambient
   instance lets deep callees open spans without threading a [t] through
   every signature.  When nothing is installed, [span] costs exactly one
   option check. *)

let current : t option ref = ref None

let install ?name () =
  let t = create ?name () in
  current := Some t;
  t

let uninstall () = current := None

let active () = !current

let span name f =
  match !current with None -> f () | Some t -> with_span t name f

let annotate_live key v =
  match !current with None -> () | Some t -> annotate t key v

let sample_live ?counts () =
  match !current with None -> () | Some t -> sample ?counts t

(* ---- accounting identity --------------------------------------------- *)

(* Children run strictly inside their parent's window, so their summed
   wall time cannot exceed the parent's.  A violation means the profiler
   itself (or a doctored dump) is lying — reject it the way
   [Stats.check_invariants] rejects a leaking cycle account. *)
let check t =
  let rec walk sp =
    if is_open sp then
      Error (Printf.sprintf "span %S is still open" sp.sp_name)
    else
      let children = List.rev sp.children_rev in
      let child_sum =
        List.fold_left (fun acc c -> Int64.add acc (max 0L c.wall_ns)) 0L
          children
      in
      if Int64.compare child_sum sp.wall_ns > 0 then
        Error
          (Printf.sprintf
             "span %S: children sum to %Ldns, exceeding the parent's %Ldns"
             sp.sp_name child_sum sp.wall_ns)
      else
        List.fold_left
          (fun acc c -> match acc with Error _ -> acc | Ok () -> walk c)
          (Ok ()) children
  in
  walk t.root

(* ---- serialization --------------------------------------------------- *)

let gc_json g =
  Json.Obj
    [
      ("minor_words", Json.Float g.minor_words);
      ("major_words", Json.Float g.major_words);
      ("promoted_words", Json.Float g.promoted_words);
      ("minor_gcs", Json.Int g.minor_gcs);
      ("major_gcs", Json.Int g.major_gcs);
      ("compactions", Json.Int g.compactions);
    ]

let rec span_json t sp =
  Json.Obj
    ([
       ("name", Json.String sp.sp_name);
       ("start_ns", Json.Int (Int64.to_int (Int64.sub sp.start_ns t.t0)));
       ("wall_ns", Json.Int (Int64.to_int sp.wall_ns));
       ("gc", gc_json sp.gc);
     ]
    @ (match sp.counts with
      | [] -> []
      | counts ->
        [
          ( "counts",
            Json.Obj
              (List.rev_map (fun (k, v) -> (k, Json.Int v)) counts) );
        ])
    @
    match sp.children_rev with
    | [] -> []
    | children ->
      [
        ( "children",
          Json.List (List.rev_map (fun c -> span_json t c) children) );
      ])

let sample_json s =
  Json.Obj
    ([
       ("at_ns", Json.Int (Int64.to_int s.at_ns));
       ("rss_kb", Json.Int s.s_rss_kb);
       ("minor_words", Json.Float s.s_minor_words);
       ("major_words", Json.Float s.s_major_words);
       ("minor_gcs", Json.Int s.s_minor_gcs);
       ("major_gcs", Json.Int s.s_major_gcs);
     ]
    @ List.map (fun (k, v) -> (k, Json.Int v)) s.s_counts)

let to_json t =
  Json.Obj
    [
      ("host", Json.String "hb-span-profile");
      ("version", Json.Int 1);
      ("peak_rss_kb", Json.Int (peak_rss_kb ()));
      ("root", span_json t t.root);
      ("samples", Json.List (List.rev_map sample_json t.samples_rev));
    ]

(* Chrome trace_event complete events, timestamps in µs relative to the
   profile start — drop the file on chrome://tracing or Perfetto.  The
   (pid, tid) pair keys the track; the fleet merger gives each process
   its own so a sharded campaign reads as one multi-track timeline. *)
let chrome_events ?(pid = 1) ?(tid = 1) ?(shift_us = 0.) t =
  let events = ref [] in
  let rec walk depth sp =
    events :=
      Json.Obj
        [
          ("name", Json.String sp.sp_name);
          ("ph", Json.String "X");
          ( "ts",
            Json.Float
              ((Int64.to_float (Int64.sub sp.start_ns t.t0) /. 1e3)
              +. shift_us) );
          ("dur", Json.Float (Int64.to_float (max 0L sp.wall_ns) /. 1e3));
          ("pid", Json.Int pid);
          ("tid", Json.Int tid);
          ("args", Json.Obj [ ("depth", Json.Int depth) ]);
        ]
      :: !events;
    List.iter (walk (depth + 1)) (List.rev sp.children_rev)
  in
  walk 0 t.root;
  List.rev !events

let to_chrome ?pid ?tid t = Json.List (chrome_events ?pid ?tid t)

(* Sinks get the same closing guarantee as every other artifact writer:
   the descriptor comes back even when the write raises mid-file. *)
let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let write_json path t = write_file path (Json.to_string_pretty (to_json t) ^ "\n")
let write_chrome path t = write_file path (Json.to_string_pretty (to_chrome t) ^ "\n")

(* ---- metrics export -------------------------------------------------- *)

(* While a span is still open (a live scrape mid-campaign) its wall time
   is read as "so far". *)
let wall_so_far sp =
  if is_open sp then Int64.sub (Clock.now_ns ()) sp.start_ns else sp.wall_ns

let count_of sp key =
  match List.assoc_opt key sp.counts with Some v -> v | None -> 0

let per_sec count ns =
  if Int64.compare ns 0L <= 0 then 0
  else int_of_float (float_of_int count /. (Int64.to_float ns /. 1e9))

(** Export the profile as [hb_host_*] gauges: wall time and throughput
    for the root and each top-level phase, GC totals, and peak RSS.
    Live-safe — open spans export their elapsed-so-far reading. *)
let export t reg =
  let phase sp label =
    let ns = wall_so_far sp in
    let lbl = [ ("span", label) ] in
    Metrics.set_counter reg ~labels:lbl "hb_host.wall_ns" (Int64.to_int ns);
    Metrics.set_counter reg ~labels:lbl "hb_host.wall_ms"
      (Int64.to_int (Int64.div ns 1_000_000L));
    let instrs = count_of sp "instrs" and cycles = count_of sp "cycles" in
    if instrs > 0 then
      Metrics.set_counter reg ~labels:lbl "hb_host.sim_ips" (per_sec instrs ns);
    if cycles > 0 then
      Metrics.set_counter reg ~labels:lbl "hb_host.sim_cps" (per_sec cycles ns)
  in
  phase t.root "total";
  List.iter
    (fun sp -> phase sp sp.sp_name)
    (List.rev t.root.children_rev);
  let g = gc_delta t.root.g0 (gc_stat ()) in
  let gi f = int_of_float f in
  Metrics.set_counter reg "hb_host.gc_minor_words" (gi g.minor_words);
  Metrics.set_counter reg "hb_host.gc_major_words" (gi g.major_words);
  Metrics.set_counter reg "hb_host.gc_promoted_words" (gi g.promoted_words);
  Metrics.set_counter reg "hb_host.gc_minor_collections" g.minor_gcs;
  Metrics.set_counter reg "hb_host.gc_major_collections" g.major_gcs;
  Metrics.set_counter reg "hb_host.peak_rss_kb" (peak_rss_kb ());
  Metrics.set_counter reg "hb_host.checkpoint_samples"
    (List.length t.samples_rev);
  match t.samples_rev with
  | [] -> ()
  | samples ->
    let h = Metrics.histogram reg "hb_host.sample_rss_kb" in
    List.iter (fun s -> Metrics.observe h s.s_rss_kb) samples

let export_live reg =
  match !current with None -> () | Some t -> export t reg
