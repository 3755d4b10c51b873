(** Cycle-windowed flight recorder: the time-resolved view every other
    observability surface (metrics, profiles, per-PC attribution) lacks.

    Every [interval] simulated cycles the machine closes a *window*: the
    delta of every cumulative counter it was given (the union of
    [Stats.fields] and [Hierarchy.fields]) plus a point-in-time *census*
    of the shadow metadata — live memory-resident bounded pointers, the
    distinct (base, bound) objects they name, tag/shadow-space footprint,
    and the live-pointer encoding distribution (Section 4's compression
    claim is exactly a claim about that distribution).

    The module is driven by the machine (like {!Attr} and {!Flame}): it
    never sees simulator types, only flat counter lists and a census
    record, so the dependency points obs-ward.  When no timeline is
    attached the machine's only cost is one [None] check per retired
    instruction; this module allocates only at window boundaries.

    Accounting identity: the per-key sum of window deltas equals the final
    cumulative counters ({!check}, mirroring [Attr.check]) — a leak means
    the sampler itself is lying and the CLI exits non-zero. *)

type census = {
  live_ptrs : int;      (** tagged memory words decoding to a pointer *)
  live_objects : int;   (** distinct (base, bound) pairs among them *)
  tag_bytes : int;      (** non-zero tag-space bytes *)
  shadow_bytes : int;   (** base/bound shadow bytes in use (8/full ptr) *)
  tag_pages : int;      (** tag-space pages materialized *)
  shadow_pages : int;   (** shadow-space pages materialized *)
  enc_ext4 : int;       (** inline under the external 4-bit tag scheme *)
  enc_int4 : int;       (** inline under the internal 4-bit scheme *)
  enc_int11 : int;      (** inline under the internal 11-bit scheme *)
  enc_full : int;       (** uncompressed: metadata in the shadow space *)
}

let empty_census =
  {
    live_ptrs = 0;
    live_objects = 0;
    tag_bytes = 0;
    shadow_bytes = 0;
    tag_pages = 0;
    shadow_pages = 0;
    enc_ext4 = 0;
    enc_int4 = 0;
    enc_int11 = 0;
    enc_full = 0;
  }

let census_fields c =
  [
    ("live_ptrs", c.live_ptrs);
    ("live_objects", c.live_objects);
    ("tag_bytes", c.tag_bytes);
    ("shadow_bytes", c.shadow_bytes);
    ("tag_pages", c.tag_pages);
    ("shadow_pages", c.shadow_pages);
    ("enc_ext4", c.enc_ext4);
    ("enc_int4", c.enc_int4);
    ("enc_int11", c.enc_int11);
    ("enc_full", c.enc_full);
  ]

type window = {
  index : int;
  start_cycle : int;
  end_cycle : int;
  deltas : (string * int) list;  (** counter increments inside the window *)
  census : census;               (** state at the window's close *)
}

type sink = { write : window -> unit; close : unit -> unit }

type t = {
  interval : int;
  mutable next_boundary : int;
      (* first cycle count at or past which the machine must sample; read
         on the hot path, advanced by [record] *)
  mutable prev : (string * int) list;  (* cumulative counters at last close *)
  mutable prev_cycle : int;
  mutable windows_rev : window list;
  mutable n_windows : int;
  mutable sinks : sink list;
}

let create ~interval =
  if interval <= 0 then
    Hb_error.fail ~component:"timeline"
      "sample interval must be positive (got %d)" interval;
  {
    interval;
    next_boundary = interval;
    prev = [];
    prev_cycle = 0;
    windows_rev = [];
    n_windows = 0;
    sinks = [];
  }

let interval t = t.interval

let add_sink t s = t.sinks <- t.sinks @ [ s ]

let close_sinks t =
  let sinks = t.sinks in
  t.sinks <- [];
  List.iter (fun s -> s.close ()) sinks

let record t ~cycle ~fields ~census =
  let prev = t.prev in
  let deltas =
    List.map
      (fun (k, v) ->
        match List.assoc_opt k prev with
        | Some p -> (k, v - p)
        | None -> (k, v))
      fields
  in
  let w =
    {
      index = t.n_windows;
      start_cycle = t.prev_cycle;
      end_cycle = cycle;
      deltas;
      census;
    }
  in
  t.prev <- fields;
  t.prev_cycle <- cycle;
  t.n_windows <- t.n_windows + 1;
  t.windows_rev <- w :: t.windows_rev;
  (* a single instruction can overshoot the boundary by a long stall: jump
     to the next multiple of the interval strictly past [cycle] *)
  t.next_boundary <- ((cycle / t.interval) + 1) * t.interval;
  List.iter (fun s -> s.write w) t.sinks

(** Close the final (partial) window.  Also the only window for runs
    shorter than one interval, so every enabled run records at least one. *)
let flush t ~cycle ~fields ~census =
  if t.n_windows = 0 || cycle > t.prev_cycle then
    record t ~cycle ~fields ~census

let windows t = List.rev t.windows_rev

(** Per-key sums of every window's deltas, in the key order of the first
    window (all windows carry the same key set). *)
let sums t =
  match windows t with
  | [] -> []
  | first :: _ as ws ->
    List.map
      (fun (k, _) ->
        ( k,
          List.fold_left
            (fun acc w ->
              match List.assoc_opt k w.deltas with
              | Some d -> acc + d
              | None -> acc)
            0 ws ))
      first.deltas

(** Compare {!sums} against the global cumulative counters; every key
    present on both sides must agree exactly (requires {!flush} first). *)
let check t ~expect =
  let bad =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k expect with
        | Some e when e <> v ->
          Some (Printf.sprintf "%s: windows %d <> global %d" k v e)
        | _ -> None)
      (sums t)
  in
  match bad with
  | [] -> Ok ()
  | msgs -> Error ("timeline window-sum leak: " ^ String.concat "; " msgs)

(* ---- file sinks ------------------------------------------------------ *)

let window_json w =
  Json.Obj
    [
      ("window", Json.Int w.index);
      ("start_cycle", Json.Int w.start_cycle);
      ("end_cycle", Json.Int w.end_cycle);
      ( "deltas",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) w.deltas) );
      ( "census",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (census_fields w.census))
      );
    ]

(** One JSON object per line per window (same idiom as [Trace.file_sink]). *)
let jsonl_sink path =
  let oc = open_out path in
  {
    write =
      (fun w ->
        output_string oc (Json.to_string (window_json w));
        output_char oc '\n');
    close = (fun () -> close_out_noerr oc);
  }

(** Flat CSV, one row per window.  The header is derived from the first
    window's delta keys plus the census fields, so the column set follows
    whatever counters the machine feeds the timeline. *)
let csv_sink path =
  let oc = open_out path in
  let header_done = ref false in
  let write w =
    if not !header_done then begin
      header_done := true;
      output_string oc
        (String.concat ","
           ([ "window"; "start_cycle"; "end_cycle" ]
           @ List.map fst w.deltas
           @ List.map fst (census_fields w.census)));
      output_char oc '\n'
    end;
    output_string oc
      (String.concat ","
         (List.map string_of_int
            ([ w.index; w.start_cycle; w.end_cycle ]
            @ List.map snd w.deltas
            @ List.map snd (census_fields w.census))));
    output_char oc '\n'
  in
  { write; close = (fun () -> close_out_noerr oc) }

(* ---- metrics gauges --------------------------------------------------- *)

(** Final-census gauges for the Prometheus exposition: [hb_shadow_bytes],
    [hb_live_bounded_objects], [hb_encoding_dist{kind=...}]. *)
let export_census (c : census) (reg : Metrics.t) =
  Metrics.set_counter reg "hb.shadow_bytes" c.shadow_bytes;
  Metrics.set_counter reg "hb.tag_bytes" c.tag_bytes;
  Metrics.set_counter reg "hb.live_pointers" c.live_ptrs;
  Metrics.set_counter reg "hb.live_bounded_objects" c.live_objects;
  List.iter
    (fun (kind, v) ->
      Metrics.set_counter reg ~labels:[ ("kind", kind) ] "hb.encoding_dist" v)
    [
      ("extern4", c.enc_ext4);
      ("intern4", c.enc_int4);
      ("intern11", c.enc_int11);
      ("full", c.enc_full);
    ]

(* ---- terminal phase report ------------------------------------------- *)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                      "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                      "\xe2\x96\x87"; "\xe2\x96\x88" |]
(* ▁▂▃▄▅▆▇█ *)

let shade_levels = [| " "; "\xe2\x96\x91"; "\xe2\x96\x92"; "\xe2\x96\x93";
                      "\xe2\x96\x88" |]
(* ░▒▓█ *)

let scale levels v vmax =
  if vmax <= 0 || v <= 0 then 0
  else
    let n = Array.length levels in
    min (n - 1) (1 + ((v * (n - 1) - 1) / vmax))

(* Compress a series to at most [width] buckets by summing; keeps the
   phase shape readable for long runs without per-window columns. *)
let downsample ~width xs =
  let n = Array.length xs in
  if n <= width then xs
  else
    Array.init width (fun b ->
        let lo = b * n / width and hi = ((b + 1) * n / width) - 1 in
        let acc = ref 0 in
        for i = lo to max lo hi do
          acc := !acc + xs.(i)
        done;
        !acc)

let sparkline ~width xs =
  let xs = downsample ~width xs in
  let vmax = Array.fold_left max 0 xs in
  String.concat ""
    (Array.to_list (Array.map (fun v -> spark_levels.(scale spark_levels v vmax)) xs))

(** Sparklines for the hottest counters, the census evolution, and a
    windows × counters heatmap (rows scaled to their own maximum). *)
let report ?(width = 48) t =
  let ws = windows t in
  let b = Buffer.create 2048 in
  (match ws with
   | [] -> Buffer.add_string b "timeline: no windows recorded\n"
   | first :: _ ->
     let n = List.length ws in
     Printf.bprintf b
       "timeline: %d window(s), sample interval %d cycles, %d cycles total\n"
       n t.interval (List.nth ws (n - 1)).end_cycle;
     let series key =
       Array.of_list
         (List.map
            (fun w ->
              match List.assoc_opt key w.deltas with Some d -> d | None -> 0)
            ws)
     in
     let keys = List.map fst first.deltas in
     let active =
       List.filter
         (fun k ->
           k <> "cycles" && Array.exists (fun v -> v <> 0) (series k))
         keys
     in
     (* per-counter sparklines, busiest first *)
     let total k = Array.fold_left ( + ) 0 (series k) in
     let ranked =
       List.sort (fun a b -> compare (total b, a) (total a, b)) active
     in
     Buffer.add_string b "\nper-window counter deltas:\n";
     List.iter
       (fun k ->
         Printf.bprintf b "  %-22s %12d  %s\n" k (total k)
           (sparkline ~width (series k)))
       ranked;
     (* windows x counters heatmap *)
     Buffer.add_string b "\nheatmap (rows scaled to their own max):\n";
     List.iter
       (fun k ->
         let xs = downsample ~width (series k) in
         let vmax = Array.fold_left max 0 xs in
         let row =
           String.concat ""
             (Array.to_list
                (Array.map
                   (fun v -> shade_levels.(scale shade_levels v vmax))
                   xs))
         in
         Printf.bprintf b "  %-22s |%s|\n" k row)
       ranked;
     (* shadow-census evolution *)
     Buffer.add_string b "\nshadow-metadata census (at window close):\n";
     let cseries f = Array.of_list (List.map (fun w -> f w.census) ws) in
     List.iter
       (fun (name, f) ->
         let xs = cseries f in
         Printf.bprintf b "  %-22s %12d  %s\n" name xs.(Array.length xs - 1)
           (sparkline ~width xs))
       [
         ("live_ptrs", fun c -> c.live_ptrs);
         ("live_objects", fun c -> c.live_objects);
         ("tag_bytes", fun c -> c.tag_bytes);
         ("shadow_bytes", fun c -> c.shadow_bytes);
       ];
     let last = (List.nth ws (n - 1)).census in
     Printf.bprintf b
       "  final encoding dist    ext4=%d int4=%d int11=%d full=%d\n"
       last.enc_ext4 last.enc_int4 last.enc_int11 last.enc_full);
  Buffer.contents b
