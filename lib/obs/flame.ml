(** Calling-context profiler: the path-sensitive view the per-PC {!Attr}
    layer (and its per-function grouping) lacks.

    The machine maintains a *shadow call stack* at its [Call] /
    [Call_reg] / [Ret] sites: {!enter} descends into (or creates) the
    child context for the callee, {!leave} pops — never below the root —
    and every retired instruction's {!Cost} difference is charged, from
    the same place that charges [Attr], to the context that was current
    when the instruction started.  The contexts form a
    calling-context tree: one node per distinct call path, interned so a
    loop calling the same function a million times costs one node.

    Accounting identity: every instruction charges exactly one context,
    so the per-key *exclusive* sums across all contexts must equal the
    global [Stats] counters ({!check}, the same {!Cost.check} as
    [Attr.check]); a leak means the shadow stack itself is lying and
    the CLI exits non-zero.  Inclusive figures are derived at report
    time, never accumulated on the hot path.

    The stack is bounded: pushes past [max_depth] clamp to the deepest
    node and count a truncation (Olden's recursive workloads go deep);
    matching leaves unwind the clamp first, so the accounting stays
    exact — clamped instructions simply charge the cap context.

    The same module owns the address-space heat map: per-page access
    counts ({!heat_touch}, charged at the cache-hierarchy access point,
    so tag/shadow metadata traffic lands in its own pages) and bounds-
    check counts ({!heat_check}).  The module never sees simulator
    types: the machine passes page indices in and region/residency
    classifiers back at report time, so the dependency points obs-ward
    like {!Timeline}'s.

    Everything exported is deterministic: folded stacks are sorted,
    speedscope frames follow node-creation order (itself deterministic),
    heat pages are sorted by index — identical runs produce
    byte-identical artifacts. *)

type node = {
  id : int;                      (* dense creation-order id; root = 0 *)
  name : string;                 (* frame name (enclosing function) *)
  parent : node option;          (* [None] only for the root *)
  depth : int;                   (* root = 0 *)
  cost : Cost.t;                 (* exclusive, machine-charged *)
}

type t = {
  names : string array;          (* frame name per interned function id *)
  children : (int * int, node) Hashtbl.t;  (* (parent id, fn id) -> node *)
  mutable nodes_rev : node list; (* newest first; parents precede children *)
  mutable n_nodes : int;
  mutable cur : node;            (* top of the shadow stack *)
  mutable clamped : int;         (* pushes currently beyond the depth cap *)
  max_depth : int;
  mutable max_depth_seen : int;
  mutable truncations : int;
  (* address-space heat: page index -> dynamic counts *)
  heat_access : (int, int ref) Hashtbl.t;
  heat_checks : (int, int ref) Hashtbl.t;
}

let mk_node ~id ~name ~parent ~depth =
  { id; name; parent; depth; cost = Cost.create () }

let create ?(max_depth = 256) ~names ~root () =
  if max_depth < 1 then
    Hb_error.fail ~component:"flame" "max depth must be positive (got %d)"
      max_depth;
  let r = mk_node ~id:0 ~name:root ~parent:None ~depth:0 in
  {
    names;
    children = Hashtbl.create 256;
    nodes_rev = [ r ];
    n_nodes = 1;
    cur = r;
    clamped = 0;
    max_depth;
    max_depth_seen = 0;
    truncations = 0;
    heat_access = Hashtbl.create 256;
    heat_checks = Hashtbl.create 64;
  }

(** Restart the recording: drop every context and heat counter, keep the
    interned name table and configuration (the campaign runner reuses
    one instance across injected runs). *)
let reset t =
  let root = mk_node ~id:0 ~name:(List.nth t.nodes_rev (t.n_nodes - 1)).name
      ~parent:None ~depth:0 in
  Hashtbl.reset t.children;
  t.nodes_rev <- [ root ];
  t.n_nodes <- 1;
  t.cur <- root;
  t.clamped <- 0;
  t.max_depth_seen <- 0;
  t.truncations <- 0;
  Hashtbl.reset t.heat_access;
  Hashtbl.reset t.heat_checks

(* ---- shadow call stack ----------------------------------------------- *)

let current t = t.cur

let depth t = t.cur.depth + t.clamped

(** Descend into the callee context [fn] (an interned function id).
    Beyond the depth cap the stack clamps: charges keep landing on the
    cap context and a truncation is counted, so the exclusive-sum
    identity survives arbitrarily deep recursion. *)
let enter t fn =
  if t.cur.depth + t.clamped >= t.max_depth then begin
    t.clamped <- t.clamped + 1;
    t.truncations <- t.truncations + 1
  end
  else begin
    let key = (t.cur.id, fn) in
    let child =
      match Hashtbl.find_opt t.children key with
      | Some n -> n
      | None ->
        let n =
          mk_node ~id:t.n_nodes ~name:t.names.(fn) ~parent:(Some t.cur)
            ~depth:(t.cur.depth + 1)
        in
        Hashtbl.replace t.children key n;
        t.nodes_rev <- n :: t.nodes_rev;
        t.n_nodes <- t.n_nodes + 1;
        n
    in
    t.cur <- child;
    if child.depth > t.max_depth_seen then t.max_depth_seen <- child.depth
  end;
  if t.cur.depth + t.clamped > t.max_depth_seen then
    t.max_depth_seen <- t.cur.depth + t.clamped

(** Pop one frame; clamped pushes unwind first and the root is never
    popped (a restored machine may execute more returns than calls). *)
let leave t =
  if t.clamped > 0 then t.clamped <- t.clamped - 1
  else
    match t.cur.parent with None -> () | Some p -> t.cur <- p

(** Reset the shadow stack to the root *without* touching the
    accumulated contexts — [Snapshot.restore] calls this: the restored
    machine resumes in an unknown call context, and charging it to the
    root keeps the exclusive-sum identity exact. *)
let reset_stack t =
  t.cur <- (match t.nodes_rev with [] -> t.cur | _ ->
    List.nth t.nodes_rev (t.n_nodes - 1));
  t.clamped <- 0

let contexts t = t.n_nodes

let max_depth_seen t = t.max_depth_seen

let truncations t = t.truncations

(** Contexts in creation order (deterministic: execution is); a node's
    parent always precedes it. *)
let nodes t = List.rev t.nodes_rev

let exclusive_cycles n = Cost.cycles n.cost

(** Frame names from the root down to [n], root first. *)
let path n =
  let rec go acc n =
    match n.parent with None -> n.name :: acc | Some p -> go (n.name :: acc) p
  in
  go [] n

(* ---- accounting identity --------------------------------------------- *)

(** Exclusive sums over every context, keyed by the {!Hb_cpu.Stats} field
    each must reconcile with ({!Cost.totals}). *)
let total t = Cost.sum (List.map (fun n -> n.cost) t.nodes_rev)

let totals t = Cost.totals (total t)

let check t ~expect =
  Cost.check ~label:"calling-context exclusive-sum leak" (total t) ~expect

(* ---- folded stacks (FlameGraph) -------------------------------------- *)

(* The folded format reserves ';' (frame separator) and ' ' (count
   separator): sanitize frame names so hostile function names cannot
   forge extra frames or counts. *)
let folded_frame name =
  String.map
    (fun c ->
      match c with
      | ';' -> ','
      | ' ' | '\n' | '\r' | '\t' -> '_'
      | c when Char.code c < 0x20 -> '?'
      | c -> c)
    name

let folded_key n = String.concat ";" (List.map folded_frame (path n))

(** (folded stack, exclusive cycles) for every context that retired at
    least one instruction, sorted by stack — the raw material both the
    file exporter and the campaign's per-outcome aggregation consume. *)
let folded_lines t =
  List.sort compare
    (List.filter_map
       (fun n ->
         if n.cost.instrs > 0 then Some (folded_key n, exclusive_cycles n)
         else None)
       t.nodes_rev)

(** Brendan-Gregg folded-stacks text: one ["a;b;c cycles"] line per
    context, sorted, byte-identical across identical runs. *)
let folded t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (stack, cycles) -> Printf.bprintf b "%s %d\n" stack cycles)
    (folded_lines t);
  Buffer.contents b

(* ---- speedscope JSON -------------------------------------------------- *)

(** Speedscope file-format document (loads in speedscope.app and any
    Chrome-trace-adjacent viewer): one "sampled" profile whose samples
    are the calling contexts and whose weights are exclusive cycles.
    Frame indices are node ids — creation order — so the document is
    deterministic; hostile frame names are escaped by the {!Json}
    printer ({!Json.escape_to} is the single escaper). *)
let speedscope ?(name = "hardbound") t =
  let ns = nodes t in
  let frames =
    List.map (fun n -> Json.Obj [ ("name", Json.String n.name) ]) ns
  in
  let active = List.filter (fun n -> n.cost.instrs > 0) ns in
  let sample n =
    let rec ids acc n =
      match n.parent with
      | None -> n.id :: acc
      | Some p -> ids (n.id :: acc) p
    in
    Json.List (List.map (fun i -> Json.Int i) (ids [] n))
  in
  let weights = List.map exclusive_cycles active in
  let total = List.fold_left ( + ) 0 weights in
  Json.Obj
    [
      ( "$schema",
        Json.String "https://www.speedscope.app/file-format-schema.json" );
      ("shared", Json.Obj [ ("frames", Json.List frames) ]);
      ( "profiles",
        Json.List
          [
            Json.Obj
              [
                ("type", Json.String "sampled");
                ("name", Json.String (name ^ " (simulated cycles)"));
                ("unit", Json.String "none");
                ("startValue", Json.Int 0);
                ("endValue", Json.Int total);
                ("samples", Json.List (List.map sample active));
                ("weights", Json.List (List.map (fun w -> Json.Int w) weights));
              ];
          ] );
      ("name", Json.String name);
      ("exporter", Json.String "hardbound");
      ("activeProfileIndex", Json.Int 0);
    ]

(* ---- terminal context report ----------------------------------------- *)

(* Inclusive cycles per node id: children are created after their
   parents, so folding newest-to-oldest sees every child before its
   parent. *)
let inclusive t =
  let incl = Array.make t.n_nodes 0 in
  List.iter
    (fun n ->
      incl.(n.id) <- incl.(n.id) + exclusive_cycles n;
      match n.parent with
      | None -> ()
      | Some p -> incl.(p.id) <- incl.(p.id) + incl.(n.id))
    t.nodes_rev;
  incl

(** Hottest calling contexts (by exclusive cycles), with the inclusive
    roll-up, check/metadata micro-ops, stall decomposition and hierarchy
    misses per context. *)
let report ?(top = 10) t =
  let incl = inclusive t in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "flame: %d context(s), max depth %d (cap %d, %d truncation(s))\n"
    t.n_nodes t.max_depth_seen t.max_depth t.truncations;
  let active = List.filter (fun n -> n.cost.instrs > 0) t.nodes_rev in
  let ranked =
    List.sort
      (fun a b -> compare (exclusive_cycles b, a.id) (exclusive_cycles a, b.id))
      active
  in
  let shown = List.filteri (fun i _ -> i < top) ranked in
  Printf.bprintf b "%-40s %10s %10s %8s %6s %6s %8s %6s\n" "context"
    "incl cyc" "excl cyc" "instrs" "chk" "meta" "stalls" "miss";
  List.iter
    (fun n ->
      let stack = folded_key n in
      let stack =
        if String.length stack <= 40 then stack
        else ".." ^ String.sub stack (String.length stack - 38) 38
      in
      let c = n.cost in
      Printf.bprintf b "%-40s %10d %10d %8d %6d %6d %8d %6d\n" stack
        incl.(n.id) (exclusive_cycles n) c.instrs c.check_uops
        c.metadata_uops
        (c.data_stalls + c.tag_stalls + c.bb_stalls)
        (c.tlb_misses + c.l1_misses + c.l2_misses))
    shown;
  let omitted = List.length ranked - List.length shown in
  if omitted > 0 then
    Printf.bprintf b "%-40s\n" (Printf.sprintf "... (%d more contexts)" omitted);
  let total =
    List.fold_left (fun acc n -> acc + exclusive_cycles n) 0 active
  in
  Printf.bprintf b "%-40s %10d %10d\n" "TOTAL" total total;
  Buffer.contents b

(* ---- metrics gauges --------------------------------------------------- *)

(** [hb_flame_contexts], [hb_flame_max_depth], [hb_flame_truncations]. *)
let export t (reg : Metrics.t) =
  Metrics.set_counter reg "hb.flame_contexts" t.n_nodes;
  Metrics.set_counter reg "hb.flame_max_depth" t.max_depth_seen;
  Metrics.set_counter reg "hb.flame_truncations" t.truncations

(* ---- address-space heat map ------------------------------------------ *)

(* One counter per page, found in place: a page already seen costs a
   lookup and an increment, and allocates nothing. *)
let bump tbl page =
  match Hashtbl.find tbl page with
  | n -> incr n
  | exception Not_found -> Hashtbl.add tbl page (ref 1)

(** Count one cache-hierarchy access touching [page]. *)
let heat_touch t page = bump t.heat_access page

(** Count one bounds check whose effective address falls in [page]. *)
let heat_check t page = bump t.heat_checks page

(** (page, accesses, checks) for every page either counter saw, sorted
    by page index. *)
let heat_pages t =
  let pages = Hashtbl.create 64 in
  Hashtbl.iter (fun p _ -> Hashtbl.replace pages p ()) t.heat_access;
  Hashtbl.iter (fun p _ -> Hashtbl.replace pages p ()) t.heat_checks;
  let get tbl p = match Hashtbl.find_opt tbl p with Some n -> !n | None -> 0 in
  List.sort compare
    (Hashtbl.fold
       (fun p () acc ->
         (p, get t.heat_access p, get t.heat_checks p) :: acc)
       pages [])

(** One resolved heat-map row: the machine supplies region names and
    residency (via the non-materializing [Physmem.peek_*] walkers) so
    this module never learns the memory layout. *)
type heat_row = {
  h_page : int;
  h_addr : int;
  h_region : string;
  h_accesses : int;
  h_checks : int;
  h_resident : int;  (* non-zero bytes resident in the page *)
}

let heatmap_json ?(meta = []) ~page_size rows =
  let region_order = ref [] in
  let by_region = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt by_region r.h_region with
      | Some (pages, acc, chk, res) ->
        Hashtbl.replace by_region r.h_region
          (pages + 1, acc + r.h_accesses, chk + r.h_checks,
           res + r.h_resident)
      | None ->
        region_order := r.h_region :: !region_order;
        Hashtbl.replace by_region r.h_region
          (1, r.h_accesses, r.h_checks, r.h_resident))
    rows;
  Json.Obj
    (meta
    @ [
        ("heatmap", Json.String "hb-address-space");
        ("version", Json.Int 1);
        ("page_size", Json.Int page_size);
        ( "regions",
          Json.List
            (List.rev_map
               (fun name ->
                 let pages, acc, chk, res = Hashtbl.find by_region name in
                 Json.Obj
                   [
                     ("region", Json.String name);
                     ("pages", Json.Int pages);
                     ("accesses", Json.Int acc);
                     ("checks", Json.Int chk);
                     ("resident_bytes", Json.Int res);
                   ])
               !region_order) );
        ( "pages",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("page", Json.Int r.h_page);
                     ("addr", Json.Int r.h_addr);
                     ("region", Json.String r.h_region);
                     ("accesses", Json.Int r.h_accesses);
                     ("checks", Json.Int r.h_checks);
                     ("resident_bytes", Json.Int r.h_resident);
                   ])
               rows) );
      ])

let shade_levels = [| " "; "\xe2\x96\x91"; "\xe2\x96\x92"; "\xe2\x96\x93";
                      "\xe2\x96\x88" |]
(* ░▒▓█ *)

let shade v vmax =
  if vmax <= 0 || v <= 0 then shade_levels.(0)
  else
    let n = Array.length shade_levels in
    shade_levels.(min (n - 1) (1 + ((v * (n - 1) - 1) / vmax)))

(* Compress a page span to at most [width] buckets by summing. *)
let strip ~width lo hi value =
  let span = hi - lo + 1 in
  let w = min width span in
  let buckets = Array.make w 0 in
  for p = lo to hi do
    let b = (p - lo) * w / span in
    buckets.(b) <- buckets.(b) + value p
  done;
  let vmax = Array.fold_left max 0 buckets in
  String.concat ""
    (Array.to_list (Array.map (fun v -> shade v vmax) buckets))

(** Per-region shade strips over each region's touched page span:
    program pages vs tag/shadow metadata pages at a glance. *)
let heatmap_render ?(width = 48) rows =
  let b = Buffer.create 1024 in
  if rows = [] then
    Buffer.add_string b "heatmap: no pages touched\n"
  else begin
    Printf.bprintf b
      "address-space heat (%d page(s); rows scaled to their own max):\n"
      (List.length rows);
    let region_order = ref [] in
    let by_region = Hashtbl.create 8 in
    List.iter
      (fun r ->
        (match Hashtbl.find_opt by_region r.h_region with
         | Some rs -> Hashtbl.replace by_region r.h_region (r :: rs)
         | None ->
           region_order := r.h_region :: !region_order;
           Hashtbl.replace by_region r.h_region [ r ]))
      rows;
    List.iter
      (fun name ->
        let rs = List.rev (Hashtbl.find by_region name) in
        let lo = List.fold_left (fun a r -> min a r.h_page) max_int rs in
        let hi = List.fold_left (fun a r -> max a r.h_page) 0 rs in
        let tbl = Hashtbl.create 64 in
        List.iter (fun r -> Hashtbl.replace tbl r.h_page r) rs;
        let value f p =
          match Hashtbl.find_opt tbl p with Some r -> f r | None -> 0
        in
        let accesses = List.fold_left (fun a r -> a + r.h_accesses) 0 rs in
        let checks = List.fold_left (fun a r -> a + r.h_checks) 0 rs in
        Printf.bprintf b
          "  %-12s %4d page(s)  %10d access(es)  %8d check(s)\n" name
          (List.length rs) accesses checks;
        Printf.bprintf b "  %-12s |%s| accesses\n" ""
          (strip ~width lo hi (value (fun r -> r.h_accesses)));
        if checks > 0 then
          Printf.bprintf b "  %-12s |%s| checks\n" ""
            (strip ~width lo hi (value (fun r -> r.h_checks))))
      (List.rev !region_order)
  end;
  Buffer.contents b
