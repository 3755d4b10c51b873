(** Per-PC cost attribution: the hardware-performance-counter view.

    One {!Cost} record per linked code index: micro-ops, check and
    metadata micro-ops, the Figure-5 stall decomposition (data / tag /
    base-bound) and per-level miss counts.  The machine owns the charges
    (one difference of its cumulative counters per instruction, added to
    this record and to the current {!Flame} context); when attribution is
    off it skips this module entirely.

    Each PC also carries its enclosing function and source line (from the
    linker's debug map), so reports and {!Diff} tables name source lines
    instead of raw code indices.  Line numbers are 1-based lines of the
    MiniC translation unit; the runtime prelude's lines are stored negated
    (rendered [fn:rt.N]) so workload lines match the user's source.
    Summed per function, the same records are the [--profile] flat
    profile ({!by_function}). *)

type t = {
  fns : string array;   (* per-PC enclosing function *)
  lines : int array;    (* >0 user line, <0 negated runtime line, 0 unknown *)
  costs : Cost.t array;
}

let create ~fns ~lines =
  let n = Array.length fns in
  if Array.length lines <> n then
    invalid_arg "Attr.create: fns/lines length mismatch";
  { fns; lines; costs = Array.init n (fun _ -> Cost.create ()) }

let size t = Array.length t.costs

(** Render a PC's location: [fn:line] for user code, [fn:rt.line] for the
    runtime prelude, bare [fn] when the compiler emitted no marker. *)
let loc_str (t : t) pc =
  let fn = t.fns.(pc) and line = t.lines.(pc) in
  if line > 0 then Printf.sprintf "%s:%d" fn line
  else if line < 0 then Printf.sprintf "%s:rt.%d" fn (-line)
  else fn

type row = { pc : int; fn : string; line : int; loc : string; cost : Cost.t }

let row_of (t : t) pc =
  { pc; fn = t.fns.(pc); line = t.lines.(pc); loc = loc_str t pc;
    cost = t.costs.(pc) }

let executed t pc = t.costs.(pc).Cost.instrs > 0

(** Executed PCs, hottest (most cycles) first; ties break on pc so the
    order is deterministic. *)
let rows t =
  let out = ref [] in
  for pc = size t - 1 downto 0 do
    if executed t pc then out := row_of t pc :: !out
  done;
  List.sort
    (fun a b ->
      compare (Cost.cycles b.cost, a.pc) (Cost.cycles a.cost, b.pc))
    !out

let total t = Cost.sum (Array.to_list t.costs)

let totals t = Cost.totals (total t)

let check t ~expect =
  Cost.check ~label:"per-PC attribution leak" (total t) ~expect

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let to_table ?(top = 10) t =
  let rs = rows t in
  let total = List.fold_left (fun a r -> a + Cost.cycles r.cost) 0 rs in
  let shown = if top > 0 then List.filteri (fun i _ -> i < top) rs else rs in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%6s %-28s %10s %6s %8s %8s %8s %8s %6s %6s %5s\n" "pc"
    "location" "cycles" "cyc%" "instrs" "d-stall" "t-stall" "bb-stall"
    "chk" "meta" "setb";
  List.iter
    (fun r ->
      let c = r.cost in
      Printf.bprintf b "%6d %-28s %10d %5.1f%% %8d %8d %8d %8d %6d %6d %5d\n"
        r.pc r.loc (Cost.cycles c)
        (pct (Cost.cycles c) total)
        c.instrs c.data_stalls c.tag_stalls c.bb_stalls c.check_uops
        c.metadata_uops c.setbounds)
    shown;
  let omitted = List.length rs - List.length shown in
  if omitted > 0 then
    Printf.bprintf b "%6s %-28s\n" "..."
      (Printf.sprintf "(%d more sites)" omitted);
  Printf.bprintf b "%6s %-28s %10d %5.1f%%\n" "" "TOTAL" total 100.0;
  Buffer.contents b

let row_json r =
  let c = r.cost in
  Json.Obj
    [
      ("pc", Json.Int r.pc);
      ("fn", Json.String r.fn);
      ("line", Json.Int r.line);
      ("instrs", Json.Int c.instrs);
      ("uops", Json.Int c.uops);
      ("cycles", Json.Int (Cost.cycles c));
      ("data_stalls", Json.Int c.data_stalls);
      ("tag_stalls", Json.Int c.tag_stalls);
      ("bb_stalls", Json.Int c.bb_stalls);
      ("check_uops", Json.Int c.check_uops);
      ("metadata_uops", Json.Int c.metadata_uops);
      ("checked_derefs", Json.Int c.checked_derefs);
      ("setbounds", Json.Int c.setbounds);
      ("tlb_misses", Json.Int c.tlb_misses);
      ("l1_misses", Json.Int c.l1_misses);
      ("l2_misses", Json.Int c.l2_misses);
    ]

(** Deterministic dump: [meta] fields (workload/mode/scheme labels) first,
    then the totals, then every executed site in PC order. *)
let to_json ?(meta = []) t =
  let sites = ref [] in
  for pc = size t - 1 downto 0 do
    if executed t pc then sites := row_json (row_of t pc) :: !sites
  done;
  Json.Obj
    (meta
    @ [
        ( "totals",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (totals t)) );
        ("sites", Json.List !sites);
      ])

(* ---- per-function profile -------------------------------------------- *)

(** The executed sites summed per enclosing function, hottest first; ties
    break on the name so the order is deterministic. *)
let by_function t =
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun pc c ->
      if executed t pc then
        let fn = t.fns.(pc) in
        Hashtbl.replace groups fn
          (c :: Option.value ~default:[] (Hashtbl.find_opt groups fn)))
    t.costs;
  List.sort
    (fun (fa, a) (fb, b) -> compare (Cost.cycles b, fa) (Cost.cycles a, fb))
    (Hashtbl.fold (fun fn cs acc -> (fn, Cost.sum cs) :: acc) groups [])

let function_table t =
  let rs = by_function t in
  let total = List.fold_left (fun a (_, c) -> a + Cost.cycles c) 0 rs in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-20s %10s %6s %10s %9s %9s %9s %7s %7s\n" "function"
    "cycles" "cyc%" "instrs" "d-stall" "t-stall" "bb-stall" "chk-uop"
    "meta-uop";
  List.iter
    (fun (fn, (c : Cost.t)) ->
      Printf.bprintf b "%-20s %10d %5.1f%% %10d %9d %9d %9d %7d %7d\n" fn
        (Cost.cycles c)
        (pct (Cost.cycles c) total)
        c.instrs c.data_stalls c.tag_stalls c.bb_stalls c.check_uops
        c.metadata_uops)
    rs;
  Printf.bprintf b "%-20s %10d %5.1f%%\n" "TOTAL" total 100.0;
  Buffer.contents b

let export_profile t (m : Metrics.t) =
  List.iter
    (fun (fn, (c : Cost.t)) ->
      let labels = [ ("fn", fn) ] in
      Metrics.set_counter m ~labels "profile.cycles" (Cost.cycles c);
      Metrics.set_counter m ~labels "profile.instructions" c.instrs;
      Metrics.set_counter m ~labels "profile.check_uops" c.check_uops;
      Metrics.set_counter m ~labels "profile.metadata_uops" c.metadata_uops)
    (by_function t)

(* ---- CLI adapter ----------------------------------------------------- *)

let top_usage_hint =
  "give a positive row count, e.g. --attr-top 20; pass a large count to \
   see every site"

(** Parse and validate an [--attr-top] row count, the flag hardbound_run's
    --attr, --diff and --flame tables share.  Zero and negative counts are
    rejected with a typed {!Hb_error}, matching the [--sample-interval]
    semantics. *)
let parse_top s =
  match int_of_string_opt (String.trim s) with
  | None ->
    Hb_error.fail ~component:"attr" "--attr-top %S is not a number (%s)" s
      top_usage_hint
  | Some n when n <= 0 ->
    Hb_error.fail ~component:"attr"
      "--attr-top %d is not a usable row count: the hotspot table needs at \
       least one row (%s)"
      n top_usage_hint
  | Some n -> n
