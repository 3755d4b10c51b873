(** Job-spec codec for the simulation daemon.  Strict and canonical: the
    encoded spec is journaled and replayed after a crash, so every field
    must survive a round trip, and a typo must be a typed error rather
    than a silently defaulted knob. *)

module Codegen = Hb_minic.Codegen
module Encoding = Hardbound.Encoding
module Injector = Hb_fault.Injector
module Policy = Hb_recover.Policy
module Campaign = Hb_fault.Campaign
module Json = Hb_obs.Json
module Workloads = Hb_workloads.Workloads

type chaos = Hang | Crash of int

type spec = {
  tenant : string;
  workload : string;
  mode : Codegen.mode;
  scheme : Encoding.scheme;
  runs : int;
  seed : int;
  sites : Injector.site list;
  checkpoints : int;
  policy : Policy.t;
  violation_budget : int;
  deadline_s : float option;
  jobs : int;
  chaos : chaos option;
}

let default =
  {
    tenant = "default";
    workload = "treeadd";
    mode = Codegen.Hardbound;
    scheme = Encoding.Extern4;
    runs = 1;
    seed = Campaign.default.Campaign.seed;
    sites = Injector.all_sites;
    checkpoints = Campaign.default.Campaign.checkpoints;
    policy = Policy.Abort;
    violation_budget = Policy.default.Policy.violation_budget;
    deadline_s = None;
    jobs = 1;
    chaos = None;
  }

let fail fmt = Hb_error.fail ~component:"proto" fmt

let sites_of_string s =
  if String.trim s = "all" then Injector.all_sites
  else
    List.map
      (fun p ->
        match Injector.site_of_name (String.trim p) with
        | Some site -> site
        | None ->
          fail "unknown injection site %S in %S (have: %s, or \"all\")"
            (String.trim p) s
            (String.concat ", " (List.map Injector.site_name Injector.all_sites)))
      (String.split_on_char ',' s)

let sites_to_string sites = String.concat "," (List.map Injector.site_name sites)

let chaos_of_string s =
  match s with
  | "hang" -> Hang
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "crash" -> (
      let k = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt k with
      | Some n when n >= 1 -> Crash n
      | _ -> fail "chaos \"crash:K\" needs K >= 1, got %S" s)
    | _ -> fail "unknown chaos spec %S (have: \"hang\", \"crash:K\")" s)

let chaos_to_string = function
  | Hang -> "hang"
  | Crash k -> Printf.sprintf "crash:%d" k

(* ------------------------------------------------------------------ *)
(* JSON field accessors: every mismatch is a typed error naming the
   field, because a journaled spec that stops parsing is a poisoned
   queue. *)

let str_field obj key =
  match Json.member key obj with
  | None -> None
  | Some (Json.String s) -> Some s
  | Some _ -> fail "job field %S must be a string" key

let int_field obj key =
  match Json.member key obj with
  | None -> None
  | Some j -> (
    match Json.to_int j with
    | Some n -> Some n
    | None -> fail "job field %S must be an integer" key)

let float_field obj key =
  match Json.member key obj with
  | None -> None
  | Some (Json.Float f) -> Some f
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some _ -> fail "job field %S must be a number" key

let known_fields =
  [
    "tenant"; "workload"; "mode"; "scheme"; "runs"; "seed"; "sites";
    "checkpoints"; "policy"; "violation_budget"; "deadline_s"; "jobs";
    "chaos";
  ]

let spec_of_json j =
  let fields =
    match j with
    | Json.Obj fields -> fields
    | _ -> fail "a job spec must be a JSON object"
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k known_fields) then
        fail "unknown job field %S (have: %s)" k
          (String.concat ", " known_fields))
    fields;
  let workload =
    match str_field j "workload" with
    | Some w -> w
    | None -> fail "a job spec needs a \"workload\" field"
  in
  (match Workloads.find workload with
  | (_ : Workloads.t) -> ()
  | exception Invalid_argument _ ->
    fail "unknown workload %S (have: %s)" workload
      (String.concat ", " Workloads.names));
  let mode =
    match str_field j "mode" with
    | None -> default.mode
    | Some s -> (
      match Codegen.mode_of_name s with
      | Some m -> m
      | None ->
        fail
          "unknown mode %S (have: nochecks | hardbound | malloc-only | \
           softfat | objtable)"
          s)
  in
  let scheme =
    match str_field j "scheme" with
    | None -> default.scheme
    | Some s -> (
      match Encoding.scheme_of_name s with
      | Some x -> x
      | None ->
        fail
          "unknown encoding %S (have: uncompressed | extern-4 | intern-4 \
           | intern-11)"
          s)
  in
  let policy =
    match str_field j "policy" with
    | None -> default.policy
    | Some s -> (
      match Policy.of_name s with
      | Some p -> p
      | None -> fail "unknown violation policy %S (have: %s)" s Policy.known)
  in
  let runs = Option.value (int_field j "runs") ~default:default.runs in
  if runs < 1 then fail "\"runs\" must be >= 1, got %d" runs;
  let jobs = Option.value (int_field j "jobs") ~default:1 in
  if jobs < 1 || jobs > 256 then
    fail "\"jobs\" must be in 1-256, got %d" jobs;
  let checkpoints =
    Option.value (int_field j "checkpoints") ~default:default.checkpoints
  in
  if checkpoints < 0 then
    fail "\"checkpoints\" must be >= 0, got %d" checkpoints;
  let violation_budget =
    Option.value
      (int_field j "violation_budget")
      ~default:default.violation_budget
  in
  if violation_budget < 0 then
    fail "\"violation_budget\" must be >= 0, got %d" violation_budget;
  let deadline_s = float_field j "deadline_s" in
  (match deadline_s with
  | Some d when d <= 0. -> fail "\"deadline_s\" must be positive, got %g" d
  | _ -> ());
  {
    tenant = Option.value (str_field j "tenant") ~default:default.tenant;
    workload;
    mode;
    scheme;
    runs;
    seed = Option.value (int_field j "seed") ~default:default.seed;
    sites =
      (match str_field j "sites" with
      | None -> default.sites
      | Some s -> sites_of_string s);
    checkpoints;
    policy;
    violation_budget;
    deadline_s;
    jobs;
    chaos =
      (match str_field j "chaos" with
      | None -> None
      | Some s -> Some (chaos_of_string s));
  }

let spec_to_json s =
  Json.Obj
    ([
       ("tenant", Json.String s.tenant);
       ("workload", Json.String s.workload);
       ("mode", Json.String (Codegen.mode_name s.mode));
       ("scheme", Json.String (Encoding.scheme_name s.scheme));
       ("runs", Json.Int s.runs);
       ("seed", Json.Int s.seed);
       ("sites", Json.String (sites_to_string s.sites));
       ("checkpoints", Json.Int s.checkpoints);
       ("policy", Json.String (Policy.name s.policy));
       ("violation_budget", Json.Int s.violation_budget);
       ("jobs", Json.Int s.jobs);
     ]
    @ (match s.deadline_s with
      | Some d -> [ ("deadline_s", Json.Float d) ]
      | None -> [])
    @
    match s.chaos with
    | Some c -> [ ("chaos", Json.String (chaos_to_string c)) ]
    | None -> [])

(* Field for field what [run_fault] builds from the CLI flags, so the
   daemon's report for a spec is byte-identical to the CLI's for the
   matching invocation. *)
let campaign_config s =
  {
    Campaign.default with
    Campaign.label = s.workload;
    runs = s.runs;
    seed = s.seed;
    sites = s.sites;
    checkpoints = s.checkpoints;
    policy = s.policy;
    violation_budget = s.violation_budget;
  }

let source s = (Workloads.find s.workload).Workloads.source
