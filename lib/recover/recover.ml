(** The trap supervisor: precise violation traps dispatched to a
    configurable recovery policy.

    {!run} drives a machine through {!Hb_cpu.Machine.run_to}, as
    {!Hb_cpu.Machine.run} does, but catches the checker's bounds /
    non-pointer exceptions that escape a segment with the pc still at
    the faulting instruction, materializes a precise {!Trap.t}, and then
    *continues* according to the configured {!Policy.t}:

    - [Abort] terminates with the violation status (bit-for-bit the
      behavior of [Machine.run]);
    - [Report] arms the machine's one-shot [Skip_check] override and
      re-issues the faulting instruction, retiring the access unchecked.
      An unchecked retire of a wild pointer may still die on the
      machine's own guards (null page, address wrap) — that surfaces as
      a [Fault] status after the trap, which is part of the documented
      taxonomy, not a supervisor bug;
    - [Null_guard] arms [Squash_access]: the re-issued load reads 0 (no
      metadata), the re-issued store is dropped;
    - [Rollback] restores the most recent snapshot from a bounded ring
      (captured every [checkpoint_interval] instructions), marks the
      faulting site suppressed, and replays; when the replay reaches the
      same (pc, addr) trap it is squashed.  A site that keeps re-trapping
      past [max_rollbacks] escalates the run to [Report]; the violation
      budget then provides the final report → abort stage, and the
      instruction-limit watchdog backstops any livelock the escalation
      ladder cannot see.

    Every continuing policy shares the [violation_budget]: once that
    many traps have been absorbed, the next one aborts.  Re-issuing a
    faulting instruction retires it a second time — instruction and
    micro-op counters include that trap-replay cost (the default abort
    path is untouched, so the BENCH cycle baseline does not move).

    After any run that absorbed a trap or rolled back, the supervisor
    re-checks the {!Hb_cpu.Stats.check_invariants} accounting identities
    and raises a typed {!Hb_error.Hb_error} on a leak: a recovery path
    that breaks [cycles = uops + stalls] is an instrumentation bug and
    must not report quietly. *)

module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats
module Snapshot = Hb_cpu.Snapshot
module Checker = Hardbound.Checker
module Trace = Hb_obs.Trace
module Metrics = Hb_obs.Metrics

type action = Aborted | Retired_unchecked | Squashed | Rolled_back

let action_name = function
  | Aborted -> "abort"
  | Retired_unchecked -> "retire-unchecked"
  | Squashed -> "squash"
  | Rolled_back -> "rollback"

(** One dispatched trap: what fired, what the supervisor did, and the
    policy in force at that moment (escalation can change it mid-run). *)
type handled = { trap : Trap.t; action : action; policy : Policy.t }

type outcome = {
  status : Machine.status;
  traps : handled list;  (** every dispatched trap, oldest first *)
  handled_count : int;   (** traps absorbed without aborting *)
  rollbacks : int;
  escalations : int;     (** rollback → report policy downgrades *)
  budget_exhausted : bool;
  hung : bool;           (** instruction limit expired (watchdog) *)
  deadline_expired : bool;
}

let describe_handled h =
  Printf.sprintf "%s -> %s [%s]" (Trap.describe h.trap)
    (action_name h.action) (Policy.name h.policy)

let summary (o : outcome) =
  Printf.sprintf
    "policy outcome: %s; %d trap(s), %d absorbed, %d rollback(s), %d \
     escalation(s)%s%s%s"
    (Machine.status_name o.status)
    (List.length o.traps) o.handled_count o.rollbacks o.escalations
    (if o.budget_exhausted then "; violation budget exhausted" else "")
    (if o.hung then "; watchdog limit hit" else "")
    (if o.deadline_expired then "; deadline expired" else "")

(** Run [m] to a halt, its fuel, the watchdog [limit] or the [deadline],
    dispatching every trap to the policy.  [checkpoint = (next, at)] runs
    [at m] after each instruction that retires normally on the count
    [next n], the first checkpoint above [n]; a trap on it skips it. *)
let run ?(checkpoint = ((fun _ -> max_int), ignore)) ?(limit = max_int)
    ?(deadline = Deadline.none) ?(line_base = 0) ~(config : Policy.config)
    (m : Machine.t) : outcome =
  let next, at = checkpoint in
  let traps = ref [] in
  let handled = ref 0 in
  let rollbacks = ref 0 in
  let escalations = ref 0 in
  let budget_exhausted = ref false in
  let hung = ref false in
  let ddl = ref false in
  let effective = ref config.Policy.policy in
  (* Rollback state: a bounded ring of snapshots, per-site repeat counts,
     and the set of (pc, addr) sites whose next trap must be squashed
     because a rollback already decided to suppress that access. *)
  let want_ring = config.Policy.policy = Policy.Rollback in
  let ring_cap = max 1 config.Policy.ring_capacity in
  let ring = Array.make ring_cap None in
  let ring_n = ref 0 in
  let push s =
    ring.(!ring_n mod ring_cap) <- Some s;
    incr ring_n
  in
  let latest () =
    if !ring_n = 0 then None else ring.((!ring_n - 1) mod ring_cap)
  in
  let interval = max 1 config.Policy.checkpoint_interval in
  let next_capture = ref (if want_ring then 0 else max_int) in
  let repeat_counts : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  let suppress : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let finish st =
    m.Machine.halted <- Some st;
    st
  in
  let record t action =
    traps := { trap = t; action; policy = !effective } :: !traps;
    Machine.emit m
      (Trace.Trap
         {
           what = Trap.kind_name t.Trap.kind;
           policy = Policy.name !effective;
           action = action_name action;
           addr = t.Trap.addr;
           base = t.Trap.base;
           bound = t.Trap.bound;
         })
  in
  let absorb t action =
    incr handled;
    Checker.tally.Checker.handled_traps <-
      Checker.tally.Checker.handled_traps + 1;
    record t action
  in
  (* Decide what to do with one trap.  Returns [`Continue] after arming
     the machine (override / restore) or [`Terminal st]. *)
  let dispatch kind (v : Checker.violation) =
    let t = Trap.of_violation ~kind ~line_base m v in
    let terminal () =
      Machine.emit_violation m (Trap.kind_name kind) v;
      let st =
        match kind with
        | Trap.Bounds -> Machine.Bounds_violation v
        | Trap.Non_pointer -> Machine.Non_pointer_violation v
      in
      `Terminal (finish st)
    in
    (* Only a load/store can be retried or squashed; a forged function
       pointer (Call_reg's non-pointer trap) has no meaningful squash
       semantics and always terminates. *)
    let trappable =
      m.Machine.pc >= 0
      && m.Machine.pc < Array.length m.Machine.image.Hb_isa.Program.code
      && (match m.Machine.image.Hb_isa.Program.code.(m.Machine.pc) with
         | Hb_isa.Types.Load _ | Hb_isa.Types.Store _ -> true
         | _ -> false)
    in
    if !effective = Policy.Abort || not trappable then begin
      record t Aborted;
      terminal ()
    end
    else if !handled >= config.Policy.violation_budget then begin
      budget_exhausted := true;
      record t Aborted;
      terminal ()
    end
    else
      match !effective with
      | Policy.Abort -> assert false
      | Policy.Report ->
        m.Machine.override <- Machine.Skip_check;
        absorb t Retired_unchecked;
        `Continue
      | Policy.Null_guard ->
        m.Machine.override <- Machine.Squash_access;
        absorb t Squashed;
        `Continue
      | Policy.Rollback ->
        let key = (v.Checker.pc, v.Checker.addr) in
        if Hashtbl.mem suppress key then begin
          (* the replay reached the access a rollback suppressed:
             squash it and forget the suppression (a later dynamic
             recurrence of the same site earns a fresh rollback) *)
          Hashtbl.remove suppress key;
          m.Machine.override <- Machine.Squash_access;
          absorb t Squashed;
          `Continue
        end
        else begin
          let repeats =
            1 + (try Hashtbl.find repeat_counts key with Not_found -> 0)
          in
          Hashtbl.replace repeat_counts key repeats;
          let escalate () =
            incr escalations;
            effective := Policy.Report;
            m.Machine.override <- Machine.Skip_check;
            absorb t Retired_unchecked;
            `Continue
          in
          if repeats > config.Policy.max_rollbacks then escalate ()
          else
            match latest () with
            | None -> escalate ()
            | Some s ->
              Snapshot.restore m s;
              Hashtbl.replace suppress key ();
              incr rollbacks;
              absorb t Rolled_back;
              `Continue
        end
  in
  (* Segments of [Machine.run_to]: one starts at count [n] with the checks
     that fall on [n] and stops where the next check or checkpoint falls.
     A trap leaves it with the count past the faulting instruction, where
     the loop re-enters.  A stop at the limit, the fuel or the deadline
     leaves the machine runnable. *)
  let fuel = m.Machine.cfg.Machine.max_instrs in
  let rec loop () : Machine.status =
    match m.Machine.halted with
    | Some st -> st
    | None ->
      let n = m.Machine.stats.Stats.instructions in
      if n >= limit then begin
        hung := true;
        Machine.Out_of_fuel
      end
      else if n >= fuel then Machine.Out_of_fuel
      else if n land 8191 = 0 && Deadline.expired deadline then begin
        ddl := true;
        Machine.Out_of_fuel
      end
      else begin
        if n >= !next_capture then begin
          push (Snapshot.capture m);
          next_capture := n + interval
        end;
        let c = next n in
        let stop = min (min limit fuel) (min c !next_capture) in
        let stop = min stop ((n lor 8191) + 1) in
        match
          Machine.run_to m stop;
          if m.Machine.stats.Stats.instructions = c then at m
        with
        | () -> loop ()
        | exception Checker.Bounds_violation v -> trap Trap.Bounds v
        | exception Checker.Non_pointer_deref v -> trap Trap.Non_pointer v
        | exception e -> Machine.halt_of_exn m e
      end
  and trap kind v =
    match dispatch kind v with `Continue -> loop () | `Terminal st -> st
  in
  let status = loop () in
  (* A recovery path must leave the timing model's books balanced. *)
  if !handled > 0 || !rollbacks > 0 then
    (match Stats.check_invariants m.Machine.stats with
     | Ok () -> ()
     | Error msg ->
       Hb_error.fail ~component:"recover"
         "accounting identity broken after recovery: %s" msg);
  {
    status;
    traps = List.rev !traps;
    handled_count = !handled;
    rollbacks = !rollbacks;
    escalations = !escalations;
    budget_exhausted = !budget_exhausted;
    hung = !hung;
    deadline_expired = !ddl;
  }

(* ---- reporting ------------------------------------------------------- *)

(** Publish [hb.traps_total{policy, outcome}] (plus rollback/escalation
    counters) into a metrics registry. *)
let export_metrics (o : outcome) (reg : Metrics.t) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun h ->
      let key = (Policy.name h.policy, action_name h.action) in
      Hashtbl.replace counts key
        (1 + (try Hashtbl.find counts key with Not_found -> 0)))
    o.traps;
  List.iter
    (fun (pol, act) ->
      match Hashtbl.find_opt counts (pol, act) with
      | None -> ()
      | Some n ->
        Metrics.set_counter reg
          ~labels:[ ("policy", pol); ("outcome", act) ]
          "hb.traps_total" n)
    (List.concat_map
       (fun p ->
         List.map
           (fun a -> (Policy.name p, action_name a))
           [ Aborted; Retired_unchecked; Squashed; Rolled_back ])
       Policy.all);
  Metrics.set_counter reg "hb.rollbacks_total" o.rollbacks;
  Metrics.set_counter reg "hb.trap_escalations_total" o.escalations
