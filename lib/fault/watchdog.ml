(** Run a machine under an instruction-budget watchdog.

    Injected runs can easily corrupt a loop counter and spin forever;
    the watchdog converts those into a [Hang] verdict instead of wedging
    the campaign.  Checker exceptions are mapped to statuses by
    {!Machine.halt_of_exn}, as in {!Machine.run}, so a watchdogged run and
    a plain run agree on every terminating program. *)

module Machine = Hb_cpu.Machine
module Stats = Hb_cpu.Stats

type result =
  | Completed of Machine.status
  | Hang of { instrs : int }  (** instruction count at watchdog expiry *)

let result_name = function
  | Completed st -> Machine.status_name st
  | Hang { instrs } -> Printf.sprintf "hang(@%d instrs)" instrs

(** [run ~limit m] steps [m] until it halts or [m.stats.instructions]
    reaches [limit].  [on_step] fires after every retired instruction —
    the campaign's checkpoint hook; exceptions it raises propagate to
    the caller untouched. *)
let run ?(on_step = fun (_ : Machine.t) -> ()) ~limit (m : Machine.t) : result
    =
  let rec loop () =
    match m.Machine.halted with
    | Some st -> Completed st
    | None ->
      if m.Machine.stats.Stats.instructions >= limit then
        Hang { instrs = m.Machine.stats.Stats.instructions }
      else begin
        Machine.step m;
        on_step m;
        loop ()
      end
  in
  try loop () with e -> Completed (Machine.halt_of_exn m e)
