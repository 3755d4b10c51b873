(** What one workload run reports, before hbbench.ml turns it into
    metrics.  Every field is an aggregate over the whole workload; the
    per-item numbers stay in [notes]. *)

type t = {
  wall_s : float;  (** median host time of one pass, set-up included *)
  setup_s : float;
      (** median of the run's extra set-ups, each already scaled to the
          nominal host speed ({!Stage.scaled_setups}); without any, of
          its passes' set-ups, unscaled *)
  sim_ips : float;
      (** geomean over simulated programs of instructions ÷ host seconds
          in [Machine.run] *)
  items_per_s : float;  (** items (program, corpus pair, job) per second *)
  item_p50_s : float;
      (** median host time from an item's start to its checked result;
          in the record only, since on olden it is one program's time *)
  time_factor : float;
      (** scales [wall_s] and [items_per_s] to the nominal host speed
          ({!Stage.speed_factor}) *)
  sim_factor : float;
      (** the same for [sim_ips]: on olden, [sim_ips] over its value with
          each program scaled by the samples taken while it ran; on serve,
          from the samples between its plain runs, which come after the
          session *)
  passes : int;
  peak_rss_kb : int;  (** of the process running the workload *)
  notes : (string * Hb_obs.Json.t) list;
}
