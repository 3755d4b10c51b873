(** Timing of the benchmark's own calls into each layer.

    Every call the benchmark makes into a layer's public function goes
    through {!span}.  An untraced run records nothing there: the
    end-to-end metrics time whole passes with the monotonic clock.  A
    traced run records each call as a span on one {!Hb_obs.Host}
    profile, kept in memory and written out when the run ends; the
    per-layer metrics are sums over that tree by span name.  Counters
    (simulated instructions, cache misses, ...) are kept in both modes. *)

module Host = Hb_obs.Host
module Clock = Hb_obs.Clock

type t = {
  host : Host.t option;
  counts : (string, int) Hashtbl.t;
  mutable ref_samples : float list;
  mutable run_samples : float list;  (** see {!sampled} *)
  mutable ref_total_s : float;
}

let create ~traced name =
  {
    host = (if traced then Some (Host.create ~name ()) else None);
    counts = Hashtbl.create 32;
    ref_samples = [];
    run_samples = [];
    ref_total_s = 0.;
  }

let span t name f =
  match t.host with None -> f () | Some h -> Host.with_span h name f

(** [f ()] and the seconds it took. *)
let time f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.elapsed_s ~t0)

(* ---- host speed ------------------------------------------------------ *)

(* The host this benchmark was built on is a shared 2-vCPU VM whose speed
   switches, second by second, between a fast and a slow state (a third
   apart for plain code, more for the simulator), so raw times from two
   runs are not comparable.  Every untraced run therefore times this
   fixed piece of host work — which no change to the simulator touches —
   and scales its end-to-end times to the host speed at which the work
   takes its nominal time.  Timed between the Olden programs it explains
   about half of their spread; timed in small chunks while they run
   ({!sampled}), most of it. *)
let reference_loop h a ~iters ~keys =
  let acc = ref 0 in
  for i = 1 to iters do
    let k = i * 7919 land (keys - 1) in
    a.(k land (Array.length a - 1)) <- a.(k land (Array.length a - 1)) + i;
    (match Hashtbl.find_opt h k with
     | Some v -> acc := !acc + v
     | None -> Hashtbl.replace h k i);
    if i land 3 = 0 then acc := !acc + List.length [ i; k; !acc ]
  done;
  Sys.opaque_identity !acc

let reference_work () =
  reference_loop (Hashtbl.create 4096) (Array.make 4096 0) ~iters:1_200_000 ~keys:16384

let reference_s = 0.1

(** Time the reference work once (untraced runs only: a traced run's
    numbers are not scaled).  A full major collection first, untimed,
    keeps the sample from paying the garbage of the work before it: a
    machine's arrays would otherwise make it up to twice as slow. *)
let calibrate t =
  if t.host = None then begin
    Gc.full_major ();
    let _, s = time reference_work in
    t.ref_samples <- s :: t.ref_samples;
    t.ref_total_s <- t.ref_total_s +. s
  end

(** [n] set-up times, each the seconds [f ()] says it took, scaled to the
    nominal host speed by the reference sample taken after every [per]
    of them: a set-up is too short to share the run's mean speed.
    Unscaled in a traced run. *)
let scaled_setups t ~n ~per f =
  List.concat
    (List.init ((n + per - 1) / per) (fun b ->
         let times = List.init (min per (n - (b * per))) (fun _ -> f ()) in
         calibrate t;
         let k =
           match t.ref_samples with
           | s :: _ when t.host = None -> reference_s /. s
           | _ -> 1.
         in
         List.map (fun x -> x *. k) times))

(* A chunk of the reference work (≈4 ms) every 50 ms of the process's
   CPU time, from a SIGVTALRM handler, while [sampled] runs its
   function.  The handler stays installed once set: a signal that
   arrives after the timer is disarmed finds [sampling] off and does
   nothing, where the default action would end the process. *)
let chunk_iters = 50_000
let chunk_period_s = 0.05
let sampling = ref false
let chunks = ref []

(** Chunks taken so far: a caller can tell whether one fell inside a
    call too short to carry its cost. *)
let chunks_taken = ref 0

(* The chunk's table and array are made once, and it uses fewer keys:
   allocating them afresh twenty times a second grew the major heap, and
   the run's peak RSS, by half. *)
let chunk_table = Hashtbl.create 1024
let chunk_array = Array.make 1024 0

let chunk_work () =
  Hashtbl.clear chunk_table;
  reference_loop chunk_table chunk_array ~iters:chunk_iters ~keys:1024

(* a chunk's time at the host speed where the whole reference work takes
   [reference_s], measured side by side on the tuning host *)
let chunk_reference_s = 0.0024

let set_timer v =
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = v; it_value = v })

let install_chunk_handler =
  lazy
    (Sys.set_signal Sys.sigvtalrm
       (Sys.Signal_handle
          (fun _ ->
            if !sampling then begin
              chunks := snd (time chunk_work) :: !chunks;
              incr chunks_taken
            end)))

(** [f ()]; the seconds the reference chunks taken while it ran cost,
    for the caller to take out of its own timing; and the times of those
    chunks, which also go to [run_samples].  They time the host while
    the simulator runs, where samples between programs miss the changes
    within one.  A traced run takes none. *)
let sampled t f =
  if t.host <> None then (f (), 0., [])
  else begin
    Lazy.force install_chunk_handler;
    chunks := [];
    sampling := true;
    set_timer chunk_period_s;
    let x =
      Fun.protect
        ~finally:(fun () ->
          set_timer 0.;
          sampling := false)
        f
    in
    t.run_samples <- !chunks @ t.run_samples;
    let cost = List.fold_left ( +. ) 0. !chunks in
    t.ref_total_s <- t.ref_total_s +. cost;
    (x, cost, !chunks)
  end

let add t key n =
  Hashtbl.replace t.counts key
    (n + Option.value (Hashtbl.find_opt t.counts key) ~default:0)

let count t key = Option.value (Hashtbl.find_opt t.counts key) ~default:0

(* ---- reading the span tree ------------------------------------------- *)

type totals = {
  wall_ns : (string, int) Hashtbl.t;
  minor_words : (string, float) Hashtbl.t;
}

(** Wall time and minor-heap allocation summed over every span of each
    name, at any depth. *)
let totals t =
  let tt = { wall_ns = Hashtbl.create 32; minor_words = Hashtbl.create 32 } in
  let rec walk (sp : Host.span) =
    let name = sp.Host.sp_name in
    Hashtbl.replace tt.wall_ns name
      (Int64.to_int sp.Host.wall_ns
      + Option.value (Hashtbl.find_opt tt.wall_ns name) ~default:0);
    Hashtbl.replace tt.minor_words name
      (sp.Host.gc.Host.minor_words
      +. Option.value (Hashtbl.find_opt tt.minor_words name) ~default:0.);
    List.iter walk sp.Host.children_rev
  in
  (match t.host with Some h -> walk h.Host.root | None -> ());
  tt

let total_s tt name =
  float_of_int (Option.value (Hashtbl.find_opt tt.wall_ns name) ~default:0)
  /. 1e9

let total_minor_words tt name =
  Option.value (Hashtbl.find_opt tt.minor_words name) ~default:0.

(** Close the profile and check its accounting identity (children never
    sum to more than their parent); a traced run whose tree fails it
    reports nothing. *)
let finish t =
  match t.host with
  | None -> Ok ()
  | Some h ->
    Host.finish h;
    Host.check h

(** Wall time of the named top-level span and the summed wall time of
    its direct children (the per-stage spans). *)
let stage_cover t name =
  match t.host with
  | None -> None
  | Some h ->
    List.find_map
      (fun (sp : Host.span) ->
        if sp.Host.sp_name = name then
          Some
            ( Int64.to_float sp.Host.wall_ns /. 1e9,
              List.fold_left
                (fun acc (c : Host.span) ->
                  acc +. (Int64.to_float c.Host.wall_ns /. 1e9))
                0. sp.Host.children_rev )
        else None)
      h.Host.root.Host.children_rev

let write_trace t ~json ~chrome =
  match t.host with
  | None -> ()
  | Some h ->
    Host.write_json json h;
    Host.write_chrome chrome h

(* ---- small statistics ------------------------------------------------ *)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0. xs
      /. float_of_int (List.length xs))

(** Host seconds → seconds at the nominal host speed: the reference
    work's [nominal] time ([reference_s], or {!chunk_reference_s} for
    [run_samples]) over the mean of [samples] (the mean, not the median,
    weighs the fast and slow states by how long the run spent in each);
    1 without samples, as in a traced run. *)
let speed_factor ?(nominal = reference_s) = function
  | [] -> 1.
  | samples ->
    nominal /. (List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples))
