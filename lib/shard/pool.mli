(** The one process supervisor, for shard workers ({!Supervisor}) and
    daemon jobs ([Hb_serve.Daemon]) alike: fork a child, classify its
    exit, SIGKILL it when it goes silent, and answer "retry after how
    long, or is the budget spent".

    Liveness is one rule: a child is SIGKILLed once silent for
    [timeout_s], where silence starts at the spawn and restarts at each
    growth of the child's optional watched file.  A shard worker watches
    its journal; a daemon job watches nothing and gets its deadline plus
    the watchdog grace.  Each caller owns one pool and nothing here is
    global, so a forked child may run a pool of its own. *)

(** A child's function returns its class; the process exits with the
    class's code ([Ok] 0, [Error] 3, [Partial] 4, [Crashed] 5), and
    {!poll} reads the code back. *)
type exit =
  | Ok
  | Partial  (** wall-clock deadline expired; work incomplete *)
  | Error  (** typed error, recorded by the child; retrying cannot help *)
  | Crashed of string
      (** anything else, read back as ["exited with code N"] or
          ["killed by SIGKILL"] (a signal's {!Hb_recover.Interrupt.name});
          a retry may help *)

type ending =
  | Exited of exit  (** exited on its own and was reaped *)
  | Hung of float  (** silent this many seconds: SIGKILLed and reaped *)

type 'a t
(** One caller's live children, each tagged with a key, and its retry
    budget. *)

val create : attempts:int -> backoff_base_s:float -> backoff_cap_s:float -> 'a t
(** [attempts] started attempts per task, with {!backoff} from
    [backoff_base_s] up to [backoff_cap_s] between them. *)

val backoff : base_s:float -> cap_s:float -> restart:int -> float
(** The delay before retry [restart] (1-based): [base_s] doubled per
    retry, clamped at [cap_s]; 0 when [restart <= 0].  Deterministic,
    monotone and bounded, so a crash loop cannot stampede the host. *)

val retry : 'a t -> attempt:int -> float option
(** After started attempt [attempt] failed: [Some] the {!backoff} before
    the next one, or [None] once the budget is spent. *)

val spawn :
  'a t -> 'a -> ?watch:string -> timeout_s:float -> (unit -> exit) ->
  (int, string) result
(** Flush stdout and stderr, fork, and [_exit] the child with its
    function's class ([Crashed] if it raises), never running the
    parent's [at_exit] hooks.  [Error "fork failed: ..."] counts as a
    crashed attempt. *)

val poll : 'a t -> ('a * int * ending) list
(** One non-blocking pass, in spawn order: reap the children that
    exited, SIGKILL and reap the ones silent past their timeout, and
    return both with key and pid. *)

val live : 'a t -> ('a * float) list
(** Each live child's key and seconds of silence, in spawn order. *)

val kill_all : 'a t -> ('a * int) list
(** SIGKILL and reap every live child; return their keys and pids. *)
