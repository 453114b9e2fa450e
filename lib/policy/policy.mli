(** The vocabulary of degraded runs: a typed failure taxonomy, resource
    budgets and degradation events.

    A verification run should degrade, not die: when an engine exhausts its
    budget, its worker process is killed, its encoder raises, or its
    certificate fails to check, the run records a degradation {!event} and
    moves on — to a retry of the same engine (worker death only) or to the
    next engine.  The executor that does this is [Emmver.portfolio]; this
    module only names what it records. *)

type error =
  | Budget_exhausted of string
      (** wall clock, conflict, memory or depth budget ran out *)
  | Worker_killed of string
      (** the forked worker died: signal, out-of-memory, nonzero exit *)
  | Encode_error of string
      (** the encoder (unroller, EMM layer) raised while building the
          formula *)
  | Cert_failed of string
      (** the verdict's certificate was {e refuted} — the result cannot be
          trusted *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

type budgets = {
  wall_s : float option;  (** wall-clock seconds for the whole attempt *)
  conflicts : int option;  (** solver conflicts per SAT query *)
  learnt_mb : float option;  (** learnt-clause database ceiling, MB *)
  max_depth : int option;  (** BMC unrolling depth cap *)
}

val unlimited : budgets
(** All fields [None]. *)

type event = {
  ev_stage : string;  (** engine (or stage) name that failed *)
  ev_attempt : int;  (** 0-based attempt number within that stage *)
  ev_error : error;
  ev_elapsed_s : float;  (** wall clock spent on the failed attempt *)
}

val pp_event : Format.formatter -> event -> unit
