(** Fork-based worker pool with crash and timeout isolation.

    The verification platform fans out independent SAT-backed obligations —
    one property per job, or one engine per job when racing a portfolio —
    across OS processes.  Processes, not domains, are the right isolation
    unit here: every job builds its own mutable CDCL solver instance, a
    worker that runs out of memory or dies on a signal must not take the
    batch down, and a job over budget has to be stopped {e hard}
    ([SIGKILL]), which no in-process mechanism can guarantee.

    The design is fork-per-job: each job is executed by a fresh child
    process created with [Unix.fork], so the job closure and all its
    captured data (netlists, options) are inherited by address-space copy
    and never serialised.  Only the {e result} travels back to the parent,
    marshalled over a pipe.  Consequences:

    - the result type must be marshal-safe (no closures, no custom blocks);
      every verdict/outcome type of this platform qualifies;
    - mutations a job performs are invisible to the parent and to other
      jobs — workers cannot race on shared state by construction;
    - a worker that calls [exit], raises, segfaults, is OOM-killed or
      exceeds its wall-clock deadline yields an {!failure} for {e its} slot
      while every other job runs to completion.

    Results are returned in {b job order}, regardless of completion order:
    [run ~jobs ~f [x0; x1; x2]] always pairs slot [i] with [f xi].
    Scheduling order is therefore unobservable and [-j N] cannot change
    verdicts.

    There is one worker loop: {!run} is a batch, a race or a retrying
    chain depending only on its [settle] callback.  It drives the {!Async}
    handles the daemon multiplexes itself, so result bytes, EOF, the
    post-mortem and deadline kills are handled in one place.

    {b Tracing}: when an [Obs] recorder is current in the parent, each job
    runs under [Obs.worker_scope] — the child records its own pid-annotated
    rows, marshals them back alongside the result, and the parent ingests
    them, so a [-j N] run yields one merged trace.  Workers that are
    SIGKILLed (deadline, cancellation) or crash before writing a payload
    contribute no rows: partial span trees are dropped, never merged. *)

type reason =
  | Crashed of string
      (** the worker exited non-zero, died on a signal, or raised an
          exception ([Crashed "uncaught exception: ..."]) *)
  | Timed_out of float  (** the per-job deadline, in seconds, that expired *)
  | Cancelled
      (** killed (or never started) because [settle] stopped a {!run}, or
          cancelled through {!Async.cancel} *)
  | Protocol of string
      (** the worker exited 0 but its result could not be read back *)

type failure = {
  reason : reason;
  elapsed_s : float;
      (** wall-clock seconds the worker ran before failing — the partial
          telemetry surfaced in [Inconclusive "worker killed: ..."]
          outcomes *)
}

val failure_message : failure -> string
(** One-line rendering, e.g. ["killed by deadline after 2.0s"]. *)

type 'a job_result = ('a, failure) result

val default_jobs : unit -> int
(** The host's available core count ([Domain.recommended_domain_count]). *)

(** {2 Running jobs} *)

val run :
  ?job_timeout_s:float ->
  ?settle:(int -> 'b job_result -> [ `Continue | `Stop | `Retry of 'a ]) ->
  jobs:int ->
  f:('a -> 'b) ->
  'a list ->
  'b job_result list
(** [run ~jobs ~f xs] executes [f x] for every [x] in a forked worker, at
    most [jobs] at a time (at least one), starting the slots in list order,
    and returns the results in job order.  [job_timeout_s] is a hard
    per-job wall-clock deadline: a worker still alive that long after its
    own fork is SIGKILLed and its slot reports [Timed_out].

    [settle slot result] is called once per finished worker, in completion
    order, and says what happens next:

    - [`Continue] (the default): nothing; a batch.
    - [`Stop]: a race was won.  Running workers are SIGKILLed and unstarted
      slots are dropped; they report [Cancelled].  [settle] is not called
      again.
    - [`Retry x]: run the slot again on [x], ahead of every slot not yet
      started; the slot reports the retry's result ([Cancelled] if a
      [`Stop] drops the retry first).

    Per-job failures are values; the call raises only on system errors
    (e.g. [fork] failing) or when [settle] raises, and then SIGKILLs and
    reaps every running worker first, so an aborted run leaks no child
    processes. *)

(** {2 Incremental jobs}

    The handles {!run} drives, for the daemon: it multiplexes worker pipes
    with client sockets in a select loop of its own, spawning jobs one at a
    time and servicing each pipe as it becomes readable. *)

module Async : sig
  type 'b handle
  (** One live forked job computing a ['b]. *)

  val spawn : ?job_timeout_s:float -> f:('a -> 'b) -> 'a -> 'b handle
  (** Fork one worker computing [f x].  The caller schedules admission. *)

  val fd : _ handle -> Unix.file_descr
  (** The parent's read end of the result pipe: select on this. *)

  val pid : _ handle -> int

  val service : 'b handle -> 'b job_result option
  (** Call when {!fd} is readable: drains available result bytes.  [None]
      while the worker is still producing; [Some result] once the pipe hit
      EOF — the child is then reaped, the fd closed, and the handle must
      not be serviced again ([Invalid_argument] if it is). *)

  val cancel : _ handle -> unit
  (** SIGKILL the worker; its eventual {!service} settles with
      [Cancelled].  Idempotent, and a no-op after a deadline kill. *)

  val check_deadline : _ handle -> unit
  (** SIGKILL the worker if its [job_timeout_s] deadline has passed; the
      eventual {!service} then settles with [Timed_out].  The caller's
      loop invokes this on its own tick. *)
end

(** {2 Orphan reaping}

    A daemon that dies hard (SIGKILL, power loss) abandons its forked
    workers: they reparent to init and keep computing into a closed pipe.
    A restarted daemon knows their pids from its journal, but a pid alone
    is not an identity — the kernel may have recycled it.  The guard is a
    {e process token}: the start time of the process (field 22 of
    [/proc/<pid>/stat], clock ticks since boot), which uniquely names one
    incarnation of a pid on one boot. *)

val process_token : int -> string
(** [process_token pid] is the start-time token of the live process [pid],
    or [""] when it cannot be read (process already gone, or no [/proc]).
    Record it at spawn; feed it back to {!reap_orphan} after a restart. *)

val reap_orphan : pid:int -> token:string -> bool
(** [reap_orphan ~pid ~token] SIGKILLs [pid] {e only} if its current
    process token exactly equals [token], and returns whether it did.
    A [token] of [""] never kills (an unreadable token at spawn must not
    license killing an arbitrary pid later).  The orphan is init's child,
    not ours, so there is nothing to [waitpid] — init reaps it. *)
