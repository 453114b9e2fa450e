(** Incremental CDCL SAT solver with UNSAT-core extraction on demand.

    The solver implements the standard conflict-driven clause-learning loop
    (two-watched-literal propagation with blocking literals, first-UIP
    learning with recursive conflict-clause minimisation, VSIDS decision
    ordering with phase saving, Luby restarts, LBD-aware learnt-clause
    deletion with glue-clause protection).  A solver created with
    [~cores:true] also keeps resolution-trace bookkeeping: every learnt
    clause records the clauses it was resolved from, so that after an UNSAT
    answer the set of {e original} clauses participating in the refutation
    can be reconstructed.  This is the [SAT_Get_Refutation] primitive of the
    paper (Fig. 1 line 10), which proof-based abstraction consumes.  The
    failed assumptions of an UNSAT answer need no such record: a
    final-conflict analysis over the trail finds them in either mode.

    The data layout is flat, so that propagation allocates nothing: all
    clauses live in one growable [int array] (the arena: a three-word header
    of size and learnt/removed flags, clause id and LBD, then the literals),
    learnt-clause activity in a [float array] indexed by clause id, reasons
    are arena offsets, and each literal's watch list is an [int array] of
    (blocker, clause offset) pairs, allocated at the literal's first watch.
    A watch entry whose blocker is true is passed over without loading the
    clause, and a binary clause is resolved from its watch entry alone.  The
    VSIDS heap compares scores read straight from a [float array].  Once
    database reduction has left enough deleted clauses behind, the arena is
    compacted, with every reference relocated in its current order; none of
    this changes which clauses are learnt, kept or deleted.

    Clauses may carry an integer [tag]; {!unsat_core_tags} reports the
    distinct tags present in the refutation.  The BMC layers tag clauses with
    latch and memory-port identifiers so that cores translate directly into
    latch reasons (Fig. 1 line 11). *)

type t

type result = Sat | Unsat

val create : ?cores:bool -> unit -> t
(** A fresh solver.  [cores] (default [false]) decides, for the solver's
    lifetime, whether it keeps what {!unsat_core} and {!unsat_core_tags}
    read.  That costs, per learnt clause, the array of clause ids it was
    resolved from; per clause, a clause id, its tag, an activity slot and a
    visited mark; per variable, a visited mark; and a walk over the
    derivation at every UNSAT answer.  On quicksort-n3 P1 to depth 20 these
    records took 2.3 of the 10.5 MB the solver held when every solver kept
    them (EXPERIMENTS.md, "Cores on demand").  A solver with cores refuses
    imported clauses ({!import_clauses}).  The search, and so every answer,
    model, failed assumption set and counter, is the same either way. *)

val cores_enabled : t -> bool
(** Whether the solver was created with [~cores:true]. *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val ensure_vars : t -> int -> unit
(** [ensure_vars t n] guarantees variables [0 .. n-1] exist. *)

val num_vars : t -> int

val add_clause : ?tag:int -> t -> Lit.t list -> unit
(** Add a clause over existing variables.  Tautologies are silently dropped.
    Adding the empty clause (or a clause falsified at root level) makes the
    solver permanently unsatisfiable.  Must be called at root level, i.e. not
    from within a [solve] callback. *)

exception Timeout
(** Raised by {!solve} when the {!set_deadline} wall-clock deadline passes.
    The solver stays usable: the interrupted query can be retried. *)

exception Stopped
(** Raised by {!solve} when the {!set_stop} cancellation flag is observed
    set.  Like {!Timeout}, the solver stays usable afterwards.  Used by the
    portfolio layer to cancel loser instances cooperatively. *)

exception Budget_exceeded of string
(** Raised by {!solve} when a resource budget ({!set_conflict_budget} or
    {!set_learnt_budget_mb}) runs out; the payload names the exhausted
    resource ("conflicts" or "learnt-db memory").  Like {!Timeout}, the
    solver stays usable afterwards. *)

val set_deadline : t -> float option -> unit
(** Deadline on the {!Obs.now} clock (the ambient recorder's clock, else the
    wall clock), checked every 256 conflicts and every 4,096 decisions
    during search; [None] disables it. *)

val set_conflict_budget : t -> int option -> unit
(** Maximum conflicts a single {!solve} call may spend before
    {!Budget_exceeded} is raised; [None] (the default) disables it.  The
    budget is per-call: each [solve] starts a fresh count. *)

val set_learnt_budget_mb : t -> float option -> unit
(** Ceiling, in megabytes, on the memory held by live learnt clauses, each
    counted as its arena words (header and literals) plus its two watch
    pairs; checked every 256 conflicts during search, raising
    {!Budget_exceeded} when exceeded.  [None] (the default) disables it. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve the current formula under the given assumption literals.  The
    solver remains usable afterwards: more clauses may be added and [solve]
    called again. *)

(** {2 Portfolio hooks}

    Everything below is inert by default and exists for [lib/portfolio]: an
    in-process portfolio races several solver instances on the same CNF and
    exchanges learnt glue clauses between them.  The hooks are written
    single-domain: each solver instance must only ever be touched by the one
    domain that owns it — cross-domain communication goes through the
    exchange buffer, never through a [t]. *)

val set_stop : t -> bool Atomic.t option -> unit
(** Cooperative cancellation: when the flag reads [true] at a periodic
    check, {!solve} raises {!Stopped} (after backtracking to root, so the
    solver stays usable).  [None] (the default) disables the check. *)

val set_share_callback : t -> (lbd:int -> Lit.t list -> bool) option -> unit
(** Invoked on every learnt clause, before simplification can touch it.
    Returning [true] means the clause was exported (counts towards
    [shared_out] in {!stats}). *)

val set_import_source : t -> (unit -> Lit.t list list) option -> unit
(** Clause supplier drained at every import boundary ({!solve} entry and
    each restart) via {!import_clauses}. *)

val import_clauses : t -> Lit.t list list -> int
(** Install peer-learnt clauses at root level; returns how many were
    actually admitted (tautologies, root-satisfied clauses and clauses over
    undeclared variables are dropped).  Refuses all imports (returns [0])
    while proof logging is on, and in a solver that keeps cores: an imported
    clause has no derivation in this instance, so admitting one would
    invalidate the DRAT log, and a core through it would miss the original
    clauses it rests on.  Must be called at root level, i.e. not from within
    a search callback. *)

val set_clause_listener : t -> (int -> Lit.t list -> unit) option -> unit
(** [f tag lits] observes every {!add_clause} call, pre-simplification and
    regardless of the solver's ok-flag — the exact stream a replica must
    replay to mirror this instance. *)

(** {2 Diversification knobs}

    Per-instance search-strategy parameters, all with the classic defaults;
    the portfolio sets them per replica so instances explore different parts
    of the search space. *)

val set_var_decay : t -> float -> unit
(** VSIDS activity decay factor in (0, 1]; default 0.95. *)

val set_restart_base : t -> int -> unit
(** Base conflict budget of the Luby restart sequence; default 100. *)

val set_default_phase : t -> bool -> unit
(** Initial saved phase of fresh (and current) variables; default [false]. *)

val set_random_seed : t -> int -> unit
(** Seed for the per-instance PRNG behind {!set_random_phase_freq}. *)

val set_random_phase_freq : t -> float -> unit
(** Probability in [0, 1] of flipping the saved phase at a decision;
    default 0 (deterministic phase saving). *)

(** {2 Configuration getters}

    Read-backs used by the portfolio to copy limits onto replicas. *)

val deadline : t -> float option
val conflict_budget : t -> int option
val learnt_budget_mb : t -> float option
val proof_logging_enabled : t -> bool

val raw_model : t -> int array
(** The last [Sat] model ([-1] undef / [0] false / [1] true per variable
    index).  The array is the solver's own, not a copy: a later answer
    replaces it and never writes into it, so a caller may keep it, but must
    not mutate it. *)

val adopt_model : t -> int array -> unit
(** Install a model taken from {!raw_model} of a peer instance with the same
    variable numbering, so {!value} answers from the peer's model. *)

val seed_phases : t -> int array -> unit
(** [seed_phases t m] sets the saved phase of every variable that [m], in
    {!raw_model}'s format, assigns: the next decision on such a variable
    tries [m]'s value first.  Variables past [m]'s end and entries of [-1]
    keep their phase.  A hint only: phase saving takes over again at the
    next backtrack, and no answer depends on it.  Call between {!solve}
    calls. *)

val okay : t -> bool
(** [false] once the clause set is unsatisfiable independent of
    assumptions. *)

val value : t -> Lit.t -> bool
(** Value of a literal in the model of the last [Sat] answer.  Unassigned
    variables (eliminated from the search) read as [false]. *)

val value_var : t -> int -> bool

val unsat_core : t -> int list
(** After an [Unsat] answer: ids of original clauses sufficient for the
    refutation (together with the assumptions).  Original and learnt
    clauses draw their ids from one counter, in the order they are stored,
    starting at 0.
    @raise Invalid_argument if the solver was created without cores. *)

val unsat_core_tags : t -> int list
(** Distinct non-negative tags of the original clauses in {!unsat_core}.
    @raise Invalid_argument if the solver was created without cores. *)

val failed_assumptions : t -> Lit.t list
(** After an [Unsat] answer under assumptions: a subset of the assumptions
    sufficient for unsatisfiability, sorted.  Found by final-conflict
    analysis over the trail (MiniSat's [analyzeFinal]), with or without
    cores. *)

(** {2 Proof logging}

    With proof logging enabled the solver records a DRAT-style derivation:
    one {!Padd} step per learnt clause and one {!Pdel} step per clause
    dropped by database reduction, in order.  An UNSAT answer (with or
    without assumptions) can then be validated independently of the solver by
    [Cert.Drat.check], replaying the derivation over the original clauses by
    unit propagation alone.  Logging costs one list cell per learnt clause
    and nothing when disabled. *)

type proof_step =
  | Padd of Lit.t list  (** clause learnt (RUP at its position) *)
  | Pdel of Lit.t list  (** learnt clause dropped by DB reduction *)

val set_proof_logging : t -> bool -> unit
(** Record every learnt clause (and deletion) for later validation.  Enable
    before solving; off by default. *)

val proof : t -> proof_step list
(** The recorded derivation, in order. *)

val proof_log : t -> Lit.t list list
(** Learnt clauses in derivation order (the {!Padd} steps of {!proof}). *)

val export_clauses : t -> Lit.t list list
(** The original (problem) clauses as stored, in insertion order — the
    axioms a proof check starts from.  Tautologies and clauses already
    satisfied at root level were dropped at {!add_clause} time and do not
    appear. *)

(** {2 Statistics} *)

val num_clauses : t -> int
val num_learnts : t -> int
val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;  (** total clauses ever learnt *)
  deleted_clauses : int;  (** learnt clauses dropped by DB reduction *)
  db_reductions : int;
  minimised_lits : int;
      (** literals removed by recursive conflict-clause minimisation *)
  avg_lbd : float;  (** mean LBD (glue) over all learnt clauses *)
  solve_time_s : float;
      (** cumulative time spent inside {!solve}, on the {!Obs.now} clock *)
  shared_out : int;  (** learnt clauses accepted by the share callback *)
  shared_in : int;  (** peer clauses admitted by {!import_clauses} *)
}
(** Cumulative search telemetry; all counters are monotone over the
    solver's lifetime. *)

val stats : t -> stats

val empty_stats : stats
(** All-zero record, for call sites that report stats without a solver. *)

val pp_stats : Format.formatter -> t -> unit
