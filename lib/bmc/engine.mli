(** SAT-based bounded model checking with induction proofs and proof
    analysis — the BMC-1 algorithm of the paper (Fig. 1), parameterisable
    into BMC-2 and BMC-3 (Figs. 2–3) through {!hooks} and {!config}.

    At a depth [i] the engine can run three queries against one
    incremental solver, selected by assumption literals:

    - forward termination: [I /\ LFP_i] — unsatisfiable when the forward
      proof diameter is exceeded, proving the property;
    - backward termination (induction step): [LFP_i /\ CP_i /\ ~P_i] —
      unsatisfiable when the property is inductive at depth [i];
    - falsification: [I /\ ~P_i] — satisfiable exactly when a counterexample
      of length [i] exists.

    [LFP_i] are loop-free-path (state distinctness) constraints over the
    non-abstracted latches: frames [0..i] are pairwise distinct states.
    [CP_i] asserts the property at all earlier depths.  After each
    unsatisfiable falsification query the engine can retrace the refutation
    and accumulate {e latch reasons} — the proof-based abstraction of Fig. 1
    lines 10–11.

    {b Schedule.}  Falsification runs at every depth; the two termination
    queries run at even depths and at [max_depth] only.  Both are monotone
    in depth: a loop-free path of length [d+1] from [I] has a loop-free
    prefix of length [d] from [I], and an induction counterexample of length
    [d+1] has a loop-free suffix of length [d] that is one.  So when a
    termination query at an even depth [d] answers unsatisfiable, the same
    queries are asked at [d-1] first (the forward query if it answered
    unsatisfiable at [d], the induction query of every property that [d]'s
    answers would prove), and the least unsatisfiable depth decides.  At
    one depth a diameter proof settles every undecided property and beats
    an induction proof.  Since the check at [d-2] answered satisfiable,
    verdicts, proof kinds and proved depths are those of checking every
    depth.  A run that stops because its reasons are stable first asks the
    termination queries of its last depth if that depth skipped them.

    The query at [d-1] runs after frame [d] is encoded.  It is
    equisatisfiable with the same query before frame [d] existed, because
    the transition relation is total: every state has a successor (latch
    next-states and gates are functions of the frame, inputs are free), and
    every EMM read of the extra frame has a value consistent with
    forwarding.  What must not reach past [d-1] is guarded per frame: the
    pairs [(j, f)] of [LFP] by a guard [g_f] of frame [f >= 1], with
    [g_f -> g_(f-1)], so that assuming [g_j] enables exactly the pairs of
    [LFP_j]; and [CP_j] is assumed as the property literals of frames
    [0..j-1] themselves.  The forward query at [j] assumes [I] and [g_j],
    the induction query [g_j], [CP_j] and [~P_j]; at depth 0 there is no
    guard.

    Two effects of the schedule differ from checking every depth.  A run
    stopped by its deadline or by a solver budget may stop one depth before
    a proof that checking every depth would have reached: a proof at an odd
    depth [d] is only found by the check at [d+1].  And with
    [collect_reasons] and proof checks both on, a property proved at an odd
    depth is also asked its falsification query there, whose core adds to
    the latch reasons.

    The pairs of [LFP_i] are added on demand (Eén and Sörensson, "Temporal
    Induction by Incremental SAT Solving", BMC 2003).  Each depth encodes
    frame [i]'s state latches but constrains no frame pair.  When an LFP or
    induction query is satisfiable, every pair of frames in [0..i] whose
    latch vectors coincide in the model and that is not yet constrained gets
    its full constraint (some latch differs, or the memory-distinctness
    literal of {!hooks} holds), in frame order, and the query is solved
    again — until it is unsatisfiable or its model repeats no unconstrained
    pair.  The answers are those of the eager encoding that constrains every
    pair: unsatisfiable over a subset of the pairs is unsatisfiable over all
    of them, and a model whose unconstrained pairs all differ on some latch
    extends to their constraints — a fresh difference literal, which occurs
    only positively, picks a differing latch, and the memory-distinctness
    literal can stay false.  Pair constraints are original clauses added
    between queries, so DRAT certification and portfolio replicas see them
    like any other clause.  With a recorder installed, the counters
    [bmc.lfp_pairs] (pairs constrained) and [bmc.lfp_rounds] (re-solves
    after a refinement) count the work; each re-solve is a [solve] span with
    its query's [query] attribute, and each refinement an [encode] span.

    Each termination query starts its search from the last model of its own
    kind, kept per run (not per property): before the first solve of a
    query the solver's saved phases are seeded ([Solver.seed_phases]) with
    the last satisfiable answer of that kind.  An LFP query takes the last
    LFP model as it is, since a loop-free path from [I] grows at its end.
    An induction query takes the last induction model moved forward one
    frame per depth since it was taken ([Cnf.shift_model ~frames]), since
    the counterexample at depth [i] is mostly the one at depth [i-1] with a
    new state in front (Eén and Sörensson); a query at a depth at or below
    the one the model was taken at takes it as it is.  Refinement re-solves keep the
    phases the solver saved from the model just found, and falsification
    queries are not seeded.  Phases only order the search, so no answer
    can move: every query still answers its formula, and verdicts, proof
    kinds and depths are those of an unseeded run; conflict counts, the
    pairs a model happens to repeat, and with them the clause count,
    counterexample traces and DRAT logs may differ.

    With a recorder installed, every [solve] span ends with a [solve.counts]
    instant carrying its [query], its [answer] ([sat], [unsat] or
    [interrupted]) and the call's own conflicts, decisions, propagations and
    restarts.  Untraced runs pay one [Obs.enabled] test per call. *)

type proof_kind = Forward_diameter | Backward_induction

type verdict =
  | Proof of { depth : int; kind : proof_kind }
  | Counterexample of Trace.t
  | Bounded_safe of int  (** no counterexample up to the bound *)
  | Reasons_stable of int
      (** latch reasons unchanged for [stop_on_stable] depths (PBA) *)
  | Timed_out of int  (** deepest fully analysed depth *)
  | Out_of_budget of { depth : int; what : string }
      (** a {!config} resource budget (conflicts, learnt-DB memory) ran out;
          [depth] is the deepest fully analysed depth and [what] names the
          exhausted resource *)

type stats = {
  solve_time : float;  (** seconds spent inside the SAT solver *)
  encode_time : float;
      (** seconds spent building the formula: unrolling, memory-modeling
          hooks and loop-free-path constraints *)
  proof_steps : int;  (** DRAT steps logged (0 unless [certify]) *)
  num_vars : int;
  num_clauses : int;
  vars_saved : int;
      (** unroller variables avoided by the simplifying encoder vs. the
          plain per-frame Tseitin baseline (0 when [simplify = false]) *)
  clauses_saved : int;  (** unroller clauses avoided, same baseline *)
  peak_memory_mb : float;
      (** the process's major-heap high-water mark ([Gc] [top_heap_words]) at
          the end of the run, in MB of 10{^6} bytes: a peak over the whole
          process, so it includes what the process held before the run *)
  latch_reasons : Netlist.signal list;
      (** union of latch reasons over all analysed depths *)
  memory_reasons : int list;
      (** ids of memories whose EMM constraints appeared in some refutation *)
  solver_stats : Satsolver.Solver.stats;
      (** cumulative CDCL telemetry for the run's solver (restarts, learnt /
          deleted clauses, average LBD, minimised literals, conflicts, ...) *)
}

type cert_artifact = {
  ca_num_vars : int;
  ca_original : Satsolver.Lit.t list list;
  ca_proof : Cert.Drat.step list;
  ca_obligations : Satsolver.Lit.t list list;
}
(** The self-contained evidence behind a DRAT-checked verdict: re-running
    [Cert.Drat.check] over these fields reproduces the certification with no
    solver involved.  Persisted by the verification-result cache so a warm
    hit can be re-checked instead of trusted. *)

type result = {
  verdict : verdict;
  stats : stats;
  certificate : Cert.t;
      (** [Unchecked] unless [config.certify]; otherwise the DRAT-checker
          outcome for UNSAT-backed verdicts and the concrete-design replay
          outcome for counterexamples *)
  artifact : cert_artifact option;
      (** present exactly when [certificate = Certified Drat_checked] and the
          run was single-instance (no Domain portfolio, whose obligations are
          spread over per-instance derivations).  Every DRAT-checked result
          of one {!check_all} run carries the same artifact: one derivation
          and every UNSAT obligation the run recorded, for all its
          properties *)
}

type config = {
  max_depth : int;
  deadline : float option;
      (** absolute time limit on the {!Obs.now} clock (wall-clock seconds
          unless a recorder with its own clock is installed) *)
  proof_checks : bool;  (** false = falsification only (BMC-2 style) *)
  collect_reasons : bool;  (** PBA bookkeeping from UNSAT cores *)
  stop_on_stable : int option;
      (** stop once latch reasons are unchanged for this many depths *)
  free_latches : Netlist.signal -> bool;
      (** abstracted latches become pseudo-primary inputs *)
  simplify : bool;
      (** use the simplifying unroller (constant folding, structural
          hashing, polarity-aware emission — see {!Cnf.create});
          [false] selects the plain paper-faithful encoding *)
  certify : bool;
      (** log a DRAT proof, record every UNSAT obligation, watch the memory
          interface signals, and certify the final verdict (see
          {!result.certificate}) *)
  conflict_budget : int option;
      (** conflicts allowed per SAT query before the run reports
          {!Out_of_budget} *)
  learnt_mb_budget : float option;
      (** learnt-clause database ceiling in MB, same failure mode *)
  proof_file : string option;
      (** with [certify], also write the DRAT derivation to this path *)
  portfolio : Portfolio.config option;
      (** with [Some cfg] and [cfg.domains > 1], every SAT query is raced
          by an in-process Domain portfolio (see {!Portfolio}); [None] (the
          default) solves sequentially.  Clause sharing is forced off when
          [certify] (imports would invalidate the DRAT logs; each instance
          keeps a self-contained log and the winner's is checked) or
          [collect_reasons] (imported clauses have no local derivation, so
          cores would under-approximate) is set.  [proof_file] always dumps
          the primary instance's derivation. *)
}

val default_config : config
(** [max_depth = 100], no deadline, proof checks on, no PBA collection,
    simplification on, certification off, no budgets. *)

type hooks = {
  on_unroll : Cnf.t -> int -> unit;
      (** called once per depth before any query at that depth; the EMM
          layer injects its memory-modeling constraints here *)
  mem_init_of_model : Cnf.t -> int -> (string * (int * int) list) list;
      (** called on a satisfiable falsification at the given depth to
          recover initial memory contents for the trace *)
  mem_distinct : (Cnf.t -> i:int -> j:int -> Satsolver.Lit.t) option;
      (** [Some f]: [f unr ~i ~j] (with [j < i], both frames already
          unrolled) returns a literal the solver may set true only when the
          modeled memory contents at frame [i] can differ from frame [j] —
          some enabled write in [j, i) stored a value the addressed location
          did not already hold.  The engine ORs it into the loop-free-path
          distinctness clause of every frame pair it constrains (only the
          pairs whose latch vectors some model repeats, each once), so
          termination proofs (forward diameter and backward induction)
          become sound for designs whose latch state repeats while memory
          contents diverge, and run past depth 0 even on latch-free
          write-port designs (where every pair repeats the empty latch
          vector).  The EMM layer provides its [mem_distinct_lit] here.
          [None] (the [no_hooks] default): distinctness ranges over latches
          only, and the engine conservatively disables termination checks
          past depth 0 when the latch vector is empty but some memory has a
          write port. *)
}

val no_hooks : hooks

val check_all :
  ?config:config ->
  ?hooks:hooks ->
  Netlist.t ->
  properties:string list ->
  (string * result) list * stats
(** The engine's one run loop: check many properties in a single
    incremental run, sharing the unrolled transition relation, the EMM
    constraints and all learnt clauses — the way the paper's platform
    processes the 216 reachability properties of its first industry case
    study.  Per checked depth (see the schedule above), the
    (property-independent) forward-diameter check, when it fires, settles
    every undecided property at once; otherwise every undecided property
    gets a backward-induction check against its own CP assumptions.  Then,
    at every depth, each undecided property gets its own falsification
    query.  A property is retired as soon as a counterexample or a proof
    lands.

    When the run stops before deciding a property, the property gets the
    stop verdict: [Bounded_safe max_depth] after the last depth,
    [Timed_out] when the deadline passes, [Out_of_budget] when a solver
    budget runs out, and — with [collect_reasons] and [stop_on_stable] set —
    [Reasons_stable] once the shared reason set has been stable for the
    requested number of depths.  Certification runs once for the whole run
    (one DRAT check of all its UNSAT obligations, one replay per
    counterexample).  Returns the per-property results, in the order of
    [properties], plus the shared run statistics (also in every result). *)

val check : ?config:config -> ?hooks:hooks -> Netlist.t -> property:string -> result
(** [check ~property] is {!check_all} on [[property]]: the same clauses, the
    same queries in the same order, the same result. *)

val pp_verdict : Format.formatter -> verdict -> unit
