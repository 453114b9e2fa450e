(** The verification platform façade.

    One entry point over every engine combination the paper evaluates:

    - {!Emm_bmc} — BMC-3: EMM constraints, induction proofs, precise
      arbitrary initial memory state (the paper's contribution);
    - {!Emm_falsify} — BMC-2: EMM constraints, counterexample search only;
    - {!Emm_pba} — BMC-3 + proof-based abstraction: discover the stable
      latch-reason set, abstract irrelevant latches and memories, then prove
      on the reduced model (§4.3, Table 2);
    - {!Explicit_bmc} — BMC-1 on the explicitly expanded memory model (the
      baseline in every comparison table);
    - {!Explicit_pba} — PBA discovery and reduced-model proof over the
      explicit model;
    - {!Abstract_bmc} — memory abstracted away completely (free read data);
      sound only for proofs, produces spurious counterexamples;
    - {!Bdd_reach} — BDD-based forward reachability on the expanded model.

    Every run returns a uniform {!outcome} carrying the verdict, wall-clock
    time, model statistics, and — when EMM was involved — the constraint
    counts of §4.1. *)

type method_ =
  | Emm_bmc
  | Emm_falsify
  | Emm_pba
  | Explicit_bmc
  | Explicit_pba
  | Abstract_bmc
  | Bdd_reach

val method_of_string : string -> (method_, string) result
val method_to_string : method_ -> string
val all_methods : method_ list

type options = {
  max_depth : int;
  timeout_s : float option;  (** wall-clock budget for the whole run *)
  stability : int;  (** PBA stability depth (paper: 10) *)
  max_bdd_nodes : int;
  certify : bool;
      (** certify every verdict: DRAT-check the refutations behind proofs and
          bounded-safe answers, replay counterexamples on the concrete design
          (see {!outcome.certificate}) *)
  proof_dir : string option;
      (** with [certify], also dump each run's DRAT derivation to
          [<proof_dir>/<property>-<method>.drat] *)
  conflict_budget : int option;
      (** conflicts allowed per SAT query before the engine gives up with
          [Inconclusive] and a [Budget_exhausted] error *)
  learnt_mb_budget : float option;
      (** learnt-clause database ceiling in MB, same failure mode *)
  domains : int;
      (** with [> 1], every SAT query runs an in-process Domain portfolio of
          that many diversified CDCL instances (see {!Portfolio}); [1] (the
          default) solves sequentially *)
  share_clauses : bool;
      (** exchange learnt glue clauses between portfolio instances (default
          [true]; forced off under [certify], where imports would invalidate
          the DRAT logs) *)
  cache : bool;
      (** consult and populate the persistent content-addressed result cache
          (see {!Vcache}): before encoding anything, {!verify} looks the
          property's canonical cone signature plus the verdict-relevant
          options up in the on-disk store, validates what it finds (replaying
          counterexamples, re-checking DRAT evidence under [certify]) and
          only reaches the solver on a miss.  Default [false] *)
  cache_dir : string option;
      (** cache store directory; [None] selects {!Vcache.default_dir} *)
}

val default_options : options
(** [max_depth = 100], no timeout, stability 10, 2M BDD nodes, certification
    off, no proof dir, no budgets, sequential solving ([domains = 1]),
    caching off. *)

type conclusion =
  | Proved of { depth : int; induction : bool }
  | Falsified of { depth : int; trace : Bmc.Trace.t option; genuine : bool option }
      (** [genuine] = the trace replays on the concrete design ([None] when
          no trace is available, e.g. from the BDD engine) *)
  | Inconclusive of string

type cache_status =
  | Cache_off  (** caching disabled, or no key could be computed *)
  | Cache_miss  (** store consulted, nothing usable; the verdict was solved
                    fresh and recorded when cacheable *)
  | Cache_hit  (** verdict served from the store and validated *)
  | Cache_dedup
      (** verdict transferred from a structurally identical property solved
          earlier in the same {!verify_many} batch *)

val cache_status_to_string : cache_status -> string
(** ["off"], ["miss"], ["hit"] or ["dedup"]: the spelling of the serve
    protocol's [cache] field and of BENCH's cache column. *)

type outcome = {
  conclusion : conclusion;
  time_s : float;
  solve_time_s : float;
  encode_time_s : float;
      (** seconds spent building the formula: unrolling, EMM constraint
          generation and loop-free-path constraints *)
  memory_mb : float;
      (** the SAT methods' [Bmc.Engine] [peak_memory_mb]: the
          process's major-heap high-water mark at the end of the run, in MB
          of 10{^6} bytes; for the BDD method, its peak node count times 40
          bytes *)
  model_latches : int;  (** latches of the model actually checked *)
  model_vars : int;
  model_clauses : int;
  vars_saved : int;
      (** solver variables avoided by the simplifying encoder (unroller and
          EMM layer combined) vs. the plain paper-faithful encoding *)
  clauses_saved : int;  (** clauses avoided, same baseline *)
  emm_counts : Emm.counts option;
  abstraction : Pba.abstraction option;
  solver_stats : Satsolver.Solver.stats option;
      (** CDCL telemetry of the underlying run; [None] for the BDD method *)
  certificate : Cert.t;
      (** [Unchecked] unless [options.certify]; then [Certified Drat_checked]
          for a DRAT-verified proof / bounded-safe answer, [Certified
          Trace_replayed] for a counterexample that replays on the concrete
          design, or [Refuted reason] when certification caught a bogus
          verdict *)
  proof_steps : int;  (** DRAT steps logged by the run (0 unless certifying) *)
  error : Policy.error option;
      (** why an [Inconclusive] outcome is inconclusive, on the policy
          taxonomy: [Budget_exhausted] for timeouts and resource budgets,
          [Worker_killed] for dead workers, [Cert_failed] when the
          certificate was refuted; [None] for honest inconclusives (e.g. a
          bound exhausted without a proof) and all conclusive outcomes *)
  degradations : Policy.event list;
      (** resilience events (failed engines, worker retries) accumulated on
          the way to this outcome, chronological; empty outside
          {!portfolio} and the fallback chains built on it *)
  cache : cache_status;
      (** how the result cache participated in this outcome; on a hit,
          [time_s] is the lookup-and-validate wall clock while
          [solve_time_s] / [encode_time_s] are 0 and the [model_*] fields
          replay the recording run's statistics *)
  cert_artifact : Bmc.Engine.cert_artifact option;
      (** DRAT evidence produced by a certifying run, consumed (and cleared)
          by the cache store; always [None] on outcomes returned by
          {!verify} and the entry points built on it *)
}

val verify : ?options:options -> method_:method_ -> Netlist.t -> property:string -> outcome
(** Check one safety property of the design with the chosen engine.
    Counterexample traces are replayed on the given netlist to classify them
    as genuine or spurious.

    With [options.cache] set, the property's canonical cone signature
    ({!Netlist.cone_signature}) plus the verdict-relevant options key a
    lookup in the persistent store before anything is encoded.  A hit is
    validated, not trusted: counterexamples are replayed on the live design,
    and under [options.certify] proofs and bounded answers are only served
    when their stored DRAT evidence passes the independent checker again
    (otherwise the engine solves fresh).  Entries that contradict the live
    design are evicted.  On a miss, deterministic verdicts — proofs, genuine
    counterexamples, bound-exhausted inconclusives — are recorded; outcomes
    carrying a typed [error] (timeouts, budgets, dead workers) never are. *)

val cache_config : options -> Vcache.config option
(** The store configuration {!verify} uses, [None] when [options.cache] is
    unset — exposed so front ends administer the same store they verify
    against. *)

val cache_key : options -> method_:method_ -> Netlist.t -> property:string -> Vcache.Key.t option
(** The cache key {!verify} would use for this run; [None] when the property
    does not exist in the design. *)

val encoding_version : string
(** Generation tag of the encoding stack, mixed into every cache key as the
    ["encoder"] attribute.  Bumped whenever an encoder change can alter a
    verdict or proved depth for the same (cone, options) pair, so stale
    entries from an older generation silently miss instead of replaying. *)

val select_properties :
  Netlist.t -> design:string -> property:string option -> (string list, string) result
(** The properties a request names: [Ok [p]] when the design has [p], and
    every property in netlist order for [None].  The errors,
    ["design <design> has no property \"p\""] and
    ["<design> has no properties"], are the daemon's replies and the CLI's
    usage errors. *)

val verify_many :
  ?options:options ->
  ?jobs:int ->
  ?fallback:method_ list ->
  method_:method_ ->
  Netlist.t ->
  properties:string list ->
  (string * outcome) list
(** Check a list of properties, fanning the independent {!verify} calls out
    over [jobs] forked {!Parallel} workers (default [1], which runs the
    plain sequential loop in-process).  Results come back in property order
    whatever the completion order, and — because every worker builds its
    own solver in its own address space — verdicts are identical for every
    [jobs] value.  A worker that crashes, runs out of memory or outlives
    {!kill_deadline} is SIGKILLed and its property reports
    [Inconclusive "worker killed: ..."] carrying the elapsed wall clock,
    without disturbing the other properties.

    With [fallback], [method_] is unused: each property runs the chain
    [portfolio ~methods:fallback ~jobs:1], whose engines carry their own
    kill deadlines.

    Properties whose verification cones are structurally identical (equal
    {!Netlist.cone_signature}) are solved once per batch; the others receive
    the representative's verdict with [cache = Cache_dedup], their trace
    re-replayed under their own name.  The dedup needs no store and works
    with caching off; it is disabled under [options.certify] (each property
    deserves its own checked evidence) and under [fallback] (chains are
    per-property), and never changes verdicts — only how often the solver
    runs. *)

type delta_status =
  | Delta_unchanged  (** same canonical cone in both designs *)
  | Delta_changed  (** the cone's structure differs *)
  | Delta_added  (** the property does not exist in the old design *)

val delta_status_to_string : delta_status -> string

val verify_delta :
  ?options:options ->
  ?jobs:int ->
  method_:method_ ->
  before:Netlist.t ->
  Netlist.t ->
  properties:string list ->
  (string * delta_status * outcome) list
(** Incremental re-verification after a design edit: classify each property
    by comparing its canonical cone signature in [before] against the new
    design, then verify the new design via {!verify_many}.  With
    [options.cache] set and the store warm from verifying [before] (or any
    earlier revision), every [Delta_unchanged] property is served from the
    cache and only changed or added cones reach a solver — the classification
    itself never skips a property, so a cold cache merely loses the speedup,
    never soundness. *)

val killed_outcome : elapsed_s:float -> string -> outcome
(** The outcome substituted for a worker that died without producing one:
    [Inconclusive "worker killed: <msg>"] with [time_s = elapsed_s] and
    zeroed statistics.  {!verify_many} and {!portfolio} use it internally;
    it is exposed for layers (daemon, bench) that fan {!verify} calls out
    over {!Parallel} themselves. *)

val kill_deadline : options -> float option
(** The SIGKILL backstop for a forked {!verify}: [1.25 * timeout_s + 5]
    seconds ([None] without a timeout), slack for the engine's own timeout
    to return first.  The one rule of {!verify_many}, {!portfolio} and the
    daemon. *)

val default_portfolio : method_ list
(** [[Emm_bmc; Explicit_bmc; Bdd_reach]] — the engines {!portfolio} runs
    by default. *)

val portfolio :
  ?options:options ->
  ?methods:method_ list ->
  ?jobs:int ->
  ?inject:(method_ -> attempt:int -> unit) ->
  Netlist.t ->
  property:string ->
  (method_ * outcome) * (method_ * outcome) list
(** The executor: run the engines of [methods] on one property, each in a
    forked worker, at most [jobs] at a time in [methods] order (default:
    all at once, a race; [~jobs:1] is the fallback chain).

    - The first {e conclusive} outcome (a proof, or a counterexample not
      known to be spurious, with no typed [error]) wins; the other engines
      are SIGKILLed or never started, and report
      [Inconclusive "worker killed: cancelled ..."].
    - Every typed failure, an outcome's [error] or a dead, raising or
      overdue ({!kill_deadline}) worker, is recorded as a {!Policy.event}.
    - A dead worker ([Worker_killed]) gets one immediate retry, ahead of
      every engine not yet started; timeouts and encode errors do not.
    - Without a winner, the first honest inconclusive in [methods] order
      answers; failing that, the last failure, as
      [Inconclusive "<Policy.error_message e>"] with [error = Some e].

    Returns the answering engine and its outcome, whose
    {!outcome.degradations} lists every event in order, plus each engine's
    own outcome in [methods] order.  [inject] is a fault-injection hook
    for tests, called in the forked child before the engine starts.  The
    run is one ["portfolio"] span with [methods] and [jobs] attributes.
    @raise Invalid_argument on an empty [methods]. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_conclusion : Format.formatter -> conclusion -> unit
