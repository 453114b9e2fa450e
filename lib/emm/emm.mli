(** Efficient Memory Modeling constraints — the paper's core contribution.

    Instead of expanding memory arrays into latches, the verification model
    keeps each memory's interface signals (Addr, WD, RD, WE, RE per port) and
    adds, at every BMC unrolling depth [k], constraints enforcing the data
    forwarding semantics of equation (3):

    {v (E(j,k,w,r) /\ WE(j,w) /\ RE(k,r) /\ no later write to the address)
        ->  RD(k,r) = WD(j,w) v}

    The implementation follows §3–4 of the paper:

    - {b Address comparison} — per (write frame, write port) pair, variables
      [e(i)] per address bit and an equality variable [E], encoded with
      [4m+1] CNF clauses ([m] = address width).
    - {b Exclusive valid-read chains} — equation (4): signals [PS] and [S]
      built from 2-input AND gates (3 gates per frame and write port), such
      that at most one matching write pair can be selected and the selection
      immediately invalidates all others.
    - {b Read-data constraints} — equation (5): [2n] clauses per pair ([n] =
      data width) plus a read-validity clause.
    - {b Arbitrary initial state} — §4.2: a fresh data word [V(k,r)] per read
      access constrained by [N -> RD = V] where [N] ("never written") is the
      chain head, plus the pairwise consistency constraints of equation (6)
      between all read accesses.  Memories declared with [Zeros] initial
      contents additionally force [RD = 0] for unwritten reads, guarded by
      the initial-state activation literal so that backward-induction queries
      still see an arbitrary start state.

    All EMM clauses are tagged with the memory module, so UNSAT cores reveal
    which memories a proof actually depends on.

    {b Simplify mode.}  On top of the paper-faithful encoding above, the
    layer has a simplifying mode (enabled by default whenever the underlying
    unroller was created with [simplify = true], see {!Cnf.create}) that is
    logically equivalent under the activation-literal discipline but
    considerably smaller:

    - the standalone equality variable [E] and the AND gate of [s = E /\ WE]
      merge into one network [s <-> (WA = RA) /\ WE] ([4m+2] clauses);
    - per-bit equality terms are {e shared} across the whole unrolling
      through a structural hash keyed on the literal pair, so equation (3)
      select networks and equation (6) pairwise constraints reuse the same
      equality sub-terms instead of re-encoding them per use;
    - each exclusivity chain step emits [S = s /\ PS'] and [PS = ~s /\ PS']
      jointly in 5 clauses instead of two 3-clause gates;
    - the arbitrary initial word [V] of §4.2 is represented by the read-data
      bus itself (when [N] holds the read observes the initial word), saving
      [n] variables and [2n] clauses per access;
    - equation (6) pair variables are polarity-reduced: only
      [(premises -> u)] and [(u -> V = V')] are emitted;
    - constants (e.g. hard-wired addresses or enables after frame-0 constant
      folding) propagate through all of the above, deleting clauses and
      entire select networks.

    {b Memory-state distinctness.}  The engine's loop-free-path termination
    constraints range over latch state; {!mem_distinct_lit} extends them to
    memory contents with the same interface vocabulary.  For a frame pair
    [(i, j)] it returns a literal [D] with [D -> chg(j) \/ ... \/ chg(i-1)],
    where [chg(f)] may hold only when some enabled write at frame [f] stores
    a value its target location does not already hold at [f] — the value is
    a {e phantom read}: an interface word constrained by the same select
    networks, exclusivity chain and equation-(6) machinery as a real read
    port with [RE = true].  [D] occurs only positively in the engine's LFP
    clauses, so all implications are one-directional.  Phantom reads serve
    only the frame pairs the engine requests (it constrains a pair only when
    a model repeats the pair's latch vector); they are memoized per (memory,
    frame, address bus) and [chg] per frame, so the requested pairs share
    linearly many phantom reads. *)

type counts = {
  addr_clauses : int;  (** address-comparison CNF clauses *)
  excl_gates : int;  (** 2-input gates of the exclusivity chains (eq. 4) *)
  data_clauses : int;  (** read-data and validity clauses (eq. 5) *)
  init_clauses : int;  (** arbitrary/zero initial-state clauses (§4.2) *)
  init_pairs : int;  (** equation (6) pairwise consistency constraints *)
  aux_vars : int;  (** auxiliary solver variables introduced *)
  saved_vars : int;
      (** variables avoided by simplify mode vs. the plain encoding of the
          same ports and depths (0 in plain mode) *)
  saved_clauses : int;  (** clauses avoided, same baseline *)
  distinct_preds : int;
      (** predicate variables of the memory-state distinctness machinery:
          per-bit change witnesses, per-write and per-frame change
          predicates, and the per-frame-pair distinctness literals *)
  distinct_clauses : int;
      (** their defining clauses (the underlying phantom-read clauses are
          counted under the addr/data/init/pairs categories above) *)
  encode_time_s : float;  (** wall time spent generating EMM constraints *)
}

val zero_counts : counts
val add_counts : counts -> counts -> counts
val pp_counts : Format.formatter -> counts -> unit

type t

val create :
  ?memories:Netlist.memory list ->
  ?init_consistency:bool ->
  ?simplify:bool ->
  Cnf.t ->
  t
(** Prepare EMM generation over the given unroller.  [memories] restricts
    modeling to a subset (PBA memory abstraction, §4.3); defaults to all
    memories of the netlist.  [init_consistency] (default [true]) controls
    the equation (6) pairwise constraints — disabling them reproduces the
    imprecise arbitrary-initial-state modeling the paper warns about, and is
    used by the ablation benchmarks.  [simplify] selects the simplifying
    encoding described above; it defaults to [Cnf.simplify_enabled] of the
    unroller, and [false] always selects the paper-faithful plain encoding
    (the {!predicted_clauses}/{!predicted_gates} formulas only apply to
    plain mode).  Raises [Invalid_argument] on a memory with concrete
    [Words] initial contents — EMM supports [Zeros] and [Arbitrary], as in
    the paper. *)

val add_constraints : t -> int -> unit
(** [add_constraints t k] is the procedure [EMM_Constraints(k)] of Fig. 2:
    generates the constraints defining all read accesses at depth [k]
    against writes at depths [0..k-1].  Must be called for consecutive
    depths starting at 0. *)

val counts_total : t -> counts
(** Cumulative counts over all depths, including the distinctness
    constraints built by {!mem_distinct_lit} (which run outside any single
    depth). *)

val counts_at : t -> int -> counts
(** Constraints generated by [add_constraints t k] alone. *)

val mem_distinct_lit : t -> i:int -> j:int -> Satsolver.Lit.t
(** [mem_distinct_lit t ~i ~j] (with [0 <= j < i] and frame [i] unrolled) is
    a literal the solver may set true only when the modeled memory contents
    at frame [i] can differ from frame [j]: it implies that some enabled
    write in [j, i) stored a value the addressed location did not already
    hold.  Called by the engine only for the frame pairs it constrains.
    Memoized per pair; the per-frame change predicates and phantom reads
    beneath it are shared across pairs.

    A phantom read at frame [f] and address bus [A] is {e shared} with a
    real read when one exists: a read port of the same memory at frame [f]
    whose address literals are [A] and whose enable folds to the true
    literal (simplify mode, where the read's initial word is its read-data
    bus).  That read already observes the word stored at [A] entering
    frame [f], so no second select network, exclusivity chain, equation-(5)
    block or equation-(6) access is built, and read-before-write designs
    keep one access per read port and frame.  Gated reads, the plain
    encoder ([simplify = false]) and memories without such a read get a
    phantom read of their own.  Plugged into the
    [mem_distinct] field of {!Bmc.Engine.hooks} by {!hooks} so termination proofs stay
    sound when latch state repeats while memory contents diverge.  Raises
    [Invalid_argument] outside the encoded depth range. *)

val mem_init_of_model : t -> (string * (int * int) list) list
(** After a satisfiable query: initial memory contents consistent with the
    model, reconstructed from the never-written read accesses (their [V]
    words and read addresses). *)

(** {2 Predicted constraint sizes (paper §4.1)} *)

val predicted_clauses : aw:int -> dw:int -> k:int -> writes:int -> reads:int -> int
(** [((4m+2n+1)kW + 2n+1) R] — clauses added at depth [k] by the forwarding
    constraints (excluding the §4.2 initial-state machinery). *)

val predicted_gates : k:int -> writes:int -> reads:int -> int
(** [3kWR] — exclusivity-chain gates added at depth [k]. *)

(** {2 Data-race detection}

    The paper's multi-port semantics assume race freedom — "a memory location
    can be updated at any given cycle through only one write port" — and
    remark that checking for races is an easy extension.  This is that
    extension: a bounded search for a reachable cycle in which two write
    ports of the same memory are simultaneously enabled at the same
    address. *)

type race = {
  race_memory : string;
  race_depth : int;
  race_ports : int * int;
  race_trace : Bmc.Trace.t;  (** input stimulus reaching the race *)
}

val find_data_race :
  ?max_depth:int -> ?deadline:float -> Netlist.t -> race option
(** [None] when no race is reachable within the bound.  Memories with fewer
    than two write ports are trivially race-free. *)

(** {2 BMC with EMM} *)

val hooks :
  ?memories:Netlist.memory list ->
  ?init_consistency:bool ->
  ?simplify:bool ->
  ?mem_distinct:bool ->
  Netlist.t ->
  Bmc.Engine.hooks * (unit -> counts)
(** Engine hooks implementing BMC-2/BMC-3: constraint injection per depth,
    counterexample memory-state extraction, and memory-state distinctness
    for the loop-free-path termination checks.  [mem_distinct] (default
    [true]) wires {!mem_distinct_lit} into the engine; [false] reproduces
    the historical latch-only distinctness (termination checks past depth 0
    are then disabled for latch-free write-port designs) and exists for the
    over-proof mutation tests and ablation benchmarks.  The thunk reports
    cumulative counts once the run has started. *)

val check :
  ?config:Bmc.Engine.config ->
  ?memories:Netlist.memory list ->
  ?init_consistency:bool ->
  ?simplify:bool ->
  ?mem_distinct:bool ->
  Netlist.t ->
  property:string ->
  Bmc.Engine.result * counts
(** BMC-3 (Fig. 3 without the PBA lines unless enabled in [config]): the
    engine's induction proofs and falsification over the EMM model. *)

val check_many :
  ?config:Bmc.Engine.config ->
  ?memories:Netlist.memory list ->
  ?init_consistency:bool ->
  ?simplify:bool ->
  ?mem_distinct:bool ->
  Netlist.t ->
  properties:string list ->
  (string * Bmc.Engine.result) list * Bmc.Engine.stats * counts
(** All properties in one incremental run over a shared unrolling and shared
    EMM constraints — the methodology behind the paper's Industry-I numbers
    (206 witnesses from one 400-second run). *)
