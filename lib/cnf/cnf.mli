(** Time-frame expansion of a netlist into CNF, with an optional
    simplifying, structurally-hashed encoding layer.

    Implements the [Unroll] step of the BMC algorithms (Figs. 1–3 of the
    paper): every netlist signal gets a solver literal per time frame,
    created on demand.  In {e plain} mode ([simplify = false]) the encoding
    is the paper-faithful baseline: AND gates receive standard Tseitin
    clauses and every node gets a fresh variable in every frame.

    In {e simplify} mode (the default) the encoder additionally performs:

    - {b constant folding} at the literal level — [And(x, false) = false],
      [And(x, true) = x], [And(x, x) = x], [And(x, ~x) = false] — including
      constants learned from latch initial values at frame 0 when
      [fold_init] is set;
    - {b structural hashing}: auxiliary variables are keyed on their
      normalized literal-level definition in one global table, so the same
      conjunction — within a frame or across frames via latch links —
      reuses one variable instead of being re-encoded;
    - {b n-ary collapsing}: single-fanout AND trees flatten into one n-ary
      conjunction (k+1 clauses instead of 3(k-1)), and the 3-gate
      mux/xor AIG pattern becomes one 4-clause MUX definition;
    - {b polarity-aware (Plaisted–Greenbaum) emission}: only the
      implication direction actually used is emitted, tracked per
      auxiliary variable; the missing direction is added on demand when a
      later frame or query needs it (clauses are only ever added, never
      retracted, so incremental solving stays sound);
    - {b latch aliasing} (only when [track_reasons = false]): the latch
      literal at frame [k > 0] {e is} the previous frame's next-state
      literal, eliminating one variable and two link clauses per latch per
      frame.

    Latches at frame [k > 0] otherwise get fresh variables linked to the
    previous frame's next-state literal by equivalence clauses {e tagged
    with the latch}, so that UNSAT cores translate into latch reasons
    ([Get_Latch_Reasons], Fig. 1 line 11).  Latch initial values are
    guarded by a dedicated activation literal {!act_init} so the same
    incremental solver serves initialised (forward) and uninitialised
    (backward-induction) queries.

    Memory read-data outputs ([Mem_out] nodes) become free variables per
    frame — the EMM layer constrains them; the explicit baseline never
    produces such nodes. *)

module Tag : sig
  (** What a clause tag refers to, for core-to-model mapping. *)
  type meaning =
    | Latch of Netlist.signal  (** transition-link / init clauses of a latch *)
    | Memory of int  (** EMM constraint clauses of a memory module *)
    | Misc of string
end

type polarity =
  | Pos  (** the literal may be forced true by its context *)
  | Neg  (** the literal may be forced false *)
  | Both

type t

val create :
  ?free_latches:(Netlist.signal -> bool) ->
  ?simplify:bool ->
  ?fold_init:bool ->
  ?track_reasons:bool ->
  Satsolver.Solver.t ->
  Netlist.t ->
  t
(** [free_latches] marks latches abstracted into pseudo-primary inputs (PBA
    abstraction): they get fresh unconstrained variables in every frame.

    [simplify] (default [true]) enables the simplifying encoder described
    above; [false] selects the plain paper-faithful baseline.

    [fold_init] (default [false]) folds frame-0 latches with concrete reset
    values into constants.  {b Only sound when every solver query assumes
    {!act_init}} (pure falsification mode): the folded values are
    unconditional, not guarded by the activation literal.

    [track_reasons] (default [true]) keeps the tagged latch link clauses
    needed for UNSAT-core reason extraction.  When [false] (and [simplify]
    is on), latches at frame [k > 0] are aliased to their previous-frame
    next-state literals instead. *)

val solver : t -> Satsolver.Solver.t
val net : t -> Netlist.t

val simplify_enabled : t -> bool
(** Whether this unroller was created with [simplify = true]. *)

val lit : ?pol:polarity -> t -> frame:int -> Netlist.signal -> Satsolver.Lit.t
(** The solver literal of a signal at a time frame ([frame >= 0]),
    elaborating the required cone on first use.  [pol] (default [Both])
    declares how the literal will be used, enabling polarity-aware
    emission; requesting a stronger polarity later adds the missing
    clauses. *)

val lit_opt : t -> frame:int -> Netlist.signal -> Satsolver.Lit.t option
(** The literal of an already-elaborated signal, or [None] when the signal
    has no encoding at that frame yet.  Unlike {!lit} this never extends the
    formula — safe to call after a [Sat] answer to read model values. *)

val shift_model :
  ?into:int array -> ?frames:int -> t -> depth:int -> int array -> int array
(** [shift_model t ~depth m] moves a model, in [Solver.raw_model]'s format,
    one time frame forward: for every node encoded at both frame [f] and
    frame [f + 1] ([f < depth]), the frame-[f + 1] variable takes the value
    [m] gives the frame-[f] literal, signs respected.  Every other entry is
    copied from [m], and entries past [m]'s end read [-1], up to the
    solver's variable count; entries past that count are unspecified.
    Where latch aliasing or structural hashing puts two nodes on one
    variable, the last write wins.  The walk reads the per-frame node
    tables: O(nodes x depth) integer reads, allocating nothing per node.

    [~frames:k] (default 1, at least 1) moves the model [k] frames: the
    result is that of [k] one-frame shifts in a row.  They alternate
    between the result and one spare buffer that the unroller keeps, so a
    shift allocates nothing per frame.

    [into], when it has room for every variable and is not [m], is
    overwritten up to the variable count and returned instead of a fresh
    array.  A fresh array, and the spare, is twice the variable count long:
    a caller shifting at every depth passes back its last result, and
    neither buffer grows past twice the variable count however the caller
    passes results back.  For phase hints ([Solver.seed_phases], which
    reads no entry past the variable count): nothing makes the result a
    model. *)

val fresh_lit : t -> Satsolver.Lit.t
(** A fresh positive literal, for auxiliary constraint variables. *)

val and_lit :
  ?tag:int -> ?pol:polarity -> t -> Satsolver.Lit.t list -> Satsolver.Lit.t
(** Conjunction of already-resolved literals, with constant folding,
    complement cancellation, deduplication and structural hashing: the same
    (sorted) literal set with the same [tag] always returns the same
    literal, encoded once.  An empty conjunction is the true literal. *)

val mux_lit :
  ?tag:int ->
  ?pol:polarity ->
  t ->
  Satsolver.Lit.t ->
  Satsolver.Lit.t ->
  Satsolver.Lit.t ->
  Satsolver.Lit.t
(** [mux_lit t s a b] is a literal equivalent to [if s then a else b]
    (4 clauses when a fresh definition is needed), folded and hashed like
    {!and_lit}. *)

val add_clause : ?tag:int -> t -> Satsolver.Lit.t list -> unit

val tag_for : t -> Tag.meaning -> int
(** Intern a tag.  The same meaning always yields the same tag. *)

val meaning_of : t -> int -> Tag.meaning option

val act_init : t -> Satsolver.Lit.t
(** Assumption literal activating the initial-state constraints (latch reset
    values; the EMM layer also guards reset memory contents with it). *)

val false_lit : t -> Satsolver.Lit.t
(** A literal constrained to false (shared by all constant nodes). *)

val is_free_latch : t -> Netlist.signal -> bool
val clauses_added : t -> int
val aux_vars : t -> int
(** Variables created by {!fresh_lit} (EMM bookkeeping: constraint size). *)

(** {2 Simplification telemetry} *)

type stats = {
  folds : int;  (** definitions removed by constant folding / cancellation *)
  hash_hits : int;  (** definitions shared through the structural hash *)
  collapsed_nodes : int;  (** AIG nodes swallowed into n-ary/MUX patterns *)
  vars_saved : int;
      (** circuit variables avoided vs. the plain per-frame Tseitin encoding
          of the same requests *)
  clauses_saved : int;  (** circuit clauses avoided, same baseline *)
}

val stats : t -> stats
