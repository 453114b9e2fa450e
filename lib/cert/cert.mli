(** Independent certification of verification verdicts.

    A verdict produced by the SAT/BMC stack is only as trustworthy as the
    solver that produced it.  This module makes verdicts {e checkable}:

    - UNSAT answers (and therefore [Proved] verdicts, whose induction
      arguments are conjunctions of UNSAT queries) are validated by {!Drat},
      a reverse unit-propagation proof checker that replays the solver's
      DRAT derivation log over the original clauses using nothing but an
      independent unit-propagation engine;
    - SAT answers ([Falsified] verdicts) are validated by replaying the
      extracted counterexample trace through the cycle-accurate simulator on
      the {e concrete} memory design (see [Bmc.Trace.certify]).

    The result of either check is a {!t}: [Certified] with the kind of
    evidence, [Refuted] when the evidence contradicts the verdict (a solver
    or encoder bug), or [Unchecked] when no certification was attempted. *)

type kind =
  | Drat_checked  (** UNSAT obligations validated by the {!Drat} checker *)
  | Trace_replayed
      (** counterexample replayed on the concrete design, interface signals
          diffed cycle by cycle *)

type t =
  | Certified of kind
  | Refuted of string
      (** certification {e contradicted} the verdict; the payload says how *)
  | Unchecked of string  (** no check attempted; the payload says why *)

val label : t -> string
(** Short machine-readable tag: ["drat-checked"], ["trace-replayed"],
    ["refuted"] or ["unchecked"]. *)

val pp : Format.formatter -> t -> unit

(** Backward DRAT/RUP proof checker.

    The checker is deliberately independent of the solver: it shares no
    propagation code, no clause representation and no heuristics — only the
    literal encoding of {!Satsolver.Lit}.  It validates that a set of
    {e obligations} (assumption cubes the solver reported UNSAT) are each
    refutable by unit propagation over the original clauses plus the logged
    derivation, and — working backward — that every derivation step in the
    cone of some obligation is itself a reverse-unit-propagation (RUP)
    consequence of the clauses preceding it.  Deletion steps are honoured
    when propagating, which is what makes checking tractable; since deletion
    never removes logical implications, a failed obligation is re-tried once
    with all deleted lemmas revived before being rejected.

    Clauses live in one flat store: a single literal array with per-clause
    start and length, duplicate literals dropped at load, and alive/marked
    flags in byte strings.  Propagation watches two literals per clause and
    visits only the watch list of the literal just falsified; dead clauses
    stay on their watch lists and are skipped.  Deletion steps find their
    clause through an order-independent hash of its literal set, in an
    index built when the first deletion arrives (a proof without deletions
    never builds it).  Every array is sized from the largest variable among
    the given literals, never from a claimed variable count. *)
module Drat : sig
  type step = Satsolver.Solver.proof_step =
    | Padd of Satsolver.Lit.t list
    | Pdel of Satsolver.Lit.t list

  type report = {
    steps : int;  (** total proof steps replayed *)
    lemmas : int;  (** addition steps among them *)
    checked_lemmas : int;  (** lemmas actually RUP-verified (the cone) *)
    obligations : int;  (** UNSAT obligations validated *)
  }

  type outcome = Valid of report | Invalid of string

  val check :
    ?every_lemma:bool ->
    original:Satsolver.Lit.t list list ->
    proof:step list ->
    obligations:Satsolver.Lit.t list list ->
    unit ->
    outcome
  (** Validate that each obligation (a list of assumption literals; [[]]
      states plain unsatisfiability) conflicts under unit propagation at the
      end of the derivation, then verify the marked backward cone.  With
      [every_lemma] (default false) all addition steps are verified whether
      or not an obligation depends on them — slower, used by tests that
      must detect any corrupted line. *)

  val clause_is_rup : Satsolver.Lit.t list list -> Satsolver.Lit.t list -> bool
  (** [clause_is_rup set clause]: does asserting the negation of
      [clause] over [set] yield a conflict by unit propagation alone? *)

  val verify :
    original:Satsolver.Lit.t list list ->
    derivation:Satsolver.Lit.t list list ->
    bool
  (** Forward check (the interface of the retired [Satsolver.Checker]):
      every derivation clause is RUP in sequence and the final set is
      unit-refutable. *)

  val output : out_channel -> step list -> unit
  (** Write the derivation in standard textual DRAT format (DIMACS literals,
      deletions prefixed with ["d "]). *)
end
