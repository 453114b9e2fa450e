(** In-process portfolio SAT solving over OCaml 5 domains.

    A portfolio races [domains] diversified CDCL instances on the same CNF:
    instance 0 is the caller's own solver (the one the BMC encoder feeds)
    and runs on the calling domain, undiversified, so [domains = 1] is an
    honest sequential baseline; instances [1 .. domains-1] are replicas kept
    in lockstep by replaying the primary's clause stream (captured via
    [Solver.set_clause_listener]) and diversified through the solver's
    seed / phase / restart / VSIDS-decay knobs.

    During a race the instances cooperate: every learnt clause with
    LBD <= [share_lbd_max] is published into a bounded exchange buffer, and
    each instance imports its peers' clauses at its restart boundaries (and
    at solve entry).  The exchange persists across races — a learnt clause
    is implied by the formula alone, also under assumptions, so clauses
    learnt while answering depth [k] legitimately accelerate depth [k+1].

    The first instance to finish wins: it publishes its result, flips the
    shared stop flag, and the losers back out cooperatively
    ([Solver.Stopped]) at their next periodic check.  Any two instances
    that both finish must agree — a disagreement raises [Failure], which is
    the portfolio's built-in soundness tripwire.

    Sharing is automatically disabled while the primary has proof logging
    enabled: an imported clause is not RUP with respect to the importing
    instance's own derivation, so it would invalidate the DRAT log.
    Racing still happens; each instance keeps its own self-contained log,
    and certification checks the winner's. *)

module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

(** Bounded multi-producer broadcast buffer for learnt clauses.

    A single-mutex ring (measured: the solver publishes at most a handful
    of clauses per thousand conflicts, so the lock is nowhere near
    contended).  Every successfully published clause is delivered exactly
    once, in publication order, to every consumer other than its owner —
    publishing fails (and is counted) when the ring is full, it never
    evicts an unread entry.  Clauses are immutable literal lists, so no
    torn reads are possible. *)
module Exchange : sig
  type t

  val create : consumers:int -> capacity:int -> t

  val publish : t -> owner:int -> Lit.t list -> bool
  (** [publish t ~owner lits] offers a clause to every other consumer;
      [false] (counted as dropped) when the ring is full. *)

  val drain : t -> int -> Lit.t list list
  (** [drain t k] returns, in publication order, every clause published
      since [k] last drained whose owner is not [k], and advances [k]'s
      cursor past them. *)

  type stats = { published : int; dropped : int; delivered : int }

  val stats : t -> stats
end

type config = {
  domains : int;  (** instances raced, including the primary; >= 1 *)
  share : bool;  (** exchange learnt glue clauses between instances *)
  share_lbd_max : int;  (** publish learnt clauses with LBD <= this *)
  exchange_capacity : int;  (** ring slots in the exchange buffer *)
  corrupt_imports : bool;
      (** test-only fault injection: negate the first literal of every
          imported clause, making the import path unsound on purpose so the
          differential battery can demonstrate it would catch a real
          sharing bug.  Never enable outside tests. *)
}

val default_config : config
(** [{ domains = 2; share = true; share_lbd_max = 2;
      exchange_capacity = 512; corrupt_imports = false }] *)

type t

val create : ?config:config -> Solver.t -> t
(** [create primary] wraps a {e fresh} solver (no variables or clauses yet
    — raises [Invalid_argument] otherwise, since replicas mirror the
    primary by replaying its clause stream from the beginning) and builds
    [domains - 1] diversified replicas, each keeping UNSAT cores when the
    primary does ([Solver.create ~cores]).  Installs a clause listener on
    the primary; the caller keeps feeding the primary as usual. *)

val solve : ?assumptions:Lit.t list -> t -> Solver.result
(** Race all instances on the primary's current formula under the given
    assumptions.  Replicas are first synchronised (clause replay; the
    primary's deadline, budgets and proof-logging flag are copied), then
    [domains - 1] domains are spawned while instance 0 runs on the calling
    domain.  Returns the winner's result; the primary's model is made
    authoritative ([Solver.value] works as after a sequential solve) even
    when a replica won.  Re-raises the first instance failure
    ([Solver.Timeout], [Solver.Budget_exceeded], ...) when no instance
    finished.  Raises [Failure] if two finished instances disagree.

    With [domains = 1] this is exactly [Solver.solve] on the primary, plus
    one listener call per clause.  Obs span trees recorded by the racing
    domains are merged into the caller's recorder, one synthetic pid per
    domain, like the fork pool's worker traces. *)

val winner : t -> int
(** Instance index that answered the last {!solve}; [-1] before the first
    race or if the last race ended in a failure. *)

val winner_solver : t -> Solver.t
(** The instance that answered the last race (the primary before any). *)

val instance : t -> int -> Solver.t
(** [instance t k] is instance [k]; [instance t 0] is the primary. *)

val num_instances : t -> int

val races : t -> int
(** Number of {!solve} calls so far. *)

val exchange_stats : t -> Exchange.stats
(** Cumulative exchange-buffer counters (all zero when sharing is off). *)

val merged_stats : t -> Solver.stats
(** Sum of all instances' counters ([avg_lbd] weighted by learnt clauses)
    — the portfolio-wide work, as opposed to the winner's. *)
