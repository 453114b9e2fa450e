(** BDD-based symbolic model checking (forward reachability).

    The classical comparator the paper's prototype platform also carries:
    states are encoded over one BDD variable per latch, the monolithic
    transition relation is the conjunction of next-state equivalences, and
    reachability iterates image computation to a fixed point.  Memories must
    be expanded first (see {!Explicitmem.expand}) — which is precisely why
    this engine collapses on embedded-memory designs, as reported in the
    paper ("our BDD-based model checker was unable to build even the
    transition relation").  The [max_nodes] budget turns that collapse into
    the {!verdict} [Node_limit] instead of exhausting the machine. *)

type verdict =
  | Safe of int  (** fixpoint reached after this many image steps *)
  | Unsafe of int  (** a bad state is reachable within this many steps *)
  | Node_limit  (** the BDD package exceeded its node budget *)
  | Step_limit of int

type result = {
  verdict : verdict;
  peak_nodes : int;
  reachable_size : int;  (** BDD nodes of the final reachable-set *)
  time : float;  (** seconds spent in {!check}, on the {!Obs.now} clock *)
}

val check :
  ?max_nodes:int -> ?max_steps:int -> Netlist.t -> property:string -> result
(** Raises [Invalid_argument] if the netlist still contains memory
    modules. *)

val pp_verdict : Format.formatter -> verdict -> unit
