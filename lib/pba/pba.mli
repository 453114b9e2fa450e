(** Proof-based abstraction combined with EMM (§4.3 of the paper).

    A discovery run executes BMC with latch-reason collection: after every
    unsatisfiable falsification query, the solver's refutation is retraced
    and the latches whose transition-link clauses participate are added to
    the reason set [LR].  Once [LR] is stable for a given number of depths,
    an abstract model is formed: latches outside [LR] become pseudo-primary
    inputs, and memory modules none of whose control-logic latches appear in
    [LR] are abstracted away entirely — their EMM constraints are simply not
    generated (or, for the explicit baseline, their bit-latches are freed).

    Properties proved on the abstract model hold on the concrete design up to
    the analysed depth; the abstraction is also sound for the termination
    (induction) checks on the reduced state space, which is how Table 2 of
    the paper obtains its proofs. *)

type abstraction = {
  kept_latches : Netlist.signal list;  (** the stable latch reasons *)
  free_latches : Netlist.signal list;
  modeled_memories : Netlist.memory list;
  abstracted_memories : Netlist.memory list;
  discovery_depth : int;  (** depth at which the reason set stabilised *)
  discovery_time : float;
      (** seconds spent in the discovery run, on the {!Obs.now} clock *)
}

val memory_control_latches : Netlist.t -> Netlist.memory -> Netlist.signal list
(** Latches in the sequential cone of the memory's interface signals. *)

val discover :
  ?max_depth:int ->
  ?stability:int ->
  ?deadline:float ->
  ?use_emm:bool ->
  ?within:abstraction ->
  Netlist.t ->
  property:string ->
  (abstraction, Bmc.Engine.verdict) Either.t
(** Run the discovery phase.  [stability] (default 10, as in the paper's
    experiments) is the number of depths the reason set must stay unchanged.
    [use_emm] (default true) adds EMM constraints during discovery; pass
    [false] for an explicitly expanded model.  Returns [Right verdict] if the
    run concluded (counterexample/proof/timeout) before stabilising. *)

val is_memory_modeled : Netlist.t -> Netlist.signal list -> Netlist.memory -> bool
(** Does the latch-reason set intersect the memory's control logic? *)

val iterate :
  ?rounds:int ->
  ?max_depth:int ->
  ?stability:int ->
  ?deadline:float ->
  Netlist.t ->
  property:string ->
  (abstraction, Bmc.Engine.verdict) Either.t
(** Iterative abstraction [Gupta et al., ICCAD'03], as invoked in §2.2 of the
    paper: re-run reason discovery on the already-abstracted model until the
    reason set stops shrinking (or [rounds] is exhausted).  Each round can
    only remove latches, so the sequence converges. *)

val check_with_abstraction :
  ?config:Bmc.Engine.config ->
  Netlist.t ->
  abstraction ->
  property:string ->
  Bmc.Engine.result * Emm.counts
(** Verify the property on the abstract model: latches outside the reason set
    are free, and only the still-modeled memories receive EMM constraints. *)

val pp_abstraction : Netlist.t -> Format.formatter -> abstraction -> unit
