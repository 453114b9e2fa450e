module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

type proof_kind = Forward_diameter | Backward_induction

type verdict =
  | Proof of { depth : int; kind : proof_kind }
  | Counterexample of Trace.t
  | Bounded_safe of int
  | Reasons_stable of int
  | Timed_out of int
  | Out_of_budget of { depth : int; what : string }

type stats = {
  solve_time : float;
  encode_time : float;
  proof_steps : int;
  num_vars : int;
  num_clauses : int;
  vars_saved : int;
  clauses_saved : int;
  peak_memory_mb : float;
  latch_reasons : Netlist.signal list;
  memory_reasons : int list;
  solver_stats : Solver.stats;
}

type cert_artifact = {
  ca_num_vars : int;
  ca_original : Lit.t list list;
  ca_proof : Cert.Drat.step list;
  ca_obligations : Lit.t list list;
}

type result = {
  verdict : verdict;
  stats : stats;
  certificate : Cert.t;
  artifact : cert_artifact option;
}

type config = {
  max_depth : int;
  deadline : float option;
  proof_checks : bool;
  collect_reasons : bool;
  stop_on_stable : int option;
  free_latches : Netlist.signal -> bool;
  simplify : bool;
  certify : bool;
  conflict_budget : int option;
  learnt_mb_budget : float option;
  proof_file : string option;
  portfolio : Portfolio.config option;
}

let default_config =
  {
    max_depth = 100;
    deadline = None;
    proof_checks = true;
    collect_reasons = false;
    stop_on_stable = None;
    free_latches = (fun _ -> false);
    simplify = true;
    certify = false;
    conflict_budget = None;
    learnt_mb_budget = None;
    proof_file = None;
    portfolio = None;
  }

(* Wrap a freshly created solver in a portfolio when the configuration asks
   for one.  Must run before the unroller adds any clause (replicas mirror
   the primary's clause stream from the beginning).  Sharing is forced off
   when cores or DRAT logs are consumed: imported clauses have no local
   derivation, so they would taint the one and invalidate the other. *)
let make_portfolio config solver =
  match config.portfolio with
  | Some pcfg when pcfg.Portfolio.domains > 1 ->
    let pcfg =
      if config.certify || config.collect_reasons then
        { pcfg with Portfolio.share = false }
      else pcfg
    in
    Some (Portfolio.create ~config:pcfg solver)
  | Some _ | None -> None

(* The memory-interface bits observed by trace certification: write-port
   address/data/enable and read-port address/enable unconditionally,
   read-port data gated on the enable (EMM leaves disabled read data
   unconstrained while the simulator drives zero). *)
let watch_signals net =
  List.concat_map
    (fun m ->
      let mname = Netlist.memory_name m in
      let bits prefix ?enable arr =
        List.mapi
          (fun i s -> (Printf.sprintf "%s.%s[%d]" mname prefix i, s, enable))
          (Array.to_list arr)
      in
      let wr =
        List.concat
          (List.init (Netlist.num_write_ports m) (fun w ->
               let addr, data, en = Netlist.write_port m w in
               bits (Printf.sprintf "w%d.addr" w) addr
               @ bits (Printf.sprintf "w%d.data" w) data
               @ [ (Printf.sprintf "%s.w%d.en" mname w, en, None) ]))
      in
      let rd =
        List.concat
          (List.init (Netlist.num_read_ports m) (fun r ->
               let addr, en, out = Netlist.read_port m r in
               bits (Printf.sprintf "r%d.addr" r) addr
               @ [ (Printf.sprintf "%s.r%d.en" mname r, en, None) ]
               @ bits ~enable:en (Printf.sprintf "r%d.data" r) out))
      in
      wr @ rd)
    (Netlist.memories net)

(* The unroller configuration implied by an engine configuration.  Latch
   aliasing and frame-0 init folding are both gated on [collect_reasons]:
   reason extraction needs the tagged latch clauses.  Init folding further
   requires pure falsification mode ([proof_checks = false]), where every
   solver query assumes [act_init]. *)
let make_unroller config solver net =
  Cnf.create ~free_latches:config.free_latches ~simplify:config.simplify
    ~track_reasons:config.collect_reasons
    ~fold_init:
      (config.simplify && (not config.proof_checks) && not config.collect_reasons)
    solver net

type hooks = {
  on_unroll : Cnf.t -> int -> unit;
  mem_init_of_model : Cnf.t -> int -> (string * (int * int) list) list;
  mem_distinct : (Cnf.t -> i:int -> j:int -> Lit.t) option;
      (* [Some f]: [f unr ~i ~j] is a literal that may be set true only when
         the modeled memory state at frame [i] can differ from frame [j]
         (some enabled write in [j, i) stores a value the location did not
         already hold).  It is OR'd into the loop-free-path distinctness
         clause of every frame pair the engine constrains, making
         termination proofs range over memory state as well as latches.
         [None]: memory contents are invisible to the distinctness clauses
         and the engine falls back to the conservative latch-only guard
         below. *)
}

let no_hooks =
  {
    on_unroll = (fun _ _ -> ());
    mem_init_of_model = (fun _ _ -> []);
    mem_distinct = None;
  }

(* One kind of termination query and the model of its last satisfiable
   answer, which seeds the solver's saved phases for the next query of the
   kind.  [shifts]: a query at a depth past [taken_at] takes the model
   moved forward that many frames, into the reused [shifted]. *)
type termination = {
  what : string;
  shifts : bool;
  mutable last_model : int array;  (* the solver's own array: never written *)
  mutable taken_at : int;
  mutable shifted : int array;
}

let termination what ~shifts =
  { what; shifts; last_model = [||]; taken_at = 0; shifted = [||] }

(* Mutable run state threaded through one [check_all] call, shared by all of
   its properties. *)
type run = {
  cfg : config;
  hks : hooks;
  net : Netlist.t;
  solver : Solver.t;
  unr : Cnf.t;
  guards : (int, Lit.t) Hashtbl.t;
      (* frame f >= 1 -> g_f, which enables the loop-free-path pairs (j, f);
         g_f implies g_(f-1), so assuming g_j enables LFP_j *)
  state_latches : Netlist.signal list;
  latch_lits : (int, Lit.t list) Hashtbl.t;
      (* frame -> its state-latch literals, encoded with full polarity so
         that model values are faithful *)
  lfp_pairs : (int * int, unit) Hashtbl.t;  (* frame pairs constrained *)
  reasons : (Netlist.signal, unit) Hashtbl.t;
  mem_reasons : (int, unit) Hashtbl.t;
  watches : (string * Netlist.signal * Netlist.signal option) list;
  portfolio : Portfolio.t option;
  lfp : termination;  (* forward: I /\ LFP_i *)
  induction : termination;  (* backward: LFP_i /\ CP_i /\ ~P_i *)
  mutable obligations : (Lit.t list * int) list;
      (* UNSAT assumption cubes with the instance that answered them
         (0 = the run's own solver), newest first *)
  mutable reasons_last_changed : int;
  mutable solve_time : float;
  mutable encode_time : float;
}

(* The solver whose bookkeeping matches the last answer: the portfolio
   winner when racing, the run's own solver otherwise. *)
let answer_solver run =
  match run.portfolio with
  | Some p -> Portfolio.winner_solver p
  | None -> run.solver

(* The run's cumulative search counters: under a portfolio, the sum over
   its instances. *)
let solver_stats run =
  match run.portfolio with
  | Some p -> Portfolio.merged_stats p
  | None -> Solver.stats run.solver

(* [solve ()] under a recorder ends with a "solve.counts" instant carrying
   the call's own share of the search counters, so the instants of a run sum
   to its [solver_stats], bar the root-level propagation of unit clauses as
   they are added; an interrupted call reports what it spent. *)
let counted ~what run solve =
  if not (Obs.enabled ()) then solve ()
  else begin
    let s0 = solver_stats run in
    let answer = ref "interrupted" in
    Fun.protect
      ~finally:(fun () ->
        let s1 = solver_stats run in
        let d f = Obs.Int (f s1 - f s0) in
        Obs.instant "solve.counts"
          ~attrs:
            [
              ("query", Obs.Str what);
              ("answer", Obs.Str !answer);
              ("conflicts", d (fun s -> s.Solver.conflicts));
              ("decisions", d (fun s -> s.Solver.decisions));
              ("propagations", d (fun s -> s.Solver.propagations));
              ("restarts", d (fun s -> s.Solver.restarts));
            ])
      (fun () ->
        let r = solve () in
        answer := (match r with Solver.Sat -> "sat" | Solver.Unsat -> "unsat");
        r)
  end

(* The [solve_time]/[encode_time] accumulators are now derived views over
   the observability spans: both read the same [Obs.now] clock, so [stats]
   stays source-compatible while traces carry the per-phase breakdown. *)
let timed_solve ?(what = "falsify") run assumptions =
  let t0 = Obs.now () in
  let r =
    Fun.protect
      ~finally:(fun () -> run.solve_time <- run.solve_time +. Obs.now () -. t0)
      (fun () ->
        Obs.span "solve" ~attrs:[ ("query", Obs.Str what) ] (fun () ->
            counted ~what run (fun () ->
                match run.portfolio with
                | Some p -> Portfolio.solve ~assumptions p
                | None -> Solver.solve ~assumptions run.solver)))
  in
  if r = Solver.Unsat && run.cfg.certify then begin
    let w = match run.portfolio with Some p -> Portfolio.winner p | None -> 0 in
    run.obligations <- (assumptions, w) :: run.obligations
  end;
  r

let timed_encode run f =
  let t0 = Obs.now () in
  Fun.protect
    ~finally:(fun () -> run.encode_time <- run.encode_time +. Obs.now () -. t0)
    (fun () -> Obs.span "encode" f)

(* The loop-free-path constraint of frames [j < i]: state [i] differs from
   state [j], guarded by frame [i]'s guard.  State is the latch vector plus — when
   the hooks provide a memory-distinctness predicate — the contents of the
   modeled memories, so a frame pair only counts as a repeat when latches
   AND memory agree. *)
let add_lfp_pair run (j, i) =
  let unr = run.unr in
  let diffs =
    List.map2
      (fun x y ->
        let q = Cnf.fresh_lit unr in
        (* q -> (x <> y) *)
        Cnf.add_clause unr [ Lit.negate q; x; y ];
        Cnf.add_clause unr [ Lit.negate q; Lit.negate x; Lit.negate y ];
        q)
      (Hashtbl.find run.latch_lits j) (Hashtbl.find run.latch_lits i)
  in
  let diffs =
    match run.hks.mem_distinct with
    | Some f ->
      let d = f unr ~i ~j in
      if d = Cnf.false_lit unr then diffs else d :: diffs
    | None -> diffs
  in
  Cnf.add_clause unr (Lit.negate (Hashtbl.find run.guards i) :: diffs);
  Hashtbl.replace run.lfp_pairs (j, i) ()

(* Loop-free-path constraints on demand (Eén and Sörensson, "Temporal
   Induction by Incremental SAT Solving", BMC 2003): after a satisfiable LFP
   or induction query at depth [i], constrain every pair of frames in
   [0, i] whose state latches the model sets equal and that has no
   constraint yet, in frame order.  Returns the number of pairs added. *)
let refine_lfp run i =
  let by_state = Hashtbl.create 16 in
  let repeats = ref [] in
  for f = 0 to i do
    let state = List.map (Solver.value run.solver) (Hashtbl.find run.latch_lits f) in
    let earlier = Option.value (Hashtbl.find_opt by_state state) ~default:[] in
    List.iter
      (fun j -> if not (Hashtbl.mem run.lfp_pairs (j, f)) then repeats := (j, f) :: !repeats)
      earlier;
    Hashtbl.replace by_state state (earlier @ [ f ])
  done;
  List.iter (add_lfp_pair run) (List.rev !repeats);
  List.length !repeats

(* An LFP or induction query over the pairs constrained so far, refined
   until it is Unsat or its model repeats no unconstrained pair.  This
   answers as if every pair were constrained: Unsat over a subset of the
   pairs is Unsat over all of them, and a model whose unconstrained pairs
   all differ on some state latch extends to their constraints — a fresh
   difference literal, which occurs only positively, picks the differing
   latch, and the memory-distinctness literal can stay false.

   The first solve starts from the last model of the query's kind (Eén and
   Sörensson, BMC 2003): a loop-free path from I grows at its end, and an
   induction counterexample at depth i is mostly the one at depth i-1 with
   a new state in front, so that model moves forward a frame per depth.
   Refinement re-solves keep the phases the solver saved from the model
   just found.  Phases only order the search: the answer is the formula's. *)
let solve_lfp q run i assumptions =
  let seed =
    if q.shifts && Array.length q.last_model > 0 && i > q.taken_at then begin
      q.shifted <-
        Cnf.shift_model ~into:q.shifted ~frames:(i - q.taken_at) run.unr ~depth:i
          q.last_model;
      q.shifted
    end
    else q.last_model
  in
  Solver.seed_phases run.solver seed;
  let rec go () =
    match timed_solve ~what:q.what run assumptions with
    | Solver.Unsat -> Solver.Unsat
    | Solver.Sat -> (
      match timed_encode run (fun () -> refine_lfp run i) with
      | 0 ->
        q.last_model <- Solver.raw_model (answer_solver run);
        q.taken_at <- i;
        Solver.Sat
      | added ->
        Obs.counter_add "bmc.lfp_pairs" added;
        Obs.counter_add "bmc.lfp_rounds" 1;
        go ())
  in
  go ()

(* Add the latches and memories of the last refutation's core to the reason
   sets, noting depth [i] when either set grows. *)
let collect_reasons_from_core run i =
  let size () = Hashtbl.length run.reasons + Hashtbl.length run.mem_reasons in
  let before = size () in
  List.iter
    (fun tag ->
      match Cnf.meaning_of run.unr tag with
      | Some (Cnf.Tag.Latch l) -> Hashtbl.replace run.reasons l ()
      | Some (Cnf.Tag.Memory id) -> Hashtbl.replace run.mem_reasons id ()
      | Some (Cnf.Tag.Misc _) | None -> ())
    (Solver.unsat_core_tags (answer_solver run));
  if size () <> before then run.reasons_last_changed <- i

let extract_trace run ~property depth =
  let unr = run.unr in
  let solver = run.solver in
  let inputs =
    Array.init (depth + 1) (fun frame ->
        List.filter_map
          (fun s ->
            match Netlist.node run.net (Netlist.node_of s) with
            | Netlist.Input name ->
              Some (name, Solver.value solver (Cnf.lit unr ~frame s))
            | Netlist.Const_false | Netlist.Latch _ | Netlist.And _
            | Netlist.Mem_out _ -> None)
          (Netlist.inputs run.net))
  in
  let latch0 =
    List.filter_map
      (fun l ->
        match Netlist.latch_init run.net l with
        | None ->
          Some
            ( Netlist.latch_name run.net l,
              Solver.value solver (Cnf.lit unr ~frame:0 l) )
        | Some _ -> None)
      (Netlist.latches run.net)
  in
  let mem_init = run.hks.mem_init_of_model unr depth in
  let watch =
    List.filter_map
      (fun (name, s, enable) ->
        let complete = ref true in
        let values =
          Array.init (depth + 1) (fun frame ->
              match Cnf.lit_opt unr ~frame s with
              | Some l -> Solver.value solver l
              | None ->
                complete := false;
                false)
        in
        if !complete then
          Some
            { Trace.w_name = name; w_signal = s; w_enable = enable; w_values = values }
        else None)
      run.watches
  in
  { Trace.property; depth; inputs; latch0; mem_init; watch }

(* A finished solver's original clauses and DRAT derivation, each exported
   at most once and shared by the checker, the proof file, the step count
   and the stored artifact. *)
type evidence = {
  ev_original : Lit.t list list Lazy.t;
  ev_proof : Cert.Drat.step list Lazy.t;
}

let evidence_of solver =
  { ev_original = lazy (Solver.export_clauses solver); ev_proof = lazy (Solver.proof solver) }

(* Validate every recorded UNSAT answer against the solver's DRAT log with
   the independent checker of [Cert.Drat].  [ev] is the run's own solver's
   evidence. *)
let certify_unsat run ev =
  if run.obligations = [] then Cert.Unchecked "no unsat obligations recorded"
  else begin
    (* Under a portfolio, obligations are grouped by the instance that
       answered them: every instance keeps a self-contained DRAT log over
       the same (replayed) original clauses, so each group is checked
       against its own instance's derivation. *)
    let evidence_at k =
      match run.portfolio with
      | Some p -> evidence_of (Portfolio.instance p k)
      | None -> ev
    in
    let instances = List.sort_uniq compare (List.map snd run.obligations) in
    let rec go = function
      | [] -> Cert.Certified Cert.Drat_checked
      | k :: rest -> (
        let ev = evidence_at k in
        let obligations =
          List.rev
            (List.filter_map
               (fun (cube, w) -> if w = k then Some cube else None)
               run.obligations)
        in
        match
          Cert.Drat.check ~original:(Lazy.force ev.ev_original)
            ~proof:(Lazy.force ev.ev_proof) ~obligations ()
        with
        | Cert.Drat.Valid _ -> go rest
        | Cert.Drat.Invalid why -> Cert.Refuted why)
    in
    go instances
  end

let dump_proof run ev =
  match run.cfg.proof_file with
  | Some path when run.cfg.certify ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Cert.Drat.output oc (Lazy.force ev.ev_proof))
  | Some _ | None -> ()

(* The certifier of a finished run's verdicts: UNSAT-backed verdicts (proofs,
   and bounded / stability results whose every depth answered UNSAT) share
   one DRAT check of every obligation the run recorded; counterexamples are
   replayed on the concrete design. *)
let certifier run ev =
  if not run.cfg.certify then fun _ -> Cert.Unchecked "certification disabled"
  else begin
    dump_proof run ev;
    let unsat = lazy (certify_unsat run ev) in
    function
    | Proof _ | Bounded_safe _ | Reasons_stable _ -> Lazy.force unsat
    | Counterexample t -> Trace.certify run.net t
    | Timed_out _ -> Cert.Unchecked "timed out"
    | Out_of_budget { what; _ } -> Cert.Unchecked ("out of budget: " ^ what)
  end

(* Per-property state: the property's literal at each frame encoded so
   far and, once decided, the verdict.  A property is retired as soon as a
   counterexample or a proof lands. *)
type prop_state = {
  ps_name : string;
  ps_signal : Netlist.signal;
  mutable ps_lits : Lit.t array;  (* frame -> p_frame *)
  mutable ps_verdict : verdict option;
}

(* Termination queries run at every [stride]-th depth and at [max_depth];
   an Unsat answer there asks the skipped depths, least first (see
   [check_all]).  On quicksort-n3 P1 to depth 20 (the quicksort-solver
   benchmark workload, 2-vCPU host), against checking every depth, stride
   2 took 0.67x the time, stride 3 0.87x (901 conflicts to stride 2's 407)
   and stride 4 1.0x (1,104 conflicts).  A schedule that instead balanced
   termination cost against falsification cost overshot quicksort-n3 P1's
   diameter-32 proof, reaching 37,279 variables and 5,598 conflicts where
   checking every depth needs 21,021 and 2,572. *)
let stride = 2

let check_all ?(config = default_config) ?(hooks = no_hooks) net ~properties =
  (* Only proof-based abstraction reads cores. *)
  let solver = Solver.create ~cores:config.collect_reasons () in
  let portfolio = make_portfolio config solver in
  Solver.set_deadline solver config.deadline;
  Solver.set_conflict_budget solver config.conflict_budget;
  Solver.set_learnt_budget_mb solver config.learnt_mb_budget;
  if config.certify then Solver.set_proof_logging solver true;
  let unr = make_unroller config solver net in
  let props =
    List.map
      (fun name ->
        {
          ps_name = name;
          ps_signal = Netlist.find_property net name;
          ps_lits = [||];
          ps_verdict = None;
        })
      properties
  in
  let run =
    {
      cfg = config;
      hks = hooks;
      net;
      solver;
      unr;
      guards = Hashtbl.create 64;
      state_latches =
        List.filter (fun l -> not (config.free_latches l)) (Netlist.latches net);
      latch_lits = Hashtbl.create 64;
      lfp_pairs = Hashtbl.create 64;
      reasons = Hashtbl.create 64;
      mem_reasons = Hashtbl.create 4;
      watches = (if config.certify then watch_signals net else []);
      portfolio;
      lfp = termination "lfp" ~shifts:false;
      induction = termination "induction" ~shifts:true;
      obligations = [];
      reasons_last_changed = 0;
      solve_time = 0.0;
      encode_time = 0.0;
    }
  in
  let act_init = Cnf.act_init unr in
  (* When the hooks supply a memory-distinctness predicate, the loop-free-path
     constraints range over the full modeled state (latches plus memory
     contents) and termination checks are sound at every depth — including on
     latch-free write-port designs, whose distinctness clause degenerates to
     exactly the memory predicate.  Without it, latch-only distinctness is
     sound only when latches really are the whole state: a memory's contents
     evolve outside the latch vector, so latch-free memory designs keep only
     the depth-0 checks (which involve no distinctness constraints —
     induction at depth 0 is plain validity of the property) and otherwise
     fall back to falsification. *)
  let lfp_meaningful =
    run.hks.mem_distinct <> None
    || run.state_latches <> []
    || List.for_all (fun m -> Netlist.num_write_ports m = 0) (Netlist.memories net)
  in
  let proof_checks_at i = config.proof_checks && (lfp_meaningful || i = 0) in
  (* In pure falsification mode the property literal only ever appears under
     negation (the [~p_i] assumption), so the polarity-aware encoder can
     drop the downward implications of its cone.  The proof checks also
     assume it positively (CP). *)
  let prop_pol = if config.proof_checks then Cnf.Both else Cnf.Neg in
  let decide v p = p.ps_verdict <- Some v in
  let undecided ps = List.filter (fun p -> p.ps_verdict = None) ps in
  let guard j = if j = 0 then [] else [ Hashtbl.find run.guards j ] in
  (* Forward termination at depth j: no loop-free path of length j from I. *)
  let lfp_unsat j = solve_lfp run.lfp run j (act_init :: guard j) = Solver.Unsat in
  (* Backward termination at depth j: LFP_j /\ CP_j /\ ~P_j, where CP_j is
     P at frames 0..j-1. *)
  let induction_unsat j p =
    let cp = List.init j (Array.get p.ps_lits) in
    solve_lfp run.induction run j (guard j @ cp @ [ Lit.negate p.ps_lits.(j) ])
    = Solver.Unsat
  in
  (* The deepest depth whose termination queries have been asked. *)
  let checked = ref (-1) in
  (* The termination queries at depth d.  They prove [proved]: every
     undecided property when the forward query answers Unsat, else those
     whose induction query does.  A proof at a depth skipped since
     [checked] comes first.  Both queries are monotone in depth (a
     loop-free path of length d+1 has a loop-free prefix and a loop-free
     suffix of length d), so the skipped depths are asked, least first, the
     forward query if it answered Unsat at d and the induction query of
     each property still in [proved]; the least Unsat depth decides.  At
     one depth a diameter proof settles every undecided property before any
     induction query. *)
  let check d =
    let skipped = !checked + 1 in
    checked := d;
    let pending = undecided props in
    let lfp = lfp_unsat d in
    let proved = if lfp then pending else List.filter (induction_unsat d) pending in
    let rec least j =
      let proved = undecided proved in
      if j = d then
        let kind = if lfp then Forward_diameter else Backward_induction in
        List.iter (decide (Proof { depth = d; kind })) proved
      else if lfp && lfp_unsat j then
        List.iter (decide (Proof { depth = j; kind = Forward_diameter })) proved
      else begin
        List.iter
          (fun p ->
            if induction_unsat j p then
              decide (Proof { depth = j; kind = Backward_induction }) p)
          proved;
        least (j + 1)
      end
    in
    if proved <> [] then least skipped
  in
  (* One depth of BMC-1 (Fig. 1) over the undecided properties [pending].
     Termination queries run at every [stride]-th depth and at [max_depth]
     only; true when the run stops at [i] because its reasons are stable,
     in which case depth [i]'s termination queries have run too. *)
  let depth i pending =
    let lits =
      timed_encode run (fun () ->
          hooks.on_unroll unr i;
          (* Watched memory-interface bits must be encoded with full
             polarity: a polarity-reduced auxiliary variable's model value is
             not faithful to the circuit, which would produce spurious replay
             mismatches. *)
          List.iter (fun (_, s, _) -> ignore (Cnf.lit unr ~frame:i s)) run.watches;
          let lits =
            List.map (fun p -> (p, Cnf.lit ~pol:prop_pol unr ~frame:i p.ps_signal)) pending
          in
          (* The state latches of frame i, for the loop-free-path pairs the
             termination checks may ask for, and the guard of its pairs. *)
          if proof_checks_at i then begin
            Hashtbl.replace run.latch_lits i
              (List.map (fun l -> Cnf.lit unr ~frame:i l) run.state_latches);
            if i > 0 then begin
              let g = Cnf.fresh_lit unr in
              if i > 1 then
                Cnf.add_clause unr [ Lit.negate g; Hashtbl.find run.guards (i - 1) ];
              Hashtbl.replace run.guards i g
            end
          end;
          lits)
    in
    List.iter (fun (p, p_i) -> p.ps_lits <- Array.append p.ps_lits [| p_i |]) lits;
    if proof_checks_at i && (i mod stride = 0 || i = config.max_depth) then check i;
    (* Falsification: counterexample of length exactly i. *)
    List.iter
      (fun (p, p_i) ->
        if p.ps_verdict = None then
          match timed_solve run [ act_init; Lit.negate p_i ] with
          | Solver.Sat ->
            decide (Counterexample (extract_trace run ~property:p.ps_name i)) p
          | Solver.Unsat -> if config.collect_reasons then collect_reasons_from_core run i)
      lits;
    let stable =
      match config.stop_on_stable with
      | Some s -> config.collect_reasons && i - run.reasons_last_changed >= s
      | None -> false
    in
    if stable && proof_checks_at i && !checked < i && undecided pending <> [] then
      check i;
    stable
  in
  let deadline_passed () =
    match config.deadline with
    | Some d -> Obs.now () > d
    | None -> false
  in
  (* Run depths from [i] on; the result is the verdict of every property
     still undecided when the run stops. *)
  let completed = ref (-1) in
  let rec from i =
    match undecided props with
    | [] -> Bounded_safe config.max_depth
    | _ when i > config.max_depth -> Bounded_safe config.max_depth
    | _ when deadline_passed () -> Timed_out !completed
    | pending ->
      let stable =
        Obs.span "depth" ~attrs:[ ("k", Obs.Int i) ] (fun () -> depth i pending)
      in
      completed := i;
      if stable then Reasons_stable i else from (i + 1)
  in
  let stop =
    try from 0 with
    | Solver.Timeout -> Timed_out !completed
    | Solver.Budget_exceeded what -> Out_of_budget { depth = !completed; what }
  in
  let ev = evidence_of solver in
  let verdicts =
    Obs.span "certify" (fun () ->
        let certify = certifier run ev in
        List.map
          (fun p ->
            let verdict = Option.value p.ps_verdict ~default:stop in
            (p.ps_name, verdict, certify verdict))
          props)
  in
  let gc = Gc.quick_stat () in
  let cnf_stats = Cnf.stats unr in
  (* Under a portfolio, the solver telemetry aggregates all instances: the
     work the machine actually did, not just the winner's share. *)
  let sstats = solver_stats run in
  let stats =
    {
      solve_time = run.solve_time;
      encode_time = run.encode_time;
      proof_steps = (if config.certify then List.length (Lazy.force ev.ev_proof) else 0);
      num_vars = Solver.num_vars solver;
      num_clauses = Solver.num_clauses solver;
      vars_saved = cnf_stats.Cnf.vars_saved;
      clauses_saved = cnf_stats.Cnf.clauses_saved;
      peak_memory_mb = float_of_int (gc.Gc.top_heap_words * 8) /. 1e6;
      latch_reasons = Hashtbl.fold (fun l () acc -> l :: acc) run.reasons [];
      memory_reasons =
        List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) run.mem_reasons []);
      solver_stats = sstats;
    }
  in
  (* The self-contained evidence behind the DRAT-checked verdicts — original
     clauses, derivation and assumption obligations — for layers that
     persist certificates (lib/vcache) and re-check them independently
     later.  Only for single-instance runs: under a portfolio, obligations
     are spread over per-instance derivations and no single artifact
     re-checks them. *)
  let artifact =
    lazy
      {
        ca_num_vars = Solver.num_vars solver;
        ca_original = Lazy.force ev.ev_original;
        ca_proof = Lazy.force ev.ev_proof;
        ca_obligations = List.rev_map fst run.obligations;
      }
  in
  let results =
    List.map
      (fun (name, verdict, certificate) ->
        let artifact =
          match (certificate, run.portfolio) with
          | Cert.Certified Cert.Drat_checked, None -> Some (Lazy.force artifact)
          | _ -> None
        in
        (name, { verdict; stats; certificate; artifact }))
      verdicts
  in
  (results, stats)

let check ?config ?hooks net ~property =
  List.assoc property (fst (check_all ?config ?hooks net ~properties:[ property ]))

let pp_verdict ppf = function
  | Proof { depth; kind = Forward_diameter } ->
    Format.fprintf ppf "proof (forward diameter %d)" depth
  | Proof { depth; kind = Backward_induction } ->
    Format.fprintf ppf "proof (induction at depth %d)" depth
  | Counterexample t -> Format.fprintf ppf "counterexample at depth %d" t.Trace.depth
  | Bounded_safe n -> Format.fprintf ppf "no counterexample up to depth %d" n
  | Reasons_stable n -> Format.fprintf ppf "latch reasons stable at depth %d" n
  | Timed_out n -> Format.fprintf ppf "timeout after depth %d" n
  | Out_of_budget { depth; what } ->
    Format.fprintf ppf "out of budget (%s) after depth %d" what depth
