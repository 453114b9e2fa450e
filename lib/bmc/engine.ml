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
  depths_completed : int;
  solve_time : float;
  encode_time : float;
  cert_time_s : float;
  proof_steps : int;
  num_vars : int;
  num_clauses : int;
  num_conflicts : int;
  vars_saved : int;
  clauses_saved : int;
  peak_memory_mb : float;
  latch_reasons : Netlist.signal list;
  memory_reasons : int list;
  reasons_last_changed : int;
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
         clause of every frame pair, making termination proofs range over
         memory state as well as latches.  [None]: memory contents are
         invisible to the distinctness clauses and the engine falls back to
         the conservative latch-only guard below. *)
}

let no_hooks =
  {
    on_unroll = (fun _ _ -> ());
    mem_init_of_model = (fun _ _ -> []);
    mem_distinct = None;
  }

(* Mutable run state threaded through one [check] call. *)
type run = {
  cfg : config;
  hks : hooks;
  net : Netlist.t;
  solver : Solver.t;
  unr : Cnf.t;
  prop : Netlist.signal;
  prop_name : string;
  act_lfp : Lit.t;
  act_cp : Lit.t;
  state_latches : Netlist.signal list;
  reasons : (Netlist.signal, unit) Hashtbl.t;
  mem_reasons : (int, unit) Hashtbl.t;
  watches : (string * Netlist.signal * Netlist.signal option) list;
  portfolio : Portfolio.t option;
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
            match run.portfolio with
            | Some p -> Portfolio.solve ~assumptions p
            | None -> Solver.solve ~assumptions run.solver))
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

(* Loop-free-path constraints: for the new frame [i], require state [i] to
   differ from every earlier state, guarded by [act_lfp].  State is the latch
   vector plus — when the hooks provide a memory-distinctness predicate — the
   contents of the modeled memories, so a frame pair only counts as a repeat
   when latches AND memory agree. *)
let add_lfp_pairs run i =
  let unr = run.unr in
  List.iter
    (fun j ->
      let diffs =
        List.map
          (fun l ->
            let x = Cnf.lit unr ~frame:j l in
            let y = Cnf.lit unr ~frame:i l in
            let q = Cnf.fresh_lit unr in
            (* q -> (x <> y) *)
            Cnf.add_clause unr [ Lit.negate q; x; y ];
            Cnf.add_clause unr [ Lit.negate q; Lit.negate x; Lit.negate y ];
            q)
          run.state_latches
      in
      let diffs =
        match run.hks.mem_distinct with
        | Some f ->
          let d = f unr ~i ~j in
          if d = Cnf.false_lit unr then diffs else d :: diffs
        | None -> diffs
      in
      Cnf.add_clause unr (Lit.negate run.act_lfp :: diffs))
    (List.init i Fun.id)

let collect_reasons_from_core run =
  List.iter
    (fun tag ->
      match Cnf.meaning_of run.unr tag with
      | Some (Cnf.Tag.Latch l) ->
        if not (Hashtbl.mem run.reasons l) then Hashtbl.replace run.reasons l ()
      | Some (Cnf.Tag.Memory id) ->
        if not (Hashtbl.mem run.mem_reasons id) then Hashtbl.replace run.mem_reasons id ()
      | Some (Cnf.Tag.Misc _) | None -> ())
    (Solver.unsat_core_tags (answer_solver run))

let extract_trace run depth =
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
  { Trace.property = run.prop_name; depth; inputs; latch0; mem_init; watch }

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

(* The certificate for a finished run: UNSAT verdicts (proofs, and bounded /
   stability results whose every depth answered UNSAT) go through the DRAT
   checker; counterexamples are replayed on the concrete design. *)
let certify_verdict run ev verdict =
  if not run.cfg.certify then Cert.Unchecked "certification disabled"
  else begin
    dump_proof run ev;
    match verdict with
    | Proof _ | Bounded_safe _ | Reasons_stable _ -> certify_unsat run ev
    | Counterexample t -> Trace.certify run.net t
    | Timed_out _ -> Cert.Unchecked "timed out"
    | Out_of_budget { what; _ } -> Cert.Unchecked ("out of budget: " ^ what)
  end

exception Done of verdict

let check ?(config = default_config) ?(hooks = no_hooks) net ~property =
  let solver = Solver.create () in
  let portfolio = make_portfolio config solver in
  Solver.set_deadline solver config.deadline;
  Solver.set_conflict_budget solver config.conflict_budget;
  Solver.set_learnt_budget_mb solver config.learnt_mb_budget;
  if config.certify then Solver.set_proof_logging solver true;
  let unr = make_unroller config solver net in
  let run =
    {
      cfg = config;
      hks = hooks;
      net;
      solver;
      unr;
      prop = Netlist.find_property net property;
      prop_name = property;
      act_lfp = Cnf.fresh_lit unr;
      act_cp = Cnf.fresh_lit unr;
      state_latches =
        List.filter (fun l -> not (config.free_latches l)) (Netlist.latches net);
      reasons = Hashtbl.create 64;
      mem_reasons = Hashtbl.create 4;
      watches = (if config.certify then watch_signals net else []);
      portfolio;
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
     drop the downward implications of its cone.  The proof checks also use
     it positively (CP clauses). *)
  let prop_pol = if config.proof_checks then Cnf.Both else Cnf.Neg in
  let deadline_passed () =
    match config.deadline with
    | Some d -> Obs.now () > d
    | None -> false
  in
  let completed = ref (-1) in
  let verdict =
    try
      for i = 0 to config.max_depth do
        if deadline_passed () then raise (Done (Timed_out !completed));
        Obs.span "depth" ~attrs:[ ("k", Obs.Int i) ] (fun () ->
        let p_i =
          timed_encode run (fun () ->
              hooks.on_unroll unr i;
              (* Watched memory-interface bits must be encoded with full
                 polarity: a polarity-reduced auxiliary variable's model
                 value is not faithful to the circuit, which would produce
                 spurious replay mismatches. *)
              List.iter
                (fun (_, s, _) -> ignore (Cnf.lit unr ~frame:i s))
                run.watches;
              let p_i = Cnf.lit ~pol:prop_pol unr ~frame:i run.prop in
              (* Loop-free-path constraints only serve the termination
                 checks. *)
              if proof_checks_at i then add_lfp_pairs run i;
              p_i)
        in
        if proof_checks_at i then begin
          (* Forward termination: no loop-free path of length i from I. *)
          if timed_solve ~what:"lfp" run [ act_init; run.act_lfp ] = Solver.Unsat then
            raise (Done (Proof { depth = i; kind = Forward_diameter }));
          (* Backward termination: property inductive at depth i. *)
          if
            timed_solve ~what:"induction" run
              [ run.act_lfp; run.act_cp; Lit.negate p_i ]
            = Solver.Unsat
          then raise (Done (Proof { depth = i; kind = Backward_induction }))
        end;
        (* Falsification: counterexample of length exactly i. *)
        (match timed_solve run [ act_init; Lit.negate p_i ] with
        | Solver.Sat -> raise (Done (Counterexample (extract_trace run i)))
        | Solver.Unsat ->
          if config.collect_reasons then begin
            let before = Hashtbl.length run.reasons + Hashtbl.length run.mem_reasons in
            collect_reasons_from_core run;
            if Hashtbl.length run.reasons + Hashtbl.length run.mem_reasons <> before
            then run.reasons_last_changed <- i
          end);
        completed := i;
        (* CP_{i+1} = CP_i /\ P_i — only the proof checks assume [act_cp],
           so in pure falsification mode the clause is dead weight. *)
        if config.proof_checks then Cnf.add_clause unr [ Lit.negate run.act_cp; p_i ];
        match config.stop_on_stable with
        | Some s when config.collect_reasons && i - run.reasons_last_changed >= s ->
          raise (Done (Reasons_stable i))
        | Some _ | None -> ())
      done;
      Bounded_safe config.max_depth
    with
    | Done v -> v
    | Solver.Timeout -> Timed_out !completed
    | Solver.Budget_exceeded what -> Out_of_budget { depth = !completed; what }
  in
  let cert_t0 = Obs.now () in
  let ev = evidence_of solver in
  let certificate = Obs.span "certify" (fun () -> certify_verdict run ev verdict) in
  let cert_time_s = Obs.now () -. cert_t0 in
  let gc = Gc.quick_stat () in
  let cnf_stats = Cnf.stats unr in
  (* Under a portfolio, the solver telemetry aggregates all instances: the
     work the machine actually did, not just the winner's share. *)
  let sstats =
    match run.portfolio with
    | Some p -> Portfolio.merged_stats p
    | None -> Solver.stats solver
  in
  let stats =
    {
      depths_completed = !completed + 1;
      solve_time = run.solve_time;
      encode_time = run.encode_time;
      cert_time_s;
      proof_steps = (if config.certify then List.length (Lazy.force ev.ev_proof) else 0);
      num_vars = Solver.num_vars solver;
      num_clauses = Solver.num_clauses solver;
      num_conflicts = sstats.Solver.conflicts;
      vars_saved = cnf_stats.Cnf.vars_saved;
      clauses_saved = cnf_stats.Cnf.clauses_saved;
      peak_memory_mb = float_of_int (gc.Gc.heap_words * 8) /. 1e6;
      latch_reasons = Hashtbl.fold (fun l () acc -> l :: acc) run.reasons [];
      memory_reasons =
        List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) run.mem_reasons []);
      reasons_last_changed = run.reasons_last_changed;
      solver_stats = sstats;
    }
  in
  (* The self-contained evidence behind a DRAT-checked UNSAT verdict —
     original clauses, derivation and assumption obligations — for layers
     that persist certificates (lib/vcache) and re-check them independently
     later.  Only for single-instance runs: under a portfolio, obligations
     are spread over per-instance derivations and no single artifact
     re-checks them. *)
  let artifact =
    match (certificate, run.portfolio) with
    | Cert.Certified Cert.Drat_checked, None when run.obligations <> [] ->
      Some
        {
          ca_num_vars = Solver.num_vars solver;
          ca_original = Lazy.force ev.ev_original;
          ca_proof = Lazy.force ev.ev_proof;
          ca_obligations = List.rev_map (fun (cube, _) -> cube) run.obligations;
        }
    | _ -> None
  in
  { verdict; stats; certificate; artifact }

(* Multi-property mode: one incremental run over the shared unrolling.  Each
   property carries its own CP activation literal and is retired as soon as a
   counterexample or a proof lands. *)
type prop_state = {
  ps_name : string;
  ps_signal : Netlist.signal;
  ps_act_cp : Lit.t;
  mutable ps_verdict : verdict option;
}

let check_all ?(config = default_config) ?(hooks = no_hooks) net ~properties =
  let solver = Solver.create () in
  let portfolio = make_portfolio config solver in
  Solver.set_deadline solver config.deadline;
  Solver.set_conflict_budget solver config.conflict_budget;
  Solver.set_learnt_budget_mb solver config.learnt_mb_budget;
  if config.certify then Solver.set_proof_logging solver true;
  let unr = make_unroller config solver net in
  let run =
    {
      cfg = config;
      hks = hooks;
      net;
      solver;
      unr;
      prop = Netlist.true_;
      prop_name = "";
      act_lfp = Cnf.fresh_lit unr;
      act_cp = Cnf.fresh_lit unr;
      state_latches =
        List.filter (fun l -> not (config.free_latches l)) (Netlist.latches net);
      reasons = Hashtbl.create 64;
      mem_reasons = Hashtbl.create 4;
      watches = (if config.certify then watch_signals net else []);
      portfolio;
      obligations = [];
      reasons_last_changed = 0;
      solve_time = 0.0;
      encode_time = 0.0;
    }
  in
  let act_init = Cnf.act_init unr in
  (* Same policy as [check]: with a memory-distinctness predicate the
     loop-free-path constraints cover the full modeled state and proofs run
     at every depth; without one, empty latch-only constraints must not
     claim a zero diameter while memory state evolves, and only the
     distinctness-free depth-0 checks stay. *)
  let lfp_meaningful =
    run.hks.mem_distinct <> None
    || run.state_latches <> []
    || List.for_all (fun m -> Netlist.num_write_ports m = 0) (Netlist.memories net)
  in
  let proof_checks_at i = config.proof_checks && (lfp_meaningful || i = 0) in
  let prop_pol = if config.proof_checks then Cnf.Both else Cnf.Neg in
  let props =
    List.map
      (fun name ->
        {
          ps_name = name;
          ps_signal = Netlist.find_property net name;
          ps_act_cp = Cnf.fresh_lit unr;
          ps_verdict = None;
        })
      properties
  in
  let undecided () = List.filter (fun p -> p.ps_verdict = None) props in
  let deadline_passed () =
    match config.deadline with
    | Some d -> Obs.now () > d
    | None -> false
  in
  let completed = ref (-1) in
  let budget_hit = ref None in
  (try
     let i = ref 0 in
     while !i <= config.max_depth && undecided () <> [] do
       if deadline_passed () then raise Exit;
       Obs.span "depth" ~attrs:[ ("k", Obs.Int !i) ] (fun () ->
       timed_encode run (fun () ->
           hooks.on_unroll unr !i;
           List.iter
             (fun (_, s, _) -> ignore (Cnf.lit unr ~frame:!i s))
             run.watches;
           if proof_checks_at !i then add_lfp_pairs run !i);
       let pending = undecided () in
       if proof_checks_at !i then begin
         (* Forward diameter: settles every remaining property at once. *)
         if timed_solve ~what:"lfp" run [ act_init; run.act_lfp ] = Solver.Unsat
         then begin
           List.iter
             (fun p ->
               p.ps_verdict <- Some (Proof { depth = !i; kind = Forward_diameter }))
             pending;
           raise Exit
         end;
         List.iter
           (fun p ->
             let p_i = Cnf.lit unr ~frame:!i p.ps_signal in
             if
               timed_solve ~what:"induction" run
                 [ run.act_lfp; p.ps_act_cp; Lit.negate p_i ]
               = Solver.Unsat
             then
               p.ps_verdict <- Some (Proof { depth = !i; kind = Backward_induction }))
           pending
       end;
       List.iter
         (fun p ->
           if p.ps_verdict = None then begin
             let p_i =
               timed_encode run (fun () ->
                   Cnf.lit ~pol:prop_pol unr ~frame:!i p.ps_signal)
             in
             match timed_solve run [ act_init; Lit.negate p_i ] with
             | Solver.Sat ->
               let run_p = { run with prop = p.ps_signal; prop_name = p.ps_name } in
               p.ps_verdict <- Some (Counterexample (extract_trace run_p !i))
             | Solver.Unsat ->
               (* Parity with [check]: record when the reason set last grew,
                  so [stop_on_stable] works in multi-property mode too. *)
               if config.collect_reasons then begin
                 let before =
                   Hashtbl.length run.reasons + Hashtbl.length run.mem_reasons
                 in
                 collect_reasons_from_core run;
                 if Hashtbl.length run.reasons + Hashtbl.length run.mem_reasons <> before
                 then run.reasons_last_changed <- !i
               end
           end)
         pending;
       (* CP updates for the survivors — only the proof checks assume the
          per-property [act_cp]. *)
       if config.proof_checks then
         List.iter
           (fun p ->
             if p.ps_verdict = None then
               let p_i = Cnf.lit unr ~frame:!i p.ps_signal in
               Cnf.add_clause unr [ Lit.negate p.ps_act_cp; p_i ])
           pending;
       completed := !i;
       (match config.stop_on_stable with
       | Some s when config.collect_reasons && !i - run.reasons_last_changed >= s ->
         List.iter
           (fun p ->
             if p.ps_verdict = None then p.ps_verdict <- Some (Reasons_stable !i))
           props;
         raise Exit
       | Some _ | None -> ());
       incr i)
     done
   with
  | Exit | Solver.Timeout -> ()
  | Solver.Budget_exceeded what -> budget_hit := Some what);
  (* One DRAT check serves every UNSAT-backed verdict: all obligations were
     answered by the same incremental solver over the shared unrolling. *)
  let cert_t0 = Obs.now () in
  let ev = evidence_of solver in
  let unsat_certificate =
    lazy
      (if not config.certify then Cert.Unchecked "certification disabled"
       else begin
         dump_proof run ev;
         certify_unsat run ev
       end)
  in
  let certificate_of verdict =
    if not config.certify then Cert.Unchecked "certification disabled"
    else
      Obs.span "certify" (fun () ->
          match verdict with
          | Proof _ | Bounded_safe _ | Reasons_stable _ -> Lazy.force unsat_certificate
          | Counterexample t -> Trace.certify net t
          | Timed_out _ -> Cert.Unchecked "timed out"
          | Out_of_budget { what; _ } -> Cert.Unchecked ("out of budget: " ^ what))
  in
  let gc = Gc.quick_stat () in
  let cnf_stats = Cnf.stats unr in
  (* Under a portfolio, the solver telemetry aggregates all instances: the
     work the machine actually did, not just the winner's share. *)
  let sstats =
    match run.portfolio with
    | Some p -> Portfolio.merged_stats p
    | None -> Solver.stats solver
  in
  let stats =
    {
      depths_completed = !completed + 1;
      solve_time = run.solve_time;
      encode_time = run.encode_time;
      cert_time_s = 0.0;
      proof_steps = (if config.certify then List.length (Lazy.force ev.ev_proof) else 0);
      num_vars = Solver.num_vars solver;
      num_clauses = Solver.num_clauses solver;
      num_conflicts = sstats.Solver.conflicts;
      vars_saved = cnf_stats.Cnf.vars_saved;
      clauses_saved = cnf_stats.Cnf.clauses_saved;
      peak_memory_mb = float_of_int (gc.Gc.heap_words * 8) /. 1e6;
      latch_reasons = Hashtbl.fold (fun l () acc -> l :: acc) run.reasons [];
      memory_reasons =
        List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) run.mem_reasons []);
      reasons_last_changed = run.reasons_last_changed;
      solver_stats = sstats;
    }
  in
  let results =
    List.map
      (fun p ->
        let verdict =
          match p.ps_verdict with
          | Some v -> v
          | None -> (
            match !budget_hit with
            | Some what -> Out_of_budget { depth = !completed; what }
            | None ->
              if deadline_passed () then Timed_out !completed
              else Bounded_safe config.max_depth)
        in
        let certificate = certificate_of verdict in
        (p.ps_name, { verdict; stats; certificate; artifact = None }))
      props
  in
  let stats = { stats with cert_time_s = Obs.now () -. cert_t0 } in
  let results =
    List.map (fun (name, r) -> (name, { r with stats })) results
  in
  (results, stats)

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
