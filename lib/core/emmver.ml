type method_ =
  | Emm_bmc
  | Emm_falsify
  | Emm_pba
  | Explicit_bmc
  | Explicit_pba
  | Abstract_bmc
  | Bdd_reach

let all_methods =
  [ Emm_bmc; Emm_falsify; Emm_pba; Explicit_bmc; Explicit_pba; Abstract_bmc; Bdd_reach ]

let method_to_string = function
  | Emm_bmc -> "emm"
  | Emm_falsify -> "emm-falsify"
  | Emm_pba -> "emm-pba"
  | Explicit_bmc -> "explicit"
  | Explicit_pba -> "explicit-pba"
  | Abstract_bmc -> "abstract"
  | Bdd_reach -> "bdd"

let method_of_string s =
  match List.find_opt (fun m -> method_to_string m = s) all_methods with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown method %S (expected one of: %s)" s
         (String.concat ", " (List.map method_to_string all_methods)))

type options = {
  max_depth : int;
  timeout_s : float option;
  stability : int;
  max_bdd_nodes : int;
  certify : bool;
  proof_dir : string option;
  conflict_budget : int option;
  learnt_mb_budget : float option;
  domains : int;
  share_clauses : bool;
  cache : bool;
  cache_dir : string option;
}

let default_options =
  {
    max_depth = 100;
    timeout_s = None;
    stability = 10;
    max_bdd_nodes = 2_000_000;
    certify = false;
    proof_dir = None;
    conflict_budget = None;
    learnt_mb_budget = None;
    domains = 1;
    share_clauses = true;
    cache = false;
    cache_dir = None;
  }

type conclusion =
  | Proved of { depth : int; induction : bool }
  | Falsified of { depth : int; trace : Bmc.Trace.t option; genuine : bool option }
  | Inconclusive of string

type cache_status = Cache_off | Cache_miss | Cache_hit | Cache_dedup

type outcome = {
  conclusion : conclusion;
  time_s : float;
  solve_time_s : float;
  encode_time_s : float;
  memory_mb : float;
  model_latches : int;
  model_vars : int;
  model_clauses : int;
  vars_saved : int;
  clauses_saved : int;
  emm_counts : Emm.counts option;
  abstraction : Pba.abstraction option;
  solver_stats : Satsolver.Solver.stats option;
      (* None for the BDD method, which involves no SAT solver *)
  certificate : Cert.t;
  proof_steps : int;
  error : Policy.error option;
  degradations : Policy.event list;
  cache : cache_status;
  cert_artifact : Bmc.Engine.cert_artifact option;
}

let deadline_of opts =
  Option.map (fun s -> Obs.now () +. s) opts.timeout_s

let engine_config ?(proof_checks = true) ?free_latches ?proof_file opts =
  {
    Bmc.Engine.default_config with
    max_depth = opts.max_depth;
    deadline = deadline_of opts;
    proof_checks;
    free_latches = Option.value free_latches ~default:(fun _ -> false);
    certify = opts.certify;
    conflict_budget = opts.conflict_budget;
    learnt_mb_budget = opts.learnt_mb_budget;
    proof_file;
    portfolio =
      (if opts.domains > 1 then
         Some
           {
             Portfolio.default_config with
             Portfolio.domains = opts.domains;
             share = opts.share_clauses;
           }
       else None);
  }

(* Translate an engine result, replaying counterexamples on [replay_net]. *)
let conclusion_of_result replay_net (result : Bmc.Engine.result) =
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Proof { depth; kind } ->
    Proved { depth; induction = kind = Bmc.Engine.Backward_induction }
  | Bmc.Engine.Counterexample t ->
    Falsified
      {
        depth = t.Bmc.Trace.depth;
        trace = Some t;
        genuine = Some (Bmc.Trace.replay replay_net t);
      }
  | Bmc.Engine.Bounded_safe d ->
    Inconclusive (Printf.sprintf "no counterexample up to depth %d" d)
  | Bmc.Engine.Reasons_stable d ->
    Inconclusive (Printf.sprintf "latch reasons stable at depth %d" d)
  | Bmc.Engine.Timed_out d -> Inconclusive (Printf.sprintf "timeout after depth %d" d)
  | Bmc.Engine.Out_of_budget { depth; what } ->
    Inconclusive (Printf.sprintf "out of budget (%s) after depth %d" what depth)

(* The typed error behind an inconclusive-for-resource-reasons verdict or a
   refuted certificate, for the policy layer's fallback decisions. *)
let error_of_result (result : Bmc.Engine.result) =
  match result.Bmc.Engine.certificate with
  | Cert.Refuted why -> Some (Policy.Cert_failed why)
  | Cert.Certified _ | Cert.Unchecked _ -> (
    match result.Bmc.Engine.verdict with
    | Bmc.Engine.Timed_out d ->
      Some (Policy.Budget_exhausted (Printf.sprintf "wall clock after depth %d" d))
    | Bmc.Engine.Out_of_budget { depth; what } ->
      Some (Policy.Budget_exhausted (Printf.sprintf "%s after depth %d" what depth))
    | Bmc.Engine.Proof _ | Bmc.Engine.Counterexample _ | Bmc.Engine.Bounded_safe _
    | Bmc.Engine.Reasons_stable _ -> None)

let outcome_of_result ?emm_counts ?abstraction ~model_latches ~time_s replay_net
    (result : Bmc.Engine.result) =
  let stats = result.Bmc.Engine.stats in
  let emm_saved_v, emm_saved_c =
    match emm_counts with
    | Some c -> (c.Emm.saved_vars, c.Emm.saved_clauses)
    | None -> (0, 0)
  in
  {
    conclusion = conclusion_of_result replay_net result;
    time_s;
    solve_time_s = stats.Bmc.Engine.solve_time;
    (* The EMM hooks run inside the engine's encode span, so its
       [encode_time] already includes [Emm.encode_time_s]. *)
    encode_time_s = stats.Bmc.Engine.encode_time;
    memory_mb = stats.Bmc.Engine.peak_memory_mb;
    model_latches;
    model_vars = stats.Bmc.Engine.num_vars;
    model_clauses = stats.Bmc.Engine.num_clauses;
    vars_saved = stats.Bmc.Engine.vars_saved + emm_saved_v;
    clauses_saved = stats.Bmc.Engine.clauses_saved + emm_saved_c;
    emm_counts;
    abstraction;
    solver_stats = Some stats.Bmc.Engine.solver_stats;
    certificate = result.Bmc.Engine.certificate;
    proof_steps = stats.Bmc.Engine.proof_steps;
    error = error_of_result result;
    degradations = [];
    cache = Cache_off;
    cert_artifact = result.Bmc.Engine.artifact;
  }

let num_latches net = List.length (Netlist.latches net)

(* Where to dump this run's DRAT derivation, when [options.proof_dir] asks
   for one.  The directory is created on demand. *)
let proof_file_of options ~method_ ~property =
  match options.proof_dir with
  | None -> None
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let sanitize s =
      String.map (fun c ->
          match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
        s
    in
    Some
      (Filename.concat dir
         (Printf.sprintf "%s-%s.drat" (sanitize property) (method_to_string method_)))

let rec verify_uncached ?(options = default_options) ~method_ net ~property =
  Obs.span "verify"
    ~attrs:
      [
        ("method", Obs.Str (method_to_string method_));
        ("property", Obs.Str property);
      ]
    (fun () ->
  let t0 = Obs.now () in
  let elapsed () = Obs.now () -. t0 in
  let proof_file = proof_file_of options ~method_ ~property in
  match method_ with
  | Emm_bmc ->
    let result, counts =
      Emm.check ~config:(engine_config ?proof_file options) net ~property
    in
    outcome_of_result ~emm_counts:counts ~model_latches:(num_latches net)
      ~time_s:(elapsed ()) net result
  | Emm_falsify ->
    let result, counts =
      Emm.check ~config:(engine_config ~proof_checks:false ?proof_file options) net
        ~property
    in
    outcome_of_result ~emm_counts:counts ~model_latches:(num_latches net)
      ~time_s:(elapsed ()) net result
  | Explicit_bmc ->
    let expanded = Explicitmem.expand net in
    let result =
      Bmc.Engine.check ~config:(engine_config ?proof_file options) expanded ~property
    in
    outcome_of_result ~model_latches:(num_latches expanded) ~time_s:(elapsed ())
      expanded result
  | Abstract_bmc ->
    (* Memory read data left entirely unconstrained: cheap, but
       counterexamples may be spurious (checked by replay). *)
    let result =
      Bmc.Engine.check ~config:(engine_config ?proof_file options) net ~property
    in
    outcome_of_result ~model_latches:(num_latches net) ~time_s:(elapsed ()) net result
  | Emm_pba -> verify_pba ~options ~use_emm:true net ~property ~t0
  | Explicit_pba ->
    let expanded = Explicitmem.expand net in
    verify_pba ~options ~use_emm:false expanded ~property ~t0
  | Bdd_reach ->
    let expanded = Explicitmem.expand net in
    let r =
      Bddmc.check ~max_nodes:options.max_bdd_nodes ~max_steps:options.max_depth
        expanded ~property
    in
    let conclusion, error =
      match r.Bddmc.verdict with
      | Bddmc.Safe steps -> (Proved { depth = steps; induction = false }, None)
      | Bddmc.Unsafe steps ->
        (Falsified { depth = steps; trace = None; genuine = None }, None)
      | Bddmc.Node_limit ->
        ( Inconclusive "BDD node limit exceeded",
          Some (Policy.Budget_exhausted "BDD node limit") )
      | Bddmc.Step_limit n -> (Inconclusive (Printf.sprintf "BDD step limit (%d)" n), None)
    in
    {
      conclusion;
      time_s = elapsed ();
      solve_time_s = r.Bddmc.time;
      encode_time_s = 0.0;
      memory_mb = float_of_int (r.Bddmc.peak_nodes * 40) /. 1e6;
      model_latches = num_latches expanded;
      model_vars = 2 * num_latches expanded;
      model_clauses = 0;
      vars_saved = 0;
      clauses_saved = 0;
      emm_counts = None;
      abstraction = None;
      solver_stats = None;
      certificate = Cert.Unchecked "bdd engine produces no certificate";
      proof_steps = 0;
      error;
      degradations = [];
      cache = Cache_off;
      cert_artifact = None;
    })

and verify_pba ~options ~use_emm net ~property ~t0 =
  let elapsed () = Obs.now () -. t0 in
  match
    Pba.discover ~max_depth:options.max_depth ~stability:options.stability
      ?deadline:(deadline_of options) ~use_emm net ~property
  with
  | Either.Right verdict ->
    (* Discovery itself concluded. *)
    let result =
      { Bmc.Engine.verdict;
        stats =
          {
            Bmc.Engine.depths_completed = 0;
            solve_time = 0.0;
            encode_time = 0.0;
            cert_time_s = 0.0;
            proof_steps = 0;
            num_vars = 0;
            num_clauses = 0;
            num_conflicts = 0;
            vars_saved = 0;
            clauses_saved = 0;
            peak_memory_mb = 0.0;
            latch_reasons = [];
            memory_reasons = [];
            reasons_last_changed = 0;
            solver_stats = Satsolver.Solver.empty_stats;
          };
        certificate = Cert.Unchecked "pba discovery verdict";
        artifact = None;
      }
    in
    outcome_of_result ~model_latches:(num_latches net) ~time_s:(elapsed ()) net result
  | Either.Left abstraction ->
    let result, counts =
      Pba.check_with_abstraction ~config:(engine_config options) net abstraction
        ~property
    in
    outcome_of_result ~emm_counts:counts ~abstraction
      ~model_latches:(List.length abstraction.Pba.kept_latches)
      ~time_s:(elapsed ()) net result

(* {2 The verification-result cache} *)

(* Generation tag of the whole encoding stack, part of every cache key.
   Bump on any change to the unroller, the EMM constraint generator, the
   explicit expansion, PBA discovery or the BDD engine that can change a
   verdict for the same (cone, options) pair.
   History: "2" — memory-state distinctness joined the loop-free-path
   termination constraints (proved depths and verdicts can differ from
   generation "1" on latch-poor designs with write ports). *)
let encoding_version = "2"

let cache_config (options : options) =
  if options.cache then Some (Vcache.config ?dir:options.cache_dir ()) else None

(* The verdict-relevant option attributes.  Deliberately absent: [certify]
   (changes the evidence, never the verdict), [timeout_s] / conflict and
   learnt budgets (runs they cut short carry a typed error and are never
   cached; runs they don't cut short are identical), [domains] /
   [share_clauses] (a portfolio race returns the same verdict), [proof_dir]. *)
let cache_attrs options ~method_ =
  let base =
    [
      ("engine", method_to_string method_);
      ("max_depth", string_of_int options.max_depth);
      ("encoder", encoding_version);
    ]
  in
  match method_ with
  | Emm_pba | Explicit_pba -> ("stability", string_of_int options.stability) :: base
  | Bdd_reach -> ("max_bdd_nodes", string_of_int options.max_bdd_nodes) :: base
  | Emm_bmc | Emm_falsify | Explicit_bmc | Abstract_bmc -> base

let cone_of net ~property =
  match Netlist.find_property net property with
  | root -> Some (Netlist.cone_signature net root)
  | exception _ -> None

let cache_key options ~method_ net ~property =
  Option.map
    (fun cone -> Vcache.Key.make ~cone ~attrs:(cache_attrs options ~method_))
    (cone_of net ~property)

(* Is this outcome safe to persist?  Only verdicts that are deterministic
   functions of (cone, key attributes): proofs, genuine counterexamples with
   their trace, and honest bound-exhausted inconclusives.  Anything carrying
   a typed error — timeouts, resource budgets, dead workers, refuted
   certificates — depends on machine load or luck and is never cached. *)
let entry_of_outcome options ~method_ (o : outcome) =
  if o.error <> None then None
  else
    let unsat_payload =
      match o.cert_artifact with
      | Some a -> Vcache.Drat_payload a
      | None -> Vcache.No_payload
    in
    let verdict_payload =
      match o.conclusion with
      | Proved { depth; induction } ->
        Some (Vcache.Proved { depth; induction }, unsat_payload)
      | Falsified { depth; trace = Some t; genuine } when genuine <> Some false ->
        Some (Vcache.Falsified { depth }, Vcache.Trace_payload t)
      | Falsified _ -> None
      | Inconclusive reason ->
        Some (Vcache.Bounded { depth = options.max_depth; reason }, unsat_payload)
    in
    Option.map
      (fun (e_verdict, e_payload) ->
        {
          Vcache.e_method = method_to_string method_;
          e_verdict;
          e_time_s = o.time_s;
          e_solve_time_s = o.solve_time_s;
          e_model_vars = o.model_vars;
          e_model_clauses = o.model_clauses;
          e_model_latches = o.model_latches;
          e_cert = Cert.label o.certificate;
          e_created = Unix.gettimeofday ();
          e_payload;
        })
      verdict_payload

(* A loaded entry is evidence, not gospel: [Stale] evidence contradicts the
   live design (entry removed, solved fresh); [Unusable] evidence cannot
   satisfy the caller's certification demand (entry kept, solved fresh). *)
type hit = Hit of outcome | Stale | Unusable

let outcome_of_entry ~certify ~t0 net ~property (e : Vcache.entry) =
  let base conclusion certificate proof_steps =
    {
      conclusion;
      time_s = Obs.now () -. t0;
      solve_time_s = 0.0;
      encode_time_s = 0.0;
      memory_mb = 0.0;
      model_latches = e.Vcache.e_model_latches;
      model_vars = e.Vcache.e_model_vars;
      model_clauses = e.Vcache.e_model_clauses;
      vars_saved = 0;
      clauses_saved = 0;
      emm_counts = None;
      abstraction = None;
      solver_stats = None;
      certificate;
      proof_steps;
      error = None;
      degradations = [];
      cache = Cache_hit;
      cert_artifact = None;
    }
  in
  let uncertified =
    Cert.Unchecked (Printf.sprintf "cache hit (recorded: %s)" e.Vcache.e_cert)
  in
  (* Proofs and bound-exhausted answers rest on UNSAT queries: accept as-is
     when the caller does not demand certification, otherwise re-run the
     independent DRAT checker over the stored evidence. *)
  let unsat_backed conclusion =
    if not certify then Hit (base conclusion uncertified 0)
    else
      match e.Vcache.e_payload with
      | Vcache.Drat_payload a -> (
        match
          Cert.Drat.check ~original:a.Bmc.Engine.ca_original
            ~proof:a.Bmc.Engine.ca_proof ~obligations:a.Bmc.Engine.ca_obligations ()
        with
        | Cert.Drat.Valid r ->
          Hit (base conclusion (Cert.Certified Cert.Drat_checked) r.Cert.Drat.steps)
        | Cert.Drat.Invalid _ -> Stale
        | exception _ -> Stale)
      | Vcache.No_payload | Vcache.Trace_payload _ -> Unusable
  in
  match e.Vcache.e_verdict with
  | Vcache.Proved { depth; induction } -> unsat_backed (Proved { depth; induction })
  | Vcache.Bounded { reason; _ } -> unsat_backed (Inconclusive reason)
  | Vcache.Falsified { depth } -> (
    match e.Vcache.e_payload with
    | Vcache.Trace_payload t -> (
      (* A counterexample self-validates: replay it on the live design.  A
         trace recorded against an isomorphic-but-renamed design fails the
         replay and degrades to a miss — never to a wrong verdict. *)
      let t = { t with Bmc.Trace.property } in
      if certify then
        match Bmc.Trace.certify net t with
        | Cert.Certified _ as c ->
          Hit (base (Falsified { depth; trace = Some t; genuine = Some true }) c 0)
        | Cert.Refuted _ | Cert.Unchecked _ -> Stale
        | exception _ -> Stale
      else
        match Bmc.Trace.replay net t with
        | true ->
          Hit
            (base
               (Falsified { depth; trace = Some t; genuine = Some true })
               uncertified 0)
        | false -> Stale
        | exception _ -> Stale)
    | Vcache.No_payload | Vcache.Drat_payload _ -> Stale)

let verify ?(options = default_options) ~method_ net ~property =
  (* The artifact exists to feed the store; never let it escape (outcomes
     cross process boundaries in the worker pools). *)
  let finish o = { o with cert_artifact = None } in
  let uncached status =
    finish { (verify_uncached ~options ~method_ net ~property) with cache = status }
  in
  match cache_config options with
  | None -> uncached Cache_off
  | Some cfg -> (
    let t0 = Obs.now () in
    match cache_key options ~method_ net ~property with
    | None -> uncached Cache_off
    | Some key -> (
      let solve_and_store () =
        let o = verify_uncached ~options ~method_ net ~property in
        (match entry_of_outcome options ~method_ o with
        | Some entry -> Vcache.store cfg key entry
        | None -> ());
        finish { o with cache = Cache_miss }
      in
      match Vcache.load cfg key with
      | None -> solve_and_store ()
      | Some e -> (
        match outcome_of_entry ~certify:options.certify ~t0 net ~property e with
        | Hit o -> o
        | Stale ->
          Obs.counter_add "vcache.stale" 1;
          Vcache.remove cfg key;
          solve_and_store ()
        | Unusable ->
          Obs.counter_add "vcache.uncertifiable_hits" 1;
          solve_and_store ())))

(* {2 Parallel fan-out} *)

(* The slot outcome of a worker that never produced one: crashed, ran out of
   memory, was SIGKILLed by the job deadline or cancelled by a portfolio
   winner.  The elapsed wall clock is the worker's partial telemetry. *)
let killed_outcome ~elapsed_s msg =
  {
    conclusion = Inconclusive ("worker killed: " ^ msg);
    time_s = elapsed_s;
    solve_time_s = 0.0;
    encode_time_s = 0.0;
    memory_mb = 0.0;
    model_latches = 0;
    model_vars = 0;
    model_clauses = 0;
    vars_saved = 0;
    clauses_saved = 0;
    emm_counts = None;
    abstraction = None;
    solver_stats = None;
    certificate = Cert.Unchecked "worker killed";
    proof_steps = 0;
    error = Some (Policy.Worker_killed msg);
    degradations = [];
    cache = Cache_off;
    cert_artifact = None;
  }

let is_infix ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* Map a worker-pool failure onto the policy taxonomy.  A child that died of
   a signal, a nonzero exit, out-of-memory or a stack overflow is a killed
   worker (retryable); an exception escaping the engine — typically the
   encoder — is an encode error (not retryable, fall through). *)
let error_of_failure (f : Parallel.failure) =
  match f.Parallel.reason with
  | Parallel.Timed_out d ->
    Policy.Budget_exhausted (Printf.sprintf "worker exceeded %.1fs wall-clock deadline" d)
  | Parallel.Cancelled -> Policy.Worker_killed "cancelled"
  | Parallel.Protocol why -> Policy.Worker_killed ("protocol: " ^ why)
  | Parallel.Crashed why ->
    (* [Printexc.to_string] spells the built-in exceptions with spaces. *)
    if is_infix ~affix:"Out of memory" why || is_infix ~affix:"Stack overflow" why
    then Policy.Worker_killed why
    else if is_infix ~affix:"uncaught exception" why then Policy.Encode_error why
    else Policy.Worker_killed why

(* Engines already honour [options.timeout_s] internally and return
   [Timed_out]; the hard SIGKILL deadline is a backstop for workers stuck
   outside the solver's periodic deadline checks, so it gets slack. *)
let hard_deadline options job_timeout_s =
  match job_timeout_s with
  | Some _ -> job_timeout_s
  | None -> Option.map (fun t -> (t *. 1.25) +. 5.0) options.timeout_s

let slot_outcome key = function
  | Ok o -> (key, o)
  | Error (f : Parallel.failure) ->
    let o = killed_outcome ~elapsed_s:f.Parallel.elapsed_s (Parallel.failure_message f) in
    (key, { o with error = Some (error_of_failure f) })

(* {2 Policy-driven resilience} *)

(* Narrow the run options to the policy's budgets. *)
let apply_budgets options (b : Policy.budgets) =
  {
    options with
    timeout_s =
      (match (b.Policy.wall_s, options.timeout_s) with
      | Some w, Some t -> Some (Float.min w t)
      | Some w, None -> Some w
      | None, t -> t);
    max_depth =
      (match b.Policy.max_depth with
      | Some d -> min d options.max_depth
      | None -> options.max_depth);
    conflict_budget =
      (match b.Policy.conflicts with Some _ as c -> c | None -> options.conflict_budget);
    learnt_mb_budget =
      (match b.Policy.learnt_mb with Some _ as m -> m | None -> options.learnt_mb_budget);
  }

(* How one engine attempt feeds the fallback chain: a refuted certificate or
   a resource-exhausted verdict is a failure (fall through / retry); a
   conclusive verdict wins; anything else is an honest inconclusive kept as
   the answer of last resort. *)
let classify_outcome conclusive o =
  match o.error with
  | Some e -> Policy.Failed e
  | None -> if conclusive o then Policy.Done o else Policy.Soft o

let verify_resilient ?(options = default_options) ?(policy = Policy.default) ?inject net
    ~property =
  let t0 = Obs.now () in
  let elapsed () = Obs.now () -. t0 in
  let options = apply_budgets options policy.Policy.budgets in
  let stages =
    match
      List.filter_map
        (fun s -> Result.to_option (method_of_string s))
        policy.Policy.fallback
    with
    | [] -> [ Emm_bmc ]
    | ms -> ms
  in
  let conclusive o =
    match o.conclusion with
    | Proved _ -> true
    | Falsified { genuine = Some false; _ } -> false
    | Falsified _ -> true
    | Inconclusive _ -> false
  in
  let run method_ ~attempt =
    (* One forked worker per attempt: crash isolation, and a hook for the
       fault-injection tests to kill or poison the child. *)
    let results =
      Parallel.map ~jobs:1
        ?job_timeout_s:(hard_deadline options None)
        ~f:(fun () ->
          (match inject with Some f -> f method_ ~attempt | None -> ());
          verify ~options ~method_ net ~property)
        [ () ]
    in
    match results with
    | [ Ok o ] -> classify_outcome conclusive o
    | [ Error f ] -> Policy.Failed (error_of_failure f)
    | _ -> Policy.Failed (Policy.Worker_killed "no worker result")
  in
  let result, events =
    Policy.execute policy ~stages ~stage_name:method_to_string ~run
  in
  match result with
  | Ok o -> { o with degradations = events }
  | Error err ->
    let o = killed_outcome ~elapsed_s:(elapsed ()) (Policy.error_message err) in
    {
      o with
      conclusion = Inconclusive (Policy.error_message err);
      error = Some err;
      degradations = events;
    }

(* Transfer the representative's outcome to a structurally identical
   property.  The verdict transfers by cone isomorphism; the concrete trace
   transfers only when it replays under the duplicate's names (with
   hash-consing, duplicates usually share the very nodes, so it does). *)
let retarget_dup net ~property (o : outcome) =
  Obs.counter_add "vcache.dedup" 1;
  let conclusion =
    match o.conclusion with
    | Falsified { depth; trace = Some t; genuine } -> (
      let t = { t with Bmc.Trace.property } in
      match genuine with
      | Some true ->
        if try Bmc.Trace.replay net t with _ -> false then
          Falsified { depth; trace = Some t; genuine = Some true }
        else Falsified { depth; trace = None; genuine = Some true }
      | g -> Falsified { depth; trace = Some t; genuine = g })
    | c -> c
  in
  { o with conclusion; cache = Cache_dedup }

let verify_many ?(options = default_options) ?(jobs = 1) ?job_timeout_s ?policy ~method_
    net ~properties =
  let verify_one property =
    match policy with
    | None -> verify ~options ~method_ net ~property
    | Some policy -> verify_resilient ~options ~policy net ~property
  in
  (* Intra-batch structural dedup: properties whose cones have identical
     canonical signatures are solved once and the verdict fanned out —
     independent of (and composing with) the persistent cache.  Off under
     [certify] (every property deserves its own checked evidence) and under
     a policy (fallback chains are per-property). *)
  let dedup_on = policy = None && (not options.certify) && List.length properties > 1 in
  let plan =
    let seen = Hashtbl.create 16 in
    List.map
      (fun p ->
        match if dedup_on then cone_of net ~property:p else None with
        | None -> (p, None)
        | Some s -> (
          match Hashtbl.find_opt seen s with
          | Some rep -> (p, Some rep)
          | None ->
            Hashtbl.add seen s p;
            (p, None)))
      properties
  in
  let to_solve = List.filter_map (fun (p, rep) -> if rep = None then Some p else None) plan in
  let solved =
    if jobs <= 1 then List.map (fun property -> (property, verify_one property)) to_solve
    else
      Obs.span "verify_many"
        ~attrs:[ ("jobs", Obs.Int jobs); ("properties", Obs.Int (List.length to_solve)) ]
        (fun () ->
          let pool = Parallel.create ~jobs () in
          Parallel.run
            ?job_timeout_s:
              (match policy with
              | None -> hard_deadline options job_timeout_s
              | Some _ ->
                (* The resilient path forks and deadlines its own attempts; a
                   pool deadline would kill the whole chain mid-fallback. *)
                job_timeout_s)
            pool ~f:verify_one to_solve
          |> List.map2 slot_outcome to_solve)
  in
  List.map
    (fun (p, rep) ->
      match rep with
      | None -> (p, List.assoc p solved)
      | Some rep -> (p, retarget_dup net ~property:p (List.assoc rep solved)))
    plan

(* {2 Incremental re-verification} *)

type delta_status = Delta_unchanged | Delta_changed | Delta_added

let delta_status_to_string = function
  | Delta_unchanged -> "unchanged"
  | Delta_changed -> "changed"
  | Delta_added -> "added"

let verify_delta ?(options = default_options) ?(jobs = 1) ?job_timeout_s ~method_ ~before
    net ~properties =
  let statuses =
    List.map
      (fun p ->
        match (cone_of before ~property:p, cone_of net ~property:p) with
        | None, _ -> (p, Delta_added)
        | Some _, None -> (p, Delta_changed)
        | Some old_sig, Some new_sig ->
          (p, if String.equal old_sig new_sig then Delta_unchanged else Delta_changed))
      properties
  in
  let outcomes = verify_many ~options ~jobs ?job_timeout_s ~method_ net ~properties in
  List.map2 (fun (p, st) (_, o) -> (p, st, o)) statuses outcomes

(* A conclusive verdict settles the property: a proof, or a counterexample
   not known to be spurious.  [Inconclusive] and replay-refuted
   counterexamples (the abstract engine's speciality) leave the race open. *)
let conclusive o =
  match o.conclusion with
  | Proved _ -> true
  | Falsified { genuine = Some false; _ } -> false
  | Falsified _ -> true
  | Inconclusive _ -> false

let default_portfolio = [ Emm_bmc; Explicit_bmc; Bdd_reach ]

let portfolio ?(options = default_options) ?(methods = default_portfolio) ?job_timeout_s
    ?(policy = Policy.default) net ~property =
  if methods = [] then invalid_arg "Emmver.portfolio: empty method list";
  let race ms =
    Obs.span "race"
      ~attrs:
        [ ("methods", Obs.Str (String.concat "," (List.map method_to_string ms))) ]
      (fun () ->
        let pool = Parallel.create ~jobs:(List.length ms) () in
        Parallel.race
          ?job_timeout_s:(hard_deadline options job_timeout_s)
          pool
          ~f:(fun method_ -> verify ~options ~method_ net ~property)
          ~conclusive ms)
  in
  let winner, results = race methods in
  let slots = List.combine methods results in
  (* When nobody won and some workers died, grant the dead engines one
     re-race per the policy's worker-death retry allowance. *)
  let dead =
    List.filter_map
      (fun (m, r) ->
        match r with
        | Error ({ Parallel.reason = Parallel.Crashed _ | Parallel.Protocol _; _ } as f)
          -> Some (m, f)
        | Ok _ | Error _ -> None)
      slots
  in
  let winner, slots, events =
    match (winner, dead) with
    | None, _ :: _ when policy.Policy.worker_retries > 0 ->
      let events =
        List.map
          (fun (m, f) ->
            {
              Policy.ev_stage = method_to_string m;
              ev_attempt = 0;
              ev_error = error_of_failure f;
              ev_elapsed_s = f.Parallel.elapsed_s;
            })
          dead
      in
      let dead_methods = List.map fst dead in
      let winner2, results2 = race dead_methods in
      let retried = List.combine dead_methods results2 in
      let slots =
        List.map
          (fun (m, r) ->
            match List.assoc_opt m retried with Some r2 -> (m, r2) | None -> (m, r))
          slots
      in
      let winner2 =
        Option.map (fun (i, o) -> (List.nth dead_methods i, o)) winner2
      in
      (winner2, slots, events)
    | Some (i, o), _ -> (Some (List.nth methods i, o), slots, [])
    | _ -> (None, slots, [])
  in
  let outcomes = List.map (fun (m, r) -> slot_outcome m r) slots in
  let win =
    match winner with
    | Some (m, o) -> (m, { o with degradations = events @ o.degradations })
    | None ->
      let m, o = List.hd outcomes in
      (m, { o with degradations = events @ o.degradations })
  in
  (win, outcomes)

let pp_conclusion ppf = function
  | Proved { depth; induction } ->
    Format.fprintf ppf "proved (%s at depth %d)"
      (if induction then "induction" else "diameter/fixpoint")
      depth
  | Falsified { depth; genuine; _ } ->
    Format.fprintf ppf "falsified at depth %d%s" depth
      (match genuine with
      | Some true -> " (genuine counterexample)"
      | Some false -> " (SPURIOUS counterexample)"
      | None -> "")
  | Inconclusive msg -> Format.fprintf ppf "inconclusive: %s" msg

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%a@,time %.2fs (solver %.2fs, encode %.2fs), %.1f MB, model: %d latches, \
     %d vars, %d clauses (saved %d vars, %d clauses)@]"
    pp_conclusion o.conclusion o.time_s o.solve_time_s o.encode_time_s o.memory_mb
    o.model_latches o.model_vars o.model_clauses o.vars_saved o.clauses_saved;
  (match o.cache with
  | Cache_off -> ()
  | Cache_miss -> Format.fprintf ppf "@,cache: miss (recorded)"
  | Cache_hit -> Format.fprintf ppf "@,cache: hit"
  | Cache_dedup -> Format.fprintf ppf "@,cache: deduplicated within batch");
  (match o.solver_stats with
  | None -> ()
  | Some s ->
    Format.fprintf ppf
      "@,solver: conflicts=%d decisions=%d props=%d restarts=%d learnt=%d \
       deleted=%d minimised=%d avg-lbd=%.2f"
      s.Satsolver.Solver.conflicts s.decisions s.propagations s.restarts
      s.learnt_clauses s.deleted_clauses s.minimised_lits s.avg_lbd;
    if s.shared_out > 0 || s.shared_in > 0 then
      Format.fprintf ppf " shared-out=%d shared-in=%d" s.shared_out s.shared_in);
  (match o.certificate with
  | Cert.Unchecked _ -> ()
  | c -> Format.fprintf ppf "@,certificate: %a" Cert.pp c);
  List.iter
    (fun ev -> Format.fprintf ppf "@,degraded: %a" Policy.pp_event ev)
    o.degradations
