(* In-process Domain portfolio.  See portfolio.mli for the contract.

   Concurrency discipline: a Solver.t is only ever touched by the one
   domain running its instance.  Cross-domain traffic is limited to (a) the
   mutex-guarded exchange buffer, (b) the stop/winner atomics, and (c) the
   per-slot outcome array, where slot [k] is written only by instance [k]'s
   domain before it terminates and read by the caller after [Domain.join]
   — the join provides the happens-before edge. *)

module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

module Exchange = struct
  type entry = { owner : int; lits : Lit.t list }

  type t = {
    lock : Mutex.t;
    buf : entry array; (* ring: logical position p lives at p mod capacity *)
    capacity : int;
    consumers : int;
    mutable head : int; (* total entries ever admitted *)
    cursors : int array; (* per-consumer read position *)
    mutable published : int;
    mutable dropped : int;
    mutable delivered : int;
  }

  let create ~consumers ~capacity =
    if consumers < 1 || capacity < 1 then invalid_arg "Exchange.create";
    {
      lock = Mutex.create ();
      buf = Array.make capacity { owner = -1; lits = [] };
      capacity;
      consumers;
      head = 0;
      cursors = Array.make consumers 0;
      published = 0;
      dropped = 0;
      delivered = 0;
    }

  let min_cursor t = Array.fold_left min max_int t.cursors

  (* Full means the slowest consumer has not yet read the entry the new one
     would overwrite; the publish is refused rather than losing data, which
     is what makes the exactly-once delivery invariant checkable. *)
  let publish t ~owner lits =
    if owner < 0 || owner >= t.consumers then invalid_arg "Exchange.publish";
    Mutex.protect t.lock (fun () ->
        if t.head - min_cursor t >= t.capacity then begin
          t.dropped <- t.dropped + 1;
          false
        end
        else begin
          t.buf.(t.head mod t.capacity) <- { owner; lits };
          t.head <- t.head + 1;
          t.published <- t.published + 1;
          true
        end)

  let drain t k =
    if k < 0 || k >= t.consumers then invalid_arg "Exchange.drain";
    Mutex.protect t.lock (fun () ->
        let acc = ref [] in
        for p = t.cursors.(k) to t.head - 1 do
          let e = t.buf.(p mod t.capacity) in
          if e.owner <> k then begin
            acc := e.lits :: !acc;
            t.delivered <- t.delivered + 1
          end
        done;
        t.cursors.(k) <- t.head;
        List.rev !acc)

  type stats = { published : int; dropped : int; delivered : int }

  let stats t =
    Mutex.protect t.lock (fun () ->
        { published = t.published; dropped = t.dropped; delivered = t.delivered })
end

type config = {
  domains : int;
  share : bool;
  share_lbd_max : int;
  exchange_capacity : int;
  corrupt_imports : bool;
}

let default_config =
  {
    domains = 2;
    share = true;
    share_lbd_max = 2;
    exchange_capacity = 512;
    corrupt_imports = false;
  }

(* Per-slot race outcome, written by the owning domain only. *)
type outcome = Res of Solver.result | Halted | Failed of exn

type t = {
  cfg : config;
  primary : Solver.t;
  replicas : Solver.t array; (* instances 1 .. domains-1 *)
  exchange : Exchange.t option; (* one buffer for the portfolio's lifetime *)
  mutable pending : (int * Lit.t list) list; (* clause log since last sync, newest first *)
  mutable races : int;
  mutable last_winner : int;
}

(* Diversification tables, indexed by instance number.  Instance 0 (the
   primary) keeps the classic defaults so [domains = 1] measures the true
   sequential baseline. *)
let decay_table = [| 0.95; 0.92; 0.97; 0.90; 0.94; 0.96; 0.91; 0.93 |]
let restart_table = [| 100; 50; 200; 150; 80; 120; 60; 250 |]

let diversify k s =
  Solver.set_var_decay s decay_table.(k mod Array.length decay_table);
  Solver.set_restart_base s restart_table.(k mod Array.length restart_table);
  Solver.set_default_phase s (k land 1 = 1);
  Solver.set_random_seed s (k * 0x9e3779);
  Solver.set_random_phase_freq s 0.01

let create ?(config = default_config) primary =
  if config.domains < 1 then invalid_arg "Portfolio.create: domains < 1";
  if Solver.num_clauses primary > 0 || Solver.num_vars primary > 0 then
    invalid_arg "Portfolio.create: primary solver is not fresh";
  let replicas =
    Array.init (config.domains - 1) (fun i ->
        let s = Solver.create ~cores:(Solver.cores_enabled primary) () in
        diversify (i + 1) s;
        s)
  in
  let exchange =
    if config.share && config.domains > 1 then
      Some
        (Exchange.create ~consumers:config.domains
           ~capacity:config.exchange_capacity)
    else None
  in
  let t =
    { cfg = config; primary; replicas; exchange; pending = []; races = 0; last_winner = -1 }
  in
  Solver.set_clause_listener primary
    (Some (fun tag lits -> t.pending <- (tag, lits) :: t.pending));
  t

let num_instances t = Array.length t.replicas + 1
let instance t k = if k = 0 then t.primary else t.replicas.(k - 1)
let races t = t.races
let winner t = t.last_winner
let winner_solver t = instance t (max 0 t.last_winner)

let exchange_stats t =
  match t.exchange with
  | Some ex -> Exchange.stats ex
  | None -> { Exchange.published = 0; dropped = 0; delivered = 0 }

let merged_stats t =
  let acc = ref Solver.empty_stats in
  for k = 0 to num_instances t - 1 do
    let s = Solver.stats (instance t k) in
    let a = !acc in
    acc :=
      {
        Solver.conflicts = a.Solver.conflicts + s.Solver.conflicts;
        decisions = a.Solver.decisions + s.Solver.decisions;
        propagations = a.Solver.propagations + s.Solver.propagations;
        restarts = a.Solver.restarts + s.Solver.restarts;
        learnt_clauses = a.Solver.learnt_clauses + s.Solver.learnt_clauses;
        deleted_clauses = a.Solver.deleted_clauses + s.Solver.deleted_clauses;
        db_reductions = a.Solver.db_reductions + s.Solver.db_reductions;
        minimised_lits = a.Solver.minimised_lits + s.Solver.minimised_lits;
        avg_lbd =
          (* running weighted mean over learnt clauses *)
          (let n = a.Solver.learnt_clauses + s.Solver.learnt_clauses in
           if n = 0 then 0.0
           else
             ((a.Solver.avg_lbd *. float_of_int a.Solver.learnt_clauses)
             +. (s.Solver.avg_lbd *. float_of_int s.Solver.learnt_clauses))
             /. float_of_int n);
        solve_time_s = a.Solver.solve_time_s +. s.Solver.solve_time_s;
        shared_out = a.Solver.shared_out + s.Solver.shared_out;
        shared_in = a.Solver.shared_in + s.Solver.shared_in;
      }
  done;
  !acc

(* Replay the primary's clause stream into every replica and copy the
   primary's current limits.  Runs on the calling domain, before any racing
   domain is spawned. *)
let sync t =
  let log = List.rev t.pending in
  t.pending <- [];
  let nvars = Solver.num_vars t.primary in
  Array.iter
    (fun r ->
      Solver.ensure_vars r nvars;
      List.iter (fun (tag, lits) -> Solver.add_clause ~tag r lits) log;
      Solver.set_deadline r (Solver.deadline t.primary);
      Solver.set_conflict_budget r (Solver.conflict_budget t.primary);
      Solver.set_learnt_budget_mb r (Solver.learnt_budget_mb t.primary);
      Solver.set_proof_logging r (Solver.proof_logging_enabled t.primary))
    t.replicas

let result_name = function Solver.Sat -> "SAT" | Solver.Unsat -> "UNSAT"

let solve ?(assumptions = []) t =
  sync t;
  t.races <- t.races + 1;
  let n = num_instances t in
  if n = 1 then begin
    t.last_winner <- 0;
    Solver.solve ~assumptions t.primary
  end
  else begin
    let stop = Atomic.make false in
    let winner = Atomic.make (-1) in
    (* Imports would invalidate a DRAT log, so sharing pauses while proof
       logging is on; [Solver.import_clauses] also refuses on its own. *)
    let exchange =
      if Solver.proof_logging_enabled t.primary then None else t.exchange
    in
    Array.init n (instance t)
    |> Array.iteri (fun k s ->
           Solver.set_stop s (Some stop);
           match exchange with
           | Some ex ->
             let lbd_max = t.cfg.share_lbd_max in
             Solver.set_share_callback s
               (Some
                  (fun ~lbd lits ->
                    lbd <= lbd_max && Exchange.publish ex ~owner:k lits));
             let corrupt = t.cfg.corrupt_imports in
             Solver.set_import_source s
               (Some
                  (fun () ->
                    let cls = Exchange.drain ex k in
                    if corrupt then
                      List.map
                        (function [] -> [] | l :: rest -> Lit.negate l :: rest)
                        cls
                    else cls))
           | None -> ());
    let outcomes = Array.make n Halted in
    let run_instance k s =
      (match Solver.solve ~assumptions s with
      | r ->
        outcomes.(k) <- Res r;
        (* First finisher wins and cancels the rest.  A loser that was
           already past its last stop check may still finish: its result is
           kept for the agreement check below. *)
        if Atomic.compare_and_set winner (-1) k then Atomic.set stop true
      | exception Solver.Stopped -> outcomes.(k) <- Halted
      | exception e ->
        (* Do not cancel the race: the peers run under the same copied
           deadline and budgets and will halt on their own, and one of them
           may still beat the limit that killed this instance. *)
        outcomes.(k) <- Failed e);
      ()
    in
    let spawn k =
      let token = Obs.domain_fork () in
      Domain.spawn (fun () ->
          Obs.domain_scope token (fun () ->
              Obs.span "portfolio.instance"
                ~attrs:[ ("k", Obs.Int k) ]
                (fun () -> run_instance k (instance t k))))
    in
    let domains = Array.init (n - 1) (fun i -> spawn (i + 1)) in
    Obs.span "portfolio.instance"
      ~attrs:[ ("k", Obs.Int 0) ]
      (fun () -> run_instance 0 t.primary);
    let worker_rows = Array.map (fun d -> snd (Domain.join d)) domains in
    Array.iter Obs.ingest_current worker_rows;
    Array.init n (instance t)
    |> Array.iter (fun s ->
           Solver.set_stop s None;
           Solver.set_share_callback s None;
           Solver.set_import_source s None);
    let w = Atomic.get winner in
    if w < 0 then begin
      t.last_winner <- -1;
      (* No instance finished: every slot is Halted (impossible — nobody
         set the stop flag) or Failed; surface the first failure. *)
      let first_failure =
        Array.fold_left
          (fun acc o ->
            match (acc, o) with None, Failed e -> Some e | _ -> acc)
          None outcomes
      in
      match first_failure with
      | Some e -> raise e
      | None -> failwith "portfolio: race ended with no result and no failure"
    end
    else begin
      t.last_winner <- w;
      let result = match outcomes.(w) with Res r -> r | _ -> assert false in
      (* Soundness tripwire: all instances solve the same formula under the
         same assumptions, so every finisher must agree. *)
      Array.iteri
        (fun k o ->
          match o with
          | Res r when r <> result ->
            failwith
              (Printf.sprintf
                 "portfolio: instance %d answered %s but winner %d answered %s"
                 k (result_name r) w (result_name result))
          | Res _ | Halted | Failed _ -> ())
        outcomes;
      (* Make the primary answer-shaped regardless of who won, so callers
         keep reading models off the solver they fed. *)
      if w <> 0 && result = Solver.Sat then
        Solver.adopt_model t.primary (Solver.raw_model (instance t w));
      result
    end
  end
