(* Unit and property tests for the CDCL solver, checked against a brute-force
   truth-table reference on small instances. *)

open Satsolver

(* The forward RUP checker moved into the certification library when proof
   logging grew into full DRAT; the solver tests keep exercising it under
   its old name. *)
module Checker = Cert.Drat

let lit v sign = Lit.of_var v sign

(* Reference: does an assignment drawn from the bits of [m] satisfy all
   clauses? *)
let assignment_satisfies m clauses =
  List.for_all
    (List.exists (fun l ->
         let bit = (m lsr Lit.var l) land 1 = 1 in
         if Lit.sign l then bit else not bit))
    clauses

let brute_force_sat num_vars clauses =
  let rec loop m = m < 1 lsl num_vars && (assignment_satisfies m clauses || loop (m + 1)) in
  loop 0

let solve_clauses ?(num_vars = 0) clauses =
  let s = Solver.create () in
  let nv =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc c)
      num_vars clauses
  in
  Solver.ensure_vars s nv;
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

(* A solver loaded with [clauses] (over their variables), not yet solved. *)
let solver_of clauses =
  let s = Solver.create () in
  Solver.ensure_vars s
    (List.fold_left
       (fun acc c -> List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc c)
       0 clauses);
  List.iter (Solver.add_clause s) clauses;
  s

let check_model s clauses =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "clause satisfied by model" true
        (List.exists (Solver.value s) c))
    clauses

(* {2 Unit tests} *)

let test_trivial_sat () =
  let clauses = [ [ lit 0 true; lit 1 true ]; [ lit 0 false ] ] in
  let s, r = solve_clauses clauses in
  Alcotest.(check bool) "sat" true (r = Solver.Sat);
  check_model s clauses;
  Alcotest.(check bool) "b is true" true (Solver.value_var s 1)

let test_trivial_unsat () =
  let clauses = [ [ lit 0 true ]; [ lit 0 false ] ] in
  let _, r = solve_clauses clauses in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat)

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.(check bool) "not okay" false (Solver.okay s);
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_empty_formula () =
  let s = Solver.create () in
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_tautology_dropped () =
  let s = Solver.create () in
  Solver.ensure_vars s 1;
  Solver.add_clause s [ lit 0 true; lit 0 false ];
  Alcotest.(check int) "no clause stored" 0 (Solver.num_clauses s);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

(* Pigeonhole principle PHP(n+1, n): unsatisfiable, stresses learning. *)
let pigeonhole_clauses pigeons holes =
  let var p h = (p * holes) + h in
  let at_least =
    List.init pigeons (fun p -> List.init holes (fun h -> lit (var p h) true))
  in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ lit (var p1 h) false; lit (var p2 h) false ]
                else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  at_least @ at_most

let test_pigeonhole_unsat () =
  let clauses = pigeonhole_clauses 5 4 in
  let _, r = solve_clauses clauses in
  Alcotest.(check bool) "php(5,4) unsat" true (r = Solver.Unsat)

let test_pigeonhole_sat () =
  let clauses = pigeonhole_clauses 4 4 in
  let s, r = solve_clauses clauses in
  Alcotest.(check bool) "php(4,4) sat" true (r = Solver.Sat);
  check_model s clauses

let test_assumptions_basic () =
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  Solver.add_clause s [ lit 0 false; lit 1 true ];
  (* a -> b *)
  Alcotest.(check bool) "sat under a" true
    (Solver.solve ~assumptions:[ lit 0 true ] s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.value_var s 1);
  Solver.add_clause s [ lit 1 false ];
  Alcotest.(check bool) "unsat under a" true
    (Solver.solve ~assumptions:[ lit 0 true ] s = Solver.Unsat);
  let failed = Solver.failed_assumptions s in
  Alcotest.(check bool) "a among failed" true (List.mem (lit 0 true) failed);
  Alcotest.(check bool) "sat without assumptions" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a is false now" false (Solver.value_var s 0)

let test_assumptions_conflicting () =
  let s = Solver.create () in
  Solver.ensure_vars s 1;
  let r = Solver.solve ~assumptions:[ lit 0 true; lit 0 false ] s in
  Alcotest.(check bool) "contradictory assumptions" true (r = Solver.Unsat);
  Alcotest.(check bool) "still okay" true (Solver.okay s);
  Alcotest.(check bool) "recovers" true (Solver.solve s = Solver.Sat)

let test_incremental_reuse () =
  let s = Solver.create () in
  Solver.ensure_vars s 8;
  Solver.add_clause s [ lit 0 true; lit 1 true ];
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ lit 0 false ];
  Alcotest.(check bool) "sat 2" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b" true (Solver.value_var s 1);
  Solver.add_clause s [ lit 1 false ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "not okay" false (Solver.okay s)

let test_unsat_core_subset () =
  (* Clauses 0..2 form the contradiction; 3..4 are irrelevant. *)
  let s = Solver.create () in
  Solver.ensure_vars s 5;
  Solver.add_clause s ~tag:0 [ lit 0 true ];
  Solver.add_clause s ~tag:1 [ lit 0 false; lit 1 true ];
  Solver.add_clause s ~tag:2 [ lit 1 false ];
  Solver.add_clause s ~tag:3 [ lit 2 true; lit 3 true ];
  Solver.add_clause s ~tag:4 [ lit 4 true ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let tags = Solver.unsat_core_tags s in
  Alcotest.(check bool) "contains chain" true
    (List.mem 0 tags && List.mem 1 tags && List.mem 2 tags);
  Alcotest.(check bool) "excludes junk" true
    (not (List.mem 3 tags) && not (List.mem 4 tags))

let test_unsat_core_under_assumptions () =
  let s = Solver.create () in
  Solver.ensure_vars s 4;
  Solver.add_clause s ~tag:10 [ lit 0 false; lit 1 true ];
  Solver.add_clause s ~tag:11 [ lit 1 false; lit 2 true ];
  Solver.add_clause s ~tag:12 [ lit 2 false ];
  Solver.add_clause s ~tag:13 [ lit 3 true ];
  let r = Solver.solve ~assumptions:[ lit 0 true ] s in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  let tags = Solver.unsat_core_tags s in
  Alcotest.(check bool) "implication chain in core" true
    (List.mem 10 tags && List.mem 11 tags && List.mem 12 tags);
  Alcotest.(check bool) "irrelevant unit excluded" true (not (List.mem 13 tags))

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let p = Dimacs.parse_string text in
  Alcotest.(check int) "vars" 3 p.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length p.Dimacs.clauses);
  let p2 = Dimacs.parse_string (Dimacs.to_string p) in
  Alcotest.(check bool) "roundtrip" true (p.Dimacs.clauses = p2.Dimacs.clauses);
  let s = Solver.create () in
  Dimacs.load_into s p;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

(* {2 Refutation checking (independent RUP validation)} *)

let test_checker_validates_pigeonhole () =
  let clauses = pigeonhole_clauses 5 4 in
  let s = Solver.create () in
  Solver.set_proof_logging s true;
  let nv =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc c)
      0 clauses
  in
  Solver.ensure_vars s nv;
  List.iter (Solver.add_clause s) clauses;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "refutation validates" true
    (Checker.verify ~original:clauses ~derivation:(Solver.proof_log s))

let test_checker_rejects_bogus_derivation () =
  (* A clause that is not implied must fail the RUP check. *)
  let clauses = [ [ lit 0 true; lit 1 true ] ] in
  Alcotest.(check bool) "non-implied clause rejected" false
    (Checker.clause_is_rup clauses [ lit 0 true ]);
  Alcotest.(check bool) "implied clause accepted" true
    (Checker.clause_is_rup
       [ [ lit 0 true ]; [ lit 0 false; lit 1 true ] ]
       [ lit 1 true ])

let test_checker_rejects_sat_set () =
  Alcotest.(check bool) "satisfiable set does not verify" false
    (Checker.verify ~original:[ [ lit 0 true ] ] ~derivation:[])

let prop_checker_validates_random_unsat =
  let gen =
    QCheck2.Gen.(
      let gen_lit = map2 (fun v s -> lit v s) (int_bound 6) bool in
      list_size (int_range 5 40) (list_size (int_range 1 3) gen_lit))
  in
  QCheck2.Test.make ~count:150 ~name:"refutations of random UNSAT instances validate"
    gen
    (fun clauses ->
      let s = Solver.create () in
      Solver.set_proof_logging s true;
      Solver.ensure_vars s 7;
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Sat -> true
      | Solver.Unsat ->
        Checker.verify ~original:clauses ~derivation:(Solver.proof_log s))

(* Core re-verification: for known UNSAT instances, the extracted core —
   taken alone — must itself admit a solver refutation that passes the RUP
   checker.  Guards the premise bookkeeping through the LBD / recursive-
   minimisation machinery: an unsound core would either be satisfiable or
   fail verification. *)
let core_reverifies clauses =
  let arr = Array.of_list clauses in
  let s = Solver.create () in
  let nv =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc c)
      0 clauses
  in
  Solver.ensure_vars s nv;
  Array.iteri (fun i c -> Solver.add_clause s ~tag:i c) arr;
  match Solver.solve s with
  | Solver.Sat -> Alcotest.fail "expected UNSAT instance"
  | Solver.Unsat ->
    let core = List.map (fun t -> arr.(t)) (Solver.unsat_core_tags s) in
    let s2 = Solver.create () in
    Solver.set_proof_logging s2 true;
    Solver.ensure_vars s2 nv;
    List.iter (Solver.add_clause s2) core;
    Alcotest.(check bool) "core is unsat" true (Solver.solve s2 = Solver.Unsat);
    Alcotest.(check bool) "core refutation passes the checker" true
      (Checker.verify ~original:core ~derivation:(Solver.proof_log s2))

let test_known_unsat_cores_verify () =
  core_reverifies (pigeonhole_clauses 5 4);
  core_reverifies (pigeonhole_clauses 6 5);
  (* XOR chain contradiction: x0, x0->x1, x1->x2, x2->~x0-ish cycle. *)
  core_reverifies
    [
      [ lit 0 true ];
      [ lit 0 false; lit 1 true ];
      [ lit 1 false; lit 2 true ];
      [ lit 2 false; lit 0 false ];
      (* irrelevant satisfiable padding that must not break the core *)
      [ lit 3 true; lit 4 true ];
      [ lit 4 false; lit 5 true ];
    ];
  (* Forces both minimisation and root-level resolution: units plus chains. *)
  core_reverifies
    [
      [ lit 0 true; lit 1 true; lit 2 true ];
      [ lit 0 false; lit 3 true ];
      [ lit 1 false; lit 3 true ];
      [ lit 2 false; lit 3 true ];
      [ lit 3 false; lit 4 true ];
      [ lit 3 false; lit 4 false ];
    ]

let test_dimacs_file_roundtrip () =
  let p = Dimacs.parse_string "p cnf 4 3\n1 -2 0\n2 3 -4 0\n4 0\n" in
  let path = Filename.temp_file "emmver_test" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Dimacs.to_string p);
      close_out oc;
      let p2 = Dimacs.parse_file path in
      Alcotest.(check int) "vars survive the file" p.Dimacs.num_vars p2.Dimacs.num_vars;
      Alcotest.(check bool) "clauses survive the file" true
        (p.Dimacs.clauses = p2.Dimacs.clauses);
      let s = Solver.create () in
      Dimacs.load_into s p2;
      Alcotest.(check bool) "solvable" true (Solver.solve s = Solver.Sat))

(* Naive DPLL oracle: unit propagation + first-unassigned-variable split.
   Deliberately simple — shares no code or heuristics with the CDCL path. *)
let rec dpll clauses =
  if List.exists (( = ) []) clauses then false
  else
    match clauses with
    | [] -> true
    | _ ->
      let unit_lit = List.find_map (function [ l ] -> Some l | _ -> None) clauses in
      let branch l =
        let neg = Lit.negate l in
        dpll
          (List.filter_map
             (fun c ->
               if List.mem l c then None
               else Some (List.filter (fun x -> x <> neg) c))
             clauses)
      in
      (match unit_lit with
      | Some l -> branch l
      | None ->
        let l = List.hd (List.hd clauses) in
        branch l || branch (Lit.negate l))

(* Random 3-SAT clauses drawn from [st]. *)
let random_3sat st ~num_vars ~num_clauses =
  List.init num_clauses (fun _ ->
      (* three distinct variables per clause *)
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let v = Random.State.int st num_vars in
          if List.mem v acc then pick acc else pick (v :: acc)
      in
      List.map (fun v -> lit v (Random.State.bool st)) (pick []))

let test_random_3sat_vs_dpll () =
  (* Seeded random 3-SAT around the phase-transition ratio, up to 20 vars:
     the CDCL answer must match the DPLL oracle on every instance. *)
  for seed = 0 to 39 do
    let st = Random.State.make [| 0xacc1; seed |] in
    let num_vars = 5 + Random.State.int st 16 in
    let num_clauses = int_of_float (4.2 *. float_of_int num_vars) in
    let clauses = random_3sat st ~num_vars ~num_clauses in
    let s, r = solve_clauses ~num_vars clauses in
    let expected = dpll clauses in
    (match r with
    | Solver.Sat ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: oracle agrees (sat)" seed)
        true expected;
      check_model s clauses
    | Solver.Unsat ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: oracle agrees (unsat)" seed)
        false expected)
  done

let test_stats_sanity () =
  let s = Solver.create () in
  let zero = Solver.stats s in
  Alcotest.(check int) "fresh solver: no conflicts" 0 zero.Solver.conflicts;
  Alcotest.(check (float 0.0)) "empty_stats avg lbd" 0.0 Solver.empty_stats.Solver.avg_lbd;
  List.iter (Solver.add_clause s)
    (let nv =
       List.fold_left
         (fun acc c -> List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc c)
         0 (pigeonhole_clauses 6 5)
     in
     Solver.ensure_vars s nv;
     pigeonhole_clauses 6 5);
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts counted" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "propagations counted" true (st.Solver.propagations > 0);
  Alcotest.(check bool) "learnt clauses counted" true (st.Solver.learnt_clauses > 0);
  Alcotest.(check bool) "avg lbd positive" true (st.Solver.avg_lbd > 0.0);
  Alcotest.(check bool) "solve time accumulated" true (st.Solver.solve_time_s >= 0.0);
  Alcotest.(check bool) "counters monotone across solves" true
    (let before = st.Solver.conflicts in
     ignore (Solver.solve s);
     (Solver.stats s).Solver.conflicts >= before)

(* {2 Clock, budgets and database reduction} *)

let with_fixed_clock f =
  let prev = Obs.current () in
  Obs.set_current (Some (Obs.create ~clock:(Obs.Clock.fixed ()) ~track_alloc:false ()));
  Fun.protect ~finally:(fun () -> Obs.set_current prev) f

(* The solver keeps time on the clock the spans use, [Obs.now]: under a
   fixed recorder clock that advances one tick per reading, a deadline a
   million ticks ahead is never reached, the solve time is a whole number
   of ticks, and a deadline already behind the clock stops the search at
   its first check (every 256 conflicts). *)
let test_deadline_on_obs_clock () =
  with_fixed_clock (fun () ->
      let s = solver_of (pigeonhole_clauses 8 7) in
      Solver.set_deadline s (Some (Obs.now () +. 1e6));
      Alcotest.(check bool) "php(8,7) refuted before a far deadline" true
        (Solver.solve s = Solver.Unsat);
      let st = Solver.stats s in
      Alcotest.(check bool) "searched past the first deadline check" true
        (st.Solver.conflicts > 256);
      Alcotest.(check bool) "solve time in clock ticks" true
        (Float.is_integer st.Solver.solve_time_s && st.Solver.solve_time_s >= 1.0);
      let s = solver_of (pigeonhole_clauses 8 7) in
      Solver.set_deadline s (Some (Obs.now ()));
      (match Solver.solve s with
      | exception Solver.Timeout -> ()
      | _ -> Alcotest.fail "expired deadline ignored");
      Alcotest.(check int) "stopped at the first check" 256
        (Solver.stats s).Solver.conflicts;
      Solver.set_deadline s None;
      Alcotest.(check bool) "usable after the timeout" true (Solver.solve s = Solver.Unsat))

(* The learnt-DB memory budget trips on its periodic check and leaves the
   solver usable: lifting it lets the same instance finish. *)
let test_learnt_budget () =
  let s = solver_of (pigeonhole_clauses 8 7) in
  Solver.set_learnt_budget_mb s (Some 0.01);
  (match Solver.solve s with
  | exception Solver.Budget_exceeded what ->
    Alcotest.(check string) "exhausted resource" "learnt-db memory" what
  | _ -> Alcotest.fail "learnt-DB budget not enforced");
  Alcotest.(check int) "tripped at the first check" 256 (Solver.stats s).Solver.conflicts;
  Solver.set_learnt_budget_mb s None;
  Alcotest.(check bool) "same solver refutes once lifted" true
    (Solver.solve s = Solver.Unsat)

(* Database reduction deletes learnt clauses and compacts the clause arena
   under a live search; the DRAT log with its deletions must still check,
   the core must re-verify, and the relocated database must keep answering.
   Half of a random 3-SAT instance is guarded by a selector [a]: under [a]
   it is unsatisfiable after ~1,450 conflicts (one reduction, learnt DB past
   1,000 clauses); without [a] it is satisfiable. *)
let test_reduction_and_compaction () =
  let num_vars = 130 in
  let a = lit num_vars true in
  let st = Random.State.make [| 0xdb; 10 |] in
  let free = random_3sat st ~num_vars ~num_clauses:286 in
  let guarded =
    List.map (fun c -> Lit.negate a :: c) (random_3sat st ~num_vars ~num_clauses:286)
  in
  let clauses = Array.of_list (free @ guarded) in
  let s = Solver.create () in
  Solver.set_proof_logging s true;
  Solver.ensure_vars s (num_vars + 1);
  Array.iteri (fun i c -> Solver.add_clause s ~tag:i c) clauses;
  Alcotest.(check bool) "unsat under a" true (Solver.solve ~assumptions:[ a ] s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "database reduced" true (st.Solver.db_reductions > 0);
  Alcotest.(check bool) "learnt clauses deleted" true (st.Solver.deleted_clauses > 0);
  let proof = Solver.proof s in
  Alcotest.(check bool) "deletions logged" true
    (List.exists (function Solver.Pdel _ -> true | Solver.Padd _ -> false) proof);
  (match
     Cert.Drat.check ~original:(Solver.export_clauses s) ~proof
       ~obligations:[ [ a ] ] ()
   with
  | Cert.Drat.Valid _ -> ()
  | Cert.Drat.Invalid why -> Alcotest.failf "DRAT log rejected: %s" why);
  let core = List.map (fun i -> clauses.(i)) (Solver.unsat_core_tags s) in
  Alcotest.(check bool) "core is unsat under a" true
    (let s2 = solver_of core in
     Solver.solve ~assumptions:[ a ] s2 = Solver.Unsat);
  Alcotest.(check bool) "sat without a" true (Solver.solve s = Solver.Sat);
  check_model s (Array.to_list clauses);
  Alcotest.(check bool) "still unsat under a" true
    (Solver.solve ~assumptions:[ a ] s = Solver.Unsat);
  Alcotest.(check (list int)) "a is the failed assumption" [ a ]
    (Solver.failed_assumptions s)

(* {2 Property tests} *)

let gen_clauses num_vars =
  QCheck2.Gen.(
    let gen_lit = map2 (fun v s -> lit v s) (int_bound (num_vars - 1)) bool in
    let gen_clause = list_size (int_range 1 3) gen_lit in
    list_size (int_range 1 40) gen_clause)

(* Clause intake keeps a clause as its sorted, duplicate-free literal list
   and drops it when it holds a literal and its negation, long clauses
   included. *)
let prop_clause_normalised =
  QCheck2.Test.make ~count:300 ~name:"stored clause is sorted and duplicate-free"
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(
      list_size (int_range 1 60) (map2 (fun v s -> lit v s) (int_bound 40) bool))
    (fun lits ->
      let s = Solver.create () in
      Solver.ensure_vars s 41;
      Solver.add_clause s lits;
      let sorted = List.sort_uniq compare lits in
      let tautology = List.exists (fun l -> List.mem (Lit.negate l) sorted) sorted in
      let expected = if tautology then [] else [ sorted ] in
      Solver.export_clauses s = expected)

let prop_agrees_with_brute_force =
  QCheck2.Test.make ~count:300 ~name:"solver agrees with truth table"
    (gen_clauses 8)
    (fun clauses ->
      let s, r = solve_clauses ~num_vars:8 clauses in
      let expected = brute_force_sat 8 clauses in
      match r with
      | Solver.Sat ->
        expected && List.for_all (List.exists (Solver.value s)) clauses
      | Solver.Unsat -> not expected)

let prop_core_is_unsat =
  QCheck2.Test.make ~count:200 ~name:"unsat core is itself unsat"
    (gen_clauses 7)
    (fun clauses ->
      let arr = Array.of_list clauses in
      let s = Solver.create () in
      Solver.ensure_vars s 7;
      Array.iteri (fun i c -> Solver.add_clause s ~tag:i c) arr;
      match Solver.solve s with
      | Solver.Sat -> true
      | Solver.Unsat ->
        let core_clauses =
          List.map (fun t -> arr.(t)) (Solver.unsat_core_tags s)
        in
        not (brute_force_sat 7 core_clauses))

let prop_assumption_core =
  QCheck2.Test.make ~count:200 ~name:"core + failed assumptions are unsat"
    QCheck2.Gen.(pair (gen_clauses 7) (list_size (int_range 1 3) (int_bound 6)))
    (fun (clauses, assumed_vars) ->
      let assumptions = List.sort_uniq compare (List.map (fun v -> lit v true) assumed_vars) in
      let arr = Array.of_list clauses in
      let s = Solver.create () in
      Solver.ensure_vars s 7;
      Array.iteri (fun i c -> Solver.add_clause s ~tag:i c) arr;
      match Solver.solve ~assumptions s with
      | Solver.Sat -> List.for_all (Solver.value s) assumptions
      | Solver.Unsat ->
        let core_clauses =
          List.map (fun t -> arr.(t)) (Solver.unsat_core_tags s)
        in
        let failed = Solver.failed_assumptions s in
        let as_units = List.map (fun l -> [ l ]) failed in
        List.for_all (fun l -> List.mem l assumptions) failed
        && not (brute_force_sat 7 (as_units @ core_clauses)))

let prop_incremental_consistent =
  QCheck2.Test.make ~count:100 ~name:"incremental solving matches fresh solver"
    QCheck2.Gen.(pair (gen_clauses 7) (gen_clauses 7))
    (fun (first, second) ->
      let s = Solver.create () in
      Solver.ensure_vars s 7;
      List.iter (Solver.add_clause s) first;
      let _ = Solver.solve s in
      List.iter (Solver.add_clause s) second;
      let incremental = Solver.solve s in
      let _, fresh = solve_clauses ~num_vars:7 (first @ second) in
      incremental = fresh)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_clause_normalised;
        prop_agrees_with_brute_force;
        prop_core_is_unsat;
        prop_assumption_core;
        prop_incremental_consistent;
        prop_checker_validates_random_unsat;
      ]
  in
  Alcotest.run "satsolver"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "empty formula" `Quick test_empty_formula;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
          Alcotest.test_case "assumptions basic" `Quick test_assumptions_basic;
          Alcotest.test_case "assumptions conflicting" `Quick test_assumptions_conflicting;
          Alcotest.test_case "incremental reuse" `Quick test_incremental_reuse;
          Alcotest.test_case "unsat core subset" `Quick test_unsat_core_subset;
          Alcotest.test_case "unsat core under assumptions" `Quick
            test_unsat_core_under_assumptions;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "checker validates pigeonhole" `Quick
            test_checker_validates_pigeonhole;
          Alcotest.test_case "checker rejects bogus derivation" `Quick
            test_checker_rejects_bogus_derivation;
          Alcotest.test_case "checker rejects satisfiable set" `Quick
            test_checker_rejects_sat_set;
          Alcotest.test_case "known unsat cores re-verify" `Quick
            test_known_unsat_cores_verify;
          Alcotest.test_case "dimacs file roundtrip" `Quick test_dimacs_file_roundtrip;
          Alcotest.test_case "random 3-sat vs dpll oracle" `Quick
            test_random_3sat_vs_dpll;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "deadline on the obs clock" `Quick
            test_deadline_on_obs_clock;
          Alcotest.test_case "learnt-db memory budget" `Quick test_learnt_budget;
          Alcotest.test_case "reduction and compaction" `Quick
            test_reduction_and_compaction;
        ] );
      ("property", qsuite);
    ]
