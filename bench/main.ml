(* Benchmark harness: regenerates every table and in-text result of the
   paper's evaluation (§5), plus constraint-growth validation, ablations and
   bechamel micro-benchmarks.

     dune exec bench/main.exe               # everything, scaled-down sizes
     dune exec bench/main.exe -- table1     # one artifact
     dune exec bench/main.exe -- --full all # paper-sized sweeps (slow)

   Absolute times differ from the paper (different machine, different SAT
   solver); the comparisons EMM-vs-explicit and the growth trends are the
   reproduced claims.  See EXPERIMENTS.md for the side-by-side record. *)

let full = ref false
let timeout = ref 120.0
let jobs = ref 1
let certify = ref false
let only = ref None
let out_file = ref "BENCH_solver.json"
let trace_out = ref None

(* [--domains N] runs every matrix SAT query over an in-process Domain
   portfolio of N diversified CDCL instances (lib/portfolio); [--no-share]
   disables the learnt-clause exchange between them.  Orthogonal to [-j],
   which forks whole table cells. *)
let domains = ref 1
let no_share = ref false

(* [--cache-dir DIR] (solver-json only): run the matrix with the persistent
   verification-result cache rooted at DIR; each row then records whether it
   was solved or served ("cache": off/miss/hit).  The cold-vs-warm sweep
   below uses its own throwaway store and runs with or without this flag
   (it honours [--only] like every other section). *)
let cache_dir = ref None

(* [--overhead-budget PCT] (solver-json only): fail with exit 6 when this
   run's summed matrix CPU time exceeds the baseline file's recorded
   matrix_cpu_s by more than PCT percent (plus a 2s absolute slack against
   scheduler noise on short rows).  CPU rather than wall time: wall depends
   on -j and machine load, the per-row sum is what tracing overhead would
   inflate. *)
let overhead_budget = ref None

(* DRAT derivations land here when [--certify]; the largest one is copied to
   BENCH_largest.drat as the CI proof artifact. *)
let proof_dir = "bench_proofs"

(* {2 Small helpers} *)

let hr title =
  Format.printf "@.=== %s ===@." title

(* Run the independent cells of a table, honouring [-j N]: with more than
   one job the cells execute in forked workers (deterministic order, crash
   containment — see lib/parallel); a worker that dies is reported through
   [on_fail] instead of aborting the sweep. *)
let run_cells ~f ~on_fail cells =
  if !jobs <= 1 then List.map f cells
  else
    Parallel.map ~jobs:!jobs ~f cells
    |> List.map (function Ok v -> v | Error failure -> on_fail failure)

let failed_outcome (failure : Parallel.failure) =
  Emmver.killed_outcome ~elapsed_s:failure.Parallel.elapsed_s
    (Parallel.failure_message failure)

let time f =
  let t0 = Obs.now () in
  let r = f () in
  (r, Obs.now () -. t0)

let mb () =
  let gc = Gc.quick_stat () in
  float_of_int (gc.Gc.heap_words * 8) /. 1e6

let options ?(max_depth = 150) () =
  { Emmver.default_options with max_depth; timeout_s = Some !timeout }

(* Cell text for a conclusion: proof depth or the timeout marker. *)
let depth_cell = function
  | Emmver.Proved { depth; _ } -> string_of_int depth
  | Emmver.Falsified { depth; _ } -> Printf.sprintf "CE@%d" depth
  | Emmver.Inconclusive _ -> "-"

let time_cell outcome =
  match outcome.Emmver.conclusion with
  | Emmver.Inconclusive _ -> Printf.sprintf ">%.0fs" !timeout
  | Emmver.Proved _ | Emmver.Falsified _ -> Printf.sprintf "%.1f" outcome.Emmver.time_s

let mem_cell outcome =
  match outcome.Emmver.conclusion with
  | Emmver.Inconclusive _ -> "NA"
  | Emmver.Proved _ | Emmver.Falsified _ -> Printf.sprintf "%.0f" outcome.Emmver.memory_mb

(* Quicksort sized like the paper: the arrays are much larger than the N
   sorted elements, which is precisely what explicit modeling pays for. *)
let quicksort_config n =
  let aw = if !full then 8 else 6 in
  { (Designs.Quicksort.default_config ~n) with
    Designs.Quicksort.addr_width = aw;
    stack_addr_width = aw + 1;
  }

let table1_sizes () = if !full then [ 3; 4; 5 ] else [ 3; 4 ]

(* {2 Table 1 — quicksort, EMM vs explicit induction proofs} *)

let table1 () =
  hr "Table 1: performance summary on Quick Sort (forward induction proofs)";
  Format.printf "%-4s %-5s %-4s | %-8s %-6s | %-8s %-6s@." "N" "Prop" "D" "EMM s"
    "MB" "Expl s" "MB";
  let pairs =
    List.concat_map
      (fun n -> List.map (fun prop -> (n, prop)) [ "P1"; "P2" ])
      (table1_sizes ())
  in
  let cells =
    List.concat_map
      (fun (n, prop) -> [ (n, prop, Emmver.Emm_bmc); (n, prop, Emmver.Explicit_bmc) ])
      pairs
  in
  let t0 = Obs.now () in
  let outcomes =
    run_cells ~on_fail:failed_outcome
      ~f:(fun (n, prop, method_) ->
        let net = Designs.Quicksort.build (quicksort_config n) in
        Emmver.verify ~options:(options ()) ~method_ net ~property:prop)
      cells
  in
  let rec rows pairs outcomes =
    match (pairs, outcomes) with
    | (n, prop) :: pairs, emm :: exp :: outcomes ->
      Format.printf "%-4d %-5s %-4s | %-8s %-6s | %-8s %-6s@." n prop
        (depth_cell emm.Emmver.conclusion) (time_cell emm) (mem_cell emm)
        (time_cell exp) (mem_cell exp);
      rows pairs outcomes
    | _ -> ()
  in
  rows pairs outcomes;
  Format.printf "table1 wall-clock: %.1fs (-j %d, cpu %.1fs over %d cells)@."
    (Obs.now () -. t0)
    !jobs
    (List.fold_left (fun acc o -> acc +. o.Emmver.time_s) 0.0 outcomes)
    (List.length cells)

(* {2 Table 2 — quicksort P2 with proof-based abstraction} *)

(* One side of a Table-2 row, rendered to a string so the cells can run in
   forked workers and still print in deterministic order. *)
let table2_side name ~use_emm net =
  let orig = List.length (Netlist.latches net) in
  match
    time (fun () ->
        Pba.discover ~max_depth:150 ~stability:10
          ~deadline:(Obs.now () +. !timeout) ~use_emm net ~property:"P2")
  with
  | Either.Right _, t ->
    Printf.sprintf "  %-14s discovery did not stabilise (%.1fs)" name t
  | Either.Left a, t_pba ->
    let config =
      {
        Bmc.Engine.default_config with
        max_depth = 150;
        deadline = Some (Obs.now () +. !timeout);
      }
    in
    let (result, _), t_proof =
      time (fun () -> Pba.check_with_abstraction ~config net a ~property:"P2")
    in
    let proof_cell =
      match result.Bmc.Engine.verdict with
      | Bmc.Engine.Proof _ -> Printf.sprintf "%.1f" t_proof
      | _ -> Printf.sprintf ">%.0f" !timeout
    in
    Printf.sprintf "  %-14s FF %d (%d)  PBA %.1fs  proof %ss  %.0fMB  memories kept: %s"
      name
      (List.length a.Pba.kept_latches)
      orig t_pba proof_cell (mb ())
      (match a.Pba.modeled_memories with
      | [] -> "(none)"
      | ms -> String.concat "," (List.map Netlist.memory_name ms))

let table2 () =
  hr "Table 2: Quick Sort P2 with proof-based abstraction";
  let cells =
    List.concat_map (fun n -> [ (n, true); (n, false) ]) (table1_sizes ())
  in
  let t0 = Obs.now () in
  let lines =
    run_cells
      ~on_fail:(fun failure -> "  worker killed: " ^ Parallel.failure_message failure)
      ~f:(fun (n, use_emm) ->
        let cfg = quicksort_config n in
        if use_emm then table2_side "EMM+PBA" ~use_emm:true (Designs.Quicksort.build cfg)
        else
          table2_side "Explicit+PBA" ~use_emm:false
            (Explicitmem.expand (Designs.Quicksort.build cfg)))
      cells
  in
  List.iter2
    (fun (n, use_emm) line ->
      if use_emm then Format.printf "N = %d:@." n;
      Format.printf "%s@." line)
    cells lines;
  Format.printf "table2 wall-clock: %.1fs (-j %d)@." (Obs.now () -. t0) !jobs

(* {2 Case study I — image filter reachability sweep} *)

let case1 () =
  hr "Case study: Industry Design I (low-pass image filter)";
  let cfg =
    if !full then Designs.Image_filter.default_config
    else { Designs.Image_filter.default_config with addr_width = 3 }
  in
  let net = Designs.Image_filter.build cfg in
  Format.printf "design: %a; %d reachability properties@." Netlist.pp_stats
    (Netlist.stats net) cfg.Designs.Image_filter.num_properties;
  let names = Designs.Image_filter.property_names cfg in
  let picked =
    if !full then names
    else List.filteri (fun i _ -> i mod 8 = 0 || i >= List.length names - 5) names
  in
  (* One incremental run for all properties, as the paper's platform did. *)
  let config =
    {
      Bmc.Engine.default_config with
      max_depth = 45;
      deadline = Some (Obs.now () +. (10.0 *. !timeout));
    }
  in
  let sweep method_label results =
    let witnesses = ref 0 and proofs = ref 0 and other = ref 0 in
    let max_d = ref 0 in
    List.iter
      (fun (_, r) ->
        match r.Bmc.Engine.verdict with
        | Bmc.Engine.Counterexample t ->
          incr witnesses;
          max_d := max !max_d t.Bmc.Trace.depth
        | Bmc.Engine.Proof _ -> incr proofs
        | Bmc.Engine.Bounded_safe _ | Bmc.Engine.Reasons_stable _
        | Bmc.Engine.Timed_out _ | Bmc.Engine.Out_of_budget _ -> incr other)
      results;
    Format.printf
      "  %-10s %d properties: %d witnesses (max depth %d), %d induction proofs, %d unresolved"
      method_label (List.length results) !witnesses !max_d !proofs !other
  in
  let (emm_results, _, _), t_emm =
    time (fun () -> Emm.check_many ~config net ~properties:picked)
  in
  sweep "EMM" emm_results;
  Format.printf " — %.1fs, %.0fMB@." t_emm (mb ());
  let expanded = Explicitmem.expand net in
  let (exp_results, _), t_exp =
    time (fun () -> Bmc.Engine.check_all ~config expanded ~properties:picked)
  in
  sweep "Explicit" exp_results;
  Format.printf " — %.1fs, %.0fMB@." t_exp (mb ())

(* {2 Case study II — multi-port lookup engine} *)

let case2 () =
  hr "Case study: Industry Design II (multi-port lookup engine)";
  let cfg = Designs.Multiport.default_config in
  let net = Designs.Multiport.build cfg in
  Format.printf "design: %a@." Netlist.pp_stats (Netlist.stats net);
  (* (a) full memory abstraction: spurious witnesses. *)
  let o =
    Emmver.verify ~options:(options ~max_depth:30 ()) ~method_:Emmver.Abstract_bmc net
      ~property:"hit0"
  in
  Format.printf "  memory abstracted:      hit0 %a@." Emmver.pp_conclusion
    o.Emmver.conclusion;
  (* (b) EMM deep bounded search: no witness. *)
  let depth = if !full then 200 else 60 in
  let (o, t) =
    time (fun () ->
        Emmver.verify
          ~options:{ (options ~max_depth:depth ()) with Emmver.max_depth = depth }
          ~method_:Emmver.Emm_falsify net ~property:"hit0")
  in
  Format.printf "  EMM to depth %d:        hit0 %a (%.1fs)@." depth Emmver.pp_conclusion
    o.Emmver.conclusion t;
  (* (c) PBA model reduction. *)
  (match Pba.discover ~max_depth:60 ~stability:10 net ~property:"hit0" with
  | Either.Left a ->
    Format.printf "  PBA reduction:          %d of %d latches kept@."
      (List.length a.Pba.kept_latches)
      (List.length (Netlist.latches net))
  | Either.Right v ->
    Format.printf "  PBA reduction:          %a@." Bmc.Engine.pp_verdict v);
  (* (d) the invariant G(WE=0 \/ WD=0), EMM vs explicit. *)
  let inv_emm, t_emm =
    time (fun () -> Emmver.verify ~options:(options ()) ~method_:Emmver.Emm_bmc net ~property:"mem_quiet")
  in
  let _, t_exp =
    time (fun () ->
        Emmver.verify ~options:(options ()) ~method_:Emmver.Explicit_bmc net
          ~property:"mem_quiet")
  in
  Format.printf "  invariant G(WE=0|WD=0): %a — EMM %.2fs, explicit %.2fs@."
    Emmver.pp_conclusion inv_emm.Emmver.conclusion t_emm t_exp;
  (* (e) invariant applied: all 8 properties proved on the memory-free model. *)
  let reduced = Designs.Multiport.build ~rd_tied_zero:true cfg in
  let proved = ref 0 in
  let _, t =
    time (fun () ->
        List.iter
          (fun prop ->
            match
              (Emmver.verify ~options:(options ()) ~method_:Emmver.Emm_bmc reduced
                 ~property:prop)
                .Emmver.conclusion
            with
            | Emmver.Proved _ -> incr proved
            | Emmver.Falsified _ | Emmver.Inconclusive _ -> ())
          Designs.Multiport.property_names)
  in
  Format.printf "  rd tied to 0:           %d/8 properties proved by induction (%.2fs)@."
    !proved t

(* {2 Constraint growth — the size formulas of §3 and §4.1} *)

let growth () =
  hr "Constraint growth: measured vs predicted ((4m+2n+1)kW+2n+1)R clauses, 3kWR gates";
  let configs = [ (4, 8, 1, 1); (4, 8, 2, 3); (6, 16, 2, 2); (8, 32, 3, 2) ] in
  List.iter
    (fun (m, n, w, r) ->
      Format.printf "AW=%d DW=%d W=%d R=%d:@." m n w r;
      Format.printf "  %-5s %-22s %-22s %-10s@." "k" "clauses (meas/pred)"
        "gates (meas/pred)" "cumulative";
      let ctx = Hdl.create () in
      let mem =
        Hdl.memory ctx ~name:"m" ~addr_width:m ~data_width:n ~init:Netlist.Zeros
      in
      for p = 0 to w - 1 do
        let addr = Hdl.input ctx (Printf.sprintf "wa%d" p) ~width:m in
        let data = Hdl.input ctx (Printf.sprintf "wd%d" p) ~width:n in
        let enable = Hdl.input_bit ctx (Printf.sprintf "we%d" p) in
        Hdl.write_port ctx mem ~addr ~data ~enable
      done;
      for p = 0 to r - 1 do
        let addr = Hdl.input ctx (Printf.sprintf "ra%d" p) ~width:m in
        ignore (Hdl.read_port ctx mem ~addr ~enable:Netlist.true_)
      done;
      Hdl.assert_always ctx "true" Netlist.true_;
      let net = Hdl.netlist ctx in
      let solver = Satsolver.Solver.create () in
      (* Plain paper-faithful encoding: the §4.1 size formulas only hold
         there; simplify mode is measured by solver-json instead. *)
      let unr = Cnf.create ~simplify:false solver net in
      let emm = Emm.create ~init_consistency:false ~simplify:false unr in
      let cumulative = ref 0 in
      let next = ref 0 in
      List.iter
        (fun k ->
          while !next <= k do
            Emm.add_constraints emm !next;
            incr next
          done;
          let c = Emm.counts_at emm k in
          let meas_cl = c.Emm.addr_clauses + c.Emm.data_clauses in
          let pred_cl = Emm.predicted_clauses ~aw:m ~dw:n ~k ~writes:w ~reads:r in
          let pred_g = Emm.predicted_gates ~k ~writes:w ~reads:r in
          cumulative := !cumulative + meas_cl;
          Format.printf "  %-5d %10d/%-10d %10d/%-10d %-10d%s@." k meas_cl pred_cl
            c.Emm.excl_gates pred_g !cumulative
            (if meas_cl = pred_cl && c.Emm.excl_gates = pred_g then "" else "  MISMATCH"))
        [ 0; 1; 2; 4; 8; 12 ])
    configs

(* {2 Ablation — the equation-(6) initial-state constraints} *)

let ablation () =
  hr "Ablation: arbitrary-initial-state consistency (equation 6)";
  let cfg = Designs.Quicksort.default_config ~n:3 in
  let net = Designs.Quicksort.build cfg in
  let o_full =
    Emmver.verify ~options:(options ()) ~method_:Emmver.Emm_bmc net ~property:"P1"
  in
  Format.printf "  quicksort P1 with eq-(6):    %a (%.1fs)@." Emmver.pp_conclusion
    o_full.Emmver.conclusion o_full.Emmver.time_s;
  let config =
    {
      Bmc.Engine.default_config with
      max_depth = 60;
      deadline = Some (Obs.now () +. !timeout);
    }
  in
  let (result, _), t =
    time (fun () -> Emm.check ~config ~init_consistency:false net ~property:"P1")
  in
  (match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample tr ->
    Format.printf
      "  quicksort P1 without eq-(6): counterexample at depth %d — replay on simulator: %b (SPURIOUS) (%.1fs)@."
      tr.Bmc.Trace.depth (Bmc.Trace.replay net tr) t
  | v -> Format.printf "  quicksort P1 without eq-(6): %a (%.1fs)@." Bmc.Engine.pp_verdict v t);
  (* The read-validity clause ablation: measured via the multiport engine. *)
  let mnet = Designs.Multiport.build Designs.Multiport.default_config in
  let (r_with, _), t_with =
    time (fun () ->
        Emm.check
          ~config:{ Bmc.Engine.default_config with max_depth = 40; proof_checks = false }
          mnet ~property:"hit0")
  in
  ignore r_with;
  Format.printf "  multiport hit0, EMM depth 40: %.2fs@." t_with

(* {2 Bechamel micro-benchmarks — one per table/figure artifact} *)

let micro () =
  hr "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let qs_net = lazy (Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3)) in
  let filter_net =
    lazy (Designs.Image_filter.build { Designs.Image_filter.default_config with addr_width = 3 })
  in
  let mp_net = lazy (Designs.Multiport.build Designs.Multiport.default_config) in
  (* Table 1 unit: one EMM falsification depth on the quicksort machine. *)
  let t_table1 =
    Test.make ~name:"table1/emm-unroll-qs3"
      (Staged.stage (fun () ->
           let net = Lazy.force qs_net in
           let config =
             { Bmc.Engine.default_config with max_depth = 6; proof_checks = false }
           in
           ignore (Emm.check ~config net ~property:"P1")))
  in
  (* Table 2 unit: PBA discovery on the quicksort machine. *)
  let t_table2 =
    Test.make ~name:"table2/pba-discovery-qs3"
      (Staged.stage (fun () ->
           let net = Lazy.force qs_net in
           ignore (Pba.discover ~max_depth:12 ~stability:4 net ~property:"P2")))
  in
  (* Case study I unit: one witness search on the image filter. *)
  let t_case1 =
    Test.make ~name:"case1/filter-witness"
      (Staged.stage (fun () ->
           let net = Lazy.force filter_net in
           let config =
             { Bmc.Engine.default_config with max_depth = 10; proof_checks = false }
           in
           ignore (Emm.check ~config net ~property:"P40")))
  in
  (* Case study II unit: the induction proof of the invariant. *)
  let t_case2 =
    Test.make ~name:"case2/invariant-induction"
      (Staged.stage (fun () ->
           let net = Lazy.force mp_net in
           let config = { Bmc.Engine.default_config with max_depth = 6 } in
           ignore (Emm.check ~config net ~property:"mem_quiet")))
  in
  (* Growth artifact unit: raw EMM constraint generation at depth 16. *)
  let t_growth =
    Test.make ~name:"growth/emm-constraints-k16"
      (Staged.stage (fun () ->
           let ctx = Hdl.create () in
           let mem =
             Hdl.memory ctx ~name:"m" ~addr_width:8 ~data_width:16 ~init:Netlist.Zeros
           in
           let wa = Hdl.input ctx "wa" ~width:8 in
           let wd = Hdl.input ctx "wd" ~width:16 in
           let we = Hdl.input_bit ctx "we" in
           Hdl.write_port ctx mem ~addr:wa ~data:wd ~enable:we;
           let ra = Hdl.input ctx "ra" ~width:8 in
           ignore (Hdl.read_port ctx mem ~addr:ra ~enable:Netlist.true_);
           Hdl.assert_always ctx "true" Netlist.true_;
           let solver = Satsolver.Solver.create () in
           let unr = Cnf.create solver (Hdl.netlist ctx) in
           let emm = Emm.create unr in
           for k = 0 to 16 do
             Emm.add_constraints emm k
           done))
  in
  let tests = [ t_table1; t_table2; t_case1; t_case2; t_growth ] in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:20 ~quota:(Time.second 1.5) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Format.printf "  %-32s %10.0f ns/run@." name est
          | _ -> Format.printf "  %-32s (no estimate)@." name)
        results)
    tests

(* {2 solver-json — machine-readable CDCL telemetry for the perf trajectory} *)

(* The fixed design/property/method matrix recorded in BENCH_solver.json;
   depths chosen so the whole run stays under about a minute. *)
let solver_matrix =
  [
    ("quicksort-n3", "P1", Emmver.Emm_bmc, 60);
    ("quicksort-buggy-n3", "P1", Emmver.Emm_falsify, 100);
    ("multiport", "mem_quiet", Emmver.Emm_bmc, 100);
    ("multiport", "hit0", Emmver.Emm_falsify, 40);
    ("fifo", "fifo_data", Emmver.Emm_bmc, 12);
    ("cache", "coherent", Emmver.Emm_bmc, 14);
    ("memcpy", "copied", Emmver.Emm_bmc, 100);
    ("memcpy", "copied", Emmver.Explicit_bmc, 100);
    ("bubblesort-n4", "sorted", Emmver.Emm_bmc, 100);
    ("regfile", "read_consistent", Emmver.Emm_bmc, 100);
    ("regfile", "read_consistent", Emmver.Explicit_bmc, 100);
    (* The latch-only termination over-proof regression: both rows depend on
       the memory-state distinctness constraints for their recorded depths
       (reach1 would otherwise vanish behind a bogus diameter-2 proof). *)
    ("latchpoor", "reach1", Emmver.Emm_bmc, 12);
    ("latchpoor", "never2", Emmver.Emm_bmc, 12);
    ("latchpoor", "never2", Emmver.Explicit_bmc, 12);
  ]

let pigeonhole_clauses pigeons holes =
  (* var p*holes + h <-> pigeon p sits in hole h *)
  let v p h = Satsolver.Lit.of_var ((p * holes) + h) true in
  let at_least_one =
    List.init pigeons (fun p -> List.init holes (fun h -> v p h))
  in
  let at_most_one =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p ->
            List.filter_map
              (fun q ->
                if q > p then
                  Some [ Satsolver.Lit.negate (v p h); Satsolver.Lit.negate (v q h) ]
                else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  (pigeons * holes, at_least_one @ at_most_one)

let cache_status_cell (o : Emmver.outcome) =
  match o.Emmver.cache with
  | Emmver.Cache_off -> "off"
  | Emmver.Cache_miss -> "miss"
  | Emmver.Cache_hit -> "hit"
  | Emmver.Cache_dedup -> "dedup"

let json_row ~design ~property ~method_ ~verdict ~time_s ~solve_time_s
    ~encode_time_s ~num_vars ~num_clauses ~vars_saved ~clauses_saved
    ?(certificate = "unchecked") ?(proof_steps = 0) ?(cache = "off")
    (s : Satsolver.Solver.stats) =
  Printf.sprintf
    {|    {"design": %S, "property": %S, "method": %S, "verdict": %S,
     "time_s": %.3f, "solve_time_s": %.3f, "encode_time_s": %.3f,
     "num_vars": %d, "num_clauses": %d, "vars_saved": %d, "clauses_saved": %d,
     "certificate": %S, "proof_steps": %d, "cache": %S,
     "conflicts": %d, "decisions": %d,
     "propagations": %d, "restarts": %d, "learnt": %d, "deleted": %d,
     "minimised_lits": %d, "avg_lbd": %.2f,
     "shared_out": %d, "shared_in": %d}|}
    design property method_ verdict time_s solve_time_s encode_time_s num_vars
    num_clauses vars_saved clauses_saved certificate proof_steps cache
    s.Satsolver.Solver.conflicts
    s.decisions s.propagations s.restarts s.learnt_clauses s.deleted_clauses
    s.minimised_lits s.avg_lbd s.shared_out s.shared_in

(* {2 Baseline comparison (--baseline FILE)}

   A hand-rolled reader for the BENCH_solver.json format written below: we
   only need the (design, property, method) -> verdict map, and we wrote the
   file ourselves, so substring scanning is enough. *)

let find_sub s pat from =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go from

let json_string_field chunk name =
  let pat = Printf.sprintf "\"%s\": \"" name in
  match find_sub chunk pat 0 with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    String.index_from_opt chunk start '"'
    |> Option.map (fun stop -> String.sub chunk start (stop - start))

let json_float_field chunk name =
  let pat = Printf.sprintf "\"%s\": " name in
  match find_sub chunk pat 0 with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let stop = ref start in
    let n = String.length chunk in
    while
      !stop < n
      && (match chunk.[!stop] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub chunk start (!stop - start))

let verdict_class v =
  if String.length v >= 6 && String.sub v 0 6 = "proved" then `Proved
  else if String.length v >= 9 && String.sub v 0 9 = "falsified" then `Falsified
  else `Inconclusive

let baseline_verdicts file =
  if not (Sys.file_exists file) then begin
    Format.eprintf "baseline file %s does not exist@." file;
    exit 2
  end;
  let ic = open_in file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  (* Split the row array on the opening brace of each object. *)
  let rec chunks from acc =
    match String.index_from_opt s from '{' with
    | None -> List.rev acc
    | Some i ->
      let stop =
        match String.index_from_opt s (i + 1) '}' with
        | Some j -> j
        | None -> String.length s - 1
      in
      chunks (stop + 1) (String.sub s i (stop - i + 1) :: acc)
  in
  List.filter_map
    (fun chunk ->
      match
        ( json_string_field chunk "design",
          json_string_field chunk "property",
          json_string_field chunk "method",
          json_string_field chunk "verdict" )
      with
      | Some d, Some p, Some m, Some v -> Some ((d, p, m), v)
      | _ -> None)
    (chunks 0 [])

(* Fail (exit 3) if any design/property/method row that was conclusive in
   the baseline file became inconclusive — the CI regression gate. *)
let check_against_baseline ~name ~old rows =
  let regressions =
    List.filter_map
      (fun ((key : string * string * string), v) ->
        match List.assoc_opt key old with
        | Some old_v
          when verdict_class old_v <> `Inconclusive
               && verdict_class v = `Inconclusive ->
          Some (key, old_v, v)
        | _ -> None)
      rows
  in
  match regressions with
  | [] ->
    Format.printf "baseline check against %s: OK (%d rows compared)@." name
      (List.length old)
  | _ ->
    List.iter
      (fun (((d, p, m) : string * string * string), old_v, v) ->
        Format.eprintf "REGRESSION %s/%s/%s: %S -> %S@." d p m old_v v)
      regressions;
    exit 3

(* The committed baseline's summed matrix CPU time, for the tracing-off
   overhead gate. *)
let baseline_matrix_cpu_s file =
  if not (Sys.file_exists file) then None
  else begin
    let ic = open_in file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    json_float_field s "matrix_cpu_s"
  end

let baseline = ref None

(* With [--only d1,d2] every section is restricted to rows whose design
   name contains one of the given substrings — the verification matrix and
   also the raw-SAT ("php-7-6"...), cache, serve and portfolio sweeps. *)
let matrix_selected design =
  match !only with
  | None -> true
  | Some pats ->
    List.exists (fun p -> find_sub design p 0 <> None)
      (List.map String.trim (String.split_on_char ',' pats))

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

(* Promote the run's largest DRAT derivation to BENCH_largest.drat. *)
let export_largest_proof () =
  if Sys.file_exists proof_dir && Sys.is_directory proof_dir then
    let largest =
      Array.fold_left
        (fun acc name ->
          if Filename.check_suffix name ".drat" then
            let path = Filename.concat proof_dir name in
            let size = (Unix.stat path).Unix.st_size in
            match acc with
            | Some (_, best) when best >= size -> acc
            | _ -> Some (path, size)
          else acc)
        None (Sys.readdir proof_dir)
    in
    match largest with
    | Some (path, size) ->
      copy_file path "BENCH_largest.drat";
      Format.printf "largest proof: %s (%d bytes) -> BENCH_largest.drat@." path size
    | None -> ()

(* In-process Domain portfolio sweep on the headline proof row
   (quicksort-n3 P1): domains x sharing, honest wall-clock plus the
   exchange counters.  On a single-core host the domains timeshare, so
   wall grows with N — the counters (and the verdict agreement) are the
   point there; the wall comparison only becomes meaningful with
   [host_cores >= domains].  Runs at a scaled-down depth unless
   [--full]. *)
let domain_sweep () =
  let depth = if !full then 60 else 24 in
  let net = (Designs.Registry.find "quicksort-n3").Designs.Registry.build () in
  Format.printf "@.domain portfolio sweep: quicksort-n3 P1 (depth %d, %d host cores)@."
    depth
    (Domain.recommended_domain_count ());
  Format.printf "%-8s %-6s %-24s %8s %10s %11s %10s@." "domains" "share" "verdict"
    "wall" "conflicts" "shared-out" "shared-in";
  List.map
    (fun (d, share) ->
      let options =
        {
          Emmver.default_options with
          max_depth = depth;
          timeout_s = Some !timeout;
          domains = d;
          share_clauses = share;
        }
      in
      let o, wall_s =
        time (fun () -> Emmver.verify ~options ~method_:Emmver.Emm_bmc net ~property:"P1")
      in
      let verdict = Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion in
      let verdict =
        match String.index_opt verdict ':' with
        | Some i -> String.sub verdict 0 i
        | None -> verdict
      in
      let s =
        Option.value o.Emmver.solver_stats ~default:Satsolver.Solver.empty_stats
      in
      Format.printf "%-8d %-6b %-24s %7.2fs %10d %11d %10d@." d share verdict wall_s
        s.Satsolver.Solver.conflicts s.shared_out s.shared_in;
      Printf.sprintf
        {|    {"domains": %d, "share": %b, "verdict": %S, "wall_s": %.3f,
     "conflicts": %d, "shared_out": %d, "shared_in": %d}|}
        d share verdict wall_s s.Satsolver.Solver.conflicts s.shared_out
        s.shared_in)
    [ (1, true); (2, true); (2, false); (4, true); (4, false) ]

(* Cold-vs-warm result-cache sweep on two matrix rows, against a throwaway
   store: the cold run solves and records, the warm run must serve the same
   verdict from the store.  The recorded speedup is the headline number of
   the caching work (EXPERIMENTS.md); CI separately gates warm wall-clock at
   25% of cold. *)
let cache_sweep () =
  let store =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emmver-bench-cache-%d" (Unix.getpid ()))
  in
  let cells =
    List.filter
      (fun (d, _, _, _) -> matrix_selected d)
      [
        ("quicksort-n3", "P1", Emmver.Emm_bmc, 60);
        ("fifo", "fifo_data", Emmver.Emm_bmc, 12);
      ]
  in
  if cells = [] then []
  else begin
    Format.printf "@.result-cache sweep: cold vs warm against a fresh store@.";
    Format.printf "%-16s %-12s %10s %10s %9s %7s@." "design" "property" "cold"
      "warm" "speedup" "agree";
    let rows =
      List.map
        (fun (design, property, method_, max_depth) ->
          let net = (Designs.Registry.find design).Designs.Registry.build () in
          let options =
            {
              Emmver.default_options with
              max_depth;
              timeout_s = Some !timeout;
              cache = true;
              cache_dir = Some store;
            }
          in
          let cold, cold_s =
            time (fun () -> Emmver.verify ~options ~method_ net ~property)
          in
          let warm, warm_s =
            time (fun () -> Emmver.verify ~options ~method_ net ~property)
          in
          let concl o = Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion in
          let agree = String.equal (concl cold) (concl warm) in
          let speedup = cold_s /. Float.max 1e-9 warm_s in
          Format.printf "%-16s %-12s %9.3fs %9.3fs %8.1fx %7b@." design property
            cold_s warm_s speedup agree;
          Printf.sprintf
            {|    {"design": %S, "property": %S, "method": %S,
     "cold_s": %.3f, "warm_s": %.3f, "cache_speedup": %.1f,
     "cold_status": %S, "warm_status": %S, "verdicts_agree": %b}|}
            design property
            (Emmver.method_to_string method_)
            cold_s warm_s speedup (cache_status_cell cold) (cache_status_cell warm)
            agree)
        cells
    in
    ignore (Vcache.clear (Vcache.config ~dir:store ()));
    (try Unix.rmdir store with _ -> ());
    rows
  end

(* End-to-end daemon throughput: a throwaway daemon on a private socket with
   a fresh cache store, the fifo matrix row submitted N times sequentially
   over one connection.  The first round trip is the cold price (protocol +
   scheduling + fork + solve + cache record); the mean of the rest is the
   service-level price of an already-verified property, where the forked
   worker answers from the warm store.  The emitted object carries no
   "verdict" field, so the baseline reader skips it (timing-only telemetry,
   like the "cache" rows above). *)
let serve_sweep () =
  if not (matrix_selected "fifo") then []
  else begin
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "emmver-bench-serve-%d" (Unix.getpid ()))
    in
    Unix.mkdir dir 0o700;
    let socket = Filename.concat dir "daemon.sock" in
    let cache_dir = Filename.concat dir "cache" in
    let cfg =
      Serve.Server.config ~workers:1 ~cache_dir:(Some cache_dir) ~quiet:true
        ~socket ()
    in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try Serve.Server.run cfg with _ -> Unix._exit 1);
      Unix._exit 0
    | pid ->
      let cleanup () =
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore
          (try Unix.waitpid [] pid
           with Unix.Unix_error _ -> (pid, Unix.WEXITED 0));
        ignore (Vcache.clear (Vcache.config ~dir:cache_dir ()));
        (try Sys.remove socket with Sys_error _ -> ());
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      in
      Fun.protect ~finally:cleanup (fun () ->
          let rec wait_socket n =
            if Sys.file_exists socket then ()
            else if n = 0 then failwith "bench daemon never bound its socket"
            else begin
              Unix.sleepf 0.02;
              wait_socket (n - 1)
            end
          in
          wait_socket 250;
          let c =
            match Serve.Client.connect ~client:"bench" socket with
            | Ok c -> c
            | Error e -> failwith ("bench daemon connect: " ^ e)
          in
          let design = "fifo" and property = "fifo_data" in
          let round i =
            let req =
              Serve.Proto.Submit
                {
                  Serve.Proto.s_id = Printf.sprintf "bench-%d" i;
                  s_design = design;
                  s_property = Some property;
                  s_method = "emm";
                  s_max_depth = Some 12;
                  s_timeout_s = Some !timeout;
                  s_cache = Some true;
                }
            in
            let t0 = Obs.now () in
            (match Serve.Client.request ~timeout_s:120.0 c req with
            | Ok (Serve.Proto.Accepted _) -> ()
            | Ok r ->
              failwith ("bench submit: " ^ Serve.Proto.reply_to_string r)
            | Error e -> failwith ("bench submit: " ^ e));
            let rec result () =
              match Serve.Client.read_reply ~timeout_s:120.0 c with
              | Ok (Serve.Proto.Result r) -> r
              | Ok _ -> result ()
              | Error e -> failwith ("bench result: " ^ e)
            in
            let r = result () in
            (Obs.now () -. t0, r.Serve.Proto.r_cache, r.Serve.Proto.r_verdict)
          in
          let n = 6 in
          let rounds = List.init n round in
          Serve.Client.close c;
          let cold_s, _, cold_verdict = List.hd rounds in
          let warm = List.tl rounds in
          let warm_mean_s =
            List.fold_left (fun acc (t, _, _) -> acc +. t) 0.0 warm
            /. float_of_int (List.length warm)
          in
          let warm_hits =
            List.length (List.filter (fun (_, c, _) -> c = "hit") warm)
          in
          let agree =
            List.for_all (fun (_, _, v) -> String.equal v cold_verdict) warm
          in
          Format.printf
            "@.serve throughput: %s/%s x%d over one connection@." design
            property n;
          Format.printf
            "cold %.3fs, warm mean %.3fs (%.1fx), %d/%d warm cache hits, agree %b@."
            cold_s warm_mean_s
            (cold_s /. Float.max 1e-9 warm_mean_s)
            warm_hits (List.length warm) agree;
          [
            Printf.sprintf
              {|    {"design": %S, "property": %S, "method": "emm", "submissions": %d,
     "cold_s": %.3f, "warm_mean_s": %.3f, "serve_speedup": %.1f,
     "warm_hits": %d, "verdicts_agree": %b}|}
              design property n cold_s warm_mean_s
              (cold_s /. Float.max 1e-9 warm_mean_s)
              warm_hits agree;
          ])
  end

let solver_json () =
  hr "solver-json: CDCL telemetry over the bench matrix -> BENCH_solver.json";
  (* Read the baseline before the run: it may be the very file we are about
     to overwrite. *)
  let old = Option.map (fun f -> (f, baseline_verdicts f)) !baseline in
  let old_cpu_s = Option.bind !baseline baseline_matrix_cpu_s in
  let solver_matrix =
    List.filter (fun (d, _, _, _) -> matrix_selected d) solver_matrix
  in
  let rows = ref [] in
  let verdicts = ref [] in
  let unchecked = ref [] in
  let add_row ?key r =
    rows := r :: !rows;
    match key with Some kv -> verdicts := kv :: !verdicts | None -> ()
  in
  Format.printf "%-20s %-16s %-12s %-24s %8s %10s %12s@." "design" "property"
    "method" "verdict" "time" "conflicts" "props";
  let matrix_t0 = Obs.now () in
  let matrix_outcomes =
    run_cells
      ~on_fail:(fun failure ->
        let o = failed_outcome failure in
        (o, o.Emmver.time_s))
      ~f:(fun (design, property, method_, max_depth) ->
        let net = (Designs.Registry.find design).Designs.Registry.build () in
        let options =
          {
            Emmver.default_options with
            max_depth;
            timeout_s = Some !timeout;
            certify = !certify;
            proof_dir = (if !certify then Some proof_dir else None);
            domains = !domains;
            share_clauses = not !no_share;
            cache = !cache_dir <> None;
            cache_dir = !cache_dir;
          }
        in
        time (fun () -> Emmver.verify ~options ~method_ net ~property))
      solver_matrix
  in
  let matrix_wall_s = Obs.now () -. matrix_t0 in
  List.iter2
    (fun (design, property, method_, _) (o, time_s) ->
      let verdict = Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion in
      let verdict =
        (* keep only the headline, not the explanation *)
        match String.index_opt verdict ':' with
        | Some i -> String.sub verdict 0 i
        | None -> verdict
      in
      let s =
        Option.value o.Emmver.solver_stats ~default:Satsolver.Solver.empty_stats
      in
      Format.printf "%-20s %-16s %-12s %-24s %7.2fs %10d %12d@." design property
        (Emmver.method_to_string method_)
        verdict time_s s.Satsolver.Solver.conflicts s.Satsolver.Solver.propagations;
      let method_ = Emmver.method_to_string method_ in
      let certificate = Cert.label o.Emmver.certificate in
      (if !certify then
         match o.Emmver.certificate with
         | Cert.Certified _ -> ()
         | Cert.Refuted _ | Cert.Unchecked _ ->
           unchecked := Printf.sprintf "%s/%s/%s: %s" design property method_ certificate :: !unchecked);
      add_row
        ~key:((design, property, method_), verdict)
        (json_row ~design ~property ~method_ ~verdict ~time_s
           ~solve_time_s:o.Emmver.solve_time_s
           ~encode_time_s:o.Emmver.encode_time_s ~num_vars:o.Emmver.model_vars
           ~num_clauses:o.Emmver.model_clauses ~vars_saved:o.Emmver.vars_saved
           ~clauses_saved:o.Emmver.clauses_saved ~certificate
           ~proof_steps:o.Emmver.proof_steps ~cache:(cache_status_cell o) s))
    solver_matrix matrix_outcomes;
  let matrix_cpu_s =
    List.fold_left (fun acc (_, t) -> acc +. t) 0.0 matrix_outcomes
  in
  Format.printf "matrix wall-clock: %.1fs, cpu %.1fs, speedup %.2fx (-j %d)@."
    matrix_wall_s matrix_cpu_s
    (matrix_cpu_s /. Float.max 1e-9 matrix_wall_s)
    !jobs;
  (* Raw SAT rows: pigeonhole refutations exercise the learning machinery
     without any BMC structure on top. *)
  List.iter
    (fun (pigeons, holes) ->
      let design = Printf.sprintf "php-%d-%d" pigeons holes in
      let solver = Satsolver.Solver.create () in
      Satsolver.Solver.set_proof_logging solver !certify;
      let nvars, clauses = pigeonhole_clauses pigeons holes in
      Satsolver.Solver.ensure_vars solver nvars;
      List.iter (Satsolver.Solver.add_clause solver) clauses;
      let result, time_s = time (fun () -> Satsolver.Solver.solve solver) in
      let verdict =
        match result with Satsolver.Solver.Sat -> "sat" | Satsolver.Solver.Unsat -> "unsat"
      in
      let certificate, proof_steps =
        if not !certify then ("unchecked", 0)
        else begin
          let proof = Satsolver.Solver.proof solver in
          (if not (Sys.file_exists proof_dir) then Unix.mkdir proof_dir 0o755);
          let oc = open_out (Filename.concat proof_dir (design ^ ".drat")) in
          Cert.Drat.output oc proof;
          close_out oc;
          let label =
            match
              Cert.Drat.check ~original:clauses ~proof ~obligations:[ [] ] ()
            with
            | Cert.Drat.Valid _ -> "drat-checked"
            | Cert.Drat.Invalid why -> "refuted: " ^ why
          in
          if label <> "drat-checked" then
            unchecked := Printf.sprintf "%s: %s" design label :: !unchecked;
          (label, List.length proof)
        end
      in
      let s = Satsolver.Solver.stats solver in
      Format.printf "%-20s %-16s %-12s %-24s %7.2fs %10d %12d@." design "-" "raw-sat"
        verdict time_s s.Satsolver.Solver.conflicts s.Satsolver.Solver.propagations;
      add_row
        (json_row ~design ~property:"-" ~method_:"raw-sat" ~verdict ~time_s
           ~solve_time_s:s.Satsolver.Solver.solve_time_s ~encode_time_s:0.0
           ~num_vars:nvars ~num_clauses:(List.length clauses) ~vars_saved:0
           ~clauses_saved:0 ~certificate ~proof_steps s))
    (List.filter
       (fun (pigeons, holes) ->
         matrix_selected (Printf.sprintf "php-%d-%d" pigeons holes))
       [ (7, 6); (8, 7); (9, 8) ]);
  (* The Domain-portfolio sweep varies the domain count internally, so it
     only runs for the default configuration (no --domains/--no-share
     override) and only when its headline row is in the selected matrix
     (CI smoke restricts with [--only]). *)
  (* The serve sweep forks a daemon, which OCaml forbids once other domains
     have ever been spawned — so it must run before the domain portfolio
     sweep below. *)
  let serve_rows = serve_sweep () in
  let sweep_rows =
    if !domains = 1 && (not !no_share) && matrix_selected "quicksort-n3" then
      domain_sweep ()
    else []
  in
  let cache_rows = cache_sweep () in
  let oc = open_out !out_file in
  output_string oc "{\n  \"rows\": [\n";
  output_string oc (String.concat ",\n" (List.rev !rows));
  output_string oc "\n  ],\n";
  (* Fan-out telemetry for the verification matrix above (the raw-SAT rows,
     when selected, run sequentially): wall vs. summed per-row time is the
     measured speedup of this run.  The baseline reader skips this object — it has no
     "design" field; the same goes for the per-combination "domains" entries
     of the in-process portfolio sweep. *)
  output_string oc
    (Printf.sprintf
       "  \"parallel\": {\"jobs\": %d, \"matrix_wall_s\": %.3f, \"matrix_cpu_s\": %.3f, \"host_cores\": %d"
       !jobs matrix_wall_s matrix_cpu_s
       (Domain.recommended_domain_count ()));
  (match sweep_rows with
  | [] -> output_string oc "}"
  | rows ->
    output_string oc ",\n  \"domains\": [\n";
    output_string oc (String.concat ",\n" rows);
    output_string oc "\n  ]}");
  (* Cold-vs-warm result-cache telemetry; like the sweep entries, these
     objects carry no "verdict" field so the baseline reader skips them. *)
  (match cache_rows with
  | [] -> ()
  | rows ->
    output_string oc ",\n  \"cache\": [\n";
    output_string oc (String.concat ",\n" rows);
    output_string oc "\n  ]");
  (* Daemon round-trip telemetry — also verdict-free, also skipped by the
     baseline reader. *)
  (match serve_rows with
  | [] -> ()
  | rows ->
    output_string oc ",\n  \"serve\": [\n";
    output_string oc (String.concat ",\n" rows);
    output_string oc "\n  ]");
  output_string oc "\n}\n";
  close_out oc;
  Format.printf "wrote %s (%d rows)@." !out_file (List.length !rows);
  (match old with
  | Some (name, old) -> check_against_baseline ~name ~old !verdicts
  | None -> ());
  (match (!overhead_budget, old_cpu_s) with
  | Some pct, Some old_s ->
    (* 2s absolute slack: on a sub-10s matrix a single scheduler hiccup
       would otherwise trip a relative-only gate. *)
    let limit = (old_s *. (1.0 +. (pct /. 100.0))) +. 2.0 in
    if matrix_cpu_s > limit then begin
      Format.eprintf
        "OVERHEAD matrix cpu %.1fs exceeds baseline %.1fs + %.0f%% + 2s (limit %.1fs)@."
        matrix_cpu_s old_s pct limit;
      exit 6
    end
    else
      Format.printf "overhead check: matrix cpu %.1fs within %.0f%% of baseline %.1fs@."
        matrix_cpu_s pct old_s
  | Some pct, None ->
    Format.eprintf
      "overhead check skipped: no matrix_cpu_s in baseline (budget %.0f%%)@." pct
  | None, _ -> ());
  if !certify then begin
    export_largest_proof ();
    (* The certification gate: with [--certify], every row must carry a
       checked certificate — an unchecked or refuted verdict fails the run. *)
    match !unchecked with
    | [] -> Format.printf "certification: every row certified@."
    | bad ->
      List.iter (fun b -> Format.eprintf "UNCERTIFIED %s@." b) bad;
      exit 4
  end

(* {2 phases — per-depth wall-time attribution via the observability layer} *)

(* Runs quicksort-n3/P1 under a local recorder and folds the span tree into
   an encode/solve table per unroll depth (the EXPERIMENTS.md attribution
   table).  Certification is a run-level phase — it happens once, after the
   depth loop — so it is reported as its own row. *)
let phases () =
  hr "phases: quicksort-n3 P1 (emm) wall time by phase per unroll depth";
  let saved = Obs.current () in
  let r = Obs.create () in
  Obs.set_current (Some r);
  let outcome =
    Fun.protect
      ~finally:(fun () -> Obs.set_current saved)
      (fun () ->
        let net = (Designs.Registry.find "quicksort-n3").Designs.Registry.build () in
        let options = { (options ()) with Emmver.certify = !certify } in
        Emmver.verify ~options ~method_:Emmver.Emm_bmc net ~property:"P1")
  in
  match Obs.spans (Obs.rows r) with
  | Error why ->
    Format.eprintf "malformed trace: %s@." why;
    exit 2
  | Ok spans ->
    let arr = Array.of_list spans in
    let rec depth_of idx =
      let sp = arr.(idx) in
      if sp.Obs.sp_name = "depth" then Obs.attr_int "k" sp.Obs.sp_attrs
      else match sp.Obs.sp_parent with Some p -> depth_of p | None -> None
    in
    let tbl = Hashtbl.create 32 in
    let phase_total = Hashtbl.create 4 in
    let bump_total name d =
      Hashtbl.replace phase_total name
        ((try Hashtbl.find phase_total name with Not_found -> 0.0) +. d)
    in
    Array.iteri
      (fun i sp ->
        match sp.Obs.sp_name with
        | ("encode" | "solve" | "certify") as name ->
          let d = Obs.duration sp in
          bump_total name d;
          (match depth_of i with
          | Some k ->
            let e, s =
              try Hashtbl.find tbl k with Not_found -> (0.0, 0.0)
            in
            Hashtbl.replace tbl k
              (if name = "encode" then (e +. d, s) else (e, s +. d))
          | None -> ())
        | _ -> ())
      arr;
    let total name =
      try Hashtbl.find phase_total name with Not_found -> 0.0
    in
    let ks = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
    Format.printf "%-6s %-10s %-10s %-10s@." "k" "encode_s" "solve_s" "depth_s";
    List.iter
      (fun k ->
        let e, s = Hashtbl.find tbl k in
        Format.printf "%-6d %-10.3f %-10.3f %-10.3f@." k e s (e +. s))
      ks;
    Format.printf "certify (run level): %.3fs@." (total "certify");
    Format.printf "totals: encode %.3fs, solve %.3fs, certify %.3fs over %d depths@."
      (total "encode") (total "solve") (total "certify") (List.length ks);
    Format.printf "conclusion: %a (%.2fs)@." Emmver.pp_conclusion
      outcome.Emmver.conclusion outcome.Emmver.time_s

(* {2 Driver} *)

let () =
  let cmds = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--full" -> full := true
        | "--certify" -> certify := true
        | "--no-share" -> no_share := true
        | "--timeout" | "--baseline" | "-j" | "--jobs" | "--only" | "--out"
        | "--trace-out" | "--overhead-budget" | "--domains" | "--cache-dir" ->
          () (* value consumed below *)
        | _ ->
          if i > 1 && Sys.argv.(i - 1) = "--timeout" then timeout := float_of_string arg
          else if i > 1 && Sys.argv.(i - 1) = "--baseline" then baseline := Some arg
          else if i > 1 && Sys.argv.(i - 1) = "--only" then only := Some arg
          else if i > 1 && Sys.argv.(i - 1) = "--out" then out_file := arg
          else if i > 1 && Sys.argv.(i - 1) = "--trace-out" then trace_out := Some arg
          else if i > 1 && Sys.argv.(i - 1) = "--overhead-budget" then
            overhead_budget := Some (float_of_string arg)
          else if i > 1 && Sys.argv.(i - 1) = "--domains" then
            domains := max 1 (int_of_string arg)
          else if i > 1 && Sys.argv.(i - 1) = "--cache-dir" then cache_dir := Some arg
          else if i > 1 && (Sys.argv.(i - 1) = "-j" || Sys.argv.(i - 1) = "--jobs") then
            jobs := max 1 (int_of_string arg)
          else cmds := arg :: !cmds)
    Sys.argv;
  let cmds = if !cmds = [] then [ "all" ] else List.rev !cmds in
  let run = function
    | "table1" -> table1 ()
    | "table2" -> table2 ()
    | "case1" -> case1 ()
    | "case2" -> case2 ()
    | "growth" -> growth ()
    | "ablation" -> ablation ()
    | "micro" -> micro ()
    | "solver-json" -> solver_json ()
    | "phases" -> phases ()
    | "all" ->
      growth ();
      ablation ();
      case2 ();
      case1 ();
      table1 ();
      table2 ();
      micro ()
    | other ->
      Format.eprintf
        "unknown bench %S (expected \
         table1|table2|case1|case2|growth|ablation|micro|solver-json|phases|all)@."
        other;
      exit 2
  in
  Obs.run_with_trace ?out:!trace_out ~label:"bench" (fun () -> List.iter run cmds)
