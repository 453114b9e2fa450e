(* Correctness tests for the EMM constraint generator: direct validation of
   the forwarding semantics against a reference functional memory, size
   formulas, equivalence with explicit modeling, and the arbitrary-initial-
   state machinery of §4.2. *)

module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

(* {2 A memory harness: every interface signal driven by a primary input} *)

type harness = {
  net : Netlist.t;
  mem : Netlist.memory;
  waddr : Hdl.vector array; (* per write port *)
  wdata : Hdl.vector array;
  we : Hdl.bit array;
  raddr : Hdl.vector array; (* per read port *)
  re : Hdl.bit array;
  rd : Hdl.vector array;
}

let harness ~aw ~dw ~wports ~rports ~init =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:aw ~data_width:dw ~init in
  let waddr = Array.init wports (fun w -> Hdl.input ctx (Printf.sprintf "wa%d" w) ~width:aw) in
  let wdata = Array.init wports (fun w -> Hdl.input ctx (Printf.sprintf "wd%d" w) ~width:dw) in
  let we = Array.init wports (fun w -> Hdl.input_bit ctx (Printf.sprintf "we%d" w)) in
  Array.iteri
    (fun w addr -> Hdl.write_port ctx mem ~addr ~data:wdata.(w) ~enable:we.(w))
    waddr;
  let raddr = Array.init rports (fun r -> Hdl.input ctx (Printf.sprintf "ra%d" r) ~width:aw) in
  let re = Array.init rports (fun r -> Hdl.input_bit ctx (Printf.sprintf "re%d" r)) in
  let rd = Array.map2 (fun addr enable -> Hdl.read_port ctx mem ~addr ~enable) raddr re in
  Hdl.assert_always ctx "true" Netlist.true_;
  { net = Hdl.netlist ctx; mem; waddr; wdata; we; raddr; re; rd }

(* One cycle of stimulus for the harness. *)
type cycle = {
  writes : (int * int * bool) array; (* (addr, data, enable) per write port *)
  reads : (int * bool) array; (* (addr, enable) per read port *)
}

let assume_bus unr frame bus value =
  Array.to_list bus
  |> List.mapi (fun i s ->
         let l = Cnf.lit unr ~frame s in
         if (value lsr i) land 1 = 1 then l else Lit.negate l)

let assume_bit unr frame s v =
  let l = Cnf.lit unr ~frame s in
  if v then l else Lit.negate l

(* Reference functional memory with the paper's semantics: reads observe the
   contents at the start of the cycle; writes land afterwards. *)
let reference_run ~aw ~init_word cycles =
  let contents = Array.init (1 lsl aw) init_word in
  List.map
    (fun c ->
      let observed =
        Array.map (fun (addr, en) -> if en then Some contents.(addr) else None) c.reads
      in
      Array.iter
        (fun (addr, data, en) -> if en then contents.(addr) <- data)
        c.writes;
      observed)
    cycles

(* Drive the EMM-constrained model with a fully concrete stimulus and compare
   every enabled read against the reference. *)
let run_forwarding_check ~aw ~dw ~wports ~rports ~init cycles =
  let h = harness ~aw ~dw ~wports ~rports ~init in
  let solver = Solver.create () in
  let unr = Cnf.create solver h.net in
  let emm = Emm.create unr in
  let assumptions = ref [ Cnf.act_init unr ] in
  List.iteri
    (fun frame c ->
      Emm.add_constraints emm frame;
      Array.iteri
        (fun w (addr, data, en) ->
          assumptions := assume_bus unr frame h.waddr.(w) addr @ !assumptions;
          assumptions := assume_bus unr frame h.wdata.(w) data @ !assumptions;
          assumptions := assume_bit unr frame h.we.(w) en :: !assumptions)
        c.writes;
      Array.iteri
        (fun r (addr, en) ->
          assumptions := assume_bus unr frame h.raddr.(r) addr @ !assumptions;
          assumptions := assume_bit unr frame h.re.(r) en :: !assumptions)
        c.reads)
    cycles;
  match Solver.solve ~assumptions:!assumptions solver with
  | Solver.Unsat -> Error "unexpected UNSAT under concrete stimulus"
  | Solver.Sat ->
    let expected = reference_run ~aw ~init_word:(fun _ -> 0) cycles in
    let ok = ref true in
    List.iteri
      (fun frame observed ->
        Array.iteri
          (fun r expect ->
            match expect with
            | None -> ()
            | Some word ->
              let got = ref 0 in
              Array.iteri
                (fun b s ->
                  if Solver.value solver (Cnf.lit unr ~frame s) then
                    got := !got lor (1 lsl b))
                h.rd.(r);
              if !got <> word then ok := false)
          observed)
      expected;
    if !ok then Ok () else Error "read data mismatch"

let gen_cycles ~aw ~dw ~wports ~rports =
  QCheck2.Gen.(
    let gen_cycle =
      let gen_write = map2 (fun a d -> (a, d)) (int_bound ((1 lsl aw) - 1)) (int_bound ((1 lsl dw) - 1)) in
      let* writes = array_size (pure wports) (pair gen_write bool) in
      let* reads = array_size (pure rports) (pair (int_bound ((1 lsl aw) - 1)) bool) in
      (* Avoid data races: disable later writes that hit an earlier enabled
         write's address this cycle (the paper assumes race freedom). *)
      let seen = Hashtbl.create 4 in
      let writes =
        Array.map
          (fun ((a, d), en) ->
            let en = en && not (Hashtbl.mem seen a) in
            if en then Hashtbl.add seen a ();
            (a, d, en))
          writes
      in
      pure { writes; reads }
    in
    list_size (int_range 1 6) gen_cycle)

(* Arbitrary initial contents: solve under a concrete stimulus, extract the
   initial memory the solver chose, and check the model's read data against a
   reference memory seeded with exactly that initial state. *)
let run_arbitrary_init_check ~aw ~dw ~wports ~rports cycles =
  let h = harness ~aw ~dw ~wports ~rports ~init:Netlist.Arbitrary in
  let solver = Solver.create () in
  let unr = Cnf.create solver h.net in
  let emm = Emm.create unr in
  let assumptions = ref [] in
  List.iteri
    (fun frame c ->
      Emm.add_constraints emm frame;
      Array.iteri
        (fun w (addr, data, en) ->
          assumptions := assume_bus unr frame h.waddr.(w) addr @ !assumptions;
          assumptions := assume_bus unr frame h.wdata.(w) data @ !assumptions;
          assumptions := assume_bit unr frame h.we.(w) en :: !assumptions)
        c.writes;
      Array.iteri
        (fun r (addr, en) ->
          assumptions := assume_bus unr frame h.raddr.(r) addr @ !assumptions;
          assumptions := assume_bit unr frame h.re.(r) en :: !assumptions)
        c.reads)
    cycles;
  match Solver.solve ~assumptions:!assumptions solver with
  | Solver.Unsat -> false
  | Solver.Sat ->
    let init_words =
      match Emm.mem_init_of_model emm with
      | [ (_, words) ] -> words
      | [] -> []
      | _ -> []
    in
    let init_word a = match List.assoc_opt a init_words with Some w -> w | None -> 0 in
    let expected = reference_run ~aw ~init_word cycles in
    List.for_all2
      (fun frame observed ->
        List.for_all
          (fun r ->
            match observed.(r) with
            | None -> true
            | Some word ->
              let got = ref 0 in
              Array.iteri
                (fun b s ->
                  if Solver.value solver (Cnf.lit unr ~frame s) then
                    got := !got lor (1 lsl b))
                h.rd.(r);
              !got = word)
          (List.init rports Fun.id))
      (List.mapi (fun i _ -> i) cycles)
      expected

let prop_arbitrary_init_consistent =
  QCheck2.Test.make ~count:60 ~name:"arbitrary-init model matches extracted memory"
    (gen_cycles ~aw:2 ~dw:3 ~wports:1 ~rports:2)
    (fun cycles -> run_arbitrary_init_check ~aw:2 ~dw:3 ~wports:1 ~rports:2 cycles)

let prop_forwarding_single_port =
  QCheck2.Test.make ~count:100 ~name:"forwarding semantics, 1R1W"
    (gen_cycles ~aw:2 ~dw:3 ~wports:1 ~rports:1)
    (fun cycles ->
      run_forwarding_check ~aw:2 ~dw:3 ~wports:1 ~rports:1 ~init:Netlist.Zeros cycles
      = Ok ())

let prop_forwarding_multi_port =
  QCheck2.Test.make ~count:60 ~name:"forwarding semantics, 3R2W"
    (gen_cycles ~aw:2 ~dw:2 ~wports:2 ~rports:3)
    (fun cycles ->
      run_forwarding_check ~aw:2 ~dw:2 ~wports:2 ~rports:3 ~init:Netlist.Zeros cycles
      = Ok ())

(* {2 Constraint-size formulas (§3, §4.1)} *)

let test_constraint_counts () =
  let aw = 3 and dw = 4 and wports = 2 and rports = 3 in
  let h = harness ~aw ~dw ~wports ~rports ~init:Netlist.Zeros in
  let solver = Solver.create () in
  (* Plain mode: the §4.1 size formulas describe the paper-faithful
     encoding, not the simplifying one. *)
  let unr = Cnf.create ~simplify:false solver h.net in
  (* Disable eq-6 pairing so the §4.1 counts are isolated. *)
  let emm = Emm.create ~init_consistency:false ~simplify:false unr in
  for k = 0 to 5 do
    Emm.add_constraints emm k;
    let c = Emm.counts_at emm k in
    let predicted_cl = Emm.predicted_clauses ~aw ~dw ~k ~writes:wports ~reads:rports in
    let predicted_g = Emm.predicted_gates ~k ~writes:wports ~reads:rports in
    Alcotest.(check int)
      (Printf.sprintf "clauses at depth %d" k)
      predicted_cl
      (c.Emm.addr_clauses + c.Emm.data_clauses);
    Alcotest.(check int) (Printf.sprintf "gates at depth %d" k) predicted_g c.Emm.excl_gates
  done

let test_counts_quadratic_growth () =
  (* Cumulative constraints grow quadratically: the per-depth increment is
     linear in k. *)
  let h = harness ~aw:2 ~dw:2 ~wports:1 ~rports:1 ~init:Netlist.Zeros in
  let solver = Solver.create () in
  let unr = Cnf.create ~simplify:false solver h.net in
  let emm = Emm.create ~init_consistency:false ~simplify:false unr in
  let increments =
    List.map
      (fun k ->
        Emm.add_constraints emm k;
        let c = Emm.counts_at emm k in
        c.Emm.addr_clauses + c.Emm.data_clauses)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let diffs =
    match increments with
    | _ :: tl -> List.map2 (fun a b -> b - a) (List.filteri (fun i _ -> i < 5) increments) tl
    | [] -> []
  in
  (* Linear increment: constant second difference. *)
  match diffs with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check int) "constant slope" d d') rest
  | [] -> Alcotest.fail "no data"

let test_model_size_scaling () =
  (* The paper's core scaling claim: EMM constraint sizes are linear in the
     address width, while the explicit model grows with memory capacity
     (2^AW latches). *)
  let emm_clauses aw =
    let h = harness ~aw ~dw:8 ~wports:1 ~rports:1 ~init:Netlist.Zeros in
    let solver = Solver.create () in
    let unr = Cnf.create ~simplify:false solver h.net in
    let emm = Emm.create ~init_consistency:false ~simplify:false unr in
    for k = 0 to 5 do
      Emm.add_constraints emm k
    done;
    let c = Emm.counts_total emm in
    c.Emm.addr_clauses + c.Emm.data_clauses
  in
  let explicit_latches aw =
    let h = harness ~aw ~dw:8 ~wports:1 ~rports:1 ~init:Netlist.Zeros in
    (Netlist.stats (Explicitmem.expand h.net)).Netlist.num_latches
  in
  (* Doubling AW adds a constant to EMM but doubles the explicit model. *)
  Alcotest.(check bool) "EMM grows linearly in AW" true
    (emm_clauses 8 - emm_clauses 4 = emm_clauses 12 - emm_clauses 8);
  Alcotest.(check int) "explicit doubles per AW bit" (2 * explicit_latches 4)
    (explicit_latches 5)

(* {2 EMM against explicit modeling on closed designs} *)

(* A small closed design: a counter-driven writer and an input-driven reader
   feeding an accumulator, with a property on the accumulator. *)
let closed_design ~init ~target =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init in
  let count = Hdl.reg ctx "count" ~width:2 in
  Hdl.connect ctx count (Hdl.incr ctx count);
  let we = Hdl.input_bit ctx "we" in
  Hdl.write_port ctx mem ~addr:count ~data:(Hdl.not_v count) ~enable:we;
  let raddr = Hdl.input ctx "raddr" ~width:2 in
  let re = Hdl.input_bit ctx "re" in
  let rd = Hdl.read_port ctx mem ~addr:raddr ~enable:re in
  let acc = Hdl.reg ctx "acc" ~width:2 in
  let gated = Hdl.mux2 ctx re rd (Hdl.zero ~width:2) in
  Hdl.connect ctx acc (Hdl.xor_v ctx acc gated);
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx acc target));
  Hdl.netlist ctx

let falsify_config depth =
  { Bmc.Engine.default_config with max_depth = depth; proof_checks = false }

let verdict_signature = function
  | Bmc.Engine.Counterexample t -> `Cex t.Bmc.Trace.depth
  | Bmc.Engine.Proof { depth; _ } -> `Proof depth
  | Bmc.Engine.Bounded_safe d -> `Safe d
  | Bmc.Engine.Reasons_stable d -> `Stable d
  | Bmc.Engine.Timed_out d -> `Timeout d
  | Bmc.Engine.Out_of_budget { depth; _ } -> `Budget depth

let prop_emm_matches_explicit =
  QCheck2.Test.make ~count:12 ~name:"EMM verdict = explicit-model verdict"
    QCheck2.Gen.(pair (int_bound 3) bool)
    (fun (target, arbitrary) ->
      let init = if arbitrary then Netlist.Arbitrary else Netlist.Zeros in
      let net = closed_design ~init ~target in
      let emm_result, _ = Emm.check ~config:(falsify_config 6) net ~property:"p" in
      let expanded = Explicitmem.expand net in
      let exp_result =
        Bmc.Engine.check ~config:(falsify_config 6) expanded ~property:"p"
      in
      let same =
        verdict_signature emm_result.Bmc.Engine.verdict
        = verdict_signature exp_result.Bmc.Engine.verdict
      in
      let emm_replays =
        match emm_result.Bmc.Engine.verdict with
        | Bmc.Engine.Counterexample t -> Bmc.Trace.replay net t
        | _ -> true
      in
      let explicit_replays =
        match exp_result.Bmc.Engine.verdict with
        | Bmc.Engine.Counterexample t -> Bmc.Trace.replay expanded t
        | _ -> true
      in
      same && emm_replays && explicit_replays)

(* {2 End-to-end BMC with EMM} *)

let test_emm_counterexample () =
  (* Write 5 to address 0, read it back: rd can become 5. *)
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:3 ~init:Netlist.Zeros in
  let wdata = Hdl.input ctx "wdata" ~width:3 in
  let we = Hdl.input_bit ctx "we" in
  Hdl.write_port ctx mem ~addr:(Hdl.zero ~width:2) ~data:wdata ~enable:we;
  let rd = Hdl.read_port ctx mem ~addr:(Hdl.zero ~width:2) ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 5));
  let net = Hdl.netlist ctx in
  let result, _ = Emm.check ~config:(falsify_config 4) net ~property:"p" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    Alcotest.(check int) "depth" 1 t.Bmc.Trace.depth;
    Alcotest.(check bool) "replays" true (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "expected counterexample"

let test_emm_zero_memory_proof () =
  (* Never-written zero memory always reads zero: provable. *)
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:3 ~data_width:4 ~init:Netlist.Zeros in
  let raddr = Hdl.input ctx "raddr" ~width:3 in
  let rd = Hdl.read_port ctx mem ~addr:raddr ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Hdl.eq_const ctx rd 0);
  let net = Hdl.netlist ctx in
  let result, _ = Emm.check net ~property:"p" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Proof _ -> ()
  | v ->
    Alcotest.failf "expected proof, got %s"
      (Format.asprintf "%a" Bmc.Engine.pp_verdict v)

(* Arbitrary-initial-state consistency (§4.2): two reads of the same
   never-written location must agree. *)
let same_address_design () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Arbitrary in
  let a = Hdl.input ctx "a" ~width:2 in
  let b = Hdl.input ctx "b" ~width:2 in
  let rd1 = Hdl.read_port ctx mem ~addr:a ~enable:Netlist.true_ in
  let rd2 = Hdl.read_port ctx mem ~addr:b ~enable:Netlist.true_ in
  let net = Hdl.netlist ctx in
  let equal_addresses = Hdl.eq ctx a b in
  let equal_data = Hdl.eq ctx rd1 rd2 in
  Hdl.assert_always ctx "consistent" (Netlist.implies net equal_addresses equal_data);
  net

let test_init_consistency_two_ports () =
  let net = same_address_design () in
  let result, _ = Emm.check ~config:(falsify_config 2) net ~property:"consistent" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Bounded_safe _ | Bmc.Engine.Proof _ -> ()
  | _ -> Alcotest.fail "expected no counterexample with eq-(6) constraints"

let test_init_consistency_ablated () =
  let net = same_address_design () in
  let result, _ =
    Emm.check ~config:(falsify_config 2) ~init_consistency:false net
      ~property:"consistent"
  in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    (* The counterexample is spurious: simulation contradicts it. *)
    Alcotest.(check bool) "spurious" false (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "expected spurious counterexample without eq-(6)"

(* Cross-frame consistency of the same read port: the paper's count formula
   mentions only cross-port pairs, but same-port reads at different depths
   must also agree on never-written locations. *)
let cross_frame_design () =
  let ctx = Hdl.create () in
  let net = Hdl.netlist ctx in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Arbitrary in
  let rd = Hdl.read_port ctx mem ~addr:(Hdl.zero ~width:2) ~enable:Netlist.true_ in
  let started = Hdl.reg_bit ctx "started" in
  Hdl.connect_bit ctx started Netlist.true_;
  let first = Hdl.reg ctx "first" ~width:2 in
  Hdl.connect ctx first (Hdl.mux2 ctx started first rd);
  Hdl.assert_always ctx "stable"
    (Netlist.implies net started (Hdl.eq ctx first rd));
  net

let test_init_consistency_cross_frame () =
  let net = cross_frame_design () in
  let result, _ = Emm.check ~config:(falsify_config 4) net ~property:"stable" in
  (match result.Bmc.Engine.verdict with
  | Bmc.Engine.Bounded_safe _ | Bmc.Engine.Proof _ -> ()
  | _ -> Alcotest.fail "expected no counterexample with eq-(6) constraints");
  let ablated, _ =
    Emm.check ~config:(falsify_config 4) ~init_consistency:false net ~property:"stable"
  in
  match ablated.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    Alcotest.(check bool) "spurious" false (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "expected spurious counterexample without eq-(6)"

let test_induction_with_arbitrary_memory () =
  (* The cross-frame design is provable only with precise arbitrary-init
     modeling; BMC-3's induction machinery should close it. *)
  let net = cross_frame_design () in
  let config = { Bmc.Engine.default_config with max_depth = 20 } in
  let result, _ = Emm.check ~config net ~property:"stable" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Proof _ -> ()
  | v ->
    Alcotest.failf "expected proof, got %s"
      (Format.asprintf "%a" Bmc.Engine.pp_verdict v)

(* {2 Memory-state-aware termination proofs}

   Proved diameters pinned on hand-built designs, against the explicit
   expansion whose loop-free-path constraints range over the expanded memory
   bits and are sound unconditionally.  The EMM engine reaches the same
   verdict {e and} the same proof kind and depth through its memory-state
   distinctness predicates ({!Emm.mem_distinct_lit}); the [mem_distinct:false]
   knob reproduces the pre-fix behavior and shows what each design would
   degrade to. *)

let proof_config = { Bmc.Engine.default_config with max_depth = 12 }

let proof_sig = function
  | Bmc.Engine.Proof { depth; kind = Bmc.Engine.Forward_diameter } ->
    Printf.sprintf "diameter@%d" depth
  | Bmc.Engine.Proof { depth; kind = Bmc.Engine.Backward_induction } ->
    Printf.sprintf "induction@%d" depth
  | Bmc.Engine.Counterexample t -> Printf.sprintf "cex@%d" t.Bmc.Trace.depth
  | Bmc.Engine.Bounded_safe d -> Printf.sprintf "safe@%d" d
  | v -> Format.asprintf "%a" Bmc.Engine.pp_verdict v

let check_pinned name net ~expect ~mutated =
  let emm_result, counts = Emm.check ~config:proof_config net ~property:"p" in
  Alcotest.(check string) (name ^ ": EMM") expect (proof_sig emm_result.Bmc.Engine.verdict);
  let exp_result =
    Bmc.Engine.check ~config:proof_config (Explicitmem.expand net) ~property:"p"
  in
  Alcotest.(check string) (name ^ ": explicit") expect
    (proof_sig exp_result.Bmc.Engine.verdict);
  let mut_result, mut_counts =
    Emm.check ~config:proof_config ~mem_distinct:false net ~property:"p"
  in
  Alcotest.(check string) (name ^ ": mem_distinct:false degrades as expected")
    mutated (proof_sig mut_result.Bmc.Engine.verdict);
  Alcotest.(check int) (name ^ ": no distinctness telemetry when disabled") 0
    mut_counts.Emm.distinct_preds;
  ignore counts

(* A write-free memory cannot evolve, so the distinctness predicates reduce
   to constants and the forward diameter is the latch period: the 1-bit
   counter gives diameter 2, with or without the fix. *)
let test_pinned_write_free () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:1 ~data_width:2 ~init:Netlist.Zeros in
  let cnt = Hdl.reg ctx "cnt" ~width:1 in
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  let rd = Hdl.read_port ctx mem ~addr:cnt ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 3));
  check_pinned "write-free" (Hdl.netlist ctx) ~expect:"diameter@2"
    ~mutated:"diameter@2"

(* A single latch plus a filling memory: the safe sibling of the over-proof
   regression in test_differential.  Both models close it by induction at 2;
   the pre-fix engine still "proves" at depth 2, but as a forward-diameter
   proof fired by latch-only distinctness — right depth, wrong reason, and
   unsound in general (see the unsafe sibling). *)
let test_pinned_counter_mem () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:1 ~data_width:2 ~init:Netlist.Zeros in
  let cnt = Hdl.reg ctx "cnt" ~width:1 in
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  Hdl.write_port ctx mem ~addr:cnt ~data:(Hdl.const ~width:2 1) ~enable:Netlist.true_;
  let rd = Hdl.read_port ctx mem ~addr:cnt ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 2));
  check_pinned "counter-mem" (Hdl.netlist ctx) ~expect:"induction@2"
    ~mutated:"diameter@2"

(* A pure-memory FSM: zero latches, every frame writes 1 to word 0.  The
   pre-fix engine had no state vector at all here and PR 7's guard disabled
   termination checks entirely (bounded-safe at the depth limit); the
   distinctness predicates re-enable them and the proof lands exactly where
   the explicit expansion puts it. *)
let test_pinned_pure_memory () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:1 ~data_width:2 ~init:Netlist.Zeros in
  Hdl.write_port ctx mem ~addr:(Hdl.const ~width:1 0) ~data:(Hdl.const ~width:2 1)
    ~enable:Netlist.true_;
  let rd = Hdl.read_port ctx mem ~addr:(Hdl.const ~width:1 1) ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 3));
  check_pinned "pure-memory" (Hdl.netlist ctx) ~expect:"induction@1"
    ~mutated:"safe@12"

(* The distinctness machinery reports its own telemetry: a proof-mode run on
   a write-port design builds change predicates and their clauses, and the
   cumulative counts include them. *)
let test_distinct_counts_reported () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:1 ~data_width:2 ~init:Netlist.Zeros in
  let cnt = Hdl.reg ctx "cnt" ~width:1 in
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  Hdl.write_port ctx mem ~addr:cnt ~data:(Hdl.const ~width:2 1) ~enable:Netlist.true_;
  let rd = Hdl.read_port ctx mem ~addr:cnt ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 2));
  let _, counts = Emm.check ~config:proof_config (Hdl.netlist ctx) ~property:"p" in
  Alcotest.(check bool) "distinct_preds > 0" true (counts.Emm.distinct_preds > 0);
  Alcotest.(check bool) "distinct_clauses > 0" true (counts.Emm.distinct_clauses > 0)

(* Loop-free-path constraints come on demand, for the frame pairs a model
   repeats: quicksort-n3 P1 still proves at forward diameter 32, and its
   constrained pairs are fewer than a tenth of the 528 pairs among frames
   0..32 that the eager encoding constrained. *)
let test_lfp_pairs_on_demand () =
  let recorder = Obs.create ~track_alloc:false () in
  let prev = Obs.current () in
  Obs.set_current (Some recorder);
  let result, _ =
    Fun.protect
      ~finally:(fun () -> Obs.set_current prev)
      (fun () ->
        Emm.check
          ~config:{ Bmc.Engine.default_config with max_depth = 40 }
          (Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3))
          ~property:"P1")
  in
  Alcotest.(check string) "verdict" "diameter@32" (proof_sig result.Bmc.Engine.verdict);
  let pairs = Obs.counter_total recorder "bmc.lfp_pairs" in
  let rounds = Obs.counter_total recorder "bmc.lfp_rounds" in
  Printf.printf "quicksort-n3 P1: %.0f pairs constrained in %.0f refinement rounds\n%!"
    pairs rounds;
  Alcotest.(check bool) "some pair constrained" true (pairs > 0.0);
  Alcotest.(check bool) "under a tenth of the eager pairs" true (pairs < 53.0);
  Alcotest.(check bool) "some re-solve" true (rounds > 0.0)

(* Under a recorder every solver call ends its "solve" span with one
   "solve.counts" instant for the span's query, and the instants' deltas add
   up to the run's solver counters: quicksort-n3 P1 to depth 20, where every
   termination query is satisfiable and every falsification query is not.
   The one exception is propagation of unit clauses as they are added,
   outside any call; each such propagation fixes a variable at the root for
   good, so there are fewer of them than variables. *)
let test_solve_counts () =
  let recorder = Obs.create ~track_alloc:false () in
  let prev = Obs.current () in
  Obs.set_current (Some recorder);
  let result, _ =
    Fun.protect
      ~finally:(fun () -> Obs.set_current prev)
      (fun () ->
        Emm.check
          ~config:{ Bmc.Engine.default_config with max_depth = 20 }
          (Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3))
          ~property:"P1")
  in
  let str k attrs = match List.assoc_opt k attrs with Some (Obs.Str s) -> s | _ -> "" in
  let int k attrs = Option.value (Obs.attr_int k attrs) ~default:(-1) in
  let open_query = ref None and spans = ref 0 and answers = ref [] in
  let sums = Array.make 4 0 in
  let fields = [| "conflicts"; "decisions"; "propagations"; "restarts" |] in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Obs.Begin { name = "solve"; attrs; _ } ->
        incr spans;
        open_query := Some (str "query" attrs, 0)
      | Obs.Instant { name = "solve.counts"; attrs; _ } -> (
        match !open_query with
        | Some (q, n) ->
          Alcotest.(check string) "instant of the span's query" q (str "query" attrs);
          open_query := Some (q, n + 1);
          answers := (q, str "answer" attrs) :: !answers;
          Array.iteri (fun i f -> sums.(i) <- sums.(i) + int f attrs) fields
        | None -> Alcotest.fail "solve.counts outside a solve span")
      | Obs.End { name = "solve"; _ } ->
        (match !open_query with
        | Some (_, n) -> Alcotest.(check int) "one instant per solve span" 1 n
        | None -> Alcotest.fail "unmatched solve span");
        open_query := None
      | _ -> ())
    (Obs.rows recorder);
  Alcotest.(check string) "verdict" "safe@20" (proof_sig result.Bmc.Engine.verdict);
  Alcotest.(check int) "an instant per span" !spans (List.length !answers);
  List.iter
    (fun (q, a) ->
      Alcotest.(check string) (q ^ " answer") (if q = "falsify" then "unsat" else "sat") a)
    !answers;
  let stats = result.Bmc.Engine.stats in
  let s = stats.Bmc.Engine.solver_stats in
  Alcotest.(check (array int)) "deltas sum to the run's counters"
    [| s.Solver.conflicts; s.decisions; s.restarts |]
    [| sums.(0); sums.(1); sums.(3) |];
  let intake = s.propagations - sums.(2) in
  Printf.printf "quicksort-n3 P1 to depth 20: %d queries, %d conflicts, %d propagations at clause intake\n%!"
    !spans s.conflicts intake;
  Alcotest.(check bool) "propagations outside calls fix root variables" true
    (intake >= 0 && intake < stats.num_vars)

(* {2 Phantom reads shared with real reads}

   The distinctness machinery needs the word a write port's target location
   holds at each frame.  When an always-enabled read of the same memory at
   the same frame has the same address bus, that read {e is} the word, so
   it stands in for the phantom read and the memory keeps one access per
   frame.  A gated read observes the word only when its enable holds, so a
   phantom read is still built beside it. *)

let counter_mem ~gated =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:1 ~data_width:2 ~init:Netlist.Zeros in
  let cnt = Hdl.reg ctx "cnt" ~width:1 in
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  Hdl.write_port ctx mem ~addr:cnt ~data:(Hdl.const ~width:2 1) ~enable:Netlist.true_;
  let en = if gated then Hdl.input_bit ctx "en" else Netlist.true_ in
  let rd = Hdl.read_port ctx mem ~addr:cnt ~enable:en in
  let net = Hdl.netlist ctx in
  Hdl.assert_always ctx "p"
    (Netlist.not_ (Netlist.and_ net en (Hdl.eq_const ctx rd 2)));
  net

(* One access per frame: eq. (6) pairs every two of the d + 1 reads at
   depths 0..d, d(d+1)/2 pairs in all; a phantom read per frame beside each
   read would double the accesses. *)
let test_phantom_shared_with_read () =
  let net = counter_mem ~gated:false in
  let result, counts = Emm.check ~config:proof_config net ~property:"p" in
  Alcotest.(check string) "verdict" "induction@2" (proof_sig result.Bmc.Engine.verdict);
  let d = 2 in
  Alcotest.(check int) "one access per frame" (d * (d + 1) / 2) counts.Emm.init_pairs

(* Gated on an input, the read leaves its data unconstrained when disabled:
   the phantom reads stay, and every encoding agrees on the verdict. *)
let test_phantom_kept_beside_gated_read () =
  let net = counter_mem ~gated:true in
  let result, counts = Emm.check ~config:proof_config net ~property:"p" in
  let verdict = proof_sig result.Bmc.Engine.verdict in
  Alcotest.(check string) "verdict" "induction@2" verdict;
  Alcotest.(check int) "read and phantom accesses" 10 counts.Emm.init_pairs;
  let explicit =
    Bmc.Engine.check ~config:proof_config (Explicitmem.expand net) ~property:"p"
  in
  Alcotest.(check string) "explicit" (proof_sig explicit.Bmc.Engine.verdict) verdict;
  let plain, _ = Emm.check ~config:proof_config ~simplify:false net ~property:"p" in
  Alcotest.(check string) "plain encoder" (proof_sig plain.Bmc.Engine.verdict) verdict

let test_words_init_rejected () =
  let ctx = Hdl.create () in
  let _mem =
    Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2
      ~init:(Netlist.Words [| 1; 2; 3; 0 |])
  in
  Hdl.assert_always ctx "p" Netlist.true_;
  let net = Hdl.netlist ctx in
  let solver = Solver.create () in
  let unr = Cnf.create solver net in
  Alcotest.check_raises "words rejected"
    (Invalid_argument "Emm.create: memory m has concrete initial words")
    (fun () -> ignore (Emm.create unr))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_forwarding_single_port; prop_forwarding_multi_port;
        prop_arbitrary_init_consistent; prop_emm_matches_explicit;
      ]
  in
  Alcotest.run "emm"
    [
      ( "unit",
        [
          Alcotest.test_case "constraint counts match paper" `Quick test_constraint_counts;
          Alcotest.test_case "quadratic growth" `Quick test_counts_quadratic_growth;
          Alcotest.test_case "model size scaling" `Quick test_model_size_scaling;
          Alcotest.test_case "counterexample via memory" `Quick test_emm_counterexample;
          Alcotest.test_case "zero-memory proof" `Quick test_emm_zero_memory_proof;
          Alcotest.test_case "init consistency, two ports" `Quick
            test_init_consistency_two_ports;
          Alcotest.test_case "init consistency ablated" `Quick test_init_consistency_ablated;
          Alcotest.test_case "init consistency across frames" `Quick
            test_init_consistency_cross_frame;
          Alcotest.test_case "pinned diameter: write-free memory" `Quick
            test_pinned_write_free;
          Alcotest.test_case "pinned diameter: counter + memory fill" `Quick
            test_pinned_counter_mem;
          Alcotest.test_case "pinned diameter: pure-memory FSM" `Quick
            test_pinned_pure_memory;
          Alcotest.test_case "distinctness telemetry in counts" `Quick
            test_distinct_counts_reported;
          Alcotest.test_case "loop-free-path pairs on demand" `Quick
            test_lfp_pairs_on_demand;
          Alcotest.test_case "per-query solver counts" `Quick test_solve_counts;
          Alcotest.test_case "phantom read shared with an enabled read" `Quick
            test_phantom_shared_with_read;
          Alcotest.test_case "phantom read kept beside a gated read" `Quick
            test_phantom_kept_beside_gated_read;
          Alcotest.test_case "induction with arbitrary memory" `Quick
            test_induction_with_arbitrary_memory;
          Alcotest.test_case "words init rejected" `Quick test_words_init_rejected;
        ] );
      ("property", qsuite);
    ]
