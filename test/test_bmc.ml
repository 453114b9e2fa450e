(* BMC engine tests on small memory-free designs: counterexample depths,
   induction proofs, trace replay, and loop-free-path termination. *)

let counter_design ~width =
  let ctx = Hdl.create () in
  let count = Hdl.reg ctx "count" ~width in
  Hdl.connect ctx count (Hdl.incr ctx count);
  (ctx, count)

(* A counter that counts up to [limit] and holds. *)
let saturating_counter ~width ~limit =
  let ctx = Hdl.create () in
  let count = Hdl.reg ctx "count" ~width in
  let at_limit = Hdl.eq_const ctx count limit in
  Hdl.connect ctx count
    (Hdl.mux2 ctx at_limit count (Hdl.incr ctx count));
  (ctx, count)

let check ?config net ~property = Bmc.Engine.check ?config net ~property

let test_counter_counterexample () =
  let ctx, count = counter_design ~width:3 in
  Hdl.assert_always ctx "never5" (Netlist.not_ (Hdl.eq_const ctx count 5));
  let net = Hdl.netlist ctx in
  let result = check net ~property:"never5" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    Alcotest.(check int) "depth" 5 t.Bmc.Trace.depth;
    Alcotest.(check bool) "replays" true (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "expected counterexample"

let test_counter_wraps () =
  (* A 3-bit counter wraps, so it revisits 0: no state is unreachable. *)
  let ctx, count = counter_design ~width:3 in
  Hdl.assert_always ctx "never7" (Netlist.not_ (Hdl.eq_const ctx count 7));
  let net = Hdl.netlist ctx in
  let result = check net ~property:"never7" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t -> Alcotest.(check int) "depth" 7 t.Bmc.Trace.depth
  | _ -> Alcotest.fail "expected counterexample"

let test_saturating_proof () =
  (* Counter saturates at 4, so it can never reach 6: provable. *)
  let ctx, count = saturating_counter ~width:3 ~limit:4 in
  Hdl.assert_always ctx "never6" (Netlist.not_ (Hdl.eq_const ctx count 6));
  let net = Hdl.netlist ctx in
  let result = check net ~property:"never6" in
  (match result.Bmc.Engine.verdict with
  | Bmc.Engine.Proof { depth; _ } ->
    Alcotest.(check bool) "reasonable proof depth" true (depth <= 8)
  | v ->
    Alcotest.failf "expected proof, got %s"
      (Format.asprintf "%a" Bmc.Engine.pp_verdict v))

let test_forward_diameter () =
  (* Counter saturates at 3, so 7 is unreachable — but "count <> 7" is not
     inductive at small depths (the unreachable chain 4 -> 5 -> 6 -> 7
     provides backward paths), so the forward-diameter check fires first,
     exactly when no loop-free path of length 4 exists from reset. *)
  let ctx, count = saturating_counter ~width:3 ~limit:3 in
  Hdl.assert_always ctx "never7" (Netlist.not_ (Hdl.eq_const ctx count 7));
  let net = Hdl.netlist ctx in
  let result = check net ~property:"never7" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Proof { depth; kind = Bmc.Engine.Forward_diameter } ->
    Alcotest.(check int) "diameter" 4 depth
  | v ->
    Alcotest.failf "expected forward-diameter proof, got %s"
      (Format.asprintf "%a" Bmc.Engine.pp_verdict v)

let test_backward_induction () =
  (* A sticky flag: once set it stays set; starts set.  "flag" is inductive,
     so backward induction proves it at depth 1 even though the counter next
     to it has a long diameter. *)
  let ctx = Hdl.create () in
  let flag = Hdl.reg_bit ctx ~init:(Some true) "flag" in
  Hdl.connect_bit ctx flag flag;
  let count = Hdl.reg ctx "count" ~width:6 in
  Hdl.connect ctx count (Hdl.incr ctx count);
  Hdl.assert_always ctx "flag" flag;
  let net = Hdl.netlist ctx in
  let result = check net ~property:"flag" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Proof { depth; kind = Bmc.Engine.Backward_induction } ->
    Alcotest.(check bool) "shallow" true (depth <= 2)
  | v ->
    Alcotest.failf "expected induction proof, got %s"
      (Format.asprintf "%a" Bmc.Engine.pp_verdict v)

let test_bounded_safe () =
  let ctx, count = counter_design ~width:6 in
  Hdl.assert_always ctx "never50" (Netlist.not_ (Hdl.eq_const ctx count 50));
  let net = Hdl.netlist ctx in
  let config = { Bmc.Engine.default_config with max_depth = 10 } in
  let result = check ~config net ~property:"never50" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Bounded_safe 10 -> ()
  | _ -> Alcotest.fail "expected bounded-safe"

let test_input_driven_trace () =
  (* The failure needs specific input values; the trace must carry them. *)
  let ctx = Hdl.create () in
  let data = Hdl.input ctx "data" ~width:4 in
  let seen = Hdl.reg_bit ctx "seen" in
  Hdl.connect_bit ctx seen
    (Netlist.or_ (Hdl.netlist ctx) seen (Hdl.eq_const ctx data 9));
  Hdl.assert_always ctx "never_seen" (Netlist.not_ seen);
  let net = Hdl.netlist ctx in
  let result = check net ~property:"never_seen" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    Alcotest.(check int) "depth" 1 t.Bmc.Trace.depth;
    Alcotest.(check bool) "replays" true (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "expected counterexample"

let test_arbitrary_init_latch () =
  (* A latch with arbitrary initial value can start violating. *)
  let ctx = Hdl.create () in
  let mystery = Hdl.reg ctx ~init:None "mystery" ~width:2 in
  Hdl.connect ctx mystery mystery;
  Hdl.assert_always ctx "not3" (Netlist.not_ (Hdl.eq_const ctx mystery 3));
  let net = Hdl.netlist ctx in
  let result = check net ~property:"not3" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    Alcotest.(check int) "depth 0" 0 t.Bmc.Trace.depth;
    Alcotest.(check bool) "replays with latch0" true (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "expected counterexample at depth 0"

let test_latch_reasons_locality () =
  (* Two independent counters; the property watches only one.  PBA latch
     reasons must not include the irrelevant counter. *)
  let ctx = Hdl.create () in
  let a = Hdl.reg ctx "a" ~width:3 in
  Hdl.connect ctx a (Hdl.incr ctx a);
  let b = Hdl.reg ctx "b" ~width:3 in
  Hdl.connect ctx b (Hdl.incr ctx b);
  Hdl.assert_always ctx "a_small" (Netlist.not_ (Hdl.eq_const ctx a 6));
  let net = Hdl.netlist ctx in
  let config =
    { Bmc.Engine.default_config with
      max_depth = 5;
      proof_checks = false;
      collect_reasons = true;
    }
  in
  let result = check ~config net ~property:"a_small" in
  (match result.Bmc.Engine.verdict with
  | Bmc.Engine.Bounded_safe _ -> ()
  | _ -> Alcotest.fail "expected bounded-safe");
  let names =
    List.map (Netlist.latch_name net) result.Bmc.Engine.stats.Bmc.Engine.latch_reasons
  in
  Alcotest.(check bool) "a in reasons" true
    (List.exists (fun n -> String.length n >= 1 && n.[0] = 'a') names);
  Alcotest.(check bool) "b not in reasons" false
    (List.exists (fun n -> String.length n >= 1 && n.[0] = 'b') names)

(* Only proof-based abstraction reads cores, so only a run that collects
   reasons gets a solver that keeps them; a certified run logs DRAT
   without them.  The solver is taken from the unroller the hooks see. *)
let test_cores_only_for_reasons () =
  let ctx, count = saturating_counter ~width:3 ~limit:4 in
  Hdl.assert_always ctx "never6" (Netlist.not_ (Hdl.eq_const ctx count 6));
  let net = Hdl.netlist ctx in
  let cores_of config =
    let kept = ref None in
    let hooks =
      {
        Bmc.Engine.no_hooks with
        on_unroll = (fun unr _ -> kept := Some (Satsolver.Solver.cores_enabled (Cnf.solver unr)));
      }
    in
    ignore (Bmc.Engine.check ~config ~hooks net ~property:"never6");
    Option.get !kept
  in
  let base = { Bmc.Engine.default_config with max_depth = 8 } in
  Alcotest.(check bool) "plain run keeps no cores" false (cores_of base);
  Alcotest.(check bool) "certified run keeps no cores" false
    (cores_of { base with certify = true });
  Alcotest.(check bool) "reason collection keeps cores" true
    (cores_of { base with collect_reasons = true })

let test_free_latch_abstraction () =
  (* Abstracting the only relevant latch turns a provable property into a
     spurious counterexample. *)
  let ctx = Hdl.create () in
  let flag = Hdl.reg_bit ctx ~init:(Some true) "flag" in
  Hdl.connect_bit ctx flag flag;
  Hdl.assert_always ctx "flag" flag;
  let net = Hdl.netlist ctx in
  let config =
    { Bmc.Engine.default_config with
      max_depth = 3;
      proof_checks = false;
      free_latches = (fun l -> Netlist.latch_name net l = "flag");
    }
  in
  let result = check ~config net ~property:"flag" in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    (* ... which must fail to replay on the concrete design. *)
    Alcotest.(check bool) "spurious" false (Bmc.Trace.replay net t)
  | _ -> Alcotest.fail "expected spurious counterexample"

(* Property test: BMC counterexample depth for a constant-comparison property
   on a free-running counter equals the constant. *)
let prop_counter_depth =
  QCheck2.Test.make ~count:30 ~name:"counter CE depth matches target value"
    (QCheck2.Gen.int_range 1 14)
    (fun target ->
      let ctx, count = counter_design ~width:4 in
      Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx count target));
      let net = Hdl.netlist ctx in
      let result = check net ~property:"p" in
      match result.Bmc.Engine.verdict with
      | Bmc.Engine.Counterexample t ->
        t.Bmc.Trace.depth = target && Bmc.Trace.replay net t
      | _ -> false)

(* Bit of a bus-shaped input name: "prefix[i]" reads bit i of [v]. *)
let bus_env assignments name =
  match String.index_opt name '[' with
  | None -> ( match List.assoc_opt name assignments with Some v -> v <> 0 | None -> false)
  | Some br ->
    let prefix = String.sub name 0 br in
    let idx = int_of_string (String.sub name (br + 1) (String.length name - br - 2)) in
    (match List.assoc_opt prefix assignments with
    | Some v -> (v lsr idx) land 1 = 1
    | None -> false)

(* Property test: explicit expansion preserves simulation behaviour. *)
let prop_explicit_expansion_equiv =
  QCheck2.Test.make ~count:50 ~name:"explicit expansion simulates identically"
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (quad (int_bound 3) (int_bound 7) bool (int_bound 3)))
    (fun steps ->
      (* A little design: write input data at input address, read back at
         another address, accumulate reads. *)
      let build () =
        let ctx = Hdl.create () in
        let waddr = Hdl.input ctx "waddr" ~width:2 in
        let wdata = Hdl.input ctx "wdata" ~width:3 in
        let we = Hdl.input_bit ctx "we" in
        let raddr = Hdl.input ctx "raddr" ~width:2 in
        let mem =
          Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:3 ~init:Netlist.Zeros
        in
        Hdl.write_port ctx mem ~addr:waddr ~data:wdata ~enable:we;
        let rd = Hdl.read_port ctx mem ~addr:raddr ~enable:Netlist.true_ in
        let acc = Hdl.reg ctx "acc" ~width:3 in
        Hdl.connect ctx acc (Hdl.xor_v ctx acc rd);
        Hdl.output ctx "acc_out" acc;
        Hdl.netlist ctx
      in
      let net = build () in
      let expanded = Explicitmem.expand net in
      let sim1 = Simulator.create net in
      let sim2 = Simulator.create expanded in
      List.for_all
        (fun (wa, wd, we, ra) ->
          let env =
            bus_env
              [ ("waddr", wa); ("wdata", wd); ("we", Bool.to_int we); ("raddr", ra) ]
          in
          Simulator.step sim1 ~inputs:env;
          Simulator.step sim2 ~inputs:env;
          List.for_all2
            (fun (n1, s1) (n2, s2) ->
              n1 = n2 && Simulator.value sim1 s1 = Simulator.value sim2 s2)
            (Netlist.outputs net) (Netlist.outputs expanded))
        steps)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_counter_depth; prop_explicit_expansion_equiv ]
  in
  Alcotest.run "bmc"
    [
      ( "engine",
        [
          Alcotest.test_case "counter counterexample" `Quick test_counter_counterexample;
          Alcotest.test_case "counter wraps" `Quick test_counter_wraps;
          Alcotest.test_case "saturating proof" `Quick test_saturating_proof;
          Alcotest.test_case "forward diameter" `Quick test_forward_diameter;
          Alcotest.test_case "backward induction" `Quick test_backward_induction;
          Alcotest.test_case "bounded safe" `Quick test_bounded_safe;
          Alcotest.test_case "input-driven trace" `Quick test_input_driven_trace;
          Alcotest.test_case "arbitrary-init latch" `Quick test_arbitrary_init_latch;
          Alcotest.test_case "latch reasons locality" `Quick test_latch_reasons_locality;
          Alcotest.test_case "cores only for reasons" `Quick test_cores_only_for_reasons;
          Alcotest.test_case "free-latch abstraction" `Quick test_free_latch_abstraction;
        ] );
      ("property", qsuite);
    ]
