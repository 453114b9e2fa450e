(* BDD model checker tests: agreement with known reachability facts and with
   the SAT-based engine, plus the blow-up guard on expanded memories. *)

let counter ~width ~bad =
  let ctx = Hdl.create () in
  let count = Hdl.reg ctx "count" ~width in
  Hdl.connect ctx count (Hdl.incr ctx count);
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx count bad));
  Hdl.netlist ctx

let test_unsafe_counter () =
  let net = counter ~width:3 ~bad:5 in
  let r = Bddmc.check net ~property:"p" in
  match r.Bddmc.verdict with
  | Bddmc.Unsafe steps -> Alcotest.(check int) "steps" 5 steps
  | _ -> Alcotest.fail "expected unsafe"

let test_safe_saturating () =
  let ctx = Hdl.create () in
  let count = Hdl.reg ctx "count" ~width:3 in
  let at_limit = Hdl.eq_const ctx count 4 in
  Hdl.connect ctx count (Hdl.mux2 ctx at_limit count (Hdl.incr ctx count));
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx count 6));
  let net = Hdl.netlist ctx in
  let r = Bddmc.check net ~property:"p" in
  match r.Bddmc.verdict with
  | Bddmc.Safe steps ->
    Alcotest.(check bool) "fixpoint within diameter" true (steps <= 6)
  | _ -> Alcotest.fail "expected safe"

let test_input_driven () =
  (* The bad state needs a specific input value on the way. *)
  let ctx = Hdl.create () in
  let d = Hdl.input ctx "d" ~width:3 in
  let seen = Hdl.reg_bit ctx "seen" in
  Hdl.connect_bit ctx seen
    (Netlist.or_ (Hdl.netlist ctx) seen (Hdl.eq_const ctx d 6));
  Hdl.assert_always ctx "p" (Netlist.not_ seen);
  let net = Hdl.netlist ctx in
  let r = Bddmc.check net ~property:"p" in
  match r.Bddmc.verdict with
  | Bddmc.Unsafe 1 -> ()
  | v -> Alcotest.failf "expected unsafe at 1, got %s" (Format.asprintf "%a" Bddmc.pp_verdict v)

let test_memory_rejected () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let rd = Hdl.read_port ctx mem ~addr:(Hdl.zero ~width:2) ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Hdl.eq_const ctx rd 0);
  let net = Hdl.netlist ctx in
  Alcotest.check_raises "memories must be expanded"
    (Invalid_argument "Bddmc.check: netlist has memory modules; expand them first")
    (fun () -> ignore (Bddmc.check net ~property:"p"))

let test_expanded_memory_checks () =
  (* After explicit expansion, BDD reachability can prove a small memory
     property: a never-written zero memory always reads 0. *)
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rd = Hdl.read_port ctx mem ~addr:ra ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Hdl.eq_const ctx rd 0);
  let net = Explicitmem.expand (Hdl.netlist ctx) in
  let r = Bddmc.check net ~property:"p" in
  match r.Bddmc.verdict with
  | Bddmc.Safe _ -> ()
  | v -> Alcotest.failf "expected safe, got %s" (Format.asprintf "%a" Bddmc.pp_verdict v)

let test_node_limit_on_big_memory () =
  (* The paper's observation: explicit memory models blow the BDD engine up.
     A tight node budget turns that into a reported verdict. *)
  let cfg = Designs.Quicksort.default_config ~n:4 in
  let net = Explicitmem.expand (Designs.Quicksort.build cfg) in
  let r = Bddmc.check ~max_nodes:20_000 ~max_steps:50 net ~property:"P1" in
  match r.Bddmc.verdict with
  | Bddmc.Node_limit -> ()
  | v -> Alcotest.failf "expected node limit, got %s" (Format.asprintf "%a" Bddmc.pp_verdict v)

(* Agreement with BMC on random small counter thresholds. *)
let prop_agrees_with_bmc =
  QCheck2.Test.make ~count:20 ~name:"BDD reachability agrees with BMC"
    (QCheck2.Gen.int_range 1 10)
    (fun bad ->
      let net = counter ~width:3 ~bad in
      let bdd = Bddmc.check net ~property:"p" in
      let bmc = Bmc.Engine.check net ~property:"p" in
      match (bdd.Bddmc.verdict, bmc.Bmc.Engine.verdict) with
      | Bddmc.Unsafe d1, Bmc.Engine.Counterexample t -> d1 = t.Bmc.Trace.depth
      | Bddmc.Safe _, Bmc.Engine.Proof _ -> true
      | _ -> false)

(* The engine keeps time on the clock the spans use, [Obs.now]: under a fixed
   recorder clock that advances one tick per reading, its time is a whole
   number of ticks. *)
let test_time_on_obs_clock () =
  let prev = Obs.current () in
  Obs.set_current (Some (Obs.create ~clock:(Obs.Clock.fixed ()) ~track_alloc:false ()));
  Fun.protect
    ~finally:(fun () -> Obs.set_current prev)
    (fun () ->
      let r = Bddmc.check (counter ~width:3 ~bad:5) ~property:"p" in
      Alcotest.(check bool) "time in clock ticks" true
        (Float.is_integer r.Bddmc.time && r.Bddmc.time >= 1.0))

let () =
  Alcotest.run "bddmc"
    [
      ( "unit",
        [
          Alcotest.test_case "unsafe counter" `Quick test_unsafe_counter;
          Alcotest.test_case "safe saturating" `Quick test_safe_saturating;
          Alcotest.test_case "input driven" `Quick test_input_driven;
          Alcotest.test_case "memory rejected" `Quick test_memory_rejected;
          Alcotest.test_case "expanded memory checks" `Quick test_expanded_memory_checks;
          Alcotest.test_case "node limit on big memory" `Quick
            test_node_limit_on_big_memory;
          Alcotest.test_case "time on the obs clock" `Quick test_time_on_obs_clock;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_agrees_with_bmc ]);
    ]
