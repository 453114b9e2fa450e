(* Proof-based abstraction tests: locality of latch reasons, memory-module
   abstraction (the paper's Table 2 phenomenon), soundness of proofs on the
   reduced model, and iterative abstraction. *)

(* Two counters plus a memory only one property cares about.  Counter [a]
   saturates at 5, so "a never reaches 7" holds and discovery keeps probing
   deeper instead of finding a counterexample. *)
let two_counter_design () =
  let ctx = Hdl.create () in
  let a = Hdl.reg ctx "a" ~width:3 in
  let a_limit = Hdl.eq_const ctx a 5 in
  Hdl.connect ctx a (Hdl.mux2 ctx a_limit a (Hdl.incr ctx a));
  let b = Hdl.reg ctx "b" ~width:3 in
  Hdl.connect ctx b (Hdl.incr ctx b);
  let mem = Hdl.memory ctx ~name:"mem" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let rd = Hdl.read_port ctx mem ~addr:(Hdl.select b ~hi:1 ~lo:0) ~enable:Netlist.true_ in
  let we = Hdl.input_bit ctx "we" in
  Hdl.write_port ctx mem ~addr:(Hdl.select a ~hi:1 ~lo:0)
    ~data:(Hdl.select a ~hi:1 ~lo:0) ~enable:we;
  Hdl.output ctx "rd" rd;
  Hdl.assert_always ctx "a_small" (Netlist.not_ (Hdl.eq_const ctx a 7));
  Hdl.assert_always ctx "rd_zero_or_written" Netlist.true_;
  Hdl.netlist ctx

let test_memory_abstracted_when_irrelevant () =
  let net = two_counter_design () in
  match Pba.discover ~max_depth:30 ~stability:5 net ~property:"a_small" with
  | Either.Right v ->
    Alcotest.failf "discovery concluded: %s" (Format.asprintf "%a" Bmc.Engine.pp_verdict v)
  | Either.Left a ->
    Alcotest.(check int) "memory abstracted" 0 (List.length a.Pba.modeled_memories);
    let kept_names = List.map (Netlist.latch_name net) a.Pba.kept_latches in
    Alcotest.(check bool) "a kept" true
      (List.exists (fun n -> String.length n > 0 && n.[0] = 'a') kept_names);
    Alcotest.(check bool) "b dropped" true
      (not (List.exists (fun n -> String.length n > 0 && n.[0] = 'b') kept_names))

let test_quicksort_p2_drops_array () =
  (* The paper's key Table-2 observation: P2 does not need the array. *)
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3) in
  match Pba.discover ~max_depth:60 ~stability:10 net ~property:"P2" with
  | Either.Right v ->
    Alcotest.failf "discovery concluded: %s" (Format.asprintf "%a" Bmc.Engine.pp_verdict v)
  | Either.Left a ->
    let names = List.map Netlist.memory_name a.Pba.abstracted_memories in
    Alcotest.(check bool) "array abstracted" true (List.mem "arr" names);
    let kept = List.map Netlist.memory_name a.Pba.modeled_memories in
    Alcotest.(check bool) "stack still modeled" true (List.mem "stack" kept);
    Alcotest.(check bool) "model shrank" true
      (List.length a.Pba.kept_latches < List.length (Netlist.latches net))

let test_reduced_model_proof () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3) in
  match Pba.discover ~max_depth:60 ~stability:10 net ~property:"P2" with
  | Either.Right _ -> Alcotest.fail "expected abstraction"
  | Either.Left a -> (
    let config = { Bmc.Engine.default_config with max_depth = 60 } in
    let result, _ = Pba.check_with_abstraction ~config net a ~property:"P2" in
    match result.Bmc.Engine.verdict with
    | Bmc.Engine.Proof _ -> ()
    | v ->
      Alcotest.failf "expected proof on reduced model, got %s"
        (Format.asprintf "%a" Bmc.Engine.pp_verdict v))

let test_discovery_detects_counterexample () =
  (* A falsifiable property concludes during discovery. *)
  let ctx = Hdl.create () in
  let c = Hdl.reg ctx "c" ~width:3 in
  Hdl.connect ctx c (Hdl.incr ctx c);
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx c 3));
  let net = Hdl.netlist ctx in
  match Pba.discover ~max_depth:30 ~stability:5 net ~property:"p" with
  | Either.Right (Bmc.Engine.Counterexample t) ->
    Alcotest.(check int) "depth" 3 t.Bmc.Trace.depth
  | _ -> Alcotest.fail "expected counterexample from discovery"

let test_memory_control_latches () =
  let net = two_counter_design () in
  let mem = List.hd (Netlist.memories net) in
  let names =
    List.map (Netlist.latch_name net) (Pba.memory_control_latches net mem)
  in
  (* Both counters drive the memory's ports (a the write address, b the read
     address). *)
  Alcotest.(check bool) "a is control" true (List.exists (fun n -> n.[0] = 'a') names);
  Alcotest.(check bool) "b is control" true (List.exists (fun n -> n.[0] = 'b') names)

let test_iterate_converges () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3) in
  match Pba.iterate ~rounds:3 ~max_depth:60 ~stability:8 net ~property:"P2" with
  | Either.Right _ -> Alcotest.fail "expected abstraction"
  | Either.Left a ->
    Alcotest.(check bool) "still drops the array" true
      (List.exists (fun m -> Netlist.memory_name m = "arr") a.Pba.abstracted_memories)

let test_explicit_discovery () =
  (* Latch-control criterion on the explicitly expanded model. *)
  let net = Explicitmem.expand (two_counter_design ()) in
  match Pba.discover ~max_depth:30 ~stability:5 ~use_emm:false net ~property:"a_small" with
  | Either.Right _ -> Alcotest.fail "expected abstraction"
  | Either.Left a ->
    let kept_names = List.map (Netlist.latch_name net) a.Pba.kept_latches in
    Alcotest.(check bool) "memory bits dropped" true
      (not (List.exists (fun n -> String.length n > 3 && String.sub n 0 3 = "mem") kept_names))

(* Discovery keeps time on the clock the spans use, [Obs.now]: under a fixed
   recorder clock that advances one tick per reading, its time is a whole
   number of ticks. *)
let test_discovery_time_on_obs_clock () =
  let prev = Obs.current () in
  Obs.set_current (Some (Obs.create ~clock:(Obs.Clock.fixed ()) ~track_alloc:false ()));
  Fun.protect
    ~finally:(fun () -> Obs.set_current prev)
    (fun () ->
      match Pba.discover ~max_depth:30 ~stability:5 (two_counter_design ()) ~property:"a_small" with
      | Either.Left a ->
        let t = a.Pba.discovery_time in
        Alcotest.(check bool) "discovery time in clock ticks" true
          (Float.is_integer t && t >= 1.0)
      | Either.Right v ->
        Alcotest.failf "discovery concluded: %s" (Format.asprintf "%a" Bmc.Engine.pp_verdict v))

let () =
  Alcotest.run "pba"
    [
      ( "unit",
        [
          Alcotest.test_case "memory abstracted when irrelevant" `Quick
            test_memory_abstracted_when_irrelevant;
          Alcotest.test_case "quicksort P2 drops array" `Quick
            test_quicksort_p2_drops_array;
          Alcotest.test_case "reduced model proof" `Quick test_reduced_model_proof;
          Alcotest.test_case "discovery detects counterexample" `Quick
            test_discovery_detects_counterexample;
          Alcotest.test_case "memory control latches" `Quick test_memory_control_latches;
          Alcotest.test_case "iterate converges" `Quick test_iterate_converges;
          Alcotest.test_case "explicit discovery" `Quick test_explicit_discovery;
          Alcotest.test_case "discovery time on the obs clock" `Quick
            test_discovery_time_on_obs_clock;
        ] );
    ]
