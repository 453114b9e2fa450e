(* Unroller tests: the CNF time-frame expansion must agree with the
   cycle-accurate simulator on every netlist signal, under any concrete
   stimulus; plus activation-literal and tagging behaviour, and the
   multi-property engine's consistency with single-property runs. *)

module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

let bus_env assignments name =
  match String.index_opt name '[' with
  | None -> ( match List.assoc_opt name assignments with Some v -> v <> 0 | None -> false)
  | Some br ->
    let prefix = String.sub name 0 br in
    let idx = int_of_string (String.sub name (br + 1) (String.length name - br - 2)) in
    (match List.assoc_opt prefix assignments with
    | Some v -> (v lsr idx) land 1 = 1
    | None -> false)

(* A memory-free design rich in latches and logic. *)
let build_design () =
  let ctx = Hdl.create () in
  let d = Hdl.input ctx "d" ~width:4 in
  let en = Hdl.input_bit ctx "en" in
  let acc = Hdl.reg ctx "acc" ~width:4 in
  let cnt = Hdl.reg ctx "cnt" ~width:4 in
  Hdl.connect ctx acc (Hdl.mux2 ctx en (Hdl.add ctx acc d) acc);
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  let probe = Hdl.xor_v ctx acc cnt in
  Hdl.output ctx "probe" probe;
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx probe 15));
  (Hdl.netlist ctx, probe)

(* Force a concrete stimulus through assumptions and compare every probe bit
   at every frame with the simulator. *)
let prop_unrolling_matches_simulator =
  QCheck2.Test.make ~count:60 ~name:"unrolled CNF = simulator"
    QCheck2.Gen.(list_size (int_range 1 6) (pair (int_bound 15) bool))
    (fun stimulus ->
      let net, probe = build_design () in
      let solver = Solver.create () in
      let unr = Cnf.create solver net in
      let assumptions = ref [ Cnf.act_init unr ] in
      List.iteri
        (fun frame (d, en) ->
          List.iter
            (fun s ->
              match Netlist.node net (Netlist.node_of s) with
              | Netlist.Input name ->
                let value = bus_env [ ("d", d); ("en", Bool.to_int en) ] name in
                let l = Cnf.lit unr ~frame s in
                assumptions := (if value then l else Lit.negate l) :: !assumptions
              | _ -> ())
            (Netlist.inputs net))
        stimulus;
      (* Build probe literals for every frame up front. *)
      let frames = List.length stimulus in
      let probe_lits =
        List.init frames (fun frame -> Array.map (Cnf.lit unr ~frame) probe)
      in
      match Solver.solve ~assumptions:!assumptions solver with
      | Solver.Unsat -> false
      | Solver.Sat ->
        let sim = Simulator.create net in
        List.for_all2
          (fun (d, en) lits ->
            Simulator.step sim ~inputs:(bus_env [ ("d", d); ("en", Bool.to_int en) ]);
            Array.for_all2
              (fun s l -> Simulator.value sim s = Solver.value solver l)
              probe lits)
          stimulus probe_lits)

let test_act_init_gates_reset () =
  (* Without the activation literal, the latch can assume any value at frame
     0; with it, the reset value is forced. *)
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx ~init:(Some 5) "r" ~width:3 in
  Hdl.connect ctx r r;
  let net = Hdl.netlist ctx in
  let solver = Solver.create () in
  let unr = Cnf.create solver net in
  let latches = Netlist.latches net in
  let bit0 = Cnf.lit unr ~frame:0 (List.nth latches 0) in
  let bit1 = Cnf.lit unr ~frame:0 (List.nth latches 1) in
  (* r = 5 = 101b, so bit1 = 0.  Unconstrained without act_init: *)
  Alcotest.(check bool) "bit1 free without reset" true
    (Solver.solve ~assumptions:[ bit1 ] solver = Solver.Sat);
  Alcotest.(check bool) "bit1 forced low under reset" true
    (Solver.solve ~assumptions:[ Cnf.act_init unr; bit1 ] solver = Solver.Unsat);
  Alcotest.(check bool) "bit0 forced high under reset" true
    (Solver.solve ~assumptions:[ Cnf.act_init unr; Lit.negate bit0 ] solver
    = Solver.Unsat)

let test_transition_link () =
  (* A toggling latch alternates across frames. *)
  let ctx = Hdl.create () in
  let r = Hdl.reg_bit ctx "r" in
  Hdl.connect_bit ctx r (Netlist.not_ r);
  let net = Hdl.netlist ctx in
  let solver = Solver.create () in
  let unr = Cnf.create solver net in
  let l0 = Cnf.lit unr ~frame:0 r in
  let l3 = Cnf.lit unr ~frame:3 r in
  (* Same parity: frame 3 = not frame 0 XOR'd thrice = negation. *)
  Alcotest.(check bool) "frames linked" true
    (Solver.solve ~assumptions:[ l0; l3 ] solver = Solver.Unsat);
  Alcotest.(check bool) "consistent assignment accepted" true
    (Solver.solve ~assumptions:[ l0; Lit.negate l3 ] solver = Solver.Sat)

let test_latch_tags_present () =
  let ctx = Hdl.create () in
  let r = Hdl.reg_bit ctx "r" in
  Hdl.connect_bit ctx r Netlist.true_;
  let net = Hdl.netlist ctx in
  let solver = Solver.create ~cores:true () in
  let unr = Cnf.create solver net in
  (* Query: reset r and demand it low at frame 1 — the refutation must cite
     the latch. *)
  let l1 = Cnf.lit unr ~frame:1 r in
  Alcotest.(check bool) "unsat" true
    (Solver.solve ~assumptions:[ Cnf.act_init unr; Lit.negate l1 ] solver
    = Solver.Unsat);
  let tags = Solver.unsat_core_tags solver in
  let latch_tag = Cnf.tag_for unr (Cnf.Tag.Latch r) in
  Alcotest.(check bool) "latch tag in core" true (List.mem latch_tag tags)

let test_free_latch_is_unconstrained () =
  let ctx = Hdl.create () in
  let r = Hdl.reg_bit ctx "r" in
  Hdl.connect_bit ctx r Netlist.true_;
  let net = Hdl.netlist ctx in
  let solver = Solver.create () in
  let unr = Cnf.create ~free_latches:(fun _ -> true) solver net in
  let l1 = Cnf.lit unr ~frame:1 r in
  Alcotest.(check bool) "free latch low at frame 1 is satisfiable" true
    (Solver.solve ~assumptions:[ Cnf.act_init unr; Lit.negate l1 ] solver = Solver.Sat)

(* [shift_model] moves a model one frame forward: a 2-bit counter that
   steps while [en] holds, unrolled to depth 3, counts 0, 1, 2, 3, and the
   shifted model holds at each frame f + 1 what the model held at f.  A
   probe over an input of its own is encoded at frame 1 only, so neither it
   nor its input has a frame to take a value from or give one to. *)
let test_shift_model () =
  let ctx = Hdl.create () in
  let en = Hdl.input_bit ctx "en" in
  let cnt = Hdl.reg ctx ~init:(Some 0) "cnt" ~width:2 in
  Hdl.connect ctx cnt (Hdl.mux2 ctx en (Hdl.incr ctx cnt) cnt);
  let tap = Hdl.input_bit ctx "tap" in
  let net = Hdl.netlist ctx in
  let probe = Netlist.and_ net tap (Netlist.and_ net cnt.(0) cnt.(1)) in
  let solver = Solver.create () in
  let unr = Cnf.create solver net in
  let en_at frame = Cnf.lit unr ~frame en in
  for frame = 0 to 3 do
    Array.iter (fun s -> ignore (Cnf.lit unr ~frame s)) cnt
  done;
  let probe1 = Cnf.lit unr ~frame:1 probe and tap1 = Cnf.lit unr ~frame:1 tap in
  let assumptions = Cnf.act_init unr :: List.init 4 en_at in
  Alcotest.(check bool) "sat" true (Solver.solve ~assumptions solver = Solver.Sat);
  let m = Solver.raw_model solver in
  let value a l = (a.(Lit.var l) = 1) = Lit.sign l in
  let shifted = Cnf.shift_model unr ~depth:3 m in
  let pairs = ref 0 in
  for id = 0 to Netlist.num_nodes net - 1 do
    let s = Netlist.signal_of_node id false in
    for f = 0 to 2 do
      match (Cnf.lit_opt unr ~frame:f s, Cnf.lit_opt unr ~frame:(f + 1) s) with
      | Some a, Some b ->
        incr pairs;
        Alcotest.(check bool)
          (Printf.sprintf "node %d: frame %d value at frame %d" id f (f + 1))
          (value m a) (value shifted b)
      | _ -> ()
    done
  done;
  Alcotest.(check bool) "counter bits and input shifted" true (!pairs >= 9);
  let counter frame a =
    Array.fold_right
      (fun s acc -> (2 * acc) + Bool.to_int (value a (Cnf.lit unr ~frame s)))
      cnt 0
  in
  Alcotest.(check (list int)) "model counts" [ 0; 1; 2; 3 ] (List.init 4 (fun f -> counter f m));
  Alcotest.(check (list int)) "shifted counts" [ 1; 2 ]
    (List.init 2 (fun f -> counter (f + 2) shifted));
  List.iter
    (fun l ->
      Alcotest.(check int) "one-frame node unchanged" m.(Lit.var l) shifted.(Lit.var l))
    [ probe1; tap1 ];
  Array.iter
    (fun s ->
      let v = Lit.var (Cnf.lit unr ~frame:0 s) in
      Alcotest.(check int) "frame 0 unchanged" m.(v) shifted.(v))
    cnt;
  (* [~depth] bounds the frames written, and [into] is overwritten up to the
     variable count. *)
  let one = Cnf.shift_model unr ~depth:1 m in
  Array.iter
    (fun s ->
      let v = Lit.var (Cnf.lit unr ~frame:2 s) in
      Alcotest.(check int) "frame 2 unchanged at depth 1" m.(v) one.(v))
    cnt;
  let n = Solver.num_vars solver in
  let reused = Cnf.shift_model ~into:(Array.make n 7) unr ~depth:3 m in
  Alcotest.(check (array int)) "into agrees" (Array.sub shifted 0 n) (Array.sub reused 0 n)

(* [~frames:k] is [k] one-frame shifts in a row, and a caller that passes a
   result back as both the model and [into] keeps a buffer of at most twice
   the variable count: the counter of [test_shift_model], unrolled to depth
   5. *)
let test_shift_model_frames () =
  let ctx = Hdl.create () in
  let en = Hdl.input_bit ctx "en" in
  let cnt = Hdl.reg ctx ~init:(Some 0) "cnt" ~width:2 in
  Hdl.connect ctx cnt (Hdl.mux2 ctx en (Hdl.incr ctx cnt) cnt);
  let net = Hdl.netlist ctx in
  let solver = Solver.create () in
  let unr = Cnf.create solver net in
  let depth = 5 in
  for frame = 0 to depth do
    Array.iter (fun s -> ignore (Cnf.lit unr ~frame s)) cnt
  done;
  let assumptions =
    Cnf.act_init unr :: List.init (depth + 1) (fun frame -> Cnf.lit unr ~frame en)
  in
  Alcotest.(check bool) "sat" true (Solver.solve ~assumptions solver = Solver.Sat);
  let m = Solver.raw_model solver in
  let n = Solver.num_vars solver in
  let counter frame a =
    Array.fold_right
      (fun s acc ->
        let l = Cnf.lit unr ~frame s in
        (2 * acc) + Bool.to_int ((a.(Lit.var l) = 1) = Lit.sign l))
      cnt 0
  in
  for k = 1 to 4 do
    let once = Cnf.shift_model ~frames:k unr ~depth m in
    let stepwise = ref m in
    for _ = 1 to k do
      stepwise := Cnf.shift_model unr ~depth !stepwise
    done;
    Alcotest.(check (array int))
      (Printf.sprintf "%d frames at once = %d single frames" k k)
      (Array.sub !stepwise 0 n) (Array.sub once 0 n);
    Alcotest.(check int)
      (Printf.sprintf "frame %d holds frame 0's count" k)
      (counter 0 m) (counter k once)
  done;
  let passed_back = ref (Cnf.shift_model unr ~depth m) in
  for k = 1 to 8 do
    passed_back :=
      Cnf.shift_model ~into:!passed_back ~frames:(1 + (k mod 2)) unr ~depth !passed_back;
    Alcotest.(check bool)
      (Printf.sprintf "call %d: %d entries for %d variables" k (Array.length !passed_back) n)
      true
      (Array.length !passed_back <= 2 * n)
  done

let test_constant_nodes () =
  let net = Netlist.create () in
  Netlist.add_property net "p" Netlist.true_;
  let solver = Solver.create () in
  let unr = Cnf.create solver net in
  let t = Cnf.lit unr ~frame:0 Netlist.true_ in
  let f = Cnf.lit unr ~frame:2 Netlist.false_ in
  Alcotest.(check bool) "true assumable" true (Solver.solve ~assumptions:[ t ] solver = Solver.Sat);
  Alcotest.(check bool) "false refutable" true
    (Solver.solve ~assumptions:[ f ] solver = Solver.Unsat)

let test_negative_frame_rejected () =
  let net = Netlist.create () in
  let solver = Solver.create () in
  let unr = Cnf.create solver net in
  Alcotest.check_raises "negative frame" (Invalid_argument "Cnf.lit: negative frame")
    (fun () -> ignore (Cnf.lit unr ~frame:(-1) Netlist.true_))

(* check_all must agree with independent single-property runs: the same
   verdict, the same proof kind and depth, and under [certify] the same
   certificate.  Every DRAT-checked result that carries an artifact must
   re-check on its own. *)
let check_artifact name (r : Bmc.Engine.result) =
  match r.Bmc.Engine.artifact with
  | None -> ()
  | Some a -> (
    match
      Cert.Drat.check ~original:a.Bmc.Engine.ca_original ~proof:a.ca_proof
        ~obligations:a.ca_obligations ()
    with
    | Cert.Drat.Valid _ -> ()
    | Cert.Drat.Invalid why -> Alcotest.failf "%s: artifact does not re-check: %s" name why)

let check_all_consistency ~certify () =
  let net = Designs.Image_filter.build { Designs.Image_filter.default_config with addr_width = 2 } in
  let names = [ "P18"; "P60"; "P120"; "P230"; "P232" ] in
  let config = { Bmc.Engine.default_config with max_depth = 25; certify } in
  let results, _, _ = Emm.check_many ~config net ~properties:names in
  List.iter
    (fun (name, multi) ->
      let single, _ = Emm.check ~config net ~property:name in
      let signature r =
        match r.Bmc.Engine.verdict with
        | Bmc.Engine.Counterexample t -> `Cex t.Bmc.Trace.depth
        | Bmc.Engine.Proof { kind; depth } -> `Proof (kind, depth)
        | Bmc.Engine.Bounded_safe d -> `Safe d
        | Bmc.Engine.Reasons_stable d -> `Stable d
        | Bmc.Engine.Timed_out d -> `Timeout d
        | Bmc.Engine.Out_of_budget { depth; _ } -> `Budget depth
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s agrees" name)
        true
        (signature multi = signature single);
      Alcotest.(check string)
        (Printf.sprintf "%s certificate" name)
        (Cert.label single.Bmc.Engine.certificate)
        (Cert.label multi.Bmc.Engine.certificate);
      if certify then
        Alcotest.(check bool)
          (Printf.sprintf "%s certified" name)
          true
          (match multi.Bmc.Engine.certificate with Cert.Certified _ -> true | _ -> false);
      check_artifact (name ^ " (check_all)") multi;
      check_artifact (name ^ " (check)") single)
    results

let test_check_all_traces_replay () =
  let net = Designs.Image_filter.build { Designs.Image_filter.default_config with addr_width = 2 } in
  let names = [ "P20"; "P40"; "P60" ] in
  let config = { Bmc.Engine.default_config with max_depth = 25; proof_checks = false } in
  let results, _, _ = Emm.check_many ~config net ~properties:names in
  List.iter
    (fun (name, r) ->
      match r.Bmc.Engine.verdict with
      | Bmc.Engine.Counterexample t ->
        Alcotest.(check string) "trace property" name t.Bmc.Trace.property;
        Alcotest.(check bool) (name ^ " replays") true (Bmc.Trace.replay net t)
      | _ -> Alcotest.failf "%s: expected witness" name)
    results

(* The stop verdicts of the one run loop.  Through [check] they are pinned
   to exact depths; through [check_all], every property the run leaves
   undecided gets the same stop verdict, of the same kind. *)
let fifo () = Designs.Fifo.build Designs.Fifo.default_config
let verdict = Alcotest.testable Bmc.Engine.pp_verdict ( = )

let stop_kind = function
  | Bmc.Engine.Timed_out _ -> Some `Timed_out
  | Bmc.Engine.Out_of_budget _ -> Some `Out_of_budget
  | Bmc.Engine.Reasons_stable _ -> Some `Reasons_stable
  | Bmc.Engine.Bounded_safe _ -> Some `Bounded_safe
  | Bmc.Engine.Proof _ | Bmc.Engine.Counterexample _ -> None

let check_stops ~config ~expected () =
  let single, _ = Emm.check ~config (fifo ()) ~property:"fifo_data" in
  Alcotest.check verdict "check" expected single.Bmc.Engine.verdict;
  let results, _, _ =
    Emm.check_many ~config (fifo ()) ~properties:[ "fifo_data"; "fifo_count" ]
  in
  let stopped =
    List.filter_map
      (fun (_, r) ->
        let v = r.Bmc.Engine.verdict in
        Option.map (fun _ -> v) (stop_kind v))
      results
  in
  Alcotest.(check bool) "check_all leaves fifo_data undecided" true
    (stop_kind (List.assoc "fifo_data" results).Bmc.Engine.verdict <> None);
  List.iter
    (fun v ->
      Alcotest.check verdict "one stop verdict" (List.hd stopped) v;
      Alcotest.(check bool) "stop kind" true (stop_kind v = stop_kind expected))
    stopped

let depth_12 = { Bmc.Engine.default_config with max_depth = 12 }

let test_stop_deadline () =
  check_stops
    ~config:{ depth_12 with deadline = Some (Obs.now () -. 1.0) }
    ~expected:(Bmc.Engine.Timed_out (-1))
    ()

let test_stop_budget () =
  List.iter
    (fun (conflicts, depth) ->
      check_stops
        ~config:{ depth_12 with conflict_budget = Some conflicts }
        ~expected:(Bmc.Engine.Out_of_budget { depth; what = "conflicts" })
        ())
    [ (1, 0); (20, 2) ]

let test_stop_reasons_stable () =
  check_stops
    ~config:
      {
        depth_12 with
        proof_checks = false;
        collect_reasons = true;
        stop_on_stable = Some 3;
      }
    ~expected:(Bmc.Engine.Reasons_stable 5)
    ()

let () =
  Alcotest.run "cnf"
    [
      ( "unit",
        [
          Alcotest.test_case "act_init gates reset" `Quick test_act_init_gates_reset;
          Alcotest.test_case "transition link" `Quick test_transition_link;
          Alcotest.test_case "latch tags present" `Quick test_latch_tags_present;
          Alcotest.test_case "free latch unconstrained" `Quick
            test_free_latch_is_unconstrained;
          Alcotest.test_case "constant nodes" `Quick test_constant_nodes;
          Alcotest.test_case "shift_model moves a model one frame" `Quick
            test_shift_model;
          Alcotest.test_case "shift_model by k frames, buffers bounded" `Quick
            test_shift_model_frames;
          Alcotest.test_case "negative frame rejected" `Quick test_negative_frame_rejected;
          Alcotest.test_case "check_all consistency" `Quick
            (check_all_consistency ~certify:false);
          Alcotest.test_case "check_all consistency, certified" `Quick
            (check_all_consistency ~certify:true);
          Alcotest.test_case "check_all traces replay" `Quick test_check_all_traces_replay;
        ] );
      ( "stops",
        [
          Alcotest.test_case "passed deadline times out" `Quick test_stop_deadline;
          Alcotest.test_case "conflict budget" `Quick test_stop_budget;
          Alcotest.test_case "reasons stable" `Quick test_stop_reasons_stable;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_unrolling_matches_simulator ] );
    ]
