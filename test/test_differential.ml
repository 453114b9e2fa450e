(* Differential test net: seeded random closed designs with one memory are
   checked four ways — EMM-BMC with the simplifying encoder, EMM-BMC with
   the plain paper-faithful encoder, explicit-expansion BMC, and
   cycle-accurate simulation — and the verdicts (including counterexample
   depths up to 8) must agree.  This is the safety net for rewrites of the
   solver hot path, the unroller and the EMM constraint generator: any
   divergence in memory semantics between the models shows up as a verdict
   or depth mismatch here.

   Two sweeps run through the same mismatch predicate and shrinker:

   - the classic falsification net (proof checks off, counterexample depths
     compared);
   - the latch-poor battery ([Diffgen.latch_poor_cfg], proof checks {e on}):
     latch state cycles while memory contents diverge, so the termination
     checks only stay sound through the memory-state distinctness
     predicates, and proved depths / proof verdicts must agree with the
     explicit expansion's sound latch-level loop-free-path proofs.  A
     mutation sweep disables the predicates and asserts the battery notices
     the resulting over-proofs.

   A third group, the BDD oracle, reuses the shrinker with a predicate of
   its own: exact reachability judges the EMM verdicts of the classic,
   latch-poor and saturating seeds from outside the engine. *)

open Diffgen

(* The four-way comparison as a predicate: [None] when every pair of
   verdicts agrees (and every counterexample replays on the simulator),
   [Some reason] naming the first divergence.  The sweep fails through this
   rather than through per-assertion Alcotest checks so the shrinker below
   can re-run the exact same judgment on reduced configurations.

   EMM and the explicit expansion must agree exactly, arbitrary init
   included (both quantify over the same initial states); the simplifying
   and plain encoders are different CNFs of the same model, so their
   verdicts must match too; and for all-zero initial contents the default
   simulation is itself the unique run of the closed design, supplying an
   independent third verdict.  With [proofs] set, proof checks run and the
   comparison additionally pins proved depths (the signature carries them);
   the simulator then cross-checks counterexample placement only, since it
   cannot prove. *)
let design_mismatch ?(depth = depth_bound) ?(proofs = false) cfg =
  let net = build cfg in
  let config =
    if proofs then { Bmc.Engine.default_config with max_depth = depth }
    else { falsify_config with Bmc.Engine.max_depth = depth }
  in
  let plain = { config with Bmc.Engine.simplify = false } in
  let emm_result, _ = Emm.check ~config net ~property:"p" in
  let plain_result, _ = Emm.check ~config:plain net ~property:"p" in
  let expanded = Explicitmem.expand net in
  let exp_result = Bmc.Engine.check ~config expanded ~property:"p" in
  let emm_sig = signature emm_result.Bmc.Engine.verdict in
  let exp_sig = signature exp_result.Bmc.Engine.verdict in
  let plain_sig = signature plain_result.Bmc.Engine.verdict in
  let replay_failure label net' = function
    | Bmc.Engine.Counterexample t when not (Bmc.Trace.replay net' t) ->
      Some (Printf.sprintf "%s trace does not replay on the simulator" label)
    | _ -> None
  in
  let ( <|> ) r next = match r with Some _ -> r | None -> next () in
  (if emm_sig <> exp_sig then
     Some (Printf.sprintf "EMM verdict %s <> explicit verdict %s" emm_sig exp_sig)
   else None)
  <|> (fun () ->
        if plain_sig <> emm_sig then
          Some
            (Printf.sprintf "plain-encoder verdict %s <> simplifying verdict %s"
               plain_sig emm_sig)
        else None)
  <|> (fun () -> replay_failure "EMM" net emm_result.Bmc.Engine.verdict)
  <|> (fun () -> replay_failure "plain-encoder" net plain_result.Bmc.Engine.verdict)
  <|> (fun () -> replay_failure "explicit" expanded exp_result.Bmc.Engine.verdict)
  <|> (fun () ->
        if cfg.arbitrary then None
        else
          let sim = sim_first_failure ~depth net in
          if proofs then
            (* The simulator cannot prove; it pins counterexamples only.  A
               failing run must be reported at exactly the simulated depth,
               and a clean run must not be reported as a counterexample —
               an over-proof that masks a reachable failure trips the first
               branch. *)
            match sim with
            | Some d ->
              let expected = Printf.sprintf "cex@%d" d in
              if expected <> emm_sig then
                Some
                  (Printf.sprintf "simulator failure %s <> EMM verdict %s" expected
                     emm_sig)
              else None
            | None ->
              if String.length emm_sig >= 4 && String.sub emm_sig 0 4 = "cex@" then
                Some
                  (Printf.sprintf
                     "EMM verdict %s but the simulator never fails within %d" emm_sig
                     depth)
              else None
          else
            let expected =
              match sim with
              | Some d -> Printf.sprintf "cex@%d" d
              | None -> Printf.sprintf "safe@%d" depth
            in
            if expected <> emm_sig then
              Some
                (Printf.sprintf "simulator verdict %s <> EMM verdict %s" expected
                   emm_sig)
            else None)

(* {2 A greedy reproducer shrinker}

   When a sweep design diverges, the raw configuration is noisy: two write
   ports, an enable bit, arbitrary init and depth 8 all at once.  Before
   failing we greedily minimize the (configuration, depth) pair — take the
   first candidate reduction on which the mismatch persists and restart from
   it — and print the minimal reproducer.  Candidates in decreasing order of
   structural weight: ports first, then address bits, then data bits and
   flags, then the unroll depth.  (The generator builds exactly one memory,
   so a "fewer memories" step would be vacuous here.)  Every candidate
   strictly decreases the sum of those quantities, so the greedy loop
   terminates. *)

let shrink_candidates (cfg, depth) =
  List.concat
    [
      (if cfg.wports > 1 then
         [ ({ cfg with
              wports = 1;
              wconsts = Array.sub cfg.wconsts 0 1;
              dconsts = Array.sub cfg.dconsts 0 (min 1 (Array.length cfg.dconsts));
            }, depth) ]
       else []);
      (if cfg.rports > 1 then
         [ ({ cfg with rports = 1; rconsts = Array.sub cfg.rconsts 0 1 }, depth) ]
       else []);
      (* Latch-poor designs additionally shrink the counter, one latch at a
         time down to zero; the enable bit is dropped when its index falls
         off the narrowed counter. *)
      (if cfg.style = Latch_poor && cfg.cw > 0 then
         [ ({ cfg with
              cw = cfg.cw - 1;
              en_bit =
                (match cfg.en_bit with
                | Some b when b >= cfg.cw - 1 -> None
                | e -> e);
            }, depth) ]
       else []);
      (if cfg.aw > 1 then [ ({ cfg with aw = cfg.aw - 1 }, depth) ] else []);
      (if cfg.dw > 1 then
         [ ({ cfg with
              dw = cfg.dw - 1;
              target = cfg.target land ((1 lsl (cfg.dw - 1)) - 1);
            }, depth) ]
       else []);
      (if cfg.arbitrary then [ ({ cfg with arbitrary = false }, depth) ] else []);
      (match cfg.en_bit with
      | Some _ -> [ ({ cfg with en_bit = None }, depth) ]
      | None -> []);
      (if depth > 1 then [ (cfg, depth - 1) ] else []);
    ]

let rec shrink ~mismatch state =
  match List.find_opt (fun c -> mismatch c <> None) (shrink_candidates state) with
  | Some smaller -> shrink ~mismatch smaller
  | None -> state

let cfg_to_string c =
  let arr a = String.concat "; " (List.map string_of_int (Array.to_list a)) in
  Printf.sprintf
    "{ style = %s; cw = %d; limit = %d; aw = %d; dw = %d; wports = %d; rports \
     = %d; arbitrary = %b; wconsts = [| %s |]; dconsts = [| %s |]; rconsts = \
     [| %s |]; en_bit = %s; prop_on_acc = %b; target = %d }"
    (match c.style with
    | Classic -> "Classic"
    | Latch_poor -> "Latch_poor"
    | Saturating -> "Saturating")
    c.cw c.limit c.aw c.dw c.wports c.rports c.arbitrary (arr c.wconsts)
    (arr c.dconsts)
    (arr c.rconsts)
    (match c.en_bit with None -> "None" | Some b -> Printf.sprintf "Some %d" b)
    c.prop_on_acc c.target

(* On a sweep failure, shrink to a minimal reproducer of [mismatch] (the
   four-way comparison unless given), print it, and — when
   [DIFFGEN_REPRO_FILE] is set (the CI battery job does this) — also write
   it to that file so it survives as a build artifact. *)
let fail_with_reproducer ?mismatch ~sweep ~proofs ~depth cfg reason =
  let mismatch =
    match mismatch with
    | Some m -> m
    | None -> fun (c, d) -> design_mismatch ~depth:d ~proofs c
  in
  let mcfg, mdepth = shrink ~mismatch (cfg, depth) in
  let mreason = Option.value ~default:reason (mismatch (mcfg, mdepth)) in
  let text =
    Printf.sprintf
      "minimal reproducer (%s sweep, shrunk from design %d):\n\
      \  cfg   = %s\n\
      \  depth = %d\n\
      \  proofs = %b\n\
      \  fails: %s\n"
      sweep cfg.id (cfg_to_string mcfg) mdepth proofs mreason
  in
  print_string text;
  flush stdout;
  (match Sys.getenv_opt "DIFFGEN_REPRO_FILE" with
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc text;
    close_out oc
  | None -> ());
  Alcotest.failf "design %d: %s — minimal reproducer %s at depth %d (%s)" cfg.id
    reason (cfg_to_string mcfg) mdepth mreason

let test_differential_sweep () =
  for id = 0 to 49 do
    let cfg = random_cfg id in
    match design_mismatch cfg with
    | None -> ()
    | Some reason ->
      fail_with_reproducer ~sweep:"classic" ~proofs:false ~depth:depth_bound cfg
        reason
  done

(* {2 The latch-poor battery}

   50 seeded latch-poor designs with proof checks on: latch state has period
   [2^cw] (possibly 1: zero latches) while memory contents diverge, so a
   termination proof is sound only through the memory-state distinctness
   predicates.  Verdicts, proved depths and counterexample depths must agree
   between both EMM encoders and the explicit expansion, whose
   latch-level loop-free-path constraints see the expanded memory bits and
   are sound unconditionally. *)

let latch_poor_depth = 12

let test_latch_poor_battery () =
  for id = 0 to 49 do
    let cfg = latch_poor_cfg id in
    match design_mismatch ~depth:latch_poor_depth ~proofs:true cfg with
    | None -> ()
    | Some reason ->
      fail_with_reproducer ~sweep:"latch-poor" ~proofs:true ~depth:latch_poor_depth
        cfg reason
  done

(* Mutation check: with the distinctness predicates disabled
   ([mem_distinct:false] reproduces the pre-fix engine, which falls back to
   latch-only distinctness, or to no termination checks past depth 0 for
   latch-free write-port designs), the battery must notice — some seed's
   verdict must diverge from the explicit expansion.  This is the test of
   the tests: if it ever passes silently, the battery lost its power to
   detect over-proving and needs stronger designs. *)
let test_latch_poor_mutation_detected () =
  let config = { Bmc.Engine.default_config with max_depth = latch_poor_depth } in
  let detected = ref 0 in
  for id = 0 to 49 do
    let cfg = latch_poor_cfg id in
    let net = build cfg in
    let mut_result, _ = Emm.check ~config ~mem_distinct:false net ~property:"p" in
    let exp_result = Bmc.Engine.check ~config (Explicitmem.expand net) ~property:"p" in
    if
      signature mut_result.Bmc.Engine.verdict
      <> signature exp_result.Bmc.Engine.verdict
    then incr detected
  done;
  if !detected = 0 then
    Alcotest.fail
      "disabling the memory-state distinctness predicates went unnoticed across \
       all 50 latch-poor seeds: the battery cannot detect over-proving";
  Printf.printf "mutation detected on %d/50 latch-poor seeds\n%!" !detected

(* {2 The fixed over-proof regression}

   The minimal latch-poor over-proof: a 1-bit counter (latch period 2) and a
   2-word memory filling with the constant 1 — the read observes 0,0 then
   1,1,... so "rd <> 1" first fails at frame 2, exactly when the latch state
   repeats.  The pre-fix engine's latch-only termination check fires first
   and reports a bogus forward-diameter proof at depth 2, masking the
   reachable failure; the distinctness predicates keep the path alive and
   both EMM and the explicit expansion report the counterexample. *)

let overproof_regression_design () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:1 ~data_width:2 ~init:Netlist.Zeros in
  let cnt = Hdl.reg ctx "cnt" ~width:1 in
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  Hdl.write_port ctx mem ~addr:cnt ~data:(Hdl.const ~width:2 1) ~enable:Netlist.true_;
  let rd = Hdl.read_port ctx mem ~addr:cnt ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 1));
  Hdl.netlist ctx

let test_overproof_regression () =
  let net = overproof_regression_design () in
  let config = { Bmc.Engine.default_config with max_depth = 12 } in
  Alcotest.(check (option int)) "simulator places the failure at frame 2" (Some 2)
    (sim_first_failure ~depth:12 net);
  let emm_result, _ = Emm.check ~config net ~property:"p" in
  Alcotest.(check string) "EMM finds the counterexample" "cex@2"
    (signature emm_result.Bmc.Engine.verdict);
  let exp_result = Bmc.Engine.check ~config (Explicitmem.expand net) ~property:"p" in
  Alcotest.(check string) "explicit expansion agrees" "cex@2"
    (signature exp_result.Bmc.Engine.verdict);
  (* The pre-fix engine over-proves: latch-only distinctness cannot tell
     frames 0 and 2 apart, so the forward termination check fires at depth 2
     — before falsification at that depth runs — and the reachable failure
     is lost behind a bogus proof. *)
  let mut_result, _ = Emm.check ~config ~mem_distinct:false net ~property:"p" in
  Alcotest.(check string)
    "latch-only LFP proves at the wrong depth (the over-proof this PR fixes)"
    "proof@2"
    (signature mut_result.Bmc.Engine.verdict);
  match mut_result.Bmc.Engine.verdict with
  | Bmc.Engine.Proof { kind = Bmc.Engine.Forward_diameter; _ } -> ()
  | v ->
    Alcotest.failf "expected a bogus forward-diameter proof, got %s" (signature v)

(* {2 The BDD proof oracle}

   The batteries above compare EMM with the explicit expansion, but both
   verdicts come out of [Bmc.Engine]'s termination logic: a bug in the
   loop-free-path constraints or the induction query would make both sides
   over-prove alike.  [Bddmc] computes the exact reachable set of the
   explicit expansion by BDD image iteration and shares no code with the
   engine, the unroller, EMM or the solver, so it judges every EMM verdict
   from the outside (an explicit-state oracle in the spirit of Qadeer's
   checking of sequential consistency):

   - a proof must be [Safe s]; a forward-diameter proof at depth [d] bounds
     the longest loop-free path below [d], and with it the reachability
     depth: [s < d];
   - a counterexample at depth [k] must be [Unsafe k] (BMC finds the
     shortest one, as image iteration does);
   - [Bounded_safe d] must not meet [Unsafe k] with [k <= d]. *)

let oracle_disagreement verdict (bdd : Bddmc.verdict) =
  let fail why =
    Some
      (Format.asprintf "EMM %s, BDD %a: %s" (signature verdict) Bddmc.pp_verdict bdd
         why)
  in
  match (verdict, bdd) with
  | _, (Bddmc.Node_limit | Bddmc.Step_limit _) -> fail "the oracle gave no answer"
  | Bmc.Engine.Proof _, Bddmc.Unsafe _ -> fail "proof of a reachable failure"
  | Bmc.Engine.Proof { depth; kind = Bmc.Engine.Forward_diameter }, Bddmc.Safe s
    when s >= depth ->
    fail "forward diameter not above the reachability depth"
  | Bmc.Engine.Proof _, Bddmc.Safe _ -> None
  | Bmc.Engine.Counterexample t, Bddmc.Unsafe k when k = t.Bmc.Trace.depth -> None
  | Bmc.Engine.Counterexample _, _ -> fail "counterexample not at the shortest failure"
  | Bmc.Engine.Bounded_safe d, Bddmc.Unsafe k when k <= d ->
    fail "reachable failure within the bound missed"
  | Bmc.Engine.Bounded_safe _, _ -> None
  | ( ( Bmc.Engine.Reasons_stable _ | Bmc.Engine.Timed_out _
      | Bmc.Engine.Out_of_budget _ ),
      _ ) ->
    fail "inconclusive engine verdict"

(* One design's EMM verdict and the oracle's judgment of it, with or
   without the proof checks, the memory-state distinctness predicates and
   the eq. (6) initial-state consistency constraints. *)
let oracle_judgment ?(mem_distinct = true) ?(init_consistency = true) ~proofs ~depth cfg =
  let net = build cfg in
  let config =
    if proofs then { Bmc.Engine.default_config with max_depth = depth }
    else { falsify_config with Bmc.Engine.max_depth = depth }
  in
  let emm, _ = Emm.check ~config ~mem_distinct ~init_consistency net ~property:"p" in
  let bdd = Bddmc.check (Explicitmem.expand net) ~property:"p" in
  (emm.Bmc.Engine.verdict, oracle_disagreement emm.Bmc.Engine.verdict bdd.Bddmc.verdict)

let oracle_mismatch ?mem_distinct ?init_consistency ~proofs ~depth cfg =
  snd (oracle_judgment ?mem_distinct ?init_consistency ~proofs ~depth cfg)

(* The 50 seeds of a style under the oracle; returns their EMM verdicts. *)
let oracle_battery ~sweep ~proofs ~depth cfg_of =
  List.init 50 (fun id ->
      let cfg = cfg_of id in
      let verdict, disagreement = oracle_judgment ~proofs ~depth cfg in
      Option.iter
        (fail_with_reproducer
           ~mismatch:(fun (c, d) -> oracle_mismatch ~proofs ~depth:d c)
           ~sweep ~proofs ~depth cfg)
        disagreement;
      verdict)

let test_oracle_classic () =
  List.iter
    (fun proofs ->
      ignore (oracle_battery ~sweep:"oracle classic" ~proofs ~depth:depth_bound random_cfg))
    [ false; true ]

let test_oracle_latch_poor () =
  ignore
    (oracle_battery ~sweep:"oracle latch-poor" ~proofs:true ~depth:latch_poor_depth
       latch_poor_cfg)

let saturating_depth = 20

(* The saturating seeds exist for their forward-diameter proofs, the one
   termination check the other batteries barely reach: the battery must
   produce some, or it checks nothing the others do not. *)
let test_oracle_saturating () =
  let verdicts =
    oracle_battery ~sweep:"oracle saturating" ~proofs:true ~depth:saturating_depth
      saturating_cfg
  in
  let count p = List.length (List.filter p verdicts) in
  let forward =
    count (function
      | Bmc.Engine.Proof { kind = Bmc.Engine.Forward_diameter; _ } -> true
      | _ -> false)
  in
  let induction =
    count (function
      | Bmc.Engine.Proof { kind = Bmc.Engine.Backward_induction; _ } -> true
      | _ -> false)
  in
  let cex = count (function Bmc.Engine.Counterexample _ -> true | _ -> false) in
  Printf.printf
    "saturating seeds: %d forward-diameter proofs, %d induction proofs, %d \
     counterexamples\n%!"
    forward induction cex;
  Alcotest.(check bool) "some forward-diameter proof to check" true (forward > 0)

(* The oracle's own mutation check: with the distinctness predicates off,
   EMM over-proves on some latch-poor seeds, and the BDD verdict alone —
   without the explicit expansion's BMC — must notice. *)
let test_oracle_catches_mutation () =
  let caught = ref 0 in
  for id = 0 to 49 do
    if
      oracle_mismatch ~mem_distinct:false ~proofs:true ~depth:latch_poor_depth
        (latch_poor_cfg id)
      <> None
    then incr caught
  done;
  if !caught = 0 then
    Alcotest.fail
      "the BDD oracle accepted every latch-poor verdict with the memory-state \
       distinctness predicates disabled";
  Printf.printf "BDD oracle caught the mutation on %d/50 latch-poor seeds\n%!" !caught

(* The same for the eq. (6) family: with every initial-state consistency
   constraint dropped, two reads of one never-written location may return
   different words, which the classic seeds (proofs on) turn into wrong
   verdicts that the oracle must flag; the honest engine it flags on none of
   the same seeds. *)
let classic_oracle_seeds = 200

let test_oracle_catches_init_consistency () =
  let flagged ~init_consistency =
    List.length
      (List.filter
         (fun id ->
           oracle_mismatch ~init_consistency ~proofs:true ~depth:depth_bound
             (random_cfg id)
           <> None)
         (List.init classic_oracle_seeds Fun.id))
  in
  Alcotest.(check int) "honest engine flagged on no seed" 0
    (flagged ~init_consistency:true);
  let caught = flagged ~init_consistency:false in
  if caught = 0 then
    Alcotest.fail
      "the BDD oracle accepted every classic verdict with the eq. (6) \
       constraints dropped";
  Printf.printf "BDD oracle caught dropped eq. (6) constraints on %d/%d classic seeds\n%!"
    caught classic_oracle_seeds

(* Proved depths are least depths.  Termination queries run at every other
   depth, and an Unsat answer asks the skipped depth first, so a proof at
   depth d must mean that no depth below d proves: with proofs on, every
   proof at d > 0 of the classic, latch-poor and saturating seeds is re-run
   to [max_depth = d - 1], where it must not prove, and to [max_depth = d],
   where it must prove the same way at the same depth.  The bound always
   gets its termination queries, so both re-runs ask every depth they
   reach. *)
let test_proved_depths_least () =
  let proofs = ref 0 in
  List.iter
    (fun (sweep, depth, cfg_of) ->
      for id = 0 to 49 do
        let net = build (cfg_of id) in
        let verdict max_depth =
          let config = { Bmc.Engine.default_config with max_depth } in
          (fst (Emm.check ~config net ~property:"p")).Bmc.Engine.verdict
        in
        match verdict depth with
        | Bmc.Engine.Proof { depth = d; _ } as proof when d > 0 ->
          incr proofs;
          let shown v = Format.asprintf "%a" Bmc.Engine.pp_verdict v in
          (match verdict (d - 1) with
          | Bmc.Engine.Proof _ as early ->
            Alcotest.failf "%s seed %d: %s, but bound %d gives %s" sweep id (shown proof)
              (d - 1) (shown early)
          | _ -> ());
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d at bound %d" sweep id d)
            (shown proof) (shown (verdict d))
        | _ -> ()
      done)
    [
      ("classic", depth_bound, random_cfg);
      ("latch-poor", latch_poor_depth, latch_poor_cfg);
      ("saturating", saturating_depth, saturating_cfg);
    ];
  Printf.printf "%d proofs at depth > 0 re-run at their depth and one below\n%!" !proofs;
  Alcotest.(check bool) "some proof to re-run" true (!proofs > 0)

(* The shrinker itself, against an artificial mismatch predicate whose
   failure region is known in closed form: "fails iff two write ports or
   depth >= 3".  From a maximal configuration the greedy pass must strip
   every irrelevant feature (the depth clause keeps the predicate true while
   ports, widths and flags shrink) and stop exactly at the depth
   boundary. *)
let test_shrinker_converges () =
  let mismatch (c, d) =
    if c.wports >= 2 || d >= 3 then Some "artificial" else None
  in
  let start =
    {
      id = -1;
      style = Classic;
      cw = 3;
      limit = 0;
      aw = 2;
      dw = 3;
      wports = 2;
      rports = 2;
      arbitrary = true;
      wconsts = [| 3; 5 |];
      dconsts = [| 1; 2 |];
      rconsts = [| 4; 6 |];
      en_bit = Some 1;
      prop_on_acc = true;
      target = 7;
    }
  in
  let c, d = shrink ~mismatch (start, depth_bound) in
  Alcotest.(check (option string)) "result still fails" (Some "artificial")
    (mismatch (c, d));
  Alcotest.(check int) "depth at the boundary" 3 d;
  Alcotest.(check int) "write ports shrunk" 1 c.wports;
  Alcotest.(check int) "read ports shrunk" 1 c.rports;
  Alcotest.(check int) "address bits shrunk" 1 c.aw;
  Alcotest.(check int) "data bits shrunk" 1 c.dw;
  Alcotest.(check bool) "arbitrary init dropped" false c.arbitrary;
  Alcotest.(check bool) "enable bit dropped" true (c.en_bit = None);
  Alcotest.(check int) "port constant arrays follow the port counts" 1
    (Array.length c.wconsts + Array.length c.rconsts - 1)

(* {2 Forwarding smoke check}

   A fixed read-after-write design: a constant write lands at cycle 0 and
   reads observe the pre-write contents, so the read returns the written
   word first at frame 1 — never at frame 0.  If EMM forwarding were broken
   towards same-cycle visibility the counterexample would land at depth 0,
   and towards an extra cycle of latency at depth 2; the exact-depth
   assertions here are the inverted smoke check that fails in either
   case. *)

let raw_design () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:3 ~init:Netlist.Zeros in
  Hdl.write_port ctx mem ~addr:(Hdl.zero ~width:2) ~data:(Hdl.const ~width:3 5)
    ~enable:Netlist.true_;
  let rd = Hdl.read_port ctx mem ~addr:(Hdl.zero ~width:2) ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx rd 5));
  Hdl.netlist ctx

let cex_depth name = function
  | Bmc.Engine.Counterexample t -> t.Bmc.Trace.depth
  | v -> Alcotest.failf "%s: expected counterexample, got %s" name (signature v)

let test_forwarding_depth () =
  let net = raw_design () in
  Alcotest.(check (option int)) "simulator sees the write at frame 1" (Some 1)
    (sim_first_failure net);
  let emm_result, _ = Emm.check ~config:falsify_config net ~property:"p" in
  let d = cex_depth "emm" emm_result.Bmc.Engine.verdict in
  Alcotest.(check int) "EMM counterexample exactly at depth 1 (not 0: no \
                        same-cycle forwarding; not 2: no extra latency)" 1 d;
  (match emm_result.Bmc.Engine.verdict with
  | Bmc.Engine.Counterexample t ->
    Alcotest.(check bool) "replays" true (Bmc.Trace.replay net t)
  | _ -> ());
  let expanded = Explicitmem.expand net in
  let exp_result = Bmc.Engine.check ~config:falsify_config expanded ~property:"p" in
  Alcotest.(check int) "explicit expansion agrees" 1
    (cex_depth "explicit" exp_result.Bmc.Engine.verdict)

(* The same RAW pattern with the read data delayed through a register — the
   shape a forwarding bug would produce.  The differential net must tell the
   two designs apart: the failure moves to frame 2. *)
let test_forwarding_break_detected () =
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:3 ~init:Netlist.Zeros in
  Hdl.write_port ctx mem ~addr:(Hdl.zero ~width:2) ~data:(Hdl.const ~width:3 5)
    ~enable:Netlist.true_;
  let rd = Hdl.read_port ctx mem ~addr:(Hdl.zero ~width:2) ~enable:Netlist.true_ in
  let delayed = Hdl.reg ctx "delayed" ~width:3 in
  Hdl.connect ctx delayed rd;
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx delayed 5));
  let net = Hdl.netlist ctx in
  Alcotest.(check (option int)) "delayed variant fails at frame 2, not 1" (Some 2)
    (sim_first_failure net);
  let emm_result, _ = Emm.check ~config:falsify_config net ~property:"p" in
  Alcotest.(check int) "EMM places the delayed failure at depth 2" 2
    (cex_depth "emm" emm_result.Bmc.Engine.verdict)

let () =
  Alcotest.run "differential"
    [
      ( "unit",
        [
          Alcotest.test_case "50 random designs: EMM = explicit = simulator" `Quick
            test_differential_sweep;
          Alcotest.test_case "shrinker converges to the minimal reproducer" `Quick
            test_shrinker_converges;
          Alcotest.test_case "forwarding lands at depth 1 exactly" `Quick
            test_forwarding_depth;
          Alcotest.test_case "broken-forwarding shape detected" `Quick
            test_forwarding_break_detected;
        ] );
      (* Its own group so CI can run the latch-poor battery in isolation:
         `test_differential.exe test proofs`. *)
      ( "proofs",
        [
          Alcotest.test_case
            "latch-poor battery: proved depths EMM = explicit across 50 seeds"
            `Quick test_latch_poor_battery;
          Alcotest.test_case "latch-poor battery detects disabled distinctness"
            `Quick test_latch_poor_mutation_detected;
          Alcotest.test_case "fixed over-proof regression (latch repeats, memory \
                              diverges)" `Quick test_overproof_regression;
          Alcotest.test_case "proved depths are least depths" `Quick
            test_proved_depths_least;
        ] );
      (* Its own group as well: `test_differential.exe test oracle`. *)
      ( "oracle",
        [
          Alcotest.test_case "classic seeds agree with BDD reachability" `Quick
            test_oracle_classic;
          Alcotest.test_case "latch-poor seeds agree with BDD reachability" `Quick
            test_oracle_latch_poor;
          Alcotest.test_case "saturating seeds agree with BDD reachability" `Quick
            test_oracle_saturating;
          Alcotest.test_case "BDD oracle alone catches disabled distinctness" `Quick
            test_oracle_catches_mutation;
          Alcotest.test_case "BDD oracle catches dropped eq. (6) constraints" `Quick
            test_oracle_catches_init_consistency;
        ] );
    ]
