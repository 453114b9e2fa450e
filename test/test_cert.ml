(* Tests for the certification layer (lib/cert): the backward DRAT/RUP
   checker on hand-built cores and solver-produced derivations, proof
   mutation rejection, textual DRAT output, counterexample replay
   certification, and a 50-seed differential run asserting that certifying
   never changes a verdict and every verdict certifies. *)

open Satsolver

let lit v sign = Lit.of_var v sign

let valid = function
  | Cert.Drat.Valid _ -> true
  | Cert.Drat.Invalid _ -> false

let report = function
  | Cert.Drat.Valid r -> r
  | Cert.Drat.Invalid why -> Alcotest.failf "expected valid proof, got: %s" why

(* {2 Hand-built cores} *)

(* (a|b)(a|~b)(~a|c)(~a|~c) is UNSAT; [a] is RUP (asserting ~a unit-
   propagates b and then empties a|~b), and adding it makes the empty
   obligation unit-refutable. *)
let hand_core =
  [
    [ lit 0 true; lit 1 true ];
    [ lit 0 true; lit 1 false ];
    [ lit 0 false; lit 2 true ];
    [ lit 0 false; lit 2 false ];
  ]

let test_hand_core_proof () =
  let outcome =
    Cert.Drat.check ~original:hand_core
      ~proof:[ Cert.Drat.Padd [ lit 0 true ] ]
      ~obligations:[ [] ] ()
  in
  let r = report outcome in
  Alcotest.(check int) "one lemma" 1 r.Cert.Drat.lemmas;
  Alcotest.(check int) "lemma verified" 1 r.Cert.Drat.checked_lemmas;
  Alcotest.(check int) "one obligation" 1 r.Cert.Drat.obligations

(* Assumption obligations need no lemmas when the originals already unit-
   refute the cube: (~a|b)(~b|c) with assumptions a, ~c. *)
let test_assumption_obligation () =
  let outcome =
    Cert.Drat.check
      ~original:[ [ lit 0 false; lit 1 true ]; [ lit 1 false; lit 2 true ] ]
      ~proof:[]
      ~obligations:[ [ lit 0 true; lit 2 false ] ]
      ()
  in
  Alcotest.(check bool) "assumption cube refuted" true (valid outcome);
  Alcotest.(check int) "no lemmas needed" 0 (report outcome).Cert.Drat.lemmas

let test_unrefutable_obligation_rejected () =
  (* (a|b) refutes nothing by unit propagation. *)
  let outcome =
    Cert.Drat.check
      ~original:[ [ lit 0 true; lit 1 true ] ]
      ~proof:[] ~obligations:[ [] ] ()
  in
  Alcotest.(check bool) "satisfiable set does not certify" false (valid outcome)

(* A deleted lemma is revived when an obligation needs it: deletion never
   removes implications, so the retry is sound and must succeed. *)
let test_deleted_lemma_revived () =
  let outcome =
    Cert.Drat.check ~original:hand_core
      ~proof:[ Cert.Drat.Padd [ lit 0 true ]; Cert.Drat.Pdel [ lit 0 true ] ]
      ~obligations:[ [] ] ()
  in
  Alcotest.(check bool) "obligation passes after reviving deletions" true
    (valid outcome)

let test_delete_of_absent_clause_rejected () =
  let outcome =
    Cert.Drat.check ~original:hand_core
      ~proof:[ Cert.Drat.Pdel [ lit 1 true; lit 2 true ] ]
      ~obligations:[ [] ] ()
  in
  Alcotest.(check bool) "deleting a clause never added is malformed" false
    (valid outcome)

(* {2 Mutation: corrupted proofs are rejected} *)

let pigeonhole_clauses holes =
  (* holes+1 pigeons in [holes] holes; var p*holes+h = pigeon p in hole h. *)
  let var p h = p * holes + h in
  let each_pigeon_somewhere =
    List.init (holes + 1) (fun p -> List.init holes (fun h -> lit (var p h) true))
  in
  let no_two_share =
    List.concat_map
      (fun h ->
        List.concat
          (List.init (holes + 1) (fun p ->
               List.init p (fun q -> [ lit (var p h) false; lit (var q h) false ]))))
      (List.init holes Fun.id)
  in
  each_pigeon_somewhere @ no_two_share

let logged_refutation clauses =
  let s = Solver.create () in
  Solver.set_proof_logging s true;
  let nv =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc c)
      0 clauses
  in
  Solver.ensure_vars s nv;
  List.iter (Solver.add_clause s) clauses;
  Alcotest.(check bool) "instance is unsat" true (Solver.solve s = Solver.Unsat);
  (nv, Solver.proof s)

let test_solver_proof_certifies () =
  let clauses = pigeonhole_clauses 4 in
  let _, proof = logged_refutation clauses in
  let outcome =
    Cert.Drat.check ~original:clauses ~proof ~obligations:[ [] ] ()
  in
  let r = report outcome in
  Alcotest.(check bool) "solver logged real work" true (r.Cert.Drat.lemmas > 0);
  Alcotest.(check bool) "cone smaller than or equal to the log" true
    (r.Cert.Drat.checked_lemmas <= r.Cert.Drat.lemmas)

(* Corrupt one addition step of a genuine solver proof — replace it with a
   unit over a fresh variable, which nothing implies — and demand rejection.
   [every_lemma] forces the checker to look at the corrupted line even when
   no obligation happens to depend on it. *)
let test_mutated_proof_rejected () =
  let clauses = pigeonhole_clauses 4 in
  let nv, proof = logged_refutation clauses in
  let adds = List.length (List.filter (function Cert.Drat.Padd _ -> true | _ -> false) proof) in
  Alcotest.(check bool) "proof has additions to corrupt" true (adds > 0);
  let corrupted_at k =
    let seen = ref (-1) in
    List.map
      (function
        | Cert.Drat.Padd _ when (incr seen; !seen = k) ->
          Cert.Drat.Padd [ lit nv true ]
        | step -> step)
      proof
  in
  List.iter
    (fun k ->
      let outcome =
        Cert.Drat.check ~every_lemma:true ~original:clauses
          ~proof:(corrupted_at k) ~obligations:[ [] ] ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "corrupting addition %d of %d is caught" k adds)
        false (valid outcome))
    [ 0; adds / 2; adds - 1 ]

(* {2 Incremental obligations (the BMC usage pattern)} *)

let test_assumption_obligations_across_solves () =
  let s = Solver.create () in
  Solver.set_proof_logging s true;
  Solver.ensure_vars s 4;
  (* act0 -> chain forcing a contradiction; act1 -> a different one. *)
  Solver.add_clause s [ lit 0 false; lit 2 true ];
  Solver.add_clause s [ lit 0 false; lit 2 false ];
  Solver.add_clause s [ lit 1 false; lit 3 true ];
  Solver.add_clause s [ lit 1 false; lit 2 true; lit 3 false ];
  let obligations = ref [] in
  List.iter
    (fun assumptions ->
      (match Solver.solve ~assumptions s with
      | Solver.Unsat -> obligations := assumptions :: !obligations
      | Solver.Sat -> ()))
    [ [ lit 0 true ]; [ lit 1 true ]; [ lit 1 true; lit 2 false ] ];
  Alcotest.(check bool) "at least one unsat query" true (!obligations <> []);
  let outcome =
    Cert.Drat.check
      ~original:(Solver.export_clauses s) ~proof:(Solver.proof s)
      ~obligations:(List.rev !obligations) ()
  in
  Alcotest.(check bool) "all recorded obligations certify" true (valid outcome)

(* {2 Differential: the checker against a naive reference}

   The reference keeps clauses in a list with alive flags and propagates by
   rescanning every clause until nothing changes: no watches, no index.  It
   runs the procedure of [Cert.Drat.check ~every_lemma:true] — forward
   replay honouring deletions, end-state obligations with one revival
   retry, then every lemma RUP against the clauses alive before it, walking
   backward — so the two must return the same Valid/Invalid. *)
module Reference = struct
  type cls = { lits : Lit.t list; mutable alive : bool }

  (* Propagation to fixpoint from [assumed]: does it reach a conflict? *)
  let refutes db assumed =
    let value = Hashtbl.create 16 in
    let truth l = Option.map (fun b -> b = Lit.sign l) (Hashtbl.find_opt value (Lit.var l)) in
    let conflict = ref false and changed = ref true in
    let set l =
      match truth l with
      | Some b -> if not b then conflict := true
      | None ->
        Hashtbl.replace value (Lit.var l) (Lit.sign l);
        changed := true
    in
    List.iter set assumed;
    while !changed && not !conflict do
      changed := false;
      List.iter
        (fun c ->
          if c.alive && not (!conflict || List.exists (fun l -> truth l = Some true) c.lits)
          then
            match List.filter (fun l -> truth l = None) c.lits with
            | [] -> conflict := true
            | [ l ] -> set l
            | _ -> ())
        !db
    done;
    !conflict

  let check ~original ~proof ~obligations =
    let norm = List.sort_uniq compare in
    let db = ref [] in
    let add lits =
      let c = { lits = norm lits; alive = true } in
      db := !db @ [ c ];
      c
    in
    List.iter (fun c -> ignore (add c)) original;
    let step acc = function
      | Cert.Drat.Padd lits -> `Add (add lits) :: acc
      | Cert.Drat.Pdel lits -> (
        match List.find_opt (fun c -> c.alive && c.lits = norm lits) !db with
        | Some c ->
          c.alive <- false;
          `Del c :: acc
        | None -> raise Exit)
    in
    match List.fold_left step [] proof with
    | exception Exit -> false
    | backward ->
      let revive () = List.iter (function `Del c -> c.alive <- true | `Add _ -> ()) backward in
      List.for_all (fun a -> refutes db a || (revive (); refutes db a)) obligations
      && List.for_all
           (function
             | `Del c -> c.alive <- true; true
             | `Add c -> c.alive <- false; refutes db (List.map Lit.negate c.lits))
           backward
end

type mutation =
  | Intact
  | Deletions_at_end  (** present clauses deleted after the last lemma *)
  | Literal_dropped
  | Lemma_replaced
  | Absent_deleted
  | Present_deleted  (** a clause deleted at a random point of the proof *)
  | Obligation_literal_dropped

let mutations =
  [|
    Intact;
    Deletions_at_end;
    Literal_dropped;
    Lemma_replaced;
    Absent_deleted;
    Present_deleted;
    Obligation_literal_dropped;
  |]

(* A random CNF (duplicate literals and tautologies included) solved with
   proof logging under random assumption cubes; the UNSAT cubes are the
   obligations.  Then one mutation of the proof or the obligations. *)
let random_instance seed mutation =
  let st = Random.State.make [| 0x51ed; seed |] in
  let nvars = 15 + Random.State.int st 26 in
  let rlit () = lit (Random.State.int st nvars) (Random.State.bool st) in
  let rclause () = List.init (1 + Random.State.int st 3) (fun _ -> rlit ()) in
  let original =
    List.init ((4 * nvars) + Random.State.int st (nvars / 2)) (fun _ ->
        List.init 3 (fun _ -> rlit ()))
  in
  let s = Solver.create () in
  Solver.set_proof_logging s true;
  Solver.ensure_vars s nvars;
  List.iter (Solver.add_clause s) original;
  let obligations =
    List.filter
      (fun cube -> Solver.solve ~assumptions:cube s = Solver.Unsat)
      (List.init 4 (fun _ -> List.init (Random.State.int st 4) (fun _ -> rlit ())))
  in
  let proof = Array.of_list (Solver.proof s) in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let lemma_positions =
    Array.of_list
      (List.filter_map
         (fun i -> match proof.(i) with Cert.Drat.Padd _ -> Some i | Cert.Drat.Pdel _ -> None)
         (List.init (Array.length proof) Fun.id))
  in
  (* A lemma added before step [i] (an original clause when there is
     none), its literals reversed. *)
  let present_before i =
    let lemmas =
      List.filter_map
        (function Cert.Drat.Padd c -> Some c | Cert.Drat.Pdel _ -> None)
        (Array.to_list (Array.sub proof 0 i))
    in
    List.rev (pick (Array.of_list (if lemmas = [] then original else lemmas)))
  in
  let insert i step =
    Array.to_list (Array.sub proof 0 i)
    @ (step :: Array.to_list (Array.sub proof i (Array.length proof - i)))
  in
  let drop_one = function
    | [] -> []
    | l -> List.filteri (fun i _ -> i <> Random.State.int st (List.length l)) l
  in
  let with_lemma f =
    if Array.length lemma_positions = 0 then Array.to_list proof
    else begin
      let i = pick lemma_positions in
      let p = Array.copy proof in
      (match p.(i) with Cert.Drat.Padd c -> p.(i) <- Cert.Drat.Padd (f c) | Cert.Drat.Pdel _ -> ());
      Array.to_list p
    end
  in
  let proof' =
    match mutation with
    | Intact | Obligation_literal_dropped -> Array.to_list proof
    | Deletions_at_end ->
      (* Distinct clauses, so each deletion has a copy of its own. *)
      let pool = Array.of_list (original @ Solver.proof_log s) in
      let picked =
        List.sort_uniq compare
          (List.init 3 (fun _ -> Random.State.int st (Array.length pool)))
      in
      Array.to_list proof @ List.map (fun k -> Cert.Drat.Pdel (List.rev pool.(k))) picked
    | Literal_dropped -> with_lemma drop_one
    | Lemma_replaced -> with_lemma (fun _ -> rclause ())
    | Absent_deleted ->
      insert (Random.State.int st (Array.length proof + 1)) (Cert.Drat.Pdel (rclause ()))
    | Present_deleted ->
      let i = Random.State.int st (Array.length proof + 1) in
      insert i (Cert.Drat.Pdel (present_before i))
  in
  let obligations' =
    match (mutation, obligations) with
    | Obligation_literal_dropped, _ :: _ ->
      let k = Random.State.int st (List.length obligations) in
      List.mapi (fun i c -> if i = k then drop_one c else c) obligations
    | _ -> obligations
  in
  (original, proof', obligations')

let prop_checker_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"checker agrees with a naive reference"
    ~print:(fun (seed, m) -> Printf.sprintf "seed %d, mutation %d" seed m)
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound (Array.length mutations - 1)))
    (fun (seed, m) ->
      let mutation = mutations.(m) in
      let original, proof, obligations = random_instance seed mutation in
      let every = valid (Cert.Drat.check ~every_lemma:true ~original ~proof ~obligations ()) in
      let cone = valid (Cert.Drat.check ~original ~proof ~obligations ()) in
      every = Reference.check ~original ~proof ~obligations
      && ((not every) || cone)
      && match mutation with Intact | Deletions_at_end -> every && cone | _ -> true)

(* {2 Textual DRAT output} *)

let test_drat_output_format () =
  let path = Filename.temp_file "emmver_test" ".drat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Cert.Drat.output oc
        [
          Cert.Drat.Padd [ lit 0 true; lit 1 false ];
          Cert.Drat.Pdel [ lit 2 true ];
        ];
      close_out oc;
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "standard DRAT text" "1 -2 0\nd 3 0\n" text)

(* {2 Counterexample replay certification} *)

let buggy_options = { Emmver.default_options with Emmver.max_depth = 12; certify = true }

let test_replay_certifies_genuine_cex () =
  let net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config in
  let o = Emmver.verify ~options:buggy_options ~method_:Emmver.Emm_falsify net
      ~property:"fifo_data"
  in
  (match o.Emmver.conclusion with
  | Emmver.Falsified { genuine = Some true; _ } -> ()
  | c -> Alcotest.failf "expected genuine cex, got %a" Emmver.pp_conclusion c);
  Alcotest.(check string) "trace-replayed certificate" "trace-replayed"
    (Cert.label o.Emmver.certificate)

let test_mismatched_trace_refuted () =
  let net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config in
  let config =
    { Bmc.Engine.default_config with Bmc.Engine.max_depth = 12; certify = true }
  in
  let result, _ = Emm.check ~config net ~property:"fifo_data" in
  let trace =
    match result.Bmc.Engine.verdict with
    | Bmc.Engine.Counterexample t -> t
    | v -> Alcotest.failf "expected counterexample, got %a" Bmc.Engine.pp_verdict v
  in
  Alcotest.(check string) "untampered trace certifies" "trace-replayed"
    (Cert.label (Bmc.Trace.certify net trace));
  (* Tamper with the stimulus: flip every recorded input bit of frame 0. *)
  let tampered =
    {
      trace with
      Bmc.Trace.inputs =
        Array.mapi
          (fun i frame ->
            if i = 0 then List.map (fun (n, b) -> (n, not b)) frame else frame)
          trace.Bmc.Trace.inputs;
    }
  in
  match Bmc.Trace.certify net tampered with
  | Cert.Refuted _ -> ()
  | c -> Alcotest.failf "tampered trace must be refuted, got %s" (Cert.label c)

(* {2 Differential: certification never changes a verdict}

   The 50 seeded random memory designs of test_differential.ml /
   test_parallel.ml (same generator constants), each verified plain and with
   [certify]: the conclusions must match, and every conclusive certified run
   must carry a [Certified] certificate of the right kind. *)

type cfg = {
  id : int;
  aw : int;
  dw : int;
  wports : int;
  rports : int;
  arbitrary : bool;
  wconsts : int array;
  dconsts : int array;
  rconsts : int array;
  en_bit : int option;
  prop_on_acc : bool;
  target : int;
}

let random_cfg id =
  let st = Random.State.make [| 0x3d1f; id |] in
  let aw = 1 + Random.State.int st 2 in
  let dw = 1 + Random.State.int st 3 in
  let wports = 1 + Random.State.int st 2 in
  let rports = 1 + Random.State.int st 2 in
  let const8 () = Random.State.int st 8 in
  {
    id;
    aw;
    dw;
    wports;
    rports;
    arbitrary = Random.State.bool st;
    wconsts = Array.init wports (fun _ -> const8 ());
    dconsts = Array.init wports (fun _ -> const8 ());
    rconsts = Array.init rports (fun _ -> const8 ());
    en_bit = (if Random.State.bool st then Some (Random.State.int st 3) else None);
    prop_on_acc = Random.State.bool st;
    target = Random.State.int st (1 lsl dw);
  }

let build cfg =
  let ctx = Hdl.create () in
  let init = if cfg.arbitrary then Netlist.Arbitrary else Netlist.Zeros in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:cfg.aw ~data_width:cfg.dw ~init in
  let cnt = Hdl.reg ctx "cnt" ~width:3 in
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  let addr_of c =
    Hdl.select (Hdl.xor_v ctx cnt (Hdl.const ~width:3 c)) ~hi:(cfg.aw - 1) ~lo:0
  in
  let data_of c = Hdl.uresize (Hdl.xor_v ctx cnt (Hdl.const ~width:3 c)) ~width:cfg.dw in
  let en0 =
    match cfg.en_bit with None -> Netlist.true_ | Some b -> Hdl.bit_of cnt b
  in
  for w = 0 to cfg.wports - 1 do
    let enable = if w = 0 then en0 else Netlist.not_ en0 in
    Hdl.write_port ctx mem ~addr:(addr_of cfg.wconsts.(w)) ~data:(data_of cfg.dconsts.(w))
      ~enable
  done;
  let rds =
    List.init cfg.rports (fun r ->
        Hdl.read_port ctx mem ~addr:(addr_of cfg.rconsts.(r)) ~enable:Netlist.true_)
  in
  let acc = Hdl.reg ctx "acc" ~width:cfg.dw in
  Hdl.connect ctx acc (List.fold_left (Hdl.xor_v ctx) acc rds);
  let watched = if cfg.prop_on_acc then acc else List.hd rds in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx watched cfg.target));
  Hdl.netlist ctx

let test_differential_certify () =
  for id = 0 to 49 do
    let net = build (random_cfg id) in
    let plain =
      Emmver.verify
        ~options:{ Emmver.default_options with Emmver.max_depth = 8 }
        ~method_:Emmver.Emm_falsify net ~property:"p"
    in
    let certified =
      Emmver.verify
        ~options:{ Emmver.default_options with Emmver.max_depth = 8; certify = true }
        ~method_:Emmver.Emm_falsify net ~property:"p"
    in
    Alcotest.(check string)
      (Printf.sprintf "design %d: certify does not change the verdict" id)
      (Format.asprintf "%a" Emmver.pp_conclusion plain.Emmver.conclusion)
      (Format.asprintf "%a" Emmver.pp_conclusion certified.Emmver.conclusion);
    let expected_label =
      match certified.Emmver.conclusion with
      | Emmver.Falsified _ -> "trace-replayed"
      | Emmver.Proved _ | Emmver.Inconclusive _ -> "drat-checked"
    in
    Alcotest.(check string)
      (Printf.sprintf "design %d: verdict certifies" id)
      expected_label
      (Cert.label certified.Emmver.certificate)
  done

let () =
  Alcotest.run "cert"
    [
      ( "drat",
        [
          Alcotest.test_case "hand-built core with known proof" `Quick
            test_hand_core_proof;
          Alcotest.test_case "assumption-cube obligation" `Quick
            test_assumption_obligation;
          Alcotest.test_case "satisfiable set rejected" `Quick
            test_unrefutable_obligation_rejected;
          Alcotest.test_case "deleted lemma revived for obligations" `Quick
            test_deleted_lemma_revived;
          Alcotest.test_case "delete of absent clause rejected" `Quick
            test_delete_of_absent_clause_rejected;
          Alcotest.test_case "solver pigeonhole proof certifies" `Quick
            test_solver_proof_certifies;
          Alcotest.test_case "mutated proof lines rejected" `Quick
            test_mutated_proof_rejected;
          Alcotest.test_case "obligations across incremental solves" `Quick
            test_assumption_obligations_across_solves;
          Alcotest.test_case "textual DRAT output" `Quick test_drat_output_format;
          QCheck_alcotest.to_alcotest prop_checker_matches_reference;
        ] );
      ( "replay",
        [
          Alcotest.test_case "genuine counterexample certifies" `Quick
            test_replay_certifies_genuine_cex;
          Alcotest.test_case "tampered trace refuted" `Quick
            test_mismatched_trace_refuted;
        ] );
      ( "differential",
        [
          Alcotest.test_case "50 seeded designs: certify = plain" `Quick
            test_differential_certify;
        ] );
    ]
