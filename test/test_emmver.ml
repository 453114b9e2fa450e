(* Platform-façade tests: every verification method agrees on easy designs,
   spurious counterexamples are flagged, and the race checker behaves. *)

let options max_depth = { Emmver.default_options with Emmver.max_depth }

let conclusion ?(max_depth = 30) method_ net property =
  (Emmver.verify ~options:(options max_depth) ~method_ net ~property).Emmver.conclusion

let test_methods_agree_on_proof () =
  (* A provable memory property: never-written zero memory reads zero. *)
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rd = Hdl.read_port ctx mem ~addr:ra ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Hdl.eq_const ctx rd 0);
  let net = Hdl.netlist ctx in
  List.iter
    (fun method_ ->
      match conclusion method_ net "p" with
      | Emmver.Proved _ -> ()
      | c ->
        Alcotest.failf "%s: expected proof, got %s"
          (Emmver.method_to_string method_)
          (Format.asprintf "%a" Emmver.pp_conclusion c))
    [ Emmver.Emm_bmc; Emmver.Explicit_bmc; Emmver.Bdd_reach ]

let test_methods_agree_on_bug () =
  let net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config in
  let depths =
    List.map
      (fun method_ ->
        match conclusion ~max_depth:8 method_ net "fifo_data" with
        | Emmver.Falsified { depth; genuine; _ } ->
          Alcotest.(check bool)
            (Emmver.method_to_string method_ ^ " genuine")
            true
            (genuine = Some true || genuine = None);
          depth
        | c ->
          Alcotest.failf "%s: expected bug, got %s"
            (Emmver.method_to_string method_)
            (Format.asprintf "%a" Emmver.pp_conclusion c))
      [ Emmver.Emm_bmc; Emmver.Emm_falsify; Emmver.Explicit_bmc; Emmver.Bdd_reach ]
  in
  match depths with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check int) "same minimal depth" d d') rest
  | [] -> ()

let test_abstract_method_spurious () =
  let net = Designs.Multiport.build Designs.Multiport.default_config in
  match conclusion ~max_depth:10 Emmver.Abstract_bmc net "hit0" with
  | Emmver.Falsified { genuine = Some false; depth; _ } ->
    Alcotest.(check int) "pipeline depth" 7 depth
  | c ->
    Alcotest.failf "expected spurious counterexample, got %s"
      (Format.asprintf "%a" Emmver.pp_conclusion c)

let test_emm_pba_on_quicksort () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3) in
  let outcome =
    Emmver.verify ~options:(options 60) ~method_:Emmver.Emm_pba net ~property:"P2"
  in
  (match outcome.Emmver.conclusion with
  | Emmver.Proved _ -> ()
  | c -> Alcotest.failf "expected proof, got %s" (Format.asprintf "%a" Emmver.pp_conclusion c));
  match outcome.Emmver.abstraction with
  | Some a ->
    Alcotest.(check bool) "array abstracted" true
      (List.exists (fun m -> Netlist.memory_name m = "arr") a.Pba.abstracted_memories)
  | None -> Alcotest.fail "expected abstraction info"

let test_method_of_string () =
  List.iter
    (fun m ->
      match Emmver.method_of_string (Emmver.method_to_string m) with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    Emmver.all_methods;
  match Emmver.method_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* One selection rule for the daemon and the CLI: a named property must
   exist, and no name means every property in netlist order. *)
let test_select_properties () =
  let net = Designs.Fifo.build Designs.Fifo.default_config in
  let all = List.map fst (Netlist.properties net) in
  let select property = Emmver.select_properties net ~design:"fifo" ~property in
  let result = Alcotest.(result (list string) string) in
  Alcotest.check result "a named property" (Ok [ "fifo_count" ])
    (select (Some "fifo_count"));
  Alcotest.check result "an unknown name"
    (Error "design fifo has no property \"nosuch\"")
    (select (Some "nosuch"));
  Alcotest.check result "no name: every property" (Ok all) (select None);
  Alcotest.(check bool) "fifo has several" true (List.length all > 1);
  let ctx = Hdl.create () in
  let r = Hdl.reg ctx "r" ~width:1 in
  Hdl.connect ctx r r;
  Alcotest.check result "a design without properties"
    (Error "bare has no properties")
    (Emmver.select_properties (Hdl.netlist ctx) ~design:"bare" ~property:None)

let test_timeout_inconclusive () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:5) in
  let options = { Emmver.default_options with max_depth = 200; timeout_s = Some 0.2 } in
  match (Emmver.verify ~options ~method_:Emmver.Explicit_bmc net ~property:"P1").Emmver.conclusion with
  | Emmver.Inconclusive _ -> ()
  | c -> Alcotest.failf "expected timeout, got %s" (Format.asprintf "%a" Emmver.pp_conclusion c)

let test_race_found_and_replayed () =
  let net = Designs.Regfile.build ~dual_write:true Designs.Regfile.default_config in
  match Emm.find_data_race ~max_depth:4 net with
  | Some race ->
    Alcotest.(check string) "memory" "regfile" race.Emm.race_memory;
    Alcotest.(check int) "depth 0 suffices" 0 race.Emm.race_depth
  | None -> Alcotest.fail "expected a race"

let test_no_race_single_port () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3) in
  Alcotest.(check bool) "single write port is race-free" true
    (Emm.find_data_race ~max_depth:6 net = None)

let test_no_race_when_unreachable () =
  (* Two write ports whose enables are mutually exclusive by construction. *)
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let addr = Hdl.input ctx "addr" ~width:2 in
  let data = Hdl.input ctx "data" ~width:2 in
  let sel = Hdl.input_bit ctx "sel" in
  Hdl.write_port ctx mem ~addr ~data ~enable:sel;
  Hdl.write_port ctx mem ~addr ~data ~enable:(Netlist.not_ sel);
  let rd = Hdl.read_port ctx mem ~addr ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" Netlist.true_;
  Hdl.output ctx "rd" rd;
  let net = Hdl.netlist ctx in
  Alcotest.(check bool) "exclusive enables never race" true
    (Emm.find_data_race ~max_depth:4 net = None)

(* The layers of an outcome's time nest: solving and encoding are disjoint
   spans of the call, and the EMM constraints are part of the encode span
   rather than added on top of it. *)
let test_time_layers_within_total () =
  let check name method_ max_depth net property =
    let o = Emmver.verify ~options:(options max_depth) ~method_ net ~property in
    if o.Emmver.solve_time_s +. o.Emmver.encode_time_s > o.Emmver.time_s then
      Alcotest.failf "%s: solve %.4fs + encode %.4fs exceeds the %.4fs call" name
        o.Emmver.solve_time_s o.Emmver.encode_time_s o.Emmver.time_s
  in
  check "multiport/hit0" Emmver.Emm_falsify 10
    (Designs.Multiport.build Designs.Multiport.default_config)
    "hit0";
  check "quicksort-buggy-n3/P1" Emmver.Emm_bmc 30
    (Designs.Quicksort.build ~buggy:true (Designs.Quicksort.default_config ~n:3))
    "P1"

let () =
  Alcotest.run "emmver"
    [
      ( "unit",
        [
          Alcotest.test_case "methods agree on proof" `Quick test_methods_agree_on_proof;
          Alcotest.test_case "methods agree on bug" `Quick test_methods_agree_on_bug;
          Alcotest.test_case "abstract method spurious" `Quick
            test_abstract_method_spurious;
          Alcotest.test_case "emm-pba on quicksort" `Quick test_emm_pba_on_quicksort;
          Alcotest.test_case "method of string" `Quick test_method_of_string;
          Alcotest.test_case "timeout inconclusive" `Quick test_timeout_inconclusive;
          Alcotest.test_case "race found" `Quick test_race_found_and_replayed;
          Alcotest.test_case "no race single port" `Quick test_no_race_single_port;
          Alcotest.test_case "no race when unreachable" `Quick
            test_no_race_when_unreachable;
          Alcotest.test_case "solve + encode within the call" `Quick
            test_time_layers_within_total;
          Alcotest.test_case "select properties" `Quick test_select_properties;
        ] );
    ]
