(* Self-tests for the benchmark's pure helpers. *)

open Perfbench_kit

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let samples n = List.init n (fun i -> float_of_int (n - i))

let test_tail_rule () =
  (* 216 samples 1..216: ten lie beyond 206, the (216-10)/216 = p95 point *)
  let t = Stats.tail (samples 216) in
  Alcotest.check feq "value" 206.0 t.Stats.value;
  Alcotest.(check int) "percentile" 95 t.percentile;
  Alcotest.(check int) "samples" 216 t.samples;
  (* eleven samples: exactly one has ten beyond it *)
  let t = Stats.tail (samples 11) in
  Alcotest.check feq "eleven" 1.0 t.value;
  (* fewer than eleven: no percentile qualifies, the median stands in *)
  let t = Stats.tail (samples 4) in
  Alcotest.check feq "median" 2.5 t.value;
  Alcotest.(check int) "p50" 50 t.percentile;
  (* beyond one block of 216: p95 per block, median over whole blocks; the
     trailing partial block is dropped *)
  let blocks =
    List.concat_map (fun k -> List.init 216 (fun i -> float_of_int (i + (1000 * k)))) [ 0; 1; 2 ]
  in
  let t = Stats.tail (blocks @ [ 1e9 ]) in
  Alcotest.check feq "median of block p95s" 1205.0 t.value;
  Alcotest.(check int) "block percentile" 95 t.percentile;
  Alcotest.(check int) "all samples counted" 649 t.samples

(* A hand-built forest on one clock:
     root [0,10]
       a [1,4]          (self 2: child b covers [2,3])
         b [2,3]
       c [5,9]          (self 1: children d and e overlap on [6,8])
         d [6,8]
         e [7,9]                                                    *)
let forest =
  let s name layer start stop parent = { Ledger.name; layer; start; stop; parent } in
  [|
    s "root" None 0.0 10.0 None;
    s "a" (Some "A") 1.0 4.0 (Some 0);
    s "b" (Some "B") 2.0 3.0 (Some 1);
    s "c" (Some "A") 5.0 9.0 (Some 0);
    s "d" (Some "B") 6.0 8.0 (Some 3);
    s "e" (Some "B") 7.0 9.0 (Some 3);
  |]

let test_self_time () =
  let self = Ledger.self_times forest in
  List.iteri
    (fun i want -> Alcotest.check feq (Printf.sprintf "span %d" i) want self.(i))
    [ 3.0; 2.0; 1.0; 1.0; 2.0; 2.0 ];
  let layers = Ledger.by_layer forest in
  Alcotest.check feq "layer A" 3.0 (Ledger.layer_total layers "A");
  Alcotest.check feq "layer B" 5.0 (Ledger.layer_total layers "B");
  Alcotest.check feq "unattributed" 2.5 (Ledger.unattributed ~wall:10.5 forest);
  (* d and e overlap, so [7,8] is counted twice *)
  Alcotest.check feq "double counted" 1.0 (Ledger.double_counted forest);
  let disjoint = Array.sub forest 0 5 in
  Alcotest.check feq "no double count" 0.0 (Ledger.double_counted disjoint)

let test_nesting () =
  Alcotest.(check bool) "well nested" true (Ledger.check_nesting forest = Ok ());
  let escaped = Array.copy forest in
  escaped.(2) <- { (escaped.(2)) with Ledger.stop = 4.5 };
  Alcotest.(check bool) "child outside parent" true
    (Result.is_error (Ledger.check_nesting escaped))

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "setup_s"; "satsolver.props_per_s"; "emm.aux_vars"; "p-50"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Stats.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "wall/s"; "x\"y"; String.make 65 'a' ];
  Alcotest.(check bool) "unit 1/s" true (Stats.valid_unit "1/s");
  Alcotest.(check bool) "unit with space" false (Stats.valid_unit "m s")

let test_result_line () =
  let m name value unit_ = { Stats.name; value; unit_ } in
  Alcotest.(check string)
    "line"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 0.10000000000000001, "unit": "s"}, "cnf.vars": {"value": 42, "unit": "count"}}}|}
    (Stats.result_line ~correct:true ~attempted:3 ~failed:0
       [ m "wall_s" 0.1 "s"; m "cnf.vars" 42.0 "count" ]);
  Alcotest.check_raises "duplicate" (Invalid_argument "duplicate metric x") (fun () ->
      ignore (Stats.result_line ~correct:true ~attempted:1 ~failed:0 [ m "x" 1.0 "s"; m "x" 2.0 "s" ]))

let oracle_text =
  "# comment\n\
   quicksort-proof P1 proved-diameter 32\n\n\
   image-filter-certified P18 falsified 1\n\
   image-filter-certified P192 bounded 20\n"

let test_oracle () =
  let t = Result.get_ok (Oracle.parse oracle_text) in
  Alcotest.(check (list string)) "properties" [ "P18"; "P192" ]
    (Oracle.properties t ~workload:"image-filter-certified");
  let ok v p w = Oracle.check t ~workload:w ~property:p v = Ok () in
  Alcotest.(check bool) "match" true (ok (Oracle.Proved_diameter 32) "P1" "quicksort-proof");
  Alcotest.(check bool) "other kind" false (ok (Oracle.Proved_induction 32) "P1" "quicksort-proof");
  Alcotest.(check bool) "other depth" false (ok (Oracle.Proved_diameter 31) "P1" "quicksort-proof");
  Alcotest.(check bool) "bounded" true (ok (Oracle.Bounded 20) "P192" "image-filter-certified");
  Alcotest.(check bool) "unknown property" false (ok (Oracle.Falsified 1) "P19" "image-filter-certified");
  Alcotest.(check bool) "bad verdict" true (Result.is_error (Oracle.parse "w p maybe 3\n"));
  Alcotest.(check bool) "bad depth" true (Result.is_error (Oracle.parse "w p bounded x\n"))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail has ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "self time on a forest" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_nesting;
        ] );
      ("oracle", [ Alcotest.test_case "expected verdicts" `Quick test_oracle ]);
    ]
