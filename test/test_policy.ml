(* Tests for the executor, Emmver.portfolio, and the Policy vocabulary it
   records: its rules (a conclusive engine wins, an honest inconclusive is
   the last resort, then the last failure; a dead worker is retried once),
   raced and chained, and fault-injection runs (SIGKILL, out-of-memory,
   poisoned encoder, exhausted budgets) asserting that degradation never
   changes the final verdict. *)

let signature o = Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion

let proved_net = Designs.Fifo.build Designs.Fifo.default_config
let buggy_net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config
let options = { Emmver.default_options with Emmver.max_depth = 12 }

let stages evs = List.map (fun e -> e.Policy.ev_stage) evs

let is_infix ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let cancelled (_, o) =
  match (o.Emmver.conclusion, o.Emmver.error) with
  | Emmver.Inconclusive why, Some (Policy.Worker_killed _) -> is_infix ~affix:"cancelled" why
  | _ -> false

(* {2 The executor's rules} *)

let test_conclusive_stops_chain () =
  let (winner, o), all =
    Emmver.portfolio ~options ~jobs:1 proved_net ~property:"fifo_count"
  in
  Alcotest.(check string) "emm answers" "emm" (Emmver.method_to_string winner);
  Alcotest.(check string) "with its proof" "proved (induction at depth 1)" (signature o);
  Alcotest.(check (list bool))
    "explicit and bdd never ran: cancelled" [ false; true; true ]
    (List.map cancelled all);
  Alcotest.(check (list string)) "no events" [] (stages o.Emmver.degradations)

let test_honest_inconclusive_last_resort () =
  let inject method_ ~attempt:_ =
    if method_ = Emmver.Explicit_bmc then failwith "poisoned explicit"
  in
  let (winner, o), _ =
    Emmver.portfolio ~options
      ~methods:[ Emmver.Emm_falsify; Emmver.Explicit_bmc ]
      ~jobs:1 ~inject proved_net ~property:"fifo_count"
  in
  Alcotest.(check string) "emm-falsify answers" "emm-falsify"
    (Emmver.method_to_string winner);
  Alcotest.(check string) "with its bounded answer"
    "inconclusive: no counterexample up to depth 12" (signature o);
  Alcotest.(check bool) "an honest answer carries no error" true (o.Emmver.error = None);
  match o.Emmver.degradations with
  | [ { Policy.ev_stage = "explicit"; ev_error = Policy.Encode_error _; _ } ] -> ()
  | evs -> Alcotest.failf "expected one explicit encode error, got [%s]"
             (String.concat "; " (stages evs))

let test_all_failed_last_failure () =
  let inject method_ ~attempt:_ =
    failwith ("poisoned " ^ Emmver.method_to_string method_)
  in
  let (winner, o), _ =
    Emmver.portfolio ~options
      ~methods:[ Emmver.Emm_bmc; Emmver.Explicit_bmc ]
      ~jobs:1 ~inject proved_net ~property:"fifo_count"
  in
  Alcotest.(check string) "the last engine answers" "explicit"
    (Emmver.method_to_string winner);
  Alcotest.(check (list string)) "both failures recorded in order"
    [ "emm"; "explicit" ] (stages o.Emmver.degradations);
  match (o.Emmver.error, List.rev o.Emmver.degradations) with
  | Some e, last :: _ ->
    Alcotest.(check bool) "the answer's error is the last failure" true
      (e = last.Policy.ev_error);
    Alcotest.(check string) "the chain's text"
      ("inconclusive: " ^ Policy.error_message e)
      (signature o);
    Alcotest.(check bool) "which names the poisoned engine" true
      (is_infix ~affix:"poisoned explicit" (Policy.error_message e))
  | _ -> Alcotest.fail "expected a typed error and events"

let test_race_retries_dead_engine () =
  let inject method_ ~attempt =
    if method_ = Emmver.Emm_bmc && attempt = 0 then
      Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let (winner, o), _ =
    Emmver.portfolio ~options
      ~methods:[ Emmver.Emm_bmc; Emmver.Emm_falsify ]
      ~inject proved_net ~property:"fifo_count"
  in
  Alcotest.(check string) "the retried engine wins" "emm"
    (Emmver.method_to_string winner);
  Alcotest.(check string) "with its proof" "proved (induction at depth 1)" (signature o);
  match o.Emmver.degradations with
  | [ { Policy.ev_stage = "emm"; ev_attempt = 0; ev_error = Policy.Worker_killed _; _ } ]
    -> ()
  | evs -> Alcotest.failf "expected one emm worker death, got [%s]"
             (String.concat "; " (stages evs))

let test_race_winner_cancels_running () =
  let inject method_ ~attempt:_ =
    if method_ = Emmver.Explicit_bmc then Unix.sleepf 30.0
  in
  let t0 = Unix.gettimeofday () in
  let (winner, o), all =
    Emmver.portfolio ~options
      ~methods:[ Emmver.Emm_bmc; Emmver.Explicit_bmc ]
      ~inject proved_net ~property:"fifo_count"
  in
  Alcotest.(check string) "emm wins" "emm" (Emmver.method_to_string winner);
  Alcotest.(check bool) "the sleeper was killed, not awaited" true
    (Unix.gettimeofday () -. t0 < 10.0);
  Alcotest.(check (list bool)) "explicit reports cancelled" [ false; true ]
    (List.map cancelled all);
  Alcotest.(check (list string)) "a cancellation is no event" []
    (stages o.Emmver.degradations)

(* {2 Fault injection through the fallback chain}

   Each scenario compares against a clean run of the same chain: injected
   faults may add degradation events but must never change the verdict. *)

(* The fallback chain: [emm -> explicit -> bdd], one engine at a time. *)
let chain ?(options = options) ?methods ?inject net ~property =
  snd (fst (Emmver.portfolio ~options ?methods ~jobs:1 ?inject net ~property))

let clean_signature net ~property = signature (chain net ~property)

let test_sigkill_once_retried () =
  let inject method_ ~attempt =
    if method_ = Emmver.Emm_bmc && attempt = 0 then
      Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  List.iter
    (fun (net, property) ->
      let o = chain ~inject net ~property in
      Alcotest.(check string)
        (property ^ ": verdict unchanged by a killed worker")
        (clean_signature net ~property) (signature o);
      match o.Emmver.degradations with
      | [ { Policy.ev_stage = "emm"; ev_error = Policy.Worker_killed _; _ } ] -> ()
      | evs -> Alcotest.failf "expected one emm worker-death event, got %d" (List.length evs))
    [ (proved_net, "fifo_count"); (buggy_net, "fifo_data") ]

let test_sigkill_always_falls_back () =
  (* emm dies on every attempt: the chain must degrade to explicit and still
     produce the clean verdict. *)
  let inject method_ ~attempt:_ =
    if method_ = Emmver.Emm_bmc then Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let o = chain ~inject buggy_net ~property:"fifo_data" in
  Alcotest.(check string) "explicit fallback reproduces the verdict"
    (clean_signature buggy_net ~property:"fifo_data")
    (signature o);
  Alcotest.(check (list string))
    "emm died twice (initial + retry) before falling back"
    [ "emm"; "emm" ]
    (List.map (fun e -> e.Policy.ev_stage) o.Emmver.degradations)

let test_oom_treated_as_worker_death () =
  let inject method_ ~attempt =
    if method_ = Emmver.Emm_bmc && attempt = 0 then raise Out_of_memory
  in
  let o = chain ~inject proved_net ~property:"fifo_count" in
  Alcotest.(check string) "verdict unchanged by OOM"
    (clean_signature proved_net ~property:"fifo_count")
    (signature o);
  match o.Emmver.degradations with
  | [ { Policy.ev_error = Policy.Worker_killed why; _ } ] ->
    Alcotest.(check bool) "OOM named in the event" true
      (let affix = "Out of memory" in
       let n = String.length why and m = String.length affix in
       let rec go i = i + m <= n && (String.sub why i m = affix || go (i + 1)) in
       go 0)
  | evs -> Alcotest.failf "expected one OOM event, got %d" (List.length evs)

let test_poisoned_encoder_falls_through () =
  let inject method_ ~attempt:_ =
    if method_ = Emmver.Emm_bmc then failwith "poisoned encoder"
  in
  let o = chain ~inject buggy_net ~property:"fifo_data" in
  Alcotest.(check string) "verdict unchanged by a poisoned encoder"
    (clean_signature buggy_net ~property:"fifo_data")
    (signature o);
  (* Encode errors are not retried: exactly one emm event, then explicit. *)
  match o.Emmver.degradations with
  | [ { Policy.ev_stage = "emm"; ev_error = Policy.Encode_error _; _ } ] -> ()
  | evs ->
    Alcotest.failf "expected one encode-error event, got [%s]"
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Policy.pp_event e) evs))

let test_budget_exhaustion_degrades () =
  (* A one-conflict budget starves both SAT engines on the hard property;
     the chain ends with a typed budget error, not a bogus verdict. *)
  let o =
    chain
      ~options:{ options with Emmver.conflict_budget = Some 1 }
      ~methods:[ Emmver.Emm_bmc; Emmver.Explicit_bmc ]
      proved_net ~property:"fifo_data"
  in
  (match o.Emmver.conclusion with
  | Emmver.Inconclusive _ -> ()
  | c -> Alcotest.failf "starved run must be inconclusive, got %a" Emmver.pp_conclusion c);
  (match o.Emmver.error with
  | Some (Policy.Budget_exhausted _) -> ()
  | Some e -> Alcotest.failf "wrong error class: %s" (Policy.error_message e)
  | None -> Alcotest.fail "expected a typed budget error");
  Alcotest.(check (list string))
    "both stages exhausted in order" [ "emm"; "explicit" ]
    (List.map (fun e -> e.Policy.ev_stage) o.Emmver.degradations)

let test_budget_narrows_but_verdict_survives () =
  (* An easy property concludes within one SAT query even under a small
     conflict budget — budgets narrow the work, never the answer. *)
  let o =
    chain
      ~options:{ options with Emmver.conflict_budget = Some 50 }
      proved_net ~property:"fifo_count"
  in
  Alcotest.(check string) "verdict as clean run"
    (clean_signature proved_net ~property:"fifo_count")
    (signature o)

let () =
  Alcotest.run "policy"
    [
      ( "executor",
        [
          Alcotest.test_case "conclusive engine stops chain" `Quick
            test_conclusive_stops_chain;
          Alcotest.test_case "honest inconclusive answers" `Quick
            test_honest_inconclusive_last_resort;
          Alcotest.test_case "last failure answers" `Quick
            test_all_failed_last_failure;
          Alcotest.test_case "dead engine in race is retried" `Quick
            test_race_retries_dead_engine;
          Alcotest.test_case "race winner cancels the rest" `Quick
            test_race_winner_cancels_running;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "SIGKILL on first attempt is retried" `Quick
            test_sigkill_once_retried;
          Alcotest.test_case "persistent SIGKILL falls back to explicit" `Quick
            test_sigkill_always_falls_back;
          Alcotest.test_case "OOM classified as worker death" `Quick
            test_oom_treated_as_worker_death;
          Alcotest.test_case "poisoned encoder falls through, no retry" `Quick
            test_poisoned_encoder_falls_through;
          Alcotest.test_case "exhausted budgets degrade with typed error" `Quick
            test_budget_exhaustion_degrades;
          Alcotest.test_case "budget does not change an easy verdict" `Quick
            test_budget_narrows_but_verdict_survives;
        ] );
    ]
