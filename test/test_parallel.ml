(* Tests for the fork-based worker loop (lib/parallel) and its Emmver
   surface: crash containment, deadline SIGKILL, result-order determinism,
   repeated batches, races and retries through [settle], and a
   differential check that fanning verification out over forked workers
   never changes a verdict. *)

let is_infix ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let ok_exn = function
  | Ok v -> v
  | Error (f : Parallel.failure) ->
    Alcotest.failf "unexpected worker failure: %s" (Parallel.failure_message f)

let reason_label = function
  | Ok _ -> "ok"
  | Error { Parallel.reason = Parallel.Crashed _; _ } -> "crashed"
  | Error { Parallel.reason = Parallel.Timed_out _; _ } -> "timed_out"
  | Error { Parallel.reason = Parallel.Cancelled; _ } -> "cancelled"
  | Error { Parallel.reason = Parallel.Protocol _; _ } -> "protocol"

(* A race on [run]: the first result [conclusive] accepts stops the run. *)
let race ~jobs ~f ~conclusive xs =
  let winner = ref None in
  let settle slot = function
    | Ok v when conclusive v ->
      winner := Some (slot, v);
      `Stop
    | _ -> `Continue
  in
  let results = Parallel.run ~jobs ~settle ~f xs in
  (!winner, results)

(* {2 Pool mechanics} *)

let test_basic_map () =
  let results = Parallel.run ~jobs:4 ~f:(fun i -> i * i) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list int))
    "squares in order"
    [ 0; 1; 4; 9; 16; 25; 36; 49 ]
    (List.map ok_exn results)

(* A worker that exits, raises, or kills itself loses only its own slot;
   every other job completes. *)
let test_crash_containment () =
  let f i =
    match i with
    | 2 -> exit 137
    | 4 -> failwith "boom"
    | 5 ->
      Unix.kill (Unix.getpid ()) Sys.sigsegv;
      i
    | _ -> i * 10
  in
  let results = Parallel.run ~jobs:3 ~f [ 0; 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list string))
    "crashes contained to their slots"
    [ "ok"; "ok"; "crashed"; "ok"; "crashed"; "crashed"; "ok" ]
    (List.map reason_label results);
  Alcotest.(check (list int))
    "survivors computed"
    [ 0; 10; 30; 60 ]
    (List.filter_map (function Ok v -> Some v | Error _ -> None) results);
  (* The failure messages identify what happened. *)
  let msg i =
    match List.nth results i with
    | Error f -> Parallel.failure_message f
    | Ok _ -> Alcotest.failf "slot %d should have failed" i
  in
  Alcotest.(check bool) "exit code reported" true
    (is_infix ~affix:"exit 137" (msg 2));
  Alcotest.(check bool) "exception text reported" true
    (is_infix ~affix:"boom" (msg 4));
  Alcotest.(check bool) "signal reported" true
    (is_infix ~affix:"SIGSEGV" (msg 5))

(* Deadline enforcement is a hard SIGKILL: a worker stuck in a sleep — no
   cooperative cancellation point — still dies, within a wall-clock bound
   far below its sleep. *)
let test_deadline_sigkill () =
  let t0 = Unix.gettimeofday () in
  let results =
    Parallel.run ~jobs:4 ~job_timeout_s:0.3
      ~f:(fun i -> if i = 1 then Unix.sleepf 30.0; i)
      [ 0; 1; 2 ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list string))
    "only the sleeper dies"
    [ "ok"; "timed_out"; "ok" ]
    (List.map reason_label results);
  Alcotest.(check bool)
    (Printf.sprintf "batch returned promptly (%.1fs)" wall)
    true (wall < 10.0);
  match List.nth results 1 with
  | Error f -> Alcotest.(check bool) "partial telemetry: elapsed recorded" true (f.Parallel.elapsed_s >= 0.3)
  | Ok _ -> Alcotest.fail "sleeper should have timed out"

(* Results come back in job order whatever the completion order: give every
   job a pseudo-random duration and check the slots still line up. *)
let test_order_determinism () =
  let n = 16 in
  let f i =
    let st = Random.State.make [| 0xfeed; i |] in
    Unix.sleepf (Random.State.float st 0.15);
    i
  in
  let results = Parallel.run ~jobs:4 ~f (List.init n Fun.id) in
  Alcotest.(check (list int))
    "slot i holds f(i)" (List.init n Fun.id)
    (List.map ok_exn results)

(* Several batches in a row: no state leaks from one into the next. *)
let test_pool_reuse () =
  let batch xs = List.map ok_exn (Parallel.run ~jobs:2 ~f:(fun i -> i + 1) xs) in
  Alcotest.(check (list int)) "batch 1" [ 1; 2; 3 ] (batch [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "batch 2" [ 11; 21 ] (batch [ 10; 20 ]);
  let crashes =
    Parallel.run ~jobs:2 ~f:(fun i -> if i = 0 then exit 7 else i) [ 0; 1 ]
  in
  Alcotest.(check (list string))
    "batch 3 with a crash" [ "crashed"; "ok" ]
    (List.map reason_label crashes);
  Alcotest.(check (list int))
    "jobs 0 still runs one at a time" [ 1; 2 ]
    (List.map ok_exn (Parallel.run ~jobs:0 ~f:(fun i -> i + 1) [ 0; 1 ]))

(* [`Retry]: with one job at a time, slot 0 dies on its first attempt; its
   retry runs before slot 1 starts, and the slot reports the retry. *)
let test_retry_runs_first () =
  let settled = ref [] in
  let f (slot, attempt) =
    if slot = 0 && attempt = 0 then exit 3;
    (slot, attempt, Unix.gettimeofday ())
  in
  let settle slot result =
    settled := (slot, reason_label result) :: !settled;
    match result with Error _ -> `Retry (slot, 1) | Ok _ -> `Continue
  in
  let results = Parallel.run ~jobs:1 ~settle ~f [ (0, 0); (1, 0) ] in
  Alcotest.(check (list (pair int string)))
    "settle order: the crash, its retry, then slot 1"
    [ (0, "crashed"); (0, "ok"); (1, "ok") ]
    (List.rev !settled);
  match List.map ok_exn results with
  | [ (0, 1, retry_started); (1, 0, next_started) ] ->
    Alcotest.(check bool) "the retry started before slot 1" true
      (retry_started < next_started)
  | _ -> Alcotest.fail "slot 0 should report its retry, slot 1 its first run"

(* Racing: first conclusive result wins, losers are SIGKILLed. *)
let test_race () =
  let f = function
    | `Fast -> "fast"
    | `Slow ->
      Unix.sleepf 30.0;
      "slow"
    | `Inconclusive -> "inconclusive"
  in
  let t0 = Unix.gettimeofday () in
  let winner, results =
    race ~jobs:3 ~f
      ~conclusive:(fun v -> v <> "inconclusive")
      [ `Inconclusive; `Slow; `Fast ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match winner with
  | Some (2, "fast") -> ()
  | Some (i, v) -> Alcotest.failf "wrong winner: slot %d = %s" i v
  | None -> Alcotest.fail "no winner");
  Alcotest.(check bool) "slow loser cancelled, not awaited" true (wall < 10.0);
  Alcotest.(check string) "slow slot reports cancellation" "cancelled"
    (reason_label (List.nth results 1))

(* No process may survive a finished batch: after reaping everything the
   loop owes us, waitpid(-1) must report that this process has no children
   at all. *)
let check_no_children label =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a child is still running" label
  | pid, _ -> Alcotest.failf "%s: zombie child %d left behind" label pid

(* Loser cleanup under sustained reuse: 100 races, each with a winner and
   a SIGKILLed long-sleeping loser.  A single unreaped loser anywhere turns
   up as a zombie (or a live child) at the end. *)
let test_race_loser_reaping () =
  let f = function
    | `Fast -> "fast"
    | `Slow ->
      Unix.sleepf 30.0;
      "slow"
  in
  for round = 0 to 99 do
    let winner, results =
      race ~jobs:2 ~f ~conclusive:(fun v -> v = "fast") [ `Slow; `Fast ]
    in
    (match winner with
    | Some (1, "fast") -> ()
    | _ -> Alcotest.failf "round %d: fast worker should have won" round);
    Alcotest.(check string)
      (Printf.sprintf "round %d: loser reports cancellation" round)
      "cancelled"
      (reason_label (List.hd results))
  done;
  check_no_children "after 100 races"

(* An exception escaping the worker loop itself — here a raising [settle]
   callback — must not abandon the still-running workers. *)
let test_exception_reaps_workers () =
  let t0 = Unix.gettimeofday () in
  (try
     ignore
       (Parallel.run ~jobs:2
          ~f:(fun i -> if i = 0 then "quick" else (Unix.sleepf 30.0; "slow"))
          ~settle:(fun _ _ -> failwith "callback boom")
          [ 0; 1 ]);
     Alcotest.fail "callback exception should propagate"
   with Failure msg ->
     Alcotest.(check string) "original exception survives" "callback boom" msg);
  Alcotest.(check bool) "sleeper killed, not awaited" true
    (Unix.gettimeofday () -. t0 < 10.0);
  check_no_children "after aborted race"

(* {2 Differential: forked fan-out never changes a verdict}

   The 50 seeded random memory designs of test_differential.ml (same
   generator constants), verified sequentially and through 4 workers:
   the conclusions must match slot for slot. *)

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

let options = { Emmver.default_options with Emmver.max_depth = 8 }

let conclusion_signature o =
  Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion

let test_differential_fanout () =
  let ids = List.init 50 Fun.id in
  let verify_one id =
    Emmver.verify ~options ~method_:Emmver.Emm_falsify (build (random_cfg id))
      ~property:"p"
  in
  let sequential = List.map (fun id -> conclusion_signature (verify_one id)) ids in
  let parallel =
    Parallel.run ~jobs:4 ~f:(fun id -> conclusion_signature (verify_one id)) ids
  in
  List.iteri
    (fun id seq ->
      Alcotest.(check string)
        (Printf.sprintf "design %d: -j 4 verdict = sequential verdict" id)
        seq
        (ok_exn (List.nth parallel id)))
    sequential

(* The Emmver surface: verify_many at -j 4 equals the sequential loop on a
   multi-property design, slot for slot. *)
let test_verify_many_differential () =
  let net = Designs.Multiport.build Designs.Multiport.default_config in
  let properties = List.map fst (Netlist.properties net) in
  let options = { Emmver.default_options with Emmver.max_depth = 6 } in
  let sequential =
    List.map
      (fun p ->
        (p, conclusion_signature (Emmver.verify ~options ~method_:Emmver.Emm_bmc net ~property:p)))
      properties
  in
  let parallel =
    Emmver.verify_many ~options ~jobs:4 ~method_:Emmver.Emm_bmc net ~properties
    |> List.map (fun (p, o) -> (p, conclusion_signature o))
  in
  Alcotest.(check (list (pair string string)))
    "verify_many -j 4 = sequential loop" sequential parallel

(* {2 Tracing through forked workers}

   With a recorder installed in the parent, forked workers record events
   locally ([Obs.worker_scope] in the worker's child shim) and marshal them
   back alongside their results; the parent merges them into one
   pid-annotated stream. *)

let with_recorder r f =
  let saved = Obs.current () in
  Obs.set_current (Some r);
  Fun.protect ~finally:(fun () -> Obs.set_current saved) f

let worker_pids rows =
  let parent = Unix.getpid () in
  List.sort_uniq compare
    (List.filter_map (fun (pid, _) -> if pid <> parent then Some pid else None) rows)

let spans_exn rows =
  match Obs.spans rows with
  | Ok s -> s
  | Error e -> Alcotest.failf "span reconstruction failed: %s" e

(* A -j 4 fanout over the 50 seeded designs yields one merged trace: the
   stream validates, and every worker pid contributes a well-formed span
   tree containing a "verify" span whose parents stay within that pid. *)
let test_traced_fanout () =
  let r = Obs.create ~track_alloc:false () in
  let results =
    with_recorder r (fun () ->
        Parallel.run ~jobs:4
          ~f:(fun id ->
            conclusion_signature
              (Emmver.verify ~options ~method_:Emmver.Emm_falsify
                 (build (random_cfg id)) ~property:"p"))
          (List.init 50 Fun.id))
  in
  List.iter (fun res -> ignore (ok_exn res)) results;
  let rows = Obs.rows r in
  (match Obs.validate rows with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace invalid: %s" e);
  let spans = spans_exn rows in
  let pids = worker_pids rows in
  Alcotest.(check bool)
    (Printf.sprintf "many workers contributed (%d pids)" (List.length pids))
    true
    (List.length pids >= 4);
  List.iter
    (fun pid ->
      let mine = List.filter (fun s -> s.Obs.sp_pid = pid) spans in
      Alcotest.(check bool)
        (Printf.sprintf "worker %d contributed spans" pid)
        true (mine <> []);
      Alcotest.(check bool)
        (Printf.sprintf "worker %d recorded a verify span" pid)
        true
        (List.exists (fun s -> s.Obs.sp_name = "verify") mine);
      List.iter
        (fun s ->
          match s.Obs.sp_parent with
          | None -> ()
          | Some idx ->
            Alcotest.(check int)
              (Printf.sprintf "worker %d: enclosing span in same process" pid)
              pid
              (List.nth spans idx).Obs.sp_pid)
        mine)
    pids

(* A SIGKILLed worker marshals nothing back: its partial spans are dropped,
   the merged stream stays valid, and survivors' spans still arrive. *)
let test_sigkill_drops_partial_spans () =
  let r = Obs.create ~track_alloc:false () in
  let results =
    with_recorder r (fun () ->
        Parallel.run ~jobs:3 ~job_timeout_s:0.3
          ~f:(fun i ->
            Obs.span "job" ~attrs:[ ("i", Obs.Int i) ] (fun () ->
                if i = 1 then Unix.sleepf 30.0;
                i))
          [ 0; 1; 2 ])
  in
  Alcotest.(check (list string))
    "only the sleeper dies"
    [ "ok"; "timed_out"; "ok" ]
    (List.map reason_label results);
  let rows = Obs.rows r in
  (match Obs.validate rows with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace corrupted by the kill: %s" e);
  let job_ids =
    List.filter_map
      (fun s ->
        if s.Obs.sp_name = "job" then Obs.attr_int "i" s.Obs.sp_attrs else None)
      (spans_exn rows)
    |> List.sort compare
  in
  Alcotest.(check (list int))
    "killed worker's span dropped, survivors kept"
    [ 0; 2 ] job_ids;
  Alcotest.(check int)
    "exactly the two surviving workers contributed rows"
    2
    (List.length (worker_pids rows))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map returns in order" `Quick test_basic_map;
          Alcotest.test_case "crash containment (exit/raise/signal)" `Quick
            test_crash_containment;
          Alcotest.test_case "deadline enforced by SIGKILL" `Quick test_deadline_sigkill;
          Alcotest.test_case "order deterministic under random durations" `Quick
            test_order_determinism;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
          Alcotest.test_case "race cancels losers" `Quick test_race;
          Alcotest.test_case "100 races leave no zombies" `Quick
            test_race_loser_reaping;
          Alcotest.test_case "exception mid-drive reaps workers" `Quick
            test_exception_reaps_workers;
          Alcotest.test_case "retry runs before unstarted slots" `Quick
            test_retry_runs_first;
        ] );
      ( "differential",
        [
          Alcotest.test_case "50 seeded designs: -j 4 = sequential" `Quick
            test_differential_fanout;
          Alcotest.test_case "verify_many -j 4 = sequential loop" `Quick
            test_verify_many_differential;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "50-design fanout merges one valid trace" `Quick
            test_traced_fanout;
          Alcotest.test_case "SIGKILLed worker's partial spans dropped" `Quick
            test_sigkill_drops_partial_spans;
        ] );
    ]
