(* The verification daemon: protocol codec golden tests, then live-server
   behaviour — backpressure, fairness, crash containment, disconnect
   cleanup, warm cache, SIGTERM drain.

   Live tests fork a real daemon (Serve.Server.run in a child process) on a
   socket in a fresh temp directory and talk to it through Serve.Client.
   Scripted job bodies are injected via the server's [runner] seam; the
   submit's request id encodes the behaviour ("sleep:0.3", "crash", ...),
   while the design/property resolution stays the real one. *)

let tmpdir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emmver-serve-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  dir

(* {1 Protocol golden tests} *)

let submit_full =
  {
    Serve.Proto.s_id = "r1";
    s_design = "fifo";
    s_property = Some "fifo_data";
    s_method = "emm";
    s_max_depth = Some 12;
    s_timeout_s = Some 1.5;
    s_cache = Some true;
  }

let submit_min =
  {
    Serve.Proto.s_id = "r2";
    s_design = "fifo";
    s_property = None;
    s_method = "emm";
    s_max_depth = None;
    s_timeout_s = None;
    s_cache = None;
  }

(* Recorded transcripts: every request and reply form, byte for byte.  The
   rendering is part of the wire contract — fixed field order, %.3f floats
   — so any codec drift must fail here, not against a deployed client. *)
let golden_requests =
  [
    (Serve.Proto.Hello "alice", {|{"op":"hello","client":"alice"}|});
    (Serve.Proto.Ping, {|{"op":"ping"}|});
    ( Serve.Proto.Submit submit_full,
      {|{"op":"submit","id":"r1","design":"fifo","property":"fifo_data","method":"emm","max_depth":12,"timeout_s":1.500,"cache":true}|}
    );
    ( Serve.Proto.Submit submit_min,
      {|{"op":"submit","id":"r2","design":"fifo","method":"emm"}|} );
    (Serve.Proto.Poll 7, {|{"op":"poll","job":7}|});
    (Serve.Proto.Resume "alice", {|{"op":"resume","client":"alice"}|});
    (Serve.Proto.Ack 7, {|{"op":"ack","job":7}|});
    (Serve.Proto.Metrics, {|{"op":"metrics"}|});
    (Serve.Proto.Shutdown, {|{"op":"shutdown"}|});
  ]

let golden_replies =
  [
    ( Serve.Proto.Hello_ok { server = "emmver"; version = 1 },
      {|{"reply":"hello","server":"emmver","version":1}|} );
    (Serve.Proto.Pong, {|{"reply":"pong"}|});
    ( Serve.Proto.Accepted
        { id = "r1"; jobs = [ (1, "fifo_data"); (2, "fifo_count") ]; queue_depth = 2 },
      {|{"reply":"accepted","id":"r1","jobs":[{"job":1,"property":"fifo_data"},{"job":2,"property":"fifo_count"}],"queue_depth":2}|}
    );
    ( Serve.Proto.Busy
        { id = "r9"; queue_depth = 4; max_queue = 4; retry_after_s = 1.5 },
      {|{"reply":"busy","id":"r9","queue_depth":4,"max_queue":4,"retry_after_s":1.500}|}
    );
    ( Serve.Proto.Shutdown_reply { id = "r1"; job = Some 3; retry_after_s = None },
      {|{"reply":"shutdown","id":"r1","job":3}|} );
    ( Serve.Proto.Shutdown_reply { id = "r1"; job = None; retry_after_s = None },
      {|{"reply":"shutdown","id":"r1"}|} );
    ( Serve.Proto.Shutdown_reply
        { id = "r1"; job = None; retry_after_s = Some 5.0 },
      {|{"reply":"shutdown","id":"r1","retry_after_s":5.000}|} );
    ( Serve.Proto.Error { id = Some "r1"; message = "unknown design \"nope\"" },
      {|{"reply":"error","id":"r1","message":"unknown design \"nope\""}|} );
    ( Serve.Proto.Error { id = None; message = "bad JSON: truncated" },
      {|{"reply":"error","message":"bad JSON: truncated"}|} );
    ( Serve.Proto.Result
        {
          r_job = 1;
          r_id = "r1";
          r_property = "fifo_data";
          r_method = "emm";
          r_verdict = "proved";
          r_depth = Some 12;
          r_induction = Some true;
          r_genuine = None;
          r_reason = None;
          r_time_s = 0.103;
          r_cache = "hit";
          r_certificate = "drat-checked";
        },
      {|{"reply":"result","job":1,"id":"r1","property":"fifo_data","method":"emm","verdict":"proved","depth":12,"induction":true,"time_s":0.103,"cache":"hit","certificate":"drat-checked"}|}
    );
    ( Serve.Proto.Result
        {
          r_job = 2;
          r_id = "r1";
          r_property = "fifo_data";
          r_method = "emm";
          r_verdict = "inconclusive";
          r_depth = None;
          r_induction = None;
          r_genuine = None;
          r_reason = Some "worker killed: timed out";
          r_time_s = 2.0;
          r_cache = "off";
          r_certificate = "unchecked";
        },
      {|{"reply":"result","job":2,"id":"r1","property":"fifo_data","method":"emm","verdict":"inconclusive","reason":"worker killed: timed out","time_s":2.000,"cache":"off","certificate":"unchecked"}|}
    );
    ( Serve.Proto.Status { job = 7; state = "running" },
      {|{"reply":"status","job":7,"state":"running"}|} );
    ( Serve.Proto.Resumed { client = "alice"; results = 2; pending = 1 },
      {|{"reply":"resumed","client":"alice","results":2,"pending":1}|} );
    (Serve.Proto.Acked { job = 7 }, {|{"reply":"acked","job":7}|});
    ( Serve.Proto.Metrics_reply
        {
          m_uptime_s = 12.5;
          m_queue_depth = 1;
          m_running = 2;
          m_clients = 3;
          m_accepted = 10;
          m_completed = 7;
          m_failed = 1;
          m_cancelled = 1;
          m_rejected_busy = 2;
          m_rejected_shutdown = 0;
          m_protocol_errors = 1;
          m_cache_hits = 4;
          m_cache_misses = 3;
          m_cache_entries = 3;
          m_cache_bytes = 981;
          m_gc_runs = 1;
          m_gc_evicted = 2;
          m_journal_records = 120;
          m_journal_bytes = 9876;
          m_compactions = 2;
          m_replayed = 3;
          m_recovered = 2;
          m_orphans_killed = 1;
          m_redelivered = 2;
          m_acked = 5;
          m_retained = 1;
          m_methods = [ ("bdd", 2, 0.5); ("emm", 8, 3.25) ];
        },
      {|{"reply":"metrics","uptime_s":12.500,"queue_depth":1,"running":2,"clients":3,"jobs":{"accepted":10,"completed":7,"failed":1,"cancelled":1,"rejected_busy":2,"rejected_shutdown":0,"protocol_errors":1},"cache":{"hits":4,"misses":3,"entries":3,"bytes":981,"gc_runs":1,"gc_evicted":2},"durability":{"journal_records":120,"journal_bytes":9876,"compactions":2,"replayed":3,"recovered_results":2,"orphans_killed":1,"redelivered":2,"acked":5,"retained":1},"methods":[{"method":"bdd","jobs":2,"wall_s":0.500},{"method":"emm","jobs":8,"wall_s":3.250}]}|}
    );
    (Serve.Proto.Draining, {|{"reply":"draining"}|});
  ]

let test_golden_requests () =
  List.iter
    (fun (req, expected) ->
      Alcotest.(check string) expected expected (Serve.Proto.request_to_string req);
      match Serve.Proto.request_of_string expected with
      | Ok back ->
        Alcotest.(check string)
          ("round-trip " ^ expected)
          expected
          (Serve.Proto.request_to_string back)
      | Error e -> Alcotest.failf "cannot parse %s: %s" expected e)
    golden_requests

let test_golden_replies () =
  List.iter
    (fun (reply, expected) ->
      Alcotest.(check string) expected expected (Serve.Proto.reply_to_string reply);
      match Serve.Proto.reply_of_string expected with
      | Ok back ->
        Alcotest.(check string)
          ("round-trip " ^ expected)
          expected
          (Serve.Proto.reply_to_string back)
      | Error e -> Alcotest.failf "cannot parse %s: %s" expected e)
    golden_replies

let test_protocol_errors () =
  (match Serve.Proto.request_of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match Serve.Proto.request_of_string {|{"op":"warp"}|} with
  | Error e -> Alcotest.(check bool) "names op" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown op accepted");
  (match Serve.Proto.request_of_string {|{"op":"submit"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submit without design accepted");
  match Serve.Proto.reply_of_string {|{"reply":"result","job":1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated result accepted"

(* A v2 client against a v1 daemon: replies without the durability surface
   parse, with the new fields reading as zero / absent. *)
let test_v1_compat () =
  (match
     Serve.Proto.reply_of_string
       {|{"reply":"busy","id":"r9","queue_depth":4,"max_queue":4}|}
   with
  | Ok (Serve.Proto.Busy { retry_after_s; _ }) ->
    Alcotest.(check (float 0.0)) "missing hint reads 0" 0.0 retry_after_s
  | Ok r -> Alcotest.failf "wrong reply: %s" (Serve.Proto.reply_to_string r)
  | Error e -> Alcotest.failf "v1 busy rejected: %s" e);
  (match
     Serve.Proto.reply_of_string {|{"reply":"shutdown","id":"r1","job":3}|}
   with
  | Ok (Serve.Proto.Shutdown_reply { retry_after_s = None; job = Some 3; _ }) ->
    ()
  | Ok r -> Alcotest.failf "wrong reply: %s" (Serve.Proto.reply_to_string r)
  | Error e -> Alcotest.failf "v1 shutdown rejected: %s" e);
  match
    Serve.Proto.reply_of_string
      {|{"reply":"metrics","uptime_s":12.500,"queue_depth":1,"running":2,"clients":3,"jobs":{"accepted":10,"completed":7,"failed":1,"cancelled":1,"rejected_busy":2,"rejected_shutdown":0,"protocol_errors":1},"cache":{"hits":4,"misses":3,"entries":3,"bytes":981,"gc_runs":1,"gc_evicted":2},"methods":[]}|}
  with
  | Ok (Serve.Proto.Metrics_reply m) ->
    Alcotest.(check int) "no journal records" 0 m.Serve.Proto.m_journal_records;
    Alcotest.(check int) "nothing retained" 0 m.Serve.Proto.m_retained;
    Alcotest.(check int) "nothing replayed" 0 m.Serve.Proto.m_replayed
  | Ok r -> Alcotest.failf "wrong reply: %s" (Serve.Proto.reply_to_string r)
  | Error e -> Alcotest.failf "v1 metrics rejected: %s" e

let test_backoff () =
  (* Deterministic bounds: the k-th delay is min(cap, max(base, hint)·2^k)
     scaled by a jitter in [0.5, 1.0). *)
  let b = Serve.Backoff.create ~base_s:1.0 ~cap_s:4.0 ~attempts:3 () in
  let expect_between lo hi = function
    | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "%.3f in [%.2f, %.2f)" d lo hi)
        true
        (d >= lo && d < hi)
    | None -> Alcotest.fail "backoff gave up early"
  in
  expect_between 0.5 1.0 (Serve.Backoff.next b ~hint_s:None);
  expect_between 1.0 2.0 (Serve.Backoff.next b ~hint_s:None);
  expect_between 2.0 4.0 (Serve.Backoff.next b ~hint_s:None);
  (match Serve.Backoff.next b ~hint_s:None with
  | None -> ()
  | Some _ -> Alcotest.fail "fourth retry allowed with attempts = 3");
  Alcotest.(check int) "attempts counted" 3 (Serve.Backoff.attempts_used b);
  (* The server's hint raises the floor of the first delay. *)
  let h = Serve.Backoff.create ~base_s:0.5 ~cap_s:30.0 ~attempts:1 () in
  expect_between 1.5 3.0 (Serve.Backoff.next h ~hint_s:(Some 3.0));
  (* attempts = 0 means never retry. *)
  match Serve.Backoff.next (Serve.Backoff.create ~attempts:0 ()) ~hint_s:None with
  | None -> ()
  | Some _ -> Alcotest.fail "attempts = 0 retried"

(* {1 Journal unit tests} *)

let jaccepted ?(tenant = "t") ?(req = "req") ?max_depth ?timeout_s ?cache job =
  Serve.Journal.Accepted
    {
      a_job = job;
      a_tenant = tenant;
      a_submit =
        {
          Serve.Proto.s_id = req;
          s_design = "fifo";
          s_property = Some "fifo_data";
          s_method = "emm";
          s_max_depth = max_depth;
          s_timeout_s = timeout_s;
          s_cache = cache;
        };
    }

let jfinished ~verdict ?depth ?induction ?genuine ?reason ~time_s job =
  Serve.Journal.Finished
    {
      f_tenant = "t";
      f_line =
        {
          Serve.Proto.r_job = job;
          r_id = "req";
          r_property = "fifo_data";
          r_method = "emm";
          r_verdict = verdict;
          r_depth = depth;
          r_induction = induction;
          r_genuine = genuine;
          r_reason = reason;
          r_time_s = time_s;
          r_cache = "off";
          r_certificate = "unchecked";
        };
    }

let jsub i = jaccepted ~max_depth:5 i
let jres i = jfinished ~verdict:"proved" ~depth:1 ~induction:false ~time_s:0.01 i

let pending_jobs r = List.map (fun (job, _, _) -> job) r.Serve.Journal.pending

let undelivered_jobs r =
  List.map (fun (_, line) -> line.Serve.Proto.r_job) r.Serve.Journal.undelivered

let test_journal_recovery () =
  let dir = tmpdir () in
  let path = Filename.concat dir "journal" in
  let j, r0 = Serve.Journal.open_ path in
  Alcotest.(check int) "fresh journal: nothing pending" 0 (List.length r0.Serve.Journal.pending);
  Alcotest.(check int) "fresh journal: job ids start at 1" 1 r0.Serve.Journal.next_job;
  (* Job 1 queued, job 2 mid-run, job 3 finished-not-acked, job 4 closed. *)
  Serve.Journal.append j (jsub 1);
  Serve.Journal.append j (jsub 2);
  Serve.Journal.append j
    (Serve.Journal.Started { job = 2; pid = 4242; token = "boot:77" });
  Serve.Journal.append j (jsub 3);
  Serve.Journal.append j (jres 3);
  Serve.Journal.append j (jsub 4);
  Serve.Journal.append j (jres 4);
  Serve.Journal.append j (Serve.Journal.Acked { job = 4 });
  Serve.Journal.sync j;
  Serve.Journal.close j;
  let j2, r = Serve.Journal.open_ path in
  Alcotest.(check (list int)) "unfinished jobs pending, in order" [ 1; 2 ]
    (pending_jobs r);
  Alcotest.(check (list (triple int int string))) "mid-run job is an orphan"
    [ (2, 4242, "boot:77") ]
    r.Serve.Journal.orphans;
  Alcotest.(check (list int)) "finished-not-acked retained" [ 3 ]
    (undelivered_jobs r);
  Alcotest.(check int) "next job id past everything" 5 r.Serve.Journal.next_job;
  Alcotest.(check int) "no corruption" 0 r.Serve.Journal.corrupt;
  (* open_ compacted: the acked job is gone from disk, the rest survives a
     third replay identically. *)
  Serve.Journal.close j2;
  let j3, r2 = Serve.Journal.open_ path in
  Alcotest.(check (list int)) "stable after compaction" [ 1; 2 ]
    (pending_jobs r2);
  Alcotest.(check (list int)) "undelivered survives compaction" [ 3 ]
    (undelivered_jobs r2);
  Serve.Journal.close j3

(* Write a journal file by hand and damage it: a torn tail, a flipped
   checksum and a duplicated record must each replay to a consistent state,
   never a crash or a lost neighbour. *)
let test_journal_corruption () =
  let dir = tmpdir () in
  let write_file path lines =
    let oc = open_out_bin path in
    output_string oc "EMMVER-JOURNAL 1\n";
    List.iter (output_string oc) lines;
    close_out oc
  in
  let l1 = Serve.Journal.line_of_record (jsub 1) in
  let l2 = Serve.Journal.line_of_record (jsub 2) in
  let l3 = Serve.Journal.line_of_record (jres 1) in
  (* Torn tail: the last record was half-written when the power died. *)
  let torn = Filename.concat dir "torn" in
  write_file torn [ l1; l3; String.sub l2 0 (String.length l2 / 2) ];
  let j, r = Serve.Journal.open_ torn in
  Alcotest.(check (list int)) "torn tail: intact records survive" []
    (pending_jobs r);
  Alcotest.(check (list int)) "torn tail: finished job retained" [ 1 ]
    (undelivered_jobs r);
  Alcotest.(check int) "torn tail counted corrupt" 1 r.Serve.Journal.corrupt;
  Serve.Journal.close j;
  (* Flipped checksum: one record's checksum no longer matches its body —
     that record is dead, its neighbours are untouched. *)
  let flipped = Filename.concat dir "flipped" in
  let flip s =
    let b = Bytes.of_string s in
    Bytes.set b 0 (if Bytes.get b 0 = '0' then 'f' else '0');
    Bytes.to_string b
  in
  write_file flipped [ l1; flip l2; l3 ];
  let j, r = Serve.Journal.open_ flipped in
  Alcotest.(check (list int)) "flip: only the damaged record is lost" []
    (pending_jobs r);
  Alcotest.(check (list int)) "flip: neighbours intact" [ 1 ]
    (undelivered_jobs r);
  Alcotest.(check int) "flip counted corrupt" 1 r.Serve.Journal.corrupt;
  Serve.Journal.close j;
  (* Duplicated records: replay is idempotent — the same state as if each
     record appeared once. *)
  let dup = Filename.concat dir "dup" in
  write_file dup [ l1; l1; l3; l3; l1 ];
  let j, r = Serve.Journal.open_ dup in
  Alcotest.(check (list int)) "dup: one pending set" []
    (pending_jobs r);
  Alcotest.(check (list int)) "dup: one undelivered result" [ 1 ]
    (undelivered_jobs r);
  Alcotest.(check int) "dup: nothing corrupt" 0 r.Serve.Journal.corrupt;
  Serve.Journal.close j;
  (* After the cleaning compaction in open_, a re-open sees no corruption
     and the same state. *)
  let j, r = Serve.Journal.open_ torn in
  Alcotest.(check int) "compaction scrubbed the tail" 0 r.Serve.Journal.corrupt;
  Alcotest.(check (list int)) "state stable after scrub" [ 1 ]
    (undelivered_jobs r);
  Serve.Journal.close j

(* Golden journal lines: the exact bytes [line_of_record] writes, checksum
   included.  A journal outlives the daemon that wrote it, so the record
   rendering is an on-disk format — any drift must fail here. *)
let golden_journal =
  [
    ( jaccepted ~max_depth:12 ~timeout_s:1.25 ~cache:false 1,
      {|0c55d651c3e09a298309b32c358e06ba {"rec":"accepted","job":1,"tenant":"t","req":"req","design":"fifo","property":"fifo_data","method":"emm","max_depth":12,"timeout_s":1.250,"cache":false}|}
    );
    ( jaccepted 2,
      {|fc0e35a5586eb1999a3d83cf77968961 {"rec":"accepted","job":2,"tenant":"t","req":"req","design":"fifo","property":"fifo_data","method":"emm"}|}
    );
    ( jaccepted ~tenant:"a\"b" ~req:"line1\nline2" 3,
      {|3dc003d6a9166f8a347bdb0e08d0f461 {"rec":"accepted","job":3,"tenant":"a\"b","req":"line1\nline2","design":"fifo","property":"fifo_data","method":"emm"}|}
    );
    ( Serve.Journal.Started { job = 3; pid = 4242; token = "boot:77" },
      {|516259ff7dd5b38883deb70315a04158 {"rec":"started","job":3,"pid":4242,"token":"boot:77"}|}
    );
    ( jfinished ~verdict:"falsified" ~depth:1 ~induction:false ~genuine:true
        ~reason:"why\001" ~time_s:0.0125 3,
      {|28a1749c706cb43506194fdb34af85b7 {"rec":"result","job":3,"tenant":"t","req":"req","property":"fifo_data","method":"emm","verdict":"falsified","depth":1,"induction":false,"genuine":true,"reason":"why\u0001","time_s":0.013,"cache":"off","certificate":"unchecked"}|}
    );
    ( Serve.Journal.Acked { job = 3 },
      {|b05e1e87ca73d2702b4797c1c2787092 {"rec":"acked","job":3}|} );
    ( Serve.Journal.Cancelled { job = 2 },
      {|ed73abd663953c49bac491d1a8fbda1d {"rec":"cancelled","job":2}|} );
  ]

let test_journal_goldens () =
  List.iter
    (fun (r, expected) ->
      Alcotest.(check string) expected (expected ^ "\n")
        (Serve.Journal.line_of_record r))
    golden_journal

(* The journal reader, one hand-written record at a time.  Each row is the
   JSON body of a checksummed single-record journal, what [open_] must
   make of it (records replayed, lines corrupt, jobs pending, results
   undelivered), and the record bodies the cleaning compaction leaves on
   disk — which shows what the reader kept of an optional field. *)
let journal_reader_rows =
  let acc = {|"rec":"accepted","job":1,"tenant":"t","req":"r","design":"fifo"|} in
  let res = {|"rec":"result","job":1,"tenant":"t","req":"r"|} in
  let pm = {|"property":"p","method":"emm"|} in
  let tail = {|"time_s":0.500,"cache":"off","certificate":"unchecked"|} in
  let obj fields = "{" ^ String.concat "," fields ^ "}" in
  let accepted_ok = obj [ acc; pm ] in
  let result_ok = obj [ res; pm; {|"verdict":"proved"|}; tail ] in
  let corrupt = (0, 1, 0, 0, []) in
  [
    ("accepted", accepted_ok, (1, 0, 1, 0, [ accepted_ok ]));
    ( "accepted, every optional field",
      obj [ acc; pm; {|"max_depth":4,"timeout_s":2.000,"cache":true|} ],
      ( 1,
        0,
        1,
        0,
        [ obj [ acc; pm; {|"max_depth":4,"timeout_s":2.000,"cache":true|} ] ] ) );
    ( "accepted without job",
      obj [ {|"rec":"accepted","tenant":"t","req":"r","design":"fifo"|}; pm ],
      corrupt );
    ( "accepted without tenant",
      obj [ {|"rec":"accepted","job":1,"req":"r","design":"fifo"|}; pm ],
      corrupt );
    ( "accepted without design",
      obj [ {|"rec":"accepted","job":1,"tenant":"t","req":"r"|}; pm ],
      corrupt );
    ("accepted without property", obj [ acc; {|"method":"emm"|} ], corrupt);
    ("accepted without method", obj [ acc; {|"property":"p"|} ], corrupt);
    ( "accepted with a numeric method",
      obj [ acc; {|"property":"p","method":7|} ],
      corrupt );
    ( "accepted with a numeric property",
      obj [ acc; {|"property":7,"method":"emm"|} ],
      corrupt );
    ( "accepted without req",
      obj [ {|"rec":"accepted","job":1,"tenant":"t","design":"fifo"|}; pm ],
      (1, 0, 1, 0, [ obj [ {|"rec":"accepted","job":1,"tenant":"t","req":"","design":"fifo"|}; pm ] ]) );
    ( "accepted with an ill-typed max_depth",
      obj [ acc; pm; {|"max_depth":"x"|} ],
      (1, 0, 1, 0, [ accepted_ok ]) );
    ("result", result_ok, (1, 0, 0, 1, [ result_ok ]));
    ( "result without job",
      obj [ {|"rec":"result","tenant":"t","req":"r"|}; pm; {|"verdict":"proved"|}; tail ],
      corrupt );
    ( "result without tenant",
      obj [ {|"rec":"result","job":1,"req":"r"|}; pm; {|"verdict":"proved"|}; tail ],
      corrupt );
    ( "result without property",
      obj [ res; {|"method":"emm","verdict":"proved"|}; tail ],
      corrupt );
    ( "result without method",
      obj [ res; {|"property":"p","verdict":"proved"|}; tail ],
      corrupt );
    ("result without verdict", obj [ res; pm; tail ], corrupt);
    ( "result without time_s",
      obj [ res; pm; {|"verdict":"proved","cache":"off","certificate":"unchecked"|} ],
      corrupt );
    ( "result without cache",
      obj [ res; pm; {|"verdict":"proved","time_s":0.500,"certificate":"unchecked"|} ],
      corrupt );
    ( "result without certificate",
      obj [ res; pm; {|"verdict":"proved","time_s":0.500,"cache":"off"|} ],
      corrupt );
    ( "result without req",
      obj [ {|"rec":"result","job":1,"tenant":"t"|}; pm; {|"verdict":"proved"|}; tail ],
      ( 1,
        0,
        0,
        1,
        [ obj [ {|"rec":"result","job":1,"tenant":"t","req":""|}; pm; {|"verdict":"proved"|}; tail ] ] ) );
    ( "result with an ill-typed depth",
      obj [ res; pm; {|"verdict":"proved","depth":"x"|}; tail ],
      (1, 0, 0, 1, [ result_ok ]) );
    ( "started",
      {|{"rec":"started","job":1,"pid":7,"token":"boot:1"}|},
      (1, 0, 0, 0, []) );
    ("started without token", {|{"rec":"started","job":1,"pid":7}|}, corrupt);
    ("unknown record kind", {|{"rec":"launched","job":1}|}, corrupt);
  ]

let test_journal_reader_table () =
  let dir = tmpdir () in
  let checksummed body = Digest.to_hex (Digest.string body) ^ " " ^ body ^ "\n" in
  List.iteri
    (fun i (what, body, (replayed, corrupt, pending, undelivered, kept)) ->
      let path = Filename.concat dir (Printf.sprintf "j%d" i) in
      let oc = open_out_bin path in
      output_string oc ("EMMVER-JOURNAL 1\n" ^ checksummed body);
      close_out oc;
      let j, r = Serve.Journal.open_ path in
      Serve.Journal.close j;
      let counts = Printf.sprintf "replayed %d, corrupt %d, pending %d, undelivered %d" in
      Alcotest.(check string) what
        (counts replayed corrupt pending undelivered)
        (counts r.Serve.Journal.replayed r.Serve.Journal.corrupt
           (List.length r.Serve.Journal.pending)
           (List.length r.Serve.Journal.undelivered));
      let ic = open_in_bin path in
      let on_disk = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) (what ^ ": compacted file")
        (String.concat "" ("EMMVER-JOURNAL 1\n" :: List.map checksummed kept))
        on_disk)
    journal_reader_rows

(* {1 Live-server harness} *)

(* A scripted job body: the submit's request id selects the behaviour.
   Runs inside the server's forked worker, so crashes and sleeps exercise
   the real containment machinery. *)
let scripted (s : Serve.Proto.submit) ~property ~options:_ =
  ignore property;
  let proved =
    {
      (Emmver.killed_outcome ~elapsed_s:0.01 "scripted") with
      Emmver.conclusion = Emmver.Proved { depth = 1; induction = false };
      error = None;
    }
  in
  match String.split_on_char ':' s.Serve.Proto.s_id with
  | "sleep" :: d :: _ ->
    Unix.sleepf (float_of_string d);
    proved
  | "crash" :: _ -> Unix._exit 42
  | "once" :: flag :: _ ->
    (* First run: leave a flag and hang (to be orphaned by a daemon kill);
       any later run proves immediately.  Exercises re-running a replayed
       job whose first worker died with the daemon. *)
    if Sys.file_exists flag then proved
    else begin
      Unix.close (Unix.openfile flag [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644);
      Unix.sleepf 30.0;
      proved
    end
  | _ -> proved

let spawn_daemon cfg =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Serve.Server.run cfg with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> pid

(* Readiness by connecting, not by the socket file existing: after a
   SIGKILL the stale socket file lingers, and the restarted daemon only
   accepts once it has replaced it. *)
let wait_ready socket =
  let rec go n =
    if n = 0 then Alcotest.fail "daemon never became ready"
    else
      match Serve.Client.connect ~timeout_s:2.0 socket with
      | Ok c -> Serve.Client.close c
      | Error _ ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 500

let with_server ?(workers = 2) ?(max_queue = 8) ?(cache = false)
    ?(journal = false) ?budgets ?runner f =
  let dir = tmpdir () in
  let socket = Filename.concat dir "daemon.sock" in
  let cache_dir = if cache then Some (Filename.concat dir "cache") else None in
  let journal = if journal then Some (Filename.concat dir "journal") else None in
  let cfg =
    Serve.Server.config ~workers ~max_queue ~cache_dir ?budgets ~quiet:true
      ?journal ?runner ~socket ()
  in
  let pid = spawn_daemon cfg in
  wait_ready socket;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (pid, Unix.WEXITED 0)))
    (fun () -> f ~socket ~pid)

(* A journalled daemon the test can SIGKILL and restart on the same socket
   and journal — the crash-recovery harness. *)
let with_crash_server ?(workers = 2) ?runner f =
  let dir = tmpdir () in
  let socket = Filename.concat dir "daemon.sock" in
  let journal = Filename.concat dir "journal" in
  let cfg =
    Serve.Server.config ~workers ~max_queue:16 ~cache_dir:None ~quiet:true
      ~journal ?runner ~socket ()
  in
  let pid = ref (spawn_daemon cfg) in
  wait_ready socket;
  let kill9 () =
    Unix.kill !pid Sys.sigkill;
    ignore (Unix.waitpid [] !pid)
  in
  let restart () =
    pid := spawn_daemon cfg;
    wait_ready socket
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore
        (try Unix.waitpid [] !pid with Unix.Unix_error _ -> (!pid, Unix.WEXITED 0)))
    (fun () -> f ~dir ~socket ~kill9 ~restart)

let connect ?client socket =
  match Serve.Client.connect ?client socket with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let request c req =
  match Serve.Client.request ~timeout_s:30.0 c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "request: %s" e

let submit_one ?(id = "job") ?(property = "fifo_data") c =
  match
    request c
      (Serve.Proto.Submit
         {
           Serve.Proto.s_id = id;
           s_design = "fifo";
           s_property = Some property;
           s_method = "emm";
           s_max_depth = Some 5;
           s_timeout_s = None;
           s_cache = None;
         })
  with
  | Serve.Proto.Accepted { jobs = [ (j, _) ]; _ } -> j
  | r -> Alcotest.failf "expected accepted: %s" (Serve.Proto.reply_to_string r)

let read_result c =
  let rec go () =
    match Serve.Client.read_reply ~timeout_s:30.0 c with
    | Ok (Serve.Proto.Result r) -> r
    | Ok _ -> go ()
    | Error e -> Alcotest.failf "read_result: %s" e
  in
  go ()

let metrics c =
  match request c Serve.Proto.Metrics with
  | Serve.Proto.Metrics_reply m -> m
  | r -> Alcotest.failf "expected metrics: %s" (Serve.Proto.reply_to_string r)

let wait_state c job state =
  let rec go n =
    if n = 0 then Alcotest.failf "job %d never reached %s" job state
    else
      match request c (Serve.Proto.Poll job) with
      | Serve.Proto.Status { state = s; _ } when s = state -> ()
      | Serve.Proto.Status _ ->
        Unix.sleepf 0.05;
        go (n - 1)
      | r -> Alcotest.failf "expected status: %s" (Serve.Proto.reply_to_string r)
  in
  go 200

(* {1 Live tests} *)

let test_hello_ping () =
  with_server ~runner:scripted (fun ~socket ~pid:_ ->
      let c = connect ~client:"alice" socket in
      (match request c Serve.Proto.Ping with
      | Serve.Proto.Pong -> ()
      | r -> Alcotest.failf "expected pong: %s" (Serve.Proto.reply_to_string r));
      (match request c (Serve.Proto.Poll 99) with
      | Serve.Proto.Status { state = "unknown"; _ } -> ()
      | r -> Alcotest.failf "expected unknown: %s" (Serve.Proto.reply_to_string r));
      (* A garbage line earns an error reply, not a dropped connection. *)
      (match Serve.Client.send c Serve.Proto.Ping with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      ignore (Serve.Client.read_reply ~timeout_s:5.0 c);
      Serve.Client.close c)

let test_concurrent_clients () =
  with_server ~workers:2 ~runner:scripted (fun ~socket ~pid:_ ->
      let clients =
        List.init 4 (fun i -> (i, connect ~client:(Printf.sprintf "tenant-%d" i) socket))
      in
      let jobs =
        List.map (fun (i, c) -> (c, submit_one ~id:(Printf.sprintf "c%d" i) c)) clients
      in
      List.iter
        (fun (c, j) ->
          let r = read_result c in
          Alcotest.(check int) "result for own job" j r.Serve.Proto.r_job;
          Alcotest.(check string) "proved" "proved" r.Serve.Proto.r_verdict)
        jobs;
      let c0 = snd (List.hd clients) in
      let m = metrics c0 in
      Alcotest.(check int) "all completed" 4 m.Serve.Proto.m_completed;
      Alcotest.(check bool) "clients counted" true (m.Serve.Proto.m_clients >= 4);
      List.iter (fun (_, c) -> Serve.Client.close c) clients)

let test_backpressure () =
  with_server ~workers:1 ~max_queue:2 ~runner:scripted (fun ~socket ~pid:_ ->
      let c = connect ~client:"flood" socket in
      let j1 = submit_one ~id:"sleep:2.0" c in
      wait_state c j1 "running";
      let _j2 = submit_one ~id:"sleep:0.1" c in
      let _j3 = submit_one ~id:"sleep:0.1" c in
      (match
         request c
           (Serve.Proto.Submit
              {
                Serve.Proto.s_id = "overflow";
                s_design = "fifo";
                s_property = Some "fifo_data";
                s_method = "emm";
                s_max_depth = None;
                s_timeout_s = None;
                s_cache = None;
              })
       with
      | Serve.Proto.Busy { queue_depth; max_queue; retry_after_s; _ } ->
        Alcotest.(check int) "queue reported full" 2 queue_depth;
        Alcotest.(check int) "max reported" 2 max_queue;
        Alcotest.(check bool) "busy carries a positive retry hint" true
          (retry_after_s > 0.0 && retry_after_s <= 30.0)
      | r -> Alcotest.failf "expected busy: %s" (Serve.Proto.reply_to_string r));
      (* An all-or-nothing batch: both fifo properties would overflow the
         one remaining... queue is already full, so nothing is enqueued. *)
      let m = metrics c in
      Alcotest.(check int) "busy rejection counted" 1 m.Serve.Proto.m_rejected_busy;
      Alcotest.(check int) "nothing extra queued" 2 m.Serve.Proto.m_queue_depth;
      Serve.Client.close c)

let test_fairness () =
  with_server ~workers:1 ~runner:scripted (fun ~socket ~pid:_ ->
      let flood = connect ~client:"flood" socket in
      let polite = connect ~client:"polite" socket in
      let j1 = submit_one ~id:"sleep:0.3" flood in
      wait_state flood j1 "running";
      let flood_jobs =
        List.init 3 (fun _ -> submit_one ~id:"sleep:0.3" flood)
      in
      let pj = submit_one ~id:"sleep:0.3" polite in
      (* Round-robin: the polite tenant's single job must not wait behind
         the flooder's whole backlog. *)
      let r = read_result polite in
      Alcotest.(check int) "polite job done" pj r.Serve.Proto.r_job;
      let undone =
        List.filter
          (fun j ->
            match request polite (Serve.Proto.Poll j) with
            | Serve.Proto.Status { state = "done"; _ } -> false
            | _ -> true)
          flood_jobs
      in
      Alcotest.(check bool)
        "flooder still has work after polite finished" true
        (List.length undone >= 1);
      Serve.Client.close flood;
      Serve.Client.close polite)

let test_crash_containment () =
  with_server ~workers:1 ~runner:scripted (fun ~socket ~pid:_ ->
      let c = connect ~client:"crash" socket in
      let j = submit_one ~id:"crash" c in
      let r = read_result c in
      Alcotest.(check int) "crashed job answered" j r.Serve.Proto.r_job;
      Alcotest.(check string) "inconclusive" "inconclusive" r.Serve.Proto.r_verdict;
      (match r.Serve.Proto.r_reason with
      | Some why ->
        Alcotest.(check bool) "reason names the kill" true
          (String.length why >= 13 && String.sub why 0 13 = "worker killed")
      | None -> Alcotest.fail "no reason on crashed job");
      (* The daemon survives and serves the next job normally. *)
      let j2 = submit_one ~id:"after" c in
      let r2 = read_result c in
      Alcotest.(check int) "next job fine" j2 r2.Serve.Proto.r_job;
      Alcotest.(check string) "proved" "proved" r2.Serve.Proto.r_verdict;
      let m = metrics c in
      Alcotest.(check int) "failure counted" 1 m.Serve.Proto.m_failed;
      Alcotest.(check int) "completion counted" 1 m.Serve.Proto.m_completed;
      Serve.Client.close c)

let test_disconnect_cancels () =
  with_server ~workers:1 ~runner:scripted (fun ~socket ~pid:_ ->
      let doomed = connect ~client:"doomed" socket in
      let j = submit_one ~id:"sleep:30" doomed in
      wait_state doomed j "running";
      Serve.Client.close doomed;
      (* The abandoned worker is killed, not waited for 30 s. *)
      let c = connect ~client:"watcher" socket in
      let rec wait n =
        if n = 0 then Alcotest.fail "abandoned job never cancelled"
        else
          let m = metrics c in
          if m.Serve.Proto.m_cancelled >= 1 && m.Serve.Proto.m_running = 0 then ()
          else begin
            Unix.sleepf 0.05;
            wait (n - 1)
          end
      in
      wait 200;
      let j2 = submit_one ~id:"after" c in
      let r = read_result c in
      Alcotest.(check int) "worker slot freed" j2 r.Serve.Proto.r_job;
      Serve.Client.close c)

let test_warm_cache () =
  with_server ~workers:1 ~cache:true (fun ~socket ~pid:_ ->
      let c = connect ~client:"cache" socket in
      let _ = submit_one ~id:"cold" c in
      let cold = read_result c in
      Alcotest.(check string) "cold run misses" "miss" cold.Serve.Proto.r_cache;
      let _ = submit_one ~id:"warm" c in
      let warm = read_result c in
      Alcotest.(check string) "warm run hits" "hit" warm.Serve.Proto.r_cache;
      Alcotest.(check string)
        "same verdict" cold.Serve.Proto.r_verdict warm.Serve.Proto.r_verdict;
      let m = metrics c in
      Alcotest.(check int) "hit counted" 1 m.Serve.Proto.m_cache_hits;
      Alcotest.(check int) "miss counted" 1 m.Serve.Proto.m_cache_misses;
      Alcotest.(check bool) "store populated" true (m.Serve.Proto.m_cache_entries >= 1);
      Serve.Client.close c)

let test_sigterm_drain () =
  with_server ~workers:1 ~runner:scripted (fun ~socket ~pid ->
      let c = connect ~client:"drain" socket in
      let j1 = submit_one ~id:"sleep:0.5" c in
      wait_state c j1 "running";
      let j2 = submit_one ~id:"queued" c in
      Unix.kill pid Sys.sigterm;
      (* The in-flight job delivers its result; the queued one is dropped
         with a shutdown reply; then the daemon exits 0. *)
      let got_result = ref false and got_shutdown = ref false in
      let rec collect n =
        if n > 0 && not (!got_result && !got_shutdown) then begin
          (match Serve.Client.read_reply ~timeout_s:10.0 c with
          | Ok (Serve.Proto.Result r) ->
            Alcotest.(check int) "running job finished" j1 r.Serve.Proto.r_job;
            Alcotest.(check string) "proved" "proved" r.Serve.Proto.r_verdict;
            got_result := true
          | Ok (Serve.Proto.Shutdown_reply { job = Some j; _ }) ->
            Alcotest.(check int) "queued job dropped" j2 j;
            got_shutdown := true
          | Ok _ -> ()
          | Error e -> Alcotest.failf "during drain: %s" e);
          collect (n - 1)
        end
      in
      collect 10;
      Alcotest.(check bool) "result delivered" true !got_result;
      Alcotest.(check bool) "shutdown reply delivered" true !got_shutdown;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
      | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
        Alcotest.fail "daemon killed, not drained");
      Serve.Client.close c)

let test_budget_clamp () =
  (* The server clamps submissions to its policy ceilings; the runner seam
     observes the clamped options. *)
  let seen = ref None in
  let probe (s : Serve.Proto.submit) ~property ~options =
    ignore s;
    ignore property;
    seen := Some options;
    {
      (Emmver.killed_outcome
         ~elapsed_s:
           (match options.Emmver.timeout_s with Some t -> t | None -> 0.0)
         "probe")
      with
      Emmver.conclusion =
        Emmver.Inconclusive
          (Printf.sprintf "depth=%d timeout=%s" options.Emmver.max_depth
             (match options.Emmver.timeout_s with
             | Some t -> Printf.sprintf "%.1f" t
             | None -> "none"));
      error = None;
    }
  in
  let budgets =
    { Policy.wall_s = Some 5.0; conflicts = None; learnt_mb = None; max_depth = Some 10 }
  in
  ignore seen;
  with_server ~workers:1 ~budgets ~runner:probe (fun ~socket ~pid:_ ->
      let c = connect ~client:"clamp" socket in
      let _ =
        match
          request c
            (Serve.Proto.Submit
               {
                 Serve.Proto.s_id = "want-more";
                 s_design = "fifo";
                 s_property = Some "fifo_data";
                 s_method = "emm";
                 s_max_depth = Some 1000;
                 s_timeout_s = Some 3600.0;
                 s_cache = None;
               })
        with
        | Serve.Proto.Accepted _ -> ()
        | r -> Alcotest.failf "expected accepted: %s" (Serve.Proto.reply_to_string r)
      in
      let r = read_result c in
      (match r.Serve.Proto.r_reason with
      | Some why ->
        Alcotest.(check string) "clamped to ceilings" "depth=10 timeout=5.0" why
      | None -> Alcotest.fail "probe reason lost");
      Serve.Client.close c)

(* {1 Crash safety} *)

(* Reconnect as [tenant] and resume until [want] distinct job results are
   in hand, acking each as it arrives.  Results may also be pushed live to
   the (named) connection while we hold it — both paths collect. *)
let resume_collect ?(attempts = 150) socket tenant want =
  let got = Hashtbl.create 8 in
  let rec outer n =
    if Hashtbl.length got >= want then ()
    else if n = 0 then
      Alcotest.failf "resume collected %d of %d results" (Hashtbl.length got)
        want
    else begin
      let c = connect ~client:tenant socket in
      let take r =
        if not (Hashtbl.mem got r.Serve.Proto.r_job) then
          Hashtbl.replace got r.Serve.Proto.r_job r;
        ignore (Serve.Client.send c (Serve.Proto.Ack r.Serve.Proto.r_job))
      in
      let next () =
        match Serve.Client.read_reply ~timeout_s:30.0 c with
        | Ok reply -> reply
        | Error e -> Alcotest.failf "resume stream: %s" e
      in
      (* A job that finishes after the hello is pushed to the named
         connection at once, so its result may precede the header. *)
      let rec header = function
        | Serve.Proto.Resumed { results; _ } -> results
        | Serve.Proto.Result r ->
          take r;
          header (next ())
        | r -> Alcotest.failf "expected resumed: %s" (Serve.Proto.reply_to_string r)
      in
      for _ = 1 to header (request c (Serve.Proto.Resume tenant)) do
        match next () with Serve.Proto.Result r -> take r | _ -> ()
      done;
      Serve.Client.close c;
      if Hashtbl.length got < want then Unix.sleepf 0.05;
      outer (n - 1)
    end
  in
  outer attempts;
  got

let test_resume_ack () =
  with_server ~workers:1 ~journal:true ~runner:scripted (fun ~socket ~pid:_ ->
      let c = connect ~client:"tess" socket in
      let j = submit_one ~id:"job" c in
      let r = read_result c in
      Alcotest.(check int) "delivered live" j r.Serve.Proto.r_job;
      (* Never acked: the server must retain it across the disconnect. *)
      Serve.Client.close c;
      let c2 = connect ~client:"tess" socket in
      (match request c2 (Serve.Proto.Resume "tess") with
      | Serve.Proto.Resumed { results = 1; pending = 0; _ } -> ()
      | r -> Alcotest.failf "expected 1 retained: %s" (Serve.Proto.reply_to_string r));
      let again = read_result c2 in
      Alcotest.(check int) "same job redelivered" j again.Serve.Proto.r_job;
      Alcotest.(check string)
        "same verdict" r.Serve.Proto.r_verdict again.Serve.Proto.r_verdict;
      (match request c2 (Serve.Proto.Ack j) with
      | Serve.Proto.Acked { job } -> Alcotest.(check int) "acked" j job
      | r -> Alcotest.failf "expected acked: %s" (Serve.Proto.reply_to_string r));
      (* Idempotent: acking again is harmless, and nothing is left. *)
      (match request c2 (Serve.Proto.Ack j) with
      | Serve.Proto.Acked _ -> ()
      | r -> Alcotest.failf "expected acked: %s" (Serve.Proto.reply_to_string r));
      (match request c2 (Serve.Proto.Resume "tess") with
      | Serve.Proto.Resumed { results = 0; _ } -> ()
      | r -> Alcotest.failf "expected drained: %s" (Serve.Proto.reply_to_string r));
      let m = metrics c2 in
      Alcotest.(check int) "redelivery counted" 1 m.Serve.Proto.m_redelivered;
      Alcotest.(check int) "ack counted" 1 m.Serve.Proto.m_acked;
      Alcotest.(check int) "nothing retained" 0 m.Serve.Proto.m_retained;
      Alcotest.(check bool) "journal populated" true
        (m.Serve.Proto.m_journal_records > 0);
      Serve.Client.close c2)

let test_crash_recovery () =
  with_crash_server ~workers:1 ~runner:scripted
    (fun ~dir ~socket ~kill9 ~restart ->
      let flag = Filename.concat dir "once.flag" in
      let c = connect ~client:"cr" socket in
      let j1 = submit_one ~id:("once:" ^ flag) c in
      wait_state c j1 "running";
      let j2 = submit_one ~id:"queued" c in
      (* The worker has really started (it wrote its flag) before the kill,
         so the restarted daemon has a live orphan to reap. *)
      let rec wait_flag n =
        if Sys.file_exists flag then ()
        else if n = 0 then Alcotest.fail "worker never started"
        else begin
          Unix.sleepf 0.02;
          wait_flag (n - 1)
        end
      in
      wait_flag 250;
      kill9 ();
      Serve.Client.close c;
      restart ();
      let got = resume_collect socket "cr" 2 in
      Alcotest.(check bool) "mid-run job recovered" true (Hashtbl.mem got j1);
      Alcotest.(check bool) "queued job recovered" true (Hashtbl.mem got j2);
      Alcotest.(check string) "re-run concluded" "proved"
        (Hashtbl.find got j1).Serve.Proto.r_verdict;
      let c2 = connect ~client:"watch" socket in
      let m = metrics c2 in
      Alcotest.(check int) "both jobs replayed" 2 m.Serve.Proto.m_replayed;
      Alcotest.(check int) "orphaned worker reaped" 1
        m.Serve.Proto.m_orphans_killed;
      Serve.Client.close c2)

(* The acceptance property, sampled: SIGKILL the daemon at a random instant
   in a batch's lifetime — mid-queue, mid-run, mid-delivery — and every
   accepted job must still produce a result after restart + resume. *)
let test_kill_points () =
  for _round = 1 to 5 do
    with_crash_server ~workers:2 ~runner:scripted
      (fun ~dir:_ ~socket ~kill9 ~restart ->
        let c = connect ~client:"kp" socket in
        let jobs =
          List.init 3 (fun i ->
              submit_one ~id:(Printf.sprintf "sleep:0.0%d" (i + 1)) c)
        in
        Unix.sleepf (Random.float 0.15);
        kill9 ();
        Serve.Client.close c;
        restart ();
        let got = resume_collect socket "kp" 3 in
        List.iter
          (fun j ->
            Alcotest.(check bool)
              (Printf.sprintf "job %d survived the kill" j)
              true (Hashtbl.mem got j))
          jobs)
  done

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "golden requests, byte-for-byte" `Quick
            test_golden_requests;
          Alcotest.test_case "golden replies, byte-for-byte" `Quick
            test_golden_replies;
          Alcotest.test_case "malformed lines are rejected" `Quick
            test_protocol_errors;
          Alcotest.test_case "v1 replies parse with absent v2 fields" `Quick
            test_v1_compat;
          Alcotest.test_case "backoff delays are bounded and jittered" `Quick
            test_backoff;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay projects pending/orphans/undelivered"
            `Quick test_journal_recovery;
          Alcotest.test_case "torn, flipped and duplicated records recover"
            `Quick test_journal_corruption;
          Alcotest.test_case "golden lines, byte-for-byte" `Quick
            test_journal_goldens;
          Alcotest.test_case "reader table: corrupt, defaulted, dropped fields"
            `Quick test_journal_reader_table;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "hello, ping, poll unknown" `Quick test_hello_ping;
          Alcotest.test_case "concurrent clients each get their results" `Quick
            test_concurrent_clients;
          Alcotest.test_case "queue-full submissions get busy" `Quick
            test_backpressure;
          Alcotest.test_case "round-robin fairness under a flooding tenant"
            `Quick test_fairness;
          Alcotest.test_case "worker crash is contained to its job" `Quick
            test_crash_containment;
          Alcotest.test_case "client disconnect cancels its jobs" `Quick
            test_disconnect_cancels;
          Alcotest.test_case "second submission is served warm" `Quick
            test_warm_cache;
          Alcotest.test_case "SIGTERM drains gracefully" `Quick
            test_sigterm_drain;
          Alcotest.test_case "submissions are clamped to policy budgets" `Quick
            test_budget_clamp;
          Alcotest.test_case "unacked results survive for resume" `Quick
            test_resume_ack;
          Alcotest.test_case "SIGKILL + restart recovers queue and orphans"
            `Quick test_crash_recovery;
          Alcotest.test_case "random kill points never lose an accepted job"
            `Quick test_kill_points;
        ] );
    ]
