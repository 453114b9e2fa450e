(* Tests for the structured observability layer (lib/obs).

   Everything runs against an injected fixed clock and [~track_alloc:false],
   so no test depends on wall-clock readings or on how much the runtime
   happens to allocate: exporter output is byte-reproducible and asserted
   as such.  The one exception, "allocation is exact per span", measures
   allocation itself, within a stated slack. *)

let fixed_recorder ?(pid = 7) () =
  Obs.create ~clock:(Obs.Clock.fixed ()) ~pid ~track_alloc:false ()

(* Run [f] with [r] installed as the current recorder, restoring whatever
   was current before — keeps test cases independent. *)
let with_recorder r f =
  let saved = Obs.current () in
  Obs.set_current (Some r);
  Fun.protect f ~finally:(fun () -> Obs.set_current saved)

let check_ok what = function
  | Ok _ -> ()
  | Error why -> Alcotest.failf "%s: unexpectedly invalid: %s" what why

let check_error what = function
  | Ok _ -> Alcotest.failf "%s: unexpectedly valid" what
  | Error _ -> ()

(* {2 Clocks} *)

let test_fixed_clock () =
  let c = Obs.Clock.fixed ~start:10.0 ~step:0.5 () in
  Alcotest.(check (float 1e-9)) "first" 10.0 (c ());
  Alcotest.(check (float 1e-9)) "second" 10.5 (c ());
  Alcotest.(check (float 1e-9)) "third" 11.0 (c ())

let test_now_disabled_is_wall () =
  Obs.set_current None;
  (* No recorder: [now] must fall back to a real clock, i.e. something in
     the last/next decade rather than the fixed clock's small integers. *)
  Alcotest.(check bool) "wall-clock magnitude" true (Obs.now () > 1e9)

(* {2 Span nesting} *)

let test_span_nesting () =
  let r = fixed_recorder () in
  with_recorder r (fun () ->
      Obs.span "a" (fun () ->
          Obs.span "b" (fun () -> Obs.instant "p");
          Obs.span "c" (fun () -> ())));
  let rows = Obs.rows r in
  check_ok "nested spans" (Obs.validate rows);
  match Obs.spans rows with
  | Error why -> Alcotest.fail why
  | Ok spans ->
    let names = List.map (fun s -> s.Obs.sp_name) spans in
    Alcotest.(check (list string)) "begin order" [ "a"; "b"; "c" ] names;
    let levels = List.map (fun s -> s.Obs.sp_level) spans in
    Alcotest.(check (list int)) "levels" [ 0; 1; 1 ] levels;
    let parents = List.map (fun s -> s.Obs.sp_parent) spans in
    Alcotest.(check (list (option int))) "parents" [ None; Some 0; Some 0 ] parents;
    (* Strict containment: every child's interval lies inside its parent's. *)
    let arr = Array.of_list spans in
    List.iter
      (fun sp ->
        match sp.Obs.sp_parent with
        | None -> ()
        | Some p ->
          Alcotest.(check bool) "starts after parent" true
            (sp.Obs.sp_start >= arr.(p).Obs.sp_start);
          Alcotest.(check bool) "stops before parent" true
            (sp.Obs.sp_stop <= arr.(p).Obs.sp_stop))
      spans

let test_span_result_and_exception () =
  let r = fixed_recorder () in
  with_recorder r (fun () ->
      Alcotest.(check int) "span returns" 42 (Obs.span "ok" (fun () -> 42));
      (* A raising span must still emit its End row (balanced stream). *)
      (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check (list string)) "no open spans" [] (Obs.open_spans r));
  check_ok "balanced after exception" (Obs.validate (Obs.rows r))

let test_orphan_end_detected () =
  let bad = [ (1, Obs.End { name = "ghost"; ts = 0.0; alloc_words = 0.0 }) ] in
  check_error "orphan end" (Obs.validate bad)

let test_name_mismatch_detected () =
  let bad =
    [
      (1, Obs.Begin { name = "a"; ts = 0.0; attrs = [] });
      (1, Obs.End { name = "b"; ts = 1.0; alloc_words = 0.0 });
    ]
  in
  check_error "mismatched end" (Obs.validate bad)

let test_unclosed_span_detected () =
  let bad = [ (1, Obs.Begin { name = "a"; ts = 0.0; attrs = [] }) ] in
  check_error "span left open" (Obs.validate bad)

let test_backwards_time_detected () =
  let bad =
    [
      (1, Obs.Begin { name = "a"; ts = 5.0; attrs = [] });
      (1, Obs.End { name = "a"; ts = 1.0; alloc_words = 0.0 });
    ]
  in
  check_error "time runs backwards" (Obs.validate bad)

let test_close_open_spans () =
  let r = fixed_recorder () in
  with_recorder r (fun () ->
      (* Simulate a run cut short mid-span (the at_exit path). *)
      ignore
        (try
           Obs.span "outer" (fun () ->
               (* open a span by hand, bypassing Fun.protect *)
               ignore (Obs.span "inner" (fun () -> ()));
               raise Exit)
         with Exit -> ()));
  Obs.close_open_spans r;
  check_ok "closed" (Obs.validate (Obs.rows r))

(* {2 Counters} *)

let test_counter_monotone () =
  let r = fixed_recorder () in
  with_recorder r (fun () ->
      Obs.counter_add "c" 3;
      Obs.counter_add "c" (-100);
      (* ignored *)
      Obs.counter_add "c" 2;
      Obs.counter_set "g" 10.0;
      Obs.counter_set "g" 4.0;
      (* clamped: stays at 10 *)
      Obs.counter_set "g" 12.5);
  let rows = Obs.rows r in
  check_ok "counters monotone" (Obs.validate rows);
  let values name =
    List.filter_map
      (function
        | _, Obs.Count { name = n; value; _ } when n = name -> Some value
        | _ -> None)
      rows
  in
  Alcotest.(check (list (float 1e-9))) "adds" [ 3.0; 3.0; 5.0 ] (values "c");
  Alcotest.(check (list (float 1e-9))) "sets" [ 10.0; 10.0; 12.5 ] (values "g")

let test_nonmonotone_counter_detected () =
  let bad =
    [
      (1, Obs.Count { name = "c"; ts = 0.0; value = 5.0 });
      (1, Obs.Count { name = "c"; ts = 1.0; value = 4.0 });
    ]
  in
  check_error "counter went backwards" (Obs.validate bad)

let test_counters_per_pid () =
  (* The same counter name on different pids is independent. *)
  let rows =
    [
      (1, Obs.Count { name = "c"; ts = 0.0; value = 5.0 });
      (2, Obs.Count { name = "c"; ts = 1.0; value = 1.0 });
    ]
  in
  check_ok "per-pid counters" (Obs.validate rows)

(* {2 Disabled layer} *)

let test_disabled_noops () =
  Obs.set_current None;
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Alcotest.(check int) "span passthrough" 9 (Obs.span "x" (fun () -> 9));
  Obs.instant "nothing";
  Obs.counter_add "nothing" 1;
  Obs.counter_set "nothing" 1.0;
  let v, rows = Obs.worker_scope (fun () -> 5) in
  Alcotest.(check int) "worker passthrough" 5 v;
  Alcotest.(check int) "no rows" 0 (List.length rows)

(* {2 Worker merging} *)

let test_worker_scope_and_ingest () =
  let parent = fixed_recorder ~pid:1 () in
  with_recorder parent (fun () ->
      Obs.span "parent-work" (fun () -> ());
      let (), worker_rows =
        Obs.worker_scope (fun () -> Obs.span "child-work" (fun () -> ()))
      in
      (* worker_scope clears the current recorder (it runs in a forked child
         in production); reinstall the parent as the pool would have it. *)
      Obs.set_current (Some parent);
      Alcotest.(check bool) "worker produced rows" true (worker_rows <> []);
      (* Re-pid the rows as if they came from another process, then merge. *)
      let worker_rows = List.map (fun (_, ev) -> (2, ev)) worker_rows in
      Obs.ingest_current worker_rows);
  let rows = Obs.rows parent in
  check_ok "merged" (Obs.validate rows);
  match Obs.spans rows with
  | Error why -> Alcotest.fail why
  | Ok spans ->
    let by_pid p = List.filter (fun s -> s.Obs.sp_pid = p) spans in
    Alcotest.(check int) "parent spans" 1 (List.length (by_pid 1));
    Alcotest.(check int) "worker spans" 1 (List.length (by_pid 2))

(* {2 Domain merging}

   The portfolio's shape: the parent recorder forks one token per racing
   domain, each domain records its own spans into a domain-local recorder
   ([domain_scope]), and the parent ingests the returned rows after the
   join.  The merged trace must validate and keep one distinct synthetic
   pid per domain.  A wall clock, not the fixed one: [Clock.fixed] is
   documented single-domain-only (it mutates unsynchronised state). *)

let test_domain_scope_and_ingest () =
  let parent = Obs.create ~pid:1 ~track_alloc:false () in
  with_recorder parent (fun () ->
      Obs.span "race" (fun () ->
          let spawned =
            List.init 3 (fun k ->
                let token = Obs.domain_fork () in
                Domain.spawn (fun () ->
                    Obs.domain_scope token (fun () ->
                        Obs.span "instance" (fun () ->
                            Obs.counter_add "work" (k + 1)))))
          in
          List.iter
            (fun d ->
              let (), rows = Domain.join d in
              Alcotest.(check bool) "domain produced rows" true (rows <> []);
              Obs.ingest_current rows)
            spawned));
  let rows = Obs.rows parent in
  check_ok "merged multi-domain trace validates" (Obs.validate rows);
  match Obs.spans rows with
  | Error why -> Alcotest.fail why
  | Ok spans ->
    let pids =
      List.sort_uniq compare (List.map (fun s -> s.Obs.sp_pid) spans)
    in
    Alcotest.(check int) "parent + 3 domain pids" 4 (List.length pids);
    Alcotest.(check int) "one instance span per domain" 3
      (List.length (List.filter (fun s -> s.Obs.sp_name = "instance") spans))

let test_domain_fork_disabled_is_none () =
  Obs.set_current None;
  Alcotest.(check bool) "no recorder: no token" true (Obs.domain_fork () = None);
  let v, rows = Obs.domain_scope None (fun () -> 11) in
  Alcotest.(check int) "passthrough" 11 v;
  Alcotest.(check int) "no rows" 0 (List.length rows)

let test_interleaved_pids_validate () =
  (* Ingested rows appear after the parent's even though their timestamps
     interleave; validation is per-pid so this must pass. *)
  let rows =
    [
      (1, Obs.Begin { name = "a"; ts = 0.0; attrs = [] });
      (1, Obs.End { name = "a"; ts = 10.0; alloc_words = 0.0 });
      (2, Obs.Begin { name = "b"; ts = 3.0; attrs = [] });
      (2, Obs.End { name = "b"; ts = 4.0; alloc_words = 0.0 });
    ]
  in
  check_ok "per-pid streams" (Obs.validate rows)

(* {2 Exporters} *)

(* A fixed small workload used by the golden and determinism tests. *)
let record_workload () =
  let r = fixed_recorder () in
  with_recorder r (fun () ->
      Obs.span "run" ~attrs:[ ("design", Obs.Str "quick\"sort") ] (fun () ->
          Obs.span "depth" ~attrs:[ ("k", Obs.Int 0) ] (fun () ->
              Obs.counter_add "clauses" 12;
              Obs.instant "note" ~attrs:[ ("ok", Obs.Bool true) ])));
  r

let export_string fmt r =
  let b = Buffer.create 256 in
  Obs.export fmt b (Obs.rows r);
  Buffer.contents b

let test_deterministic_exports () =
  (* Two runs, two fresh fixed clocks: identical bytes, both formats. *)
  let a = record_workload () and b = record_workload () in
  Alcotest.(check string) "chrome identical"
    (export_string Obs.Chrome a) (export_string Obs.Chrome b);
  Alcotest.(check string) "jsonl identical"
    (export_string Obs.Jsonl a) (export_string Obs.Jsonl b)

let test_chrome_golden_parses_back () =
  let r = record_workload () in
  let text = export_string Obs.Chrome r in
  match Obs.Json.parse text with
  | Error why -> Alcotest.failf "chrome trace is not JSON: %s" why
  | Ok doc ->
    let events =
      match Obs.Json.member "traceEvents" doc with
      | Some (Obs.Json.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array"
    in
    (* 2 Begin + 2 End + 1 Count + 1 Instant *)
    Alcotest.(check int) "event count" 6 (List.length events);
    let field name ev =
      match Obs.Json.member name ev with
      | Some v -> v
      | None -> Alcotest.failf "event missing %S" name
    in
    let phases =
      List.map
        (fun ev ->
          match field "ph" ev with
          | Obs.Json.Str s -> s
          | _ -> Alcotest.fail "ph not a string")
        events
    in
    Alcotest.(check (list string)) "phases" [ "B"; "B"; "C"; "i"; "E"; "E" ] phases;
    List.iter
      (fun ev ->
        (match field "ts" ev with
        | Obs.Json.Num ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
        | _ -> Alcotest.fail "ts not a number");
        match (field "pid" ev, field "tid" ev) with
        | Obs.Json.Num p, Obs.Json.Num t ->
          Alcotest.(check (float 0.0)) "pid = tid" p t
        | _ -> Alcotest.fail "pid/tid not numbers")
      events;
    (* First event is the "run" Begin at relative ts 0 with its attr intact
       (exercises string escaping both ways). *)
    (match events with
    | first :: _ ->
      (match field "ts" first with
      | Obs.Json.Num ts -> Alcotest.(check (float 0.0)) "starts at 0us" 0.0 ts
      | _ -> Alcotest.fail "ts not a number");
      (match Obs.Json.member "args" first with
      | Some args -> (
        match Obs.Json.member "design" args with
        | Some (Obs.Json.Str s) ->
          Alcotest.(check string) "escaped attr roundtrips" "quick\"sort" s
        | _ -> Alcotest.fail "design attr missing")
      | None -> Alcotest.fail "args missing")
    | [] -> Alcotest.fail "no events");
    (* End events carry the allocation delta. *)
    let ends =
      List.filter
        (fun ev ->
          match field "ph" ev with Obs.Json.Str "E" -> true | _ -> false)
        events
    in
    List.iter
      (fun ev ->
        match Obs.Json.member "args" ev with
        | Some args -> (
          match Obs.Json.member "alloc_words" args with
          | Some (Obs.Json.Num 0.0) -> ()
          | Some (Obs.Json.Num n) ->
            Alcotest.failf "alloc tracked despite track_alloc:false: %g" n
          | _ -> Alcotest.fail "no alloc_words")
        | None -> Alcotest.fail "End without args")
      ends

let test_jsonl_lines_parse () =
  let r = record_workload () in
  let text = export_string Obs.Jsonl r in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "line count" 6 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok (Obs.Json.Obj _) -> ()
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error why -> Alcotest.failf "bad jsonl line %S: %s" line why)
    lines

(* The JSON-lines export byte for byte: field order, number rule and string
   escaping (a quote in the workload's attribute; a backslash, a newline, a
   tab, a carriage return and a control byte in one more instant). *)
let test_jsonl_golden () =
  let r = record_workload () in
  with_recorder r (fun () ->
      Obs.instant "odd"
        ~attrs:[ ("s", Obs.Str "q\"b\\n\nc\001\tr\r"); ("f", Obs.Float 0.125) ]);
  Alcotest.(check string) "jsonl bytes"
    {|{"ph":"B","name":"run","ts":0,"pid":7,"tid":7,"args":{"design":"quick\"sort"}}
{"ph":"B","name":"depth","ts":1,"pid":7,"tid":7,"args":{"k":0}}
{"ph":"C","name":"clauses","ts":2,"pid":7,"tid":7,"args":{"value":12}}
{"ph":"i","name":"note","ts":3,"pid":7,"tid":7,"s":"t","args":{"ok":true}}
{"ph":"E","name":"depth","ts":4,"pid":7,"tid":7,"args":{"alloc_words":0}}
{"ph":"E","name":"run","ts":5,"pid":7,"tid":7,"args":{"alloc_words":0}}
{"ph":"i","name":"odd","ts":6,"pid":7,"tid":7,"s":"t","args":{"s":"q\"b\\n\nc\u0001\tr\r","f":0.125}}
|}
    (export_string Obs.Jsonl r)

let test_format_of_path () =
  Alcotest.(check bool) "jsonl" true (Obs.format_of_path "t.jsonl" = Obs.Jsonl);
  Alcotest.(check bool) "json" true (Obs.format_of_path "t.json" = Obs.Chrome);
  Alcotest.(check bool) "other" true (Obs.format_of_path "trace" = Obs.Chrome)

let test_write_file_roundtrip () =
  let r = record_workload () in
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.write_file path r;
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.parse text with
      | Ok doc ->
        Alcotest.(check bool) "has traceEvents" true
          (Obs.Json.member "traceEvents" doc <> None)
      | Error why -> Alcotest.failf "file not parseable: %s" why)

(* {2 run_with_trace} *)

let test_run_with_trace_writes () =
  let path = Filename.temp_file "obs_rwt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let v =
        Obs.run_with_trace ~clock:(Obs.Clock.fixed ()) ~out:path ~label:"root"
          (fun () ->
            Obs.span "inner" (fun () -> ());
            17)
      in
      Alcotest.(check int) "result" 17 v;
      Alcotest.(check bool) "recorder uninstalled" false (Obs.enabled ());
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.parse text with
      | Ok doc -> (
        match Obs.Json.member "traceEvents" doc with
        | Some (Obs.Json.Arr evs) ->
          Alcotest.(check int) "root+inner spans" 4 (List.length evs)
        | _ -> Alcotest.fail "no traceEvents")
      | Error why -> Alcotest.failf "not JSON: %s" why)

let test_run_with_trace_disabled () =
  (* No out and no env var: pure passthrough, no recorder installed. *)
  Unix.putenv Obs.trace_env_var "";
  let v = Obs.run_with_trace ~label:"root" (fun () -> Obs.enabled ()) in
  Alcotest.(check bool) "stayed disabled" false v

(* {2 The Json reader} *)

let test_json_values () =
  let p s =
    match Obs.Json.parse s with
    | Ok v -> v
    | Error why -> Alcotest.failf "parse %S: %s" s why
  in
  Alcotest.(check bool) "null" true (p "null" = Obs.Json.Null);
  Alcotest.(check bool) "true" true (p "true" = Obs.Json.Bool true);
  Alcotest.(check bool) "int" true (p "42" = Obs.Json.Num 42.0);
  Alcotest.(check bool) "neg float" true (p "-1.5e2" = Obs.Json.Num (-150.0));
  Alcotest.(check bool) "string" true (p {|"a\"b\\c\n"|} = Obs.Json.Str "a\"b\\c\n");
  Alcotest.(check bool) "unicode escape" true (p {|"\u0041"|} = Obs.Json.Str "A");
  Alcotest.(check bool) "array" true
    (p "[1, 2]" = Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Num 2.0 ]);
  Alcotest.(check bool) "nested object" true
    (p {| {"a": {"b": []}, "c": 1} |}
    = Obs.Json.Obj
        [ ("a", Obs.Json.Obj [ ("b", Obs.Json.Arr []) ]); ("c", Obs.Json.Num 1.0) ])

let test_json_errors () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "parse %S should fail" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "\"unterminated"; "tru"; "{\"a\" 1}"; "1 2"; "{,}" ]

let test_json_member () =
  match Obs.Json.parse {|{"x": 1}|} with
  | Ok doc ->
    Alcotest.(check bool) "present" true
      (Obs.Json.member "x" doc = Some (Obs.Json.Num 1.0));
    Alcotest.(check bool) "absent" true (Obs.Json.member "y" doc = None)
  | Error why -> Alcotest.fail why

(* {2 Property tests} *)

(* Any balanced nesting program produces a validating stream; generate one
   as a random tree of span calls. *)
let test_random_nesting =
  QCheck.Test.make ~name:"random span trees validate" ~count:100
    QCheck.(small_list (int_bound 2))
    (fun shape ->
      let r = fixed_recorder () in
      with_recorder r (fun () ->
          List.iter
            (fun depth ->
              let rec go d =
                if d <= 0 then Obs.instant "leaf"
                else Obs.span (Printf.sprintf "s%d" d) (fun () -> go (d - 1))
              in
              go depth)
            shape);
      match Obs.validate (Obs.rows r) with Ok () -> true | Error _ -> false)

(* A span records the words allocated inside it, whether or not a minor
   collection falls inside: a short list (no collection), an array the
   runtime puts straight in the major heap, and a list longer than the
   minor heap.  The slack covers the recorder's own rows. *)
let test_span_alloc_exact () =
  let r = Obs.create ~pid:1 () in
  let keep = ref [] in
  let spans =
    with_recorder r (fun () ->
        List.map
          (fun (name, words, alloc) ->
            Gc.minor ();
            Obs.span name (fun () -> keep := alloc () :: !keep);
            (name, words))
          [
            ("short list", 3 * 1_000, fun () -> Obj.repr (List.init 1_000 Fun.id));
            ("major array", 1_001, fun () -> Obj.repr (Array.make 1_000 0));
            ("long list", 3 * 400_000, fun () -> Obj.repr (List.init 400_000 Fun.id));
          ])
  in
  ignore (Sys.opaque_identity !keep);
  List.iter
    (fun (name, words) ->
      let recorded =
        List.find_map
          (function
            | _, Obs.End { name = n; alloc_words; _ } when n = name -> Some alloc_words
            | _ -> None)
          (Obs.rows r)
        |> Option.get
      in
      if recorded < float_of_int words || recorded > float_of_int (words + 256) then
        Alcotest.failf "%s: %d words allocated, %.0f recorded" name words recorded)
    spans

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "fixed clock" `Quick test_fixed_clock;
          Alcotest.test_case "now falls back to wall" `Quick test_now_disabled_is_wall;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and containment" `Quick test_span_nesting;
          Alcotest.test_case "result and exception safety" `Quick
            test_span_result_and_exception;
          Alcotest.test_case "orphan end" `Quick test_orphan_end_detected;
          Alcotest.test_case "name mismatch" `Quick test_name_mismatch_detected;
          Alcotest.test_case "unclosed span" `Quick test_unclosed_span_detected;
          Alcotest.test_case "backwards time" `Quick test_backwards_time_detected;
          Alcotest.test_case "close_open_spans" `Quick test_close_open_spans;
          Alcotest.test_case "allocation is exact per span" `Quick test_span_alloc_exact;
        ] );
      ( "counters",
        [
          Alcotest.test_case "monotone semantics" `Quick test_counter_monotone;
          Alcotest.test_case "non-monotone detected" `Quick
            test_nonmonotone_counter_detected;
          Alcotest.test_case "independent per pid" `Quick test_counters_per_pid;
        ] );
      ( "disabled",
        [ Alcotest.test_case "everything no-ops" `Quick test_disabled_noops ] );
      ( "workers",
        [
          Alcotest.test_case "scope and ingest" `Quick test_worker_scope_and_ingest;
          Alcotest.test_case "interleaved pid streams" `Quick
            test_interleaved_pids_validate;
          Alcotest.test_case "multi-domain scope and ingest" `Quick
            test_domain_scope_and_ingest;
          Alcotest.test_case "domain fork no-ops when disabled" `Quick
            test_domain_fork_disabled_is_none;
        ] );
      ( "export",
        [
          Alcotest.test_case "deterministic across runs" `Quick
            test_deterministic_exports;
          Alcotest.test_case "chrome golden parses back" `Quick
            test_chrome_golden_parses_back;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
          Alcotest.test_case "jsonl golden, byte-for-byte" `Quick test_jsonl_golden;
          Alcotest.test_case "format of path" `Quick test_format_of_path;
          Alcotest.test_case "write_file roundtrip" `Quick test_write_file_roundtrip;
        ] );
      ( "run_with_trace",
        [
          Alcotest.test_case "writes the trace" `Quick test_run_with_trace_writes;
          Alcotest.test_case "disabled passthrough" `Quick
            test_run_with_trace_disabled;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest test_random_nesting ] );
    ]
