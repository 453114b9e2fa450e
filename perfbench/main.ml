(* The repository's performance benchmark: one workload per process.

   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   (--trace 1) install an Obs recorder, wrap the calls into each layer in
   the benchmark's own spans, and report a per-layer ledger of self times
   plus the layers' own counts.  The benchmark drives only public entry
   points and changes no library code.  run.py builds this program and
   supplies a private scratch directory and a scrubbed environment. *)

open Perfbench_kit

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {1 Arguments} *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false
let tmp = ref ""
let trace_dir = ref ""
let expected_file = ref ""

let parse_args () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (shuffles property and request order)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 traced per-layer run");
      ("--tmp", Arg.Set_string tmp, "DIR private scratch directory (must exist)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write Chrome traces");
      ("--expected", Arg.Set_string expected_file, "FILE expected verdicts");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  if !tmp = "" || !expected_file = "" then begin
    prerr_endline "perfbench: --tmp and --expected are required";
    exit 2
  end

let oracle : Oracle.t ref = ref []

(* {1 Operations and failures} *)

let attempted = ref 0
let failed = ref 0

let fail what why =
  incr failed;
  Printf.eprintf "FAILED %s: %s\n%!" what why

(* Run one operation on the benchmark's clock and return its duration.  A
   wrong answer or an exception is a failed operation. *)
let run_op what f =
  incr attempted;
  let t0 = now () in
  let outcome = try f () with e -> Error ("exception " ^ Printexc.to_string e) in
  let d = now () -. t0 in
  Result.iter_error (fail what) outcome;
  d

(* Run [op] once, then again while one more run of the slowest so far still
   fits in the measuring time. *)
let repeat_within op =
  let start = now () in
  let rec go acc longest =
    let d = op () in
    let longest = Float.max longest d in
    if now () -. start +. longest <= !seconds then go (d :: acc) longest
    else List.rev (d :: acc)
  in
  go [] 0.0

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let d = Filename.concat !tmp (Printf.sprintf "%s-%d" label !n) in
    Unix.mkdir d 0o700;
    d

(* Peak resident set of a process in MB (Linux [VmHWM]). *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
        | None -> failwith "no VmHWM in /proc status"
      in
      find ())

(* Run [f] as one operation in a forked child, so that it starts from the
   same heap every time, as a fresh CLI process would.  Returns the
   duration and the child's peak RSS. *)
let child_op what f =
  incr attempted;
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let t0 = now () in
    let outcome = try f () with e -> Error ("exception " ^ Printexc.to_string e) in
    let d = now () -. t0 in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (outcome, d, peak_rss_mb "self") [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let (outcome, d, rss : (unit, string) result * float * float) =
      try Marshal.from_channel ic with End_of_file | Failure _ -> (Error "child died", 0.0, 0.0)
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    Result.iter_error (fail what) outcome;
    (d, rss)

(* {1 Verdicts} *)

let bound_reason d = Printf.sprintf "no counterexample up to depth %d" d

let verdict_of_conclusion ~max_depth = function
  | Emmver.Proved { depth; induction = true } -> Ok (Oracle.Proved_induction depth)
  | Emmver.Proved { depth; induction = false } -> Ok (Oracle.Proved_diameter depth)
  | Emmver.Falsified { depth; genuine = Some true; _ } -> Ok (Oracle.Falsified depth)
  | Emmver.Falsified { depth; _ } ->
    Error (Printf.sprintf "counterexample at depth %d did not replay" depth)
  | Emmver.Inconclusive why when why = bound_reason max_depth -> Ok (Oracle.Bounded max_depth)
  | Emmver.Inconclusive why -> Error ("inconclusive: " ^ why)

let verdict_of_engine net = function
  | Bmc.Engine.Proof { depth; kind = Bmc.Engine.Forward_diameter } ->
    Ok (Oracle.Proved_diameter depth)
  | Bmc.Engine.Proof { depth; kind = Bmc.Engine.Backward_induction } ->
    Ok (Oracle.Proved_induction depth)
  | Bmc.Engine.Counterexample t when Bmc.Trace.replay net t ->
    Ok (Oracle.Falsified t.Bmc.Trace.depth)
  | Bmc.Engine.Bounded_safe d -> Ok (Oracle.Bounded d)
  | v -> Error (Format.asprintf "%a" Bmc.Engine.pp_verdict v)

let verdict_of_line ~max_depth (r : Serve.Proto.result_line) =
  match (r.Serve.Proto.r_verdict, r.r_depth, r.r_induction, r.r_genuine) with
  | "proved", Some d, Some true, _ -> Ok (Oracle.Proved_induction d)
  | "proved", Some d, Some false, _ -> Ok (Oracle.Proved_diameter d)
  | "falsified", Some d, _, Some true -> Ok (Oracle.Falsified d)
  | "inconclusive", _, _, _ when r.r_reason = Some (bound_reason max_depth) ->
    Ok (Oracle.Bounded max_depth)
  | _ -> Error (Serve.Proto.reply_to_string (Serve.Proto.Result r))

let ( let* ) = Result.bind

let check ~property verdict =
  let* v = verdict in
  Oracle.check !oracle ~workload:!workload ~property v

(* {1 Reporting} *)

let end_to_end = [ "setup_s"; "wall_s"; "peak_rss_mb"; "prop_p50_s"; "prop_tail_s" ]

let per_layer =
  [
    "designs.build_s";
    "emmver.verify_self_s";
    "netlist.cone_signature_s";
    "vcache.lookup_s";
    "vcache.store_s";
    "vcache.bytes_read";
    "vcache.bytes_written";
    "vcache.hit_ratio";
    "emm.constraints_s";
    "emm.clauses";
    "emm.aux_vars";
    "emm.mem_distinct_s";
    "emm.distinct_clauses";
    "bmc.encode_self_s";
    "bmc.depth_self_s";
    "cnf.vars";
    "cnf.clauses";
    "bmc.solve_lfp_s";
    "bmc.solve_induction_s";
    "bmc.solve_falsify_s";
    "bmc.queries";
    "satsolver.conflicts";
    "satsolver.decisions";
    "satsolver.propagations";
    "satsolver.restarts";
    "satsolver.learnt";
    "satsolver.deleted";
    "satsolver.db_reductions";
    "satsolver.props_per_s";
    "cert.certify_s";
    "cert.proof_steps";
    "cert.drat_checked";
    "cert.trace_replayed";
    "serve.ack_ms";
    "serve.result_ms";
    "serve.worker_ms";
    "serve.overhead_ms";
    "runtime.alloc_mb";
    "runtime.major_gcs";
    "obs.trace_overhead_pct";
    "ledger.unattributed_s";
    "ops_failed_ratio";
  ]

let unit_of name =
  match name with
  | "peak_rss_mb" | "runtime.alloc_mb" -> "MB"
  | "vcache.bytes_read" | "vcache.bytes_written" -> "bytes"
  | "vcache.hit_ratio" | "ops_failed_ratio" -> "ratio"
  | "satsolver.props_per_s" -> "1/s"
  | "obs.trace_overhead_pct" -> "%"
  | n when String.ends_with ~suffix:"_ms" n -> "ms"
  | n when String.ends_with ~suffix:"_s" n -> "s"
  | _ -> "count"

(* Print every declared metric (a layer the workload does not exercise
   reads 0), then the result line, last. *)
let report ~names ~notes values =
  List.iter
    (fun (n, _) ->
      if not (List.mem n names) then failwith ("perfbench: undeclared metric " ^ n))
    values;
  let metrics =
    List.map
      (fun name ->
        {
          Stats.name;
          value = Option.value (List.assoc_opt name values) ~default:0.0;
          unit_ = unit_of name;
        })
      names
  in
  List.iter
    (fun m ->
      Printf.printf "%-26s %18.6f %-6s%s\n" m.Stats.name m.value m.unit_
        (match List.assoc_opt m.name notes with Some n -> "  " ^ n | None -> ""))
    metrics;
  print_endline
    (Stats.result_line ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics)

let report_end_to_end ~setup ~wall ~rss ~props =
  let tail = Stats.tail props in
  report ~names:end_to_end
    ~notes:
      [
        ("setup_s", snd setup);
        ("wall_s", snd wall);
        ("prop_p50_s", Printf.sprintf "%d samples" tail.Stats.samples);
        ("prop_tail_s", Printf.sprintf "p%d of %d samples" tail.percentile tail.samples);
      ]
    [
      ("setup_s", fst setup);
      ("wall_s", fst wall);
      ("peak_rss_mb", rss);
      ("prop_p50_s", Stats.median props);
      ("prop_tail_s", tail.value);
    ]

let report_per_layer ~build ~overhead_pct values =
  report ~names:per_layer ~notes:[]
    ([
       ("designs.build_s", Stats.median build);
       ("obs.trace_overhead_pct", overhead_pct);
       ("ops_failed_ratio", float_of_int !failed /. float_of_int (max 1 !attempted));
     ]
    @ values)

let print_walls what walls =
  Printf.printf "%s walls: %s\n" what
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))

let overhead_pct ~traced ~untraced = 100.0 *. ((traced /. untraced) -. 1.0)

(* {1 The traced ledger} *)

let layer_of (sp : Obs.span_info) =
  match sp.Obs.sp_name with
  | "verify" -> Some "emmver.verify_self_s"
  | "depth" -> Some "bmc.depth_self_s"
  | "encode" -> Some "bmc.encode_self_s"
  (* The library's own "emm" span sits inside the benchmark's on_unroll
     wrapper; both belong to the one EMM layer, so it is counted once. *)
  | "emm" | "bench.emm.constraints" -> Some "emm.constraints_s"
  | "bench.emm.mem_distinct" -> Some "emm.mem_distinct_s"
  | "solve" -> (
    match List.assoc_opt "query" sp.Obs.sp_attrs with
    | Some (Obs.Str q) -> Some ("bmc.solve_" ^ q ^ "_s")
    | _ -> Some "bmc.solve_falsify_s")
  | "certify" -> Some "cert.certify_s"
  | "cache.lookup" -> Some "vcache.lookup_s"
  | "cache.store" -> Some "vcache.store_s"
  | "bench.netlist.cone_signature" -> Some "netlist.cone_signature_s"
  | "bench.serve.request" -> Some "serve.request_self_s"
  | "bench.serve.ack" -> Some "serve.ack_s"
  | "bench.serve.result" -> Some "serve.result_s"
  | "bench.untraced_twin" -> Some "untraced_twin_s"
  | _ -> None

type traced = {
  recorder : Obs.t;
  wall : float;  (** benchmark clock around the traced operation *)
  alloc_mb : float;
  major_gcs : int;
}

(* Run [f] as one operation under a fresh recorder, inside a "bench.op"
   root span. *)
let traced_op what f =
  let recorder = Obs.create () in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  Obs.set_current (Some recorder);
  let wall =
    Fun.protect
      ~finally:(fun () -> Obs.set_current None)
      (fun () -> run_op what (fun () -> Obs.span "bench.op" f))
  in
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.major_words -. g.promoted_words in
  {
    recorder;
    wall;
    alloc_mb = (words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1e6;
    major_gcs = g1.major_collections - g0.major_collections;
  }

(* Write the Chrome trace, check the span forest and fold it into per-layer
   self times.  A forest that fails the checks is a failed operation.
   Returns the summed solver time and the ledger's metrics. *)
let ledger t =
  if !trace_dir <> "" then
    Obs.write_file ~format:Obs.Chrome
      (Filename.concat !trace_dir (!workload ^ ".trace.json"))
      t.recorder;
  let spans =
    match Obs.spans (Obs.rows t.recorder) with
    | Ok infos ->
      Array.of_list
        (List.map
           (fun (sp : Obs.span_info) ->
             {
               Ledger.name = sp.Obs.sp_name;
               layer = layer_of sp;
               start = sp.sp_start;
               stop = sp.sp_stop;
               parent = sp.sp_parent;
             })
           infos)
    | Error why ->
      fail "trace" why;
      [||]
  in
  Result.iter_error (fail "ledger") (Ledger.check_nesting spans);
  let twice = Ledger.double_counted spans in
  if Float.abs twice > 1e-6 then fail "ledger" (Printf.sprintf "%.9fs counted twice" twice);
  let layers = Ledger.by_layer spans in
  let solve_s =
    List.fold_left
      (fun acc q -> acc +. Ledger.layer_total layers ("bmc.solve_" ^ q ^ "_s"))
      0.0 [ "lfp"; "induction"; "falsify" ]
  in
  let queries =
    Array.fold_left (fun n s -> if s.Ledger.name = "solve" then n + 1 else n) 0 spans
  in
  let counter = Obs.counter_total t.recorder in
  ( solve_s,
    List.filter (fun (l, _) -> List.mem l per_layer) layers
    @ [
        ("ledger.unattributed_s", Ledger.unattributed ~wall:t.wall spans);
        ("bmc.queries", float_of_int queries);
        ("emm.clauses", counter "emm.clauses");
        ("vcache.bytes_read", counter "vcache.bytes_read");
        ("vcache.bytes_written", counter "vcache.bytes_written");
        ("runtime.alloc_mb", t.alloc_mb);
        ("runtime.major_gcs", float_of_int t.major_gcs);
      ] )

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

let solver_metrics ~solve_s (s : Satsolver.Solver.stats) =
  let f = float_of_int in
  [
    ("satsolver.conflicts", f s.Satsolver.Solver.conflicts);
    ("satsolver.decisions", f s.decisions);
    ("satsolver.propagations", f s.propagations);
    ("satsolver.restarts", f s.restarts);
    ("satsolver.learnt", f s.learnt_clauses);
    ("satsolver.deleted", f s.deleted_clauses);
    ("satsolver.db_reductions", f s.db_reductions);
    ("satsolver.props_per_s", if solve_s > 0.0 then f s.propagations /. solve_s else 0.0);
  ]

(* {1 Set-up} *)

(* A design builds in well under a millisecond; many builds steady the
   median. *)
let setup_reps = 101

(* Build the design [setup_reps] times: the last net and every duration. *)
let build_reps name =
  let build = (Designs.Registry.find name).Designs.Registry.build in
  let runs = List.init setup_reps (fun _ -> timed build) in
  (fst (List.nth runs (setup_reps - 1)), List.map snd runs)

(* A build's time swings by half between the host's quiet and busy moments,
   which come and go within milliseconds; a block of builds at start-up
   catches a quiet one in some runs only.  So the in-process workloads also
   build the design [builds_between] times before each operation, and
   report the best build over the whole run. *)
let builds_between = 20

let rebuild name samples =
  let build = (Designs.Registry.find name).Designs.Registry.build in
  for _ = 1 to builds_between do
    samples := snd (timed build) :: !samples
  done

let best_build samples =
  (List.fold_left Float.min infinity samples, Printf.sprintf "best of %d builds" (List.length samples))

(* {1 quicksort-solver: one property, a solver-bound search to depth 20} *)

let qs_design = "quicksort-n3"
let qs_property = "P1"
(* At depth 32 the property is proved by forward diameter, in 9-17 s on a
   shared 2-core host; depth 20 keeps the same incremental queries (LFP,
   induction, falsification at every depth) in about 2 s, so a run repeats
   the call about twenty times. *)
let qs_options = { Emmver.default_options with domains = 1; max_depth = 20 }

(* The engine configuration Emmver.verify derives from the same options for
   Emm_bmc: proof checks on, sequential solving, no deadline, no
   certification. *)
let qs_engine_config =
  {
    Bmc.Engine.default_config with
    max_depth = qs_options.Emmver.max_depth;
    certify = qs_options.certify;
    conflict_budget = qs_options.conflict_budget;
    learnt_mb_budget = qs_options.learnt_mb_budget;
  }

let verify_qs net () =
  let o = Emmver.verify ~options:qs_options ~method_:Emmver.Emm_bmc net ~property:qs_property in
  check ~property:qs_property
    (verdict_of_conclusion ~max_depth:qs_options.max_depth o.Emmver.conclusion)

(* The EMM hooks with each closure wrapped in a benchmark span. *)
let wrap_hooks (h : Bmc.Engine.hooks) =
  {
    h with
    Bmc.Engine.on_unroll =
      (fun unr k -> Obs.span "bench.emm.constraints" (fun () -> h.on_unroll unr k));
    mem_distinct =
      Option.map
        (fun f unr ~i ~j -> Obs.span "bench.emm.mem_distinct" (fun () -> f unr ~i ~j))
        h.mem_distinct;
  }

let run_quicksort () =
  let net, build = build_reps qs_design in
  if not !trace then begin
    let rss = ref [] and builds = ref build in
    let walls =
      repeat_within (fun () ->
          rebuild qs_design builds;
          let d, r = child_op qs_property (verify_qs net) in
          rss := r :: !rss;
          d)
    in
    print_walls "call" walls;
    (* The host's speed swings by tens of percent within seconds, so the
       call is timed at its best over the run's repetitions. *)
    let best = List.fold_left Float.min infinity walls in
    report_end_to_end ~setup:(best_build !builds)
      ~wall:(best, Printf.sprintf "best of %d calls" (List.length walls))
      ~rss:(Stats.median !rss) ~props:[ best ]
  end
  else begin
    (* The first run in a process grows the heap; the twin compared against
       the traced run is the second. *)
    ignore (run_op qs_property (verify_qs net));
    let untraced = run_op qs_property (verify_qs net) in
    let result = ref None in
    let t =
      traced_op qs_property (fun () ->
          ignore
            (Obs.span "bench.netlist.cone_signature" (fun () ->
                 Emmver.cache_key qs_options ~method_:Emmver.Emm_bmc net ~property:qs_property));
          let hooks, counts = Emm.hooks net in
          let r =
            Bmc.Engine.check ~config:qs_engine_config ~hooks:(wrap_hooks hooks) net
              ~property:qs_property
          in
          result := Some (r, counts ());
          (* The traced run must reach the untraced verdict, so that both
             runs measure the same program. *)
          check ~property:qs_property (verdict_of_engine net r.Bmc.Engine.verdict))
    in
    let solve_s, layer_values = ledger t in
    let engine_values =
      match !result with
      | None -> []
      | Some (r, (c : Emm.counts)) ->
        let s = r.Bmc.Engine.stats in
        [
          ("cnf.vars", float_of_int s.Bmc.Engine.num_vars);
          ("cnf.clauses", float_of_int s.num_clauses);
          ("emm.aux_vars", float_of_int c.Emm.aux_vars);
          ("emm.distinct_clauses", float_of_int c.distinct_clauses);
          ("cert.proof_steps", float_of_int s.proof_steps);
        ]
        @ solver_metrics ~solve_s s.solver_stats
    in
    report_per_layer ~build
      ~overhead_pct:(overhead_pct ~traced:t.wall ~untraced)
      (layer_values @ engine_values)
  end

(* {1 image-filter-certified: the Industry I batch, certified, cold store} *)

let filter_design = "image-filter"
let filter_depth = 20

let filter_options store =
  {
    Emmver.default_options with
    max_depth = filter_depth;
    certify = true;
    cache = true;
    cache_dir = Some store;
    domains = 1;
  }

(* An image-filter property's cache key (it depends on the method and the
   bound only), timed as the cone-signature layer. *)
let filter_key net property =
  Obs.span "bench.netlist.cone_signature" (fun () ->
      Emmver.cache_key
        { Emmver.default_options with max_depth = filter_depth }
        ~method_:Emmver.Emm_bmc net ~property)

(* Every property is solved fresh (a miss), recorded, and certified: DRAT
   for UNSAT-backed verdicts, trace replay for counterexamples. *)
let check_certified ~property (o : Emmver.outcome) =
  let* () = check ~property (verdict_of_conclusion ~max_depth:filter_depth o.conclusion) in
  let* () =
    match (o.Emmver.conclusion, o.certificate) with
    | Emmver.Falsified _, Cert.Certified Cert.Trace_replayed -> Ok ()
    | (Emmver.Proved _ | Emmver.Inconclusive _), Cert.Certified Cert.Drat_checked -> Ok ()
    | _, c -> Error ("certificate " ^ Cert.label c)
  in
  if o.cache = Emmver.Cache_miss then Ok () else Error "expected a cache miss"

(* One batch over a fresh store, each property through verify_many with one
   job (with certification on, verify_many dedups nothing, so this is the
   batch's own sequential loop, timed per property).  [before] runs ahead
   of each property inside its operation.  Returns the batch wall and each
   property's time. *)
let filter_batch ?(before = ignore) ?(on_outcome = ignore) net properties =
  let store = fresh_dir "store" in
  let options = filter_options store in
  let props, wall =
    timed (fun () ->
        List.map
          (fun property ->
            ( property,
              run_op property (fun () ->
                  before property;
                  match
                    Emmver.verify_many ~options ~jobs:1 ~method_:Emmver.Emm_bmc net
                      ~properties:[ property ]
                  with
                  | [ (_, o) ] ->
                    on_outcome o;
                    check_certified ~property o
                  | _ -> Error "verify_many returned no single outcome") ))
          properties)
  in
  rm_rf store;
  (wall, props)

let run_filter () =
  let rng = Random.State.make [| !seed |] in
  let properties = Oracle.properties !oracle ~workload:!workload in
  let net, build = build_reps filter_design in
  if not !trace then begin
    (* As for quicksort-solver, a property's time is its best over the
       run's batches; the batch wall is the sum of those bests. *)
    let best = Hashtbl.create 128 and builds = ref build in
    let walls =
      repeat_within (fun () ->
          rebuild filter_design builds;
          let wall, ps = filter_batch net (shuffle rng properties) in
          List.iter
            (fun (p, d) ->
              Hashtbl.replace best p
                (Float.min d (Option.value (Hashtbl.find_opt best p) ~default:infinity)))
            ps;
          wall)
    in
    let props = List.map (Hashtbl.find best) properties in
    print_walls "batch" walls;
    report_end_to_end ~setup:(best_build !builds)
      ~wall:
        ( List.fold_left ( +. ) 0.0 props,
          Printf.sprintf "sum of bests over %d batches" (List.length walls) )
      ~rss:(peak_rss_mb "self") ~props
  end
  else begin
    let untraced, _ = filter_batch net (shuffle rng properties) in
    let outcomes = ref [] in
    let order = shuffle rng properties in
    let t =
      traced_op "batch" (fun () ->
          ignore
            (filter_batch
               ~before:(fun property -> ignore (filter_key net property))
               ~on_outcome:(fun o -> outcomes := o :: !outcomes)
               net order);
          Ok ())
    in
    let solve_s, layer_values = ledger t in
    let sum f = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 !outcomes) in
    let emm f =
      sum (fun (o : Emmver.outcome) -> match o.emm_counts with Some c -> f c | None -> 0)
    in
    let certified k =
      sum (fun (o : Emmver.outcome) -> if o.certificate = Cert.Certified k then 1 else 0)
    in
    let solver =
      List.fold_left
        (fun (acc : Satsolver.Solver.stats) (o : Emmver.outcome) ->
          match o.solver_stats with
          | None -> acc
          | Some s ->
            {
              acc with
              conflicts = acc.conflicts + s.conflicts;
              decisions = acc.decisions + s.decisions;
              propagations = acc.propagations + s.propagations;
              restarts = acc.restarts + s.restarts;
              learnt_clauses = acc.learnt_clauses + s.learnt_clauses;
              deleted_clauses = acc.deleted_clauses + s.deleted_clauses;
              db_reductions = acc.db_reductions + s.db_reductions;
            })
        Satsolver.Solver.empty_stats !outcomes
    in
    let counter = Obs.counter_total t.recorder in
    report_per_layer ~build
      ~overhead_pct:(overhead_pct ~traced:t.wall ~untraced)
      (layer_values
      @ [
          ("vcache.hit_ratio", ratio (counter "vcache.hits") (counter "vcache.misses"));
          ("cnf.vars", sum (fun o -> o.Emmver.model_vars));
          ("cnf.clauses", sum (fun o -> o.Emmver.model_clauses));
          ("emm.aux_vars", emm (fun c -> c.Emm.aux_vars));
          ("emm.distinct_clauses", emm (fun c -> c.Emm.distinct_clauses));
          ("cert.proof_steps", sum (fun o -> o.Emmver.proof_steps));
          ("cert.drat_checked", certified Cert.Drat_checked);
          ("cert.trace_replayed", certified Cert.Trace_replayed);
        ]
      @ solver_metrics ~solve_s solver)
  end

(* {1 serve-warm: a journalled daemon answering from its warm store} *)

(* The image-filter properties expected.txt lists for this workload. *)
let serve_subset () = Oracle.properties !oracle ~workload:!workload

let reply_timeout_s = 60.0

type daemon = { pid : int; dir : string; client : Serve.Client.t }

let main_pid = Unix.getpid ()
let live_daemons = ref []

let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_daemons := List.filter (( <> ) pid) !live_daemons

(* A daemon on a private socket, store and journal: one worker, the journal
   on as the CLI has it by default. *)
let start_daemon () =
  let dir = fresh_dir "serve" in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    Serve.Server.config ~workers:1
      ~cache_dir:(Some (Filename.concat dir "store"))
      ~quiet:true ~journal:(Filename.concat dir "d.journal") ~socket ()
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Serve.Server.run cfg with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> (
    live_daemons := pid :: !live_daemons;
    let deadline = now () +. 10.0 in
    let rec connect () =
      match
        if Sys.file_exists socket then Serve.Client.connect ~client:"perfbench" socket
        else Error "no socket yet"
      with
      | Ok client -> { pid; dir; client }
      | Error e when now () > deadline -> failwith ("daemon unreachable: " ^ e)
      | Error _ ->
        Unix.sleepf 0.005;
        connect ()
    in
    try connect ()
    with e ->
      stop_pid pid;
      raise e)

let stop_daemon d =
  Serve.Client.close d.client;
  stop_pid d.pid;
  rm_rf d.dir

type exchange = { line : Serve.Proto.result_line; ack_s : float; result_s : float }

let request_id = ref 0

(* One closed-loop request: submit, await [accepted] (ack) and the result
   line (result), then acknowledge the result so the journal may drop it. *)
let exchange d property =
  incr request_id;
  let c = d.client in
  let expect what = function
    | Ok r -> Error (what ^ ": unexpected " ^ Serve.Proto.reply_to_string r)
    | Error e -> Error (what ^ ": " ^ e)
  in
  Obs.span "bench.serve.request" (fun () ->
      let t0 = now () in
      let* job =
        Obs.span "bench.serve.ack" (fun () ->
            match
              Serve.Client.request ~timeout_s:reply_timeout_s c
                (Serve.Proto.Submit
                   {
                     Serve.Proto.s_id = Printf.sprintf "r%d" !request_id;
                     s_design = filter_design;
                     s_property = Some property;
                     s_method = "emm";
                     s_max_depth = Some filter_depth;
                     s_timeout_s = None;
                     s_cache = Some true;
                   })
            with
            | Ok (Serve.Proto.Accepted { jobs = [ (job, _) ]; _ }) -> Ok job
            | r -> expect "submit" r)
      in
      let t1 = now () in
      let* line =
        Obs.span "bench.serve.result" (fun () ->
            match Serve.Client.read_reply ~timeout_s:reply_timeout_s c with
            | Ok (Serve.Proto.Result r) -> Ok r
            | r -> expect "result" r)
      in
      let t2 = now () in
      let* () =
        match Serve.Client.request ~timeout_s:reply_timeout_s c (Serve.Proto.Ack job) with
        | Ok (Serve.Proto.Acked _) -> Ok ()
        | r -> expect "ack" r
      in
      Ok { line; ack_s = t1 -. t0; result_s = t2 -. t1 })

(* A request as one operation: the verdict must be the expected one (so a
   warm reply matches its cold verdict) and the cache must answer as
   [cache] says. *)
let request_op d ~cache property =
  let ex = ref None in
  ignore
    (run_op property (fun () ->
         let* e = exchange d property in
         let* () = check ~property (verdict_of_line ~max_depth:filter_depth e.line) in
         if e.line.Serve.Proto.r_cache <> cache then
           Error (Printf.sprintf "cache %s, expected %s" e.line.r_cache cache)
         else begin
           ex := Some e;
           Ok ()
         end));
  !ex

(* Set-up: a daemon on a fresh store and socket, cold-filled with the
   subset. *)
let serve_setup rng =
  timed (fun () ->
      let d = start_daemon () in
      List.iter (fun p -> ignore (request_op d ~cache:"miss" p)) (shuffle rng (serve_subset ()));
      d)

let warm_pass d rng =
  let exs, wall =
    timed (fun () ->
        List.filter_map (fun p -> request_op d ~cache:"hit" p) (shuffle rng (serve_subset ())))
  in
  (wall, exs)

let round_trip e = e.ack_s +. e.result_s

let daemon_metrics d =
  match Serve.Client.request ~timeout_s:reply_timeout_s d.client Serve.Proto.Metrics with
  | Ok (Serve.Proto.Metrics_reply m) -> m
  | Ok r -> failwith ("metrics: unexpected " ^ Serve.Proto.reply_to_string r)
  | Error e -> failwith ("metrics: " ^ e)

let serve_setups = 3
let traced_passes = 20
let rss_passes = 100

let run_serve () =
  let rng = Random.State.make [| !seed |] in
  (* Set up several times for a steady median; keep the last daemon.  The
     daemons fork before this process builds anything of its own. *)
  let setups = List.init serve_setups (fun _ -> serve_setup rng) in
  List.iteri (fun i (d, _) -> if i < serve_setups - 1 then stop_daemon d) setups;
  let d = fst (List.nth setups (serve_setups - 1)) in
  let setup = List.map snd setups in
  let net, build = build_reps filter_design in
  Fun.protect
    ~finally:(fun () -> if List.mem d.pid !live_daemons then stop_daemon d)
    (fun () ->
      if not !trace then begin
        (* The daemon's footprint grows with the requests it has served, so
           its peak is read after a fixed number of passes, not after as
           many as the run happens to fit. *)
        let exs = ref [] and passes = ref 0 and rss = ref None in
        let daemon_rss () = peak_rss_mb (string_of_int d.pid) in
        let walls =
          repeat_within (fun () ->
              let wall, e = warm_pass d rng in
              exs := e @ !exs;
              incr passes;
              if !passes = rss_passes then rss := Some (daemon_rss ());
              wall)
        in
        let rss = match !rss with Some r -> r | None -> daemon_rss () in
        stop_daemon d;
        report_end_to_end
          ~setup:(Stats.median setup, Printf.sprintf "median of %d set-ups" serve_setups)
          ~wall:(Stats.median walls, Printf.sprintf "median of %d passes" (List.length walls))
          ~rss ~props:(List.map round_trip !exs)
      end
      else begin
        (* The first warm pass creates the store's hit sidecars. *)
        ignore (warm_pass d rng);
        let m0 = daemon_metrics d in
        let walls = ref [] and untraced = ref [] and exs = ref [] in
        let store = Vcache.config ~dir:(Filename.concat d.dir "store") () in
        (* Passes take milliseconds, far less than the host's drift, so each
           traced pass has an untraced twin right before it: the recorder is
           switched off inside a span of the twin's own. *)
        let untraced_pass () =
          Obs.span "bench.untraced_twin" (fun () ->
              let r = Obs.current () in
              Obs.set_current None;
              Fun.protect
                ~finally:(fun () -> Obs.set_current r)
                (fun () -> fst (warm_pass d rng)))
        in
        let t =
          traced_op "warm" (fun () ->
              for _ = 1 to traced_passes do
                untraced := untraced_pass () :: !untraced;
                let wall, e = warm_pass d rng in
                walls := wall :: !walls;
                exs := e @ !exs
              done;
              (* The vcache read path, in this process, over the daemon's
                 store. *)
              List.fold_left
                (fun acc property ->
                  let* () = acc in
                  match filter_key net property with
                  | Some key when Vcache.load store key <> None -> Ok ()
                  | _ -> Error ("no stored entry for " ^ property))
                (Ok ()) (serve_subset ()))
        in
        let m1 = daemon_metrics d in
        let _, layer_values = ledger t in
        let emm_jobs (m : Serve.Proto.metrics_line) =
          match List.find_opt (fun (n, _, _) -> n = "emm") m.m_methods with
          | Some (_, jobs, wall) -> (float_of_int jobs, wall)
          | None -> (0.0, 0.0)
        in
        let jobs0, wall0 = emm_jobs m0 and jobs1, wall1 = emm_jobs m1 in
        let worker_ms = 1000.0 *. (wall1 -. wall0) /. Float.max 1.0 (jobs1 -. jobs0) in
        let ms f = 1000.0 *. Stats.median (List.map f !exs) in
        report_per_layer ~build
          ~overhead_pct:
            (overhead_pct ~traced:(Stats.median !walls) ~untraced:(Stats.median !untraced))
          (layer_values
          @ [
              ( "vcache.hit_ratio",
                ratio
                  (float_of_int (m1.m_cache_hits - m0.m_cache_hits))
                  (float_of_int (m1.m_cache_misses - m0.m_cache_misses)) );
              ("serve.ack_ms", ms (fun e -> e.ack_s));
              ("serve.result_ms", ms (fun e -> e.result_s));
              ("serve.worker_ms", worker_ms);
              ( "serve.overhead_ms",
                (1000.0 *. Stats.mean (List.map round_trip !exs)) -. worker_ms );
            ])
      end)

let () =
  parse_args ();
  at_exit (fun () -> if Unix.getpid () = main_pid then List.iter stop_pid !live_daemons);
  (match Oracle.parse (In_channel.with_open_bin !expected_file In_channel.input_all) with
  | Ok t -> oracle := t
  | Error why ->
    prerr_endline ("perfbench: " ^ why);
    exit 2);
  match !workload with
  | "quicksort-solver" -> run_quicksort ()
  | "image-filter-certified" -> run_filter ()
  | "serve-warm" -> run_serve ()
  | w ->
    Printf.eprintf "perfbench: unknown workload %S\n" w;
    exit 2
