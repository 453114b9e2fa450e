(* emmver — command-line front end of the verification platform. *)

open Cmdliner

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-20s %s@." e.Designs.Registry.name e.Designs.Registry.description)
      (Designs.Registry.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in designs") Term.(const run $ const ())

let design_arg =
  let doc =
    "Design name (see $(b,emmver list)), or a path to an .emn netlist file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let load_design name =
  match Serve.load_design name with
  | Ok net -> net
  | Error msg ->
    Format.eprintf "%s@." msg;
    exit 2

let props_cmd =
  let run design =
    let net = load_design design in
    List.iter (fun (name, _) -> print_endline name) (Netlist.properties net)
  in
  Cmd.v
    (Cmd.info "props" ~doc:"List the safety properties of a design")
    Term.(const run $ design_arg)

let stats_cmd =
  let run design =
    let net = load_design design in
    Format.printf "netlist: %a@." Netlist.pp_stats (Netlist.stats net);
    let expanded = Explicitmem.expand net in
    Format.printf "explicit model: %a@." Netlist.pp_stats (Netlist.stats expanded);
    List.iter
      (fun m ->
        Format.printf "memory %s: AW=%d DW=%d, %d write / %d read ports@."
          (Netlist.memory_name m) (Netlist.memory_addr_width m)
          (Netlist.memory_data_width m) (Netlist.num_write_ports m)
          (Netlist.num_read_ports m))
      (Netlist.memories net)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show model sizes for a design (EMM vs explicit)")
    Term.(const run $ design_arg)

let method_arg =
  let doc =
    "Verification method: emm (BMC-3), emm-falsify (BMC-2), emm-pba, explicit \
     (BMC-1 on the expanded model), explicit-pba, abstract (memories removed), bdd."
  in
  Arg.(value & opt string "emm" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let property_arg =
  let doc = "Property to check; defaults to every property of the design." in
  Arg.(value & opt (some string) None & info [ "p"; "property" ] ~docv:"PROP" ~doc)

let depth_arg =
  let doc = "Maximum BMC depth." in
  Arg.(value & opt int 100 & info [ "k"; "max-depth" ] ~docv:"DEPTH" ~doc)

let timeout_arg =
  let doc = "Wall-clock timeout in seconds per property." in
  Arg.(value & opt (some float) None & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc)

let show_trace_arg =
  let doc = "Print the counterexample trace when a property is falsified." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let vcd_arg =
  let doc = "Write the counterexample as a VCD waveform to this file." in
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Verify properties in parallel over this many forked worker processes \
     (1 = sequential, in-process). Results are reported in property order \
     and verdicts do not depend on the job count; a worker that crashes or \
     overruns its deadline only loses its own property."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Race every SAT query over this many diversified in-process CDCL \
     instances (OCaml domains) that exchange learnt glue clauses \
     (1 = sequential solving). Verdicts do not depend on the domain count."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let no_share_arg =
  let doc =
    "With $(b,--domains N), disable learnt-clause exchange between the \
     racing instances (pure diversified racing)."
  in
  Arg.(value & flag & info [ "no-share" ] ~doc)

let certify_arg =
  let doc =
    "Certify every verdict: DRAT-check the solver refutations behind proofs \
     and bounded-safe answers, replay counterexamples on the concrete design. \
     Prints one certificate line per property (drat-checked, trace-replayed, \
     refuted or unchecked)."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let proof_dir_arg =
  let doc = "With $(b,--certify), dump each run's DRAT derivation under this directory." in
  Arg.(value & opt (some string) None & info [ "proof-dir" ] ~docv:"DIR" ~doc)

let conflict_budget_arg =
  let doc =
    "Conflicts allowed per SAT query before the run gives up (exit code 4)."
  in
  Arg.(value & opt (some int) None & info [ "conflict-budget" ] ~docv:"N" ~doc)

let learnt_mb_arg =
  let doc = "Learnt-clause database ceiling in MB, same failure mode." in
  Arg.(value & opt (some float) None & info [ "learnt-mb" ] ~docv:"MB" ~doc)

let trace_out_arg =
  let doc =
    "Write a structured trace of the run (spans per unroll depth with \
     encode/solve/certify children, solver counters, merged worker spans \
     under $(b,-j N)) to this file: Chrome trace_event JSON loadable in \
     Perfetto, or JSON-lines if the file ends in .jsonl. The \
     $(b,EMMVER_TRACE) environment variable is an equivalent default."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let cache_flag_arg =
  let doc =
    "Consult and populate the persistent verification-result cache: verdicts \
     are keyed by the property's canonical cone structure plus the \
     verdict-relevant options, counterexample hits are replayed before being \
     believed, and with $(b,--certify) proof hits are only served after their \
     stored DRAT evidence passes the independent checker again."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let no_cache_arg =
  let doc = "Force the result cache off (overrides $(b,--cache) and $(b,--cache-dir))." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_dir_arg =
  let doc =
    "Result-cache directory (implies $(b,--cache)). Default: \
     $(b,\\$EMMVER_CACHE_DIR), else $(b,\\$XDG_CACHE_HOME/emmver), else \
     $(b,~/.cache/emmver)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* [--cache-dir] implies [--cache]; [--no-cache] beats both (so scripts can
   export a blanket alias and still switch caching off per run). *)
let cache_options ?(default = false) ~cache ~no_cache ~cache_dir options =
  { options with Emmver.cache = (default || cache || cache_dir <> None) && not no_cache;
    cache_dir }

let fallback_arg =
  let doc =
    "Comma-separated engine fallback chain (e.g. emm,explicit,bdd): run each \
     property's engines one at a time, retrying a killed worker once and \
     degrading to the next engine when one fails or exhausts its budgets."
  in
  Arg.(value & opt (some string) None & info [ "fallback" ] ~docv:"M1,M2,..." ~doc)

let parse_method name =
  match Emmver.method_of_string (String.trim name) with
  | Ok m -> m
  | Error msg ->
    Format.eprintf "%s@." msg;
    exit 2

let parse_methods s = List.map parse_method (String.split_on_char ',' s)

(* The properties [-p] names (all of the design's without it); an unknown
   name is a usage error, reported before anything forks. *)
let select_properties design net property =
  match Emmver.select_properties net ~design ~property with
  | Ok props -> props
  | Error msg ->
    (match Netlist.properties net with
    | [] -> Format.eprintf "%s@." msg
    | ps ->
      Format.eprintf "%s; its properties: %s@." msg
        (String.concat ", " (List.map fst ps)));
    exit 2

(* Exit codes: 0 = every property proved (or honestly inconclusive with no
   error), 1 = genuine falsification, 2 = usage, 4 = a budget ran out,
   5 = an infrastructure error (dead worker, encode error, refuted
   certificate).  Falsification dominates errors; a non-budget error
   dominates a mere exhausted budget. *)
let rank_of_outcome (o : Emmver.outcome) =
  match (o.Emmver.conclusion, o.Emmver.error) with
  | Emmver.Falsified { genuine = Some false; _ }, _ -> 0
  | Emmver.Falsified _, _ -> 3
  | _, Some (Policy.Budget_exhausted _) -> 1
  | _, Some _ -> 2
  | _, None -> 0

let exit_of_rank = function 3 -> 1 | 2 -> 5 | 1 -> 4 | _ -> 0

(* [pp_outcome] already reports checked certificates; by default this only
   covers the unchecked case so --certify runs always show exactly one
   certificate line. *)
let print_certificate ?(always = false) outcome =
  let cert = outcome.Emmver.certificate in
  let unchecked = match cert with Cert.Unchecked _ -> true | _ -> false in
  if always || unchecked then
    Format.printf "  certificate: %s@." (Cert.label cert)

let verify_cmd =
  let run design method_name property max_depth timeout_s show_trace vcd jobs certify
      proof_dir conflict_budget learnt_mb_budget fallback trace_out domains no_share
      cache no_cache cache_dir =
    (* The verdict rank is computed inside [run_with_trace] and [exit]
       happens after it, so the trace file is written on every path. *)
    let rank =
      Obs.run_with_trace ?out:trace_out ~label:"run" @@ fun () ->
    let net = load_design design in
    let method_ = parse_method method_name in
    let options =
      {
        Emmver.default_options with
        max_depth;
        timeout_s;
        certify;
        proof_dir;
        conflict_budget;
        learnt_mb_budget;
        domains;
        share_clauses = not no_share;
      }
      |> cache_options ~cache ~no_cache ~cache_dir
    in
    let fallback = Option.map parse_methods fallback in
    let props = select_properties design net property in
    let worst = ref 0 in
    List.iter
      (fun (prop, outcome) ->
        Format.printf "@[<v 2>%s [%s]:@,%a@]@." prop
          (Emmver.method_to_string method_)
          Emmver.pp_outcome outcome;
        if certify then print_certificate outcome;
        (match outcome.Emmver.emm_counts with
        | Some c -> Format.printf "  EMM constraints: %a@." Emm.pp_counts c
        | None -> ());
        (match outcome.Emmver.abstraction with
        | Some a -> Format.printf "  %a@." (Pba.pp_abstraction net) a
        | None -> ());
        worst := max !worst (rank_of_outcome outcome);
        match outcome.Emmver.conclusion with
        | Emmver.Falsified { trace = Some t; _ } ->
          if show_trace then Format.printf "%a@." Bmc.Trace.pp t;
          (match vcd with
          | Some path ->
            Bmc.Vcd.write_file net t path;
            Format.printf "  waveform written to %s@." path
          | None -> ())
        | Emmver.Falsified _ | Emmver.Proved _ | Emmver.Inconclusive _ -> ())
      (Emmver.verify_many ~options ~jobs ?fallback ~method_ net ~properties:props);
    !worst
    in
    exit (exit_of_rank rank)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify safety properties of a design")
    Term.(
      const run $ design_arg $ method_arg $ property_arg $ depth_arg $ timeout_arg
      $ show_trace_arg $ vcd_arg $ jobs_arg $ certify_arg $ proof_dir_arg
      $ conflict_budget_arg $ learnt_mb_arg $ fallback_arg $ trace_out_arg
      $ domains_arg $ no_share_arg $ cache_flag_arg $ no_cache_arg $ cache_dir_arg)

let portfolio_cmd =
  let methods_arg =
    let doc =
      "Comma-separated engines to race (default: emm,explicit,bdd). See \
       $(b,--method) of $(b,emmver verify) for the names."
    in
    Arg.(value & opt (some string) None & info [ "methods" ] ~docv:"M1,M2,..." ~doc)
  in
  let run design property max_depth timeout_s methods certify trace_out domains
      no_share cache no_cache cache_dir =
    let rank =
      Obs.run_with_trace ?out:trace_out ~label:"portfolio" @@ fun () ->
    let net = load_design design in
    let methods =
      match methods with
      | None -> Emmver.default_portfolio
      | Some s -> parse_methods s
    in
    (* [--domains N] composes with the fork race: each forked engine worker
       runs its SAT queries over an in-process Domain portfolio of N
       diversified instances.  The fork pool stays the crash-isolation
       layer; the domains share clauses inside one worker's address
       space. *)
    let options =
      {
        Emmver.default_options with
        max_depth;
        timeout_s;
        certify;
        domains;
        share_clauses = not no_share;
      }
      |> cache_options ~cache ~no_cache ~cache_dir
    in
    let props = select_properties design net property in
    let worst = ref 0 in
    List.iter
      (fun prop ->
        let (winner, outcome), all =
          Emmver.portfolio ~options ~methods net ~property:prop
        in
        Format.printf "@[<v 2>%s: %a [won by %s, %.2fs]@]@." prop
          Emmver.pp_conclusion outcome.Emmver.conclusion
          (Emmver.method_to_string winner)
          outcome.Emmver.time_s;
        if certify then print_certificate ~always:true outcome;
        List.iter
          (fun (m, o) ->
            Format.printf "  %-12s %a@."
              (Emmver.method_to_string m)
              Emmver.pp_conclusion o.Emmver.conclusion)
          all;
        worst := max !worst (rank_of_outcome outcome))
      props;
    !worst
    in
    exit (exit_of_rank rank)
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:
         "Race several engines on each property in parallel forked workers; \
          the first conclusive verdict wins and the losers are killed")
    Term.(
      const run $ design_arg $ property_arg $ depth_arg $ timeout_arg $ methods_arg
      $ certify_arg $ trace_out_arg $ domains_arg $ no_share_arg $ cache_flag_arg
      $ no_cache_arg $ cache_dir_arg)

let cache_cmd =
  let action_arg =
    let doc = "$(b,stats) (default), $(b,clear), or $(b,gc) (evict oldest entries down to $(b,--max-mb))." in
    Arg.(
      value
      & pos 0 (enum [ ("stats", `Stats); ("clear", `Clear); ("gc", `Gc) ]) `Stats
      & info [] ~docv:"ACTION" ~doc)
  in
  let max_mb_arg =
    let doc = "Size budget for $(b,gc), in MB." in
    Arg.(value & opt int 512 & info [ "max-mb" ] ~docv:"MB" ~doc)
  in
  let max_age_h_arg =
    let doc =
      "With $(b,gc), also evict entries not used (loaded) for this many hours."
    in
    Arg.(value & opt (some float) None & info [ "max-age-h" ] ~docv:"HOURS" ~doc)
  in
  let run action cache_dir max_mb max_age_h =
    let cfg = Vcache.config ?dir:cache_dir () in
    match action with
    | `Stats ->
      let s = Vcache.stats cfg in
      Format.printf "store: %s@." cfg.Vcache.dir;
      Format.printf "entries: %d (%.2f MB)@." s.Vcache.entries
        (float_of_int s.Vcache.bytes /. 1048576.0);
      Format.printf "  proved: %d, falsified: %d, bounded: %d@." s.Vcache.proved
        s.Vcache.falsified s.Vcache.bounded;
      Format.printf "  carrying evidence payloads: %d@." s.Vcache.with_payload
    | `Clear ->
      let n = Vcache.clear cfg in
      Format.printf "deleted %d entries from %s@." n cfg.Vcache.dir
    | `Gc ->
      (* Say which directory was resolved and be honest when there is
         nothing to collect — a typo'd --cache-dir used to "succeed". *)
      if not (Sys.file_exists cfg.Vcache.dir) then begin
        Format.printf "gc %s: store directory does not exist, nothing to collect@."
          cfg.Vcache.dir;
        exit 0
      end;
      let policy =
        Vcache.gc_policy ~max_bytes:(max_mb * 1048576)
          ?max_age_s:(Option.map (fun h -> h *. 3600.0) max_age_h)
          ()
      in
      let r = Vcache.maintain cfg policy in
      if r.Vcache.evicted_age + r.Vcache.evicted_size + r.Vcache.kept = 0 then
        Format.printf "gc %s: store is empty, nothing to collect@." cfg.Vcache.dir
      else
        Format.printf
          "gc %s: evicted %d entries (%d by age, %d by size of which %d \
           never-hit), kept %d (%.2f MB, budget %d MB)@."
          cfg.Vcache.dir
          (r.Vcache.evicted_age + r.Vcache.evicted_size)
          r.Vcache.evicted_age r.Vcache.evicted_size r.Vcache.evicted_cold
          r.Vcache.kept
          (float_of_int r.Vcache.kept_bytes /. 1048576.0)
          max_mb
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Administer the persistent verification-result cache")
    Term.(const run $ action_arg $ cache_dir_arg $ max_mb_arg $ max_age_h_arg)

let diff_verify_cmd =
  let old_design_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"The previously verified design (name or .emn/.aag path).")
  in
  let new_design_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"The edited design to re-verify.")
  in
  let run old_design new_design method_name max_depth timeout_s jobs trace_out no_cache
      cache_dir =
    let rank =
      Obs.run_with_trace ?out:trace_out ~label:"diff-verify" @@ fun () ->
    let before = load_design old_design in
    let net = load_design new_design in
    let method_ = parse_method method_name in
    (* Incremental re-verification is the cache's flagship use, so the cache
       defaults ON here; [--no-cache] still degrades it to a plain full
       re-run with change annotations. *)
    let options =
      { Emmver.default_options with max_depth; timeout_s }
      |> cache_options ~default:true ~cache:false ~no_cache ~cache_dir
    in
    let props = List.map fst (Netlist.properties net) in
    let worst = ref 0 in
    let unchanged = ref 0 and hits = ref 0 in
    List.iter
      (fun (prop, status, outcome) ->
        (if status = Emmver.Delta_unchanged then incr unchanged);
        (if outcome.Emmver.cache = Emmver.Cache_hit then incr hits);
        Format.printf "@[<v 2>%s [%s, %s%s]:@,%a@]@." prop
          (Emmver.method_to_string method_)
          (Emmver.delta_status_to_string status)
          (match outcome.Emmver.cache with
          | Emmver.Cache_hit -> ", cache hit"
          | Emmver.Cache_dedup -> ", deduplicated"
          | Emmver.Cache_miss -> ", re-verified"
          | Emmver.Cache_off -> "")
          Emmver.pp_conclusion outcome.Emmver.conclusion;
        worst := max !worst (rank_of_outcome outcome))
      (Emmver.verify_delta ~options ~jobs ~method_ ~before net ~properties:props);
    Format.printf "%d properties: %d unchanged cones, %d served from cache@."
      (List.length props) !unchanged !hits;
    !worst
    in
    exit (exit_of_rank rank)
  in
  Cmd.v
    (Cmd.info "diff-verify"
       ~doc:
         "Re-verify an edited design incrementally: classify each property's \
          verification cone as unchanged/changed/added against the old \
          design, then let the result cache serve every unchanged cone so \
          only the edit's blast radius reaches a solver")
    Term.(
      const run $ old_design_arg $ new_design_arg $ method_arg $ depth_arg $ timeout_arg
      $ jobs_arg $ trace_out_arg $ no_cache_arg $ cache_dir_arg)

let save_cmd =
  let file_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output path: .emn (native) or .aag (AIGER, memory-free)")
  in
  let run design file =
    let net = load_design design in
    if Filename.check_suffix file ".aag" then
      (* AIGER has no memory modules: expand first if needed. *)
      let net = if Netlist.memories net = [] then net else Explicitmem.expand net in
      Aiger.save net file
    else Netio.save net file;
    Format.printf "wrote %s@." file
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Serialize a design to an .emn netlist or .aag AIGER file")
    Term.(const run $ design_arg $ file_arg)

let races_cmd =
  let run design max_depth =
    let net = load_design design in
    match Emm.find_data_race ~max_depth net with
    | Some race ->
      Format.printf "data race on memory %s at depth %d between write ports %d and %d@."
        race.Emm.race_memory race.Emm.race_depth (fst race.Emm.race_ports)
        (snd race.Emm.race_ports);
      Format.printf "%a@." Bmc.Trace.pp race.Emm.race_trace;
      exit 1
    | None ->
      Format.printf "no data race reachable within depth %d@." max_depth
  in
  Cmd.v
    (Cmd.info "races" ~doc:"Search for write-write data races on multi-port memories")
    Term.(const run $ design_arg $ depth_arg)

let solve_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cnf" ~doc:"DIMACS CNF file")
  in
  let run file =
    let problem = Satsolver.Dimacs.parse_file file in
    let solver = Satsolver.Solver.create ~cores:true () in
    Satsolver.Dimacs.load_into solver problem;
    (match Satsolver.Solver.solve solver with
    | Satsolver.Solver.Sat ->
      print_endline "s SATISFIABLE";
      let buf = Buffer.create 256 in
      Buffer.add_string buf "v ";
      for v = 0 to problem.Satsolver.Dimacs.num_vars - 1 do
        if not (Satsolver.Solver.value_var solver v) then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int (v + 1));
        Buffer.add_char buf ' '
      done;
      Buffer.add_string buf "0";
      print_endline (Buffer.contents buf)
    | Satsolver.Solver.Unsat ->
      print_endline "s UNSATISFIABLE";
      Format.printf "c core: %d of %d clauses@."
        (List.length (Satsolver.Solver.unsat_core solver))
        (List.length problem.Satsolver.Dimacs.clauses));
    Format.printf "c %a@." Satsolver.Solver.pp_stats solver
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run the built-in CDCL solver on a DIMACS file")
    Term.(const run $ file_arg)

let socket_arg =
  let doc =
    "Unix-domain socket path of the daemon. Default: $(b,\\$EMMVER_SOCKET), \
     else /tmp/emmver-<uid>.sock."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let workers_arg =
    let doc = "Concurrent forked job workers. Default: the machine's core count." in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc = "Queued-job bound; beyond it submissions get an immediate $(b,busy) reply." in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let gc_max_mb_arg =
    let doc = "Cache size watermark in MB: the server loop evicts LRU entries down to it." in
    Arg.(value & opt (some int) None & info [ "gc-max-mb" ] ~docv:"MB" ~doc)
  in
  let gc_max_age_h_arg =
    let doc = "Cache age watermark in hours: entries not used for this long are evicted." in
    Arg.(value & opt (some float) None & info [ "gc-max-age-h" ] ~docv:"HOURS" ~doc)
  in
  let gc_interval_arg =
    let doc = "Seconds between cache-maintenance sweeps." in
    Arg.(value & opt float 60.0 & info [ "gc-interval" ] ~docv:"SECONDS" ~doc)
  in
  let budget_wall_arg =
    let doc = "Per-job wall-clock ceiling in seconds; submissions are clamped to it." in
    Arg.(value & opt (some float) None & info [ "budget-wall" ] ~docv:"SECONDS" ~doc)
  in
  let budget_depth_arg =
    let doc = "Per-job BMC depth ceiling; submissions are clamped to it." in
    Arg.(value & opt (some int) None & info [ "budget-depth" ] ~docv:"DEPTH" ~doc)
  in
  let budget_conflicts_arg =
    let doc = "Conflict budget forced onto every job's SAT queries." in
    Arg.(value & opt (some int) None & info [ "budget-conflicts" ] ~docv:"N" ~doc)
  in
  let budget_learnt_mb_arg =
    let doc = "Learnt-clause ceiling in MB forced onto every job." in
    Arg.(value & opt (some float) None & info [ "budget-learnt-mb" ] ~docv:"MB" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the per-event log lines on stdout." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let journal_arg =
    let doc =
      "Write-ahead job journal path. Accepted jobs and undelivered results \
       survive a daemon crash or restart. Default: $(i,SOCKET).journal."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH" ~doc)
  in
  let no_journal_arg =
    let doc =
      "Disable the job journal: a restart forgets the queue and client \
       disconnects cancel their jobs (the pre-v2 behavior)."
    in
    Arg.(value & flag & info [ "no-journal" ] ~doc)
  in
  let run socket workers max_queue no_cache cache_dir gc_max_mb gc_max_age_h
      gc_interval budget_wall budget_depth budget_conflicts budget_learnt_mb
      quiet journal no_journal =
    let socket = match socket with Some s -> s | None -> Serve.default_socket () in
    let journal =
      if no_journal then None
      else Some (match journal with Some p -> p | None -> socket ^ ".journal")
    in
    let cache_dir =
      if no_cache then Some None else Option.map Option.some cache_dir
    in
    let gc_policy =
      Vcache.gc_policy
        ?max_bytes:(Option.map (fun mb -> mb * 1048576) gc_max_mb)
        ?max_age_s:(Option.map (fun h -> h *. 3600.0) gc_max_age_h)
        ()
    in
    let budgets =
      {
        Policy.wall_s = budget_wall;
        conflicts = budget_conflicts;
        learnt_mb = budget_learnt_mb;
        max_depth = budget_depth;
      }
    in
    let cfg =
      Serve.Server.config ?workers ~max_queue ?cache_dir ~gc_policy
        ~gc_interval_s:gc_interval ~budgets ~quiet ?journal ~socket ()
    in
    match Serve.Server.run cfg with
    | () -> ()
    | exception Failure msg ->
      Format.eprintf "%s@." msg;
      exit 5
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: a long-lived process on a Unix-domain \
          socket that serves $(b,emmver client) submissions from a bounded \
          fair queue of forked workers, keeps the result cache warm and \
          self-maintained, and drains gracefully on SIGTERM (in-flight jobs \
          finish, queued jobs get shutdown replies). A write-ahead journal \
          (on by default) makes accepted jobs and undelivered results \
          survive crashes: a restarted daemon replays it and reconnecting \
          clients $(b,resume) their results")
    Term.(
      const run $ socket_arg $ workers_arg $ max_queue_arg $ no_cache_arg
      $ cache_dir_arg $ gc_max_mb_arg $ gc_max_age_h_arg $ gc_interval_arg
      $ budget_wall_arg $ budget_depth_arg $ budget_conflicts_arg
      $ budget_learnt_mb_arg $ quiet_arg $ journal_arg $ no_journal_arg)

(* The client cannot see the server-side [Policy.error]; it ranks from the
   wire fields instead: a genuine falsification beats everything, a killed
   worker is an infrastructure error, any other inconclusive is honest. *)
let rank_of_result (r : Serve.Proto.result_line) =
  match (r.Serve.Proto.r_verdict, r.Serve.Proto.r_genuine, r.Serve.Proto.r_reason) with
  | "falsified", Some false, _ -> 0
  | "falsified", _, _ -> 3
  | _, _, Some why when String.length why >= 13 && String.sub why 0 13 = "worker killed" -> 2
  | _ -> 0

let client_cmd =
  let action_arg =
    let doc =
      "$(b,ping), $(b,submit) DESIGN, $(b,poll) JOB, $(b,resume), \
       $(b,ack) JOB, $(b,metrics), or $(b,shutdown)."
    in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("ping", `Ping);
                  ("submit", `Submit);
                  ("poll", `Poll);
                  ("resume", `Resume);
                  ("ack", `Ack);
                  ("metrics", `Metrics);
                  ("shutdown", `Shutdown);
                ]))
          None
      & info [] ~docv:"ACTION" ~doc)
  in
  let arg_arg =
    let doc = "The design to submit, or the job id to poll or ack." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"ARG" ~doc)
  in
  let client_id_arg =
    let doc = "Client (tenant) id declared to the server's fairness scheduler." in
    Arg.(value & opt (some string) None & info [ "client" ] ~docv:"ID" ~doc)
  in
  let request_id_arg =
    let doc = "Request id echoed in every reply." in
    Arg.(value & opt string "cli" & info [ "id" ] ~docv:"ID" ~doc)
  in
  let client_depth_arg =
    let doc = "Maximum BMC depth requested (the server may clamp it)." in
    Arg.(value & opt (some int) None & info [ "k"; "max-depth" ] ~docv:"DEPTH" ~doc)
  in
  let reply_timeout_arg =
    let doc = "Seconds to wait for each reply line." in
    Arg.(value & opt float 600.0 & info [ "reply-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let retries_arg =
    let doc =
      "Retries after a $(b,busy)/draining reply or an unreachable daemon, \
       with capped jittered exponential backoff that honors the server's \
       retry hint. 0 disables retrying."
    in
    Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let no_ack_arg =
    let doc =
      "Do not acknowledge received results; a journalled server retains \
       them for a later $(b,resume)."
    in
    Arg.(value & flag & info [ "no-ack" ] ~doc)
  in
  let run action arg socket client property method_name max_depth timeout_s
      no_cache request_id reply_timeout retries no_ack =
    let socket = match socket with Some s -> s | None -> Serve.default_socket () in
    let tenant = Option.value client ~default:"cli" in
    let fail code msg =
      Format.eprintf "%s@." msg;
      exit code
    in
    let backoff = Serve.Backoff.create ~attempts:retries () in
    (* Shared retry driver: sleep per the backoff schedule (seeded by the
       server's hint when it gave one) and re-run [k]; exit 7 once the
       attempts are spent. *)
    let retry_or ~hint_s msg k =
      match Serve.Backoff.next backoff ~hint_s with
      | None ->
        fail 7
          (if retries = 0 then msg else msg ^ "; attempts exhausted")
      | Some delay ->
        Format.eprintf "%s; retrying in %.1fs@." msg delay;
        Unix.sleepf delay;
        k ()
    in
    let rec connect () =
      match Serve.Client.connect ~client:tenant socket with
      | Ok c -> c
      | Error msg -> retry_or ~hint_s:None ("cannot reach daemon: " ^ msg) connect
    in
    let finish c code =
      Serve.Client.close c;
      exit code
    in
    let request c req =
      match Serve.Client.request ~timeout_s:reply_timeout c req with
      | Ok reply -> reply
      | Error msg -> fail 5 msg
    in
    let unexpected r =
      fail 5 ("unexpected reply: " ^ Serve.Proto.reply_to_string r)
    in
    let print_result (r : Serve.Proto.result_line) =
      let open Serve.Proto in
      let detail =
        match (r.r_verdict, r.r_depth, r.r_reason) with
        | "proved", Some d, _ ->
          Printf.sprintf "proved (depth %d%s)" d
            (if r.r_induction = Some true then ", by induction" else "")
        | "falsified", Some d, _ ->
          Printf.sprintf "falsified at depth %d%s" d
            (match r.r_genuine with
            | Some true -> " (genuine)"
            | Some false -> " (spurious)"
            | None -> "")
        | _, _, Some why -> "inconclusive: " ^ why
        | v, _, None -> v
      in
      Format.printf "%s [%s%s]: %s in %.3fs@." r.r_property r.r_method
        (match r.r_cache with
        | "hit" -> ", cache hit"
        | "dedup" -> ", deduplicated"
        | _ -> "")
        detail r.r_time_s;
      rank_of_result r
    in
    (* Confirm delivery so a journalled server can forget the result; the
       [acked] replies interleave with the result stream and are absorbed
       by the catch-all read arm. *)
    let maybe_ack c (r : Serve.Proto.result_line) =
      if
        (not no_ack)
        && (match Serve.Client.server_version c with
           | Some v -> v >= 2
           | None -> false)
      then ignore (Serve.Client.send c (Serve.Proto.Ack r.Serve.Proto.r_job))
    in
    match action with
    | `Ping -> (
      let c = connect () in
      match request c Serve.Proto.Ping with
      | Serve.Proto.Pong ->
        print_endline "pong";
        finish c 0
      | r -> unexpected r)
    | `Metrics -> (
      let c = connect () in
      match request c Serve.Proto.Metrics with
      | Serve.Proto.Metrics_reply _ as r ->
        (* The canonical line, as greppable JSON. *)
        print_endline (Serve.Proto.reply_to_string r);
        finish c 0
      | r -> unexpected r)
    | `Shutdown -> (
      let c = connect () in
      match request c Serve.Proto.Shutdown with
      | Serve.Proto.Draining ->
        print_endline "draining";
        finish c 0
      | r -> unexpected r)
    | `Poll -> (
      let job =
        match arg with
        | Some s -> (
          match int_of_string_opt s with
          | Some j -> j
          | None -> fail 2 "poll needs a numeric job id")
        | None -> fail 2 "poll needs a job id"
      in
      let c = connect () in
      match request c (Serve.Proto.Poll job) with
      | Serve.Proto.Status { job; state } ->
        Format.printf "job %d: %s@." job state;
        finish c 0
      | r -> unexpected r)
    | `Ack -> (
      let job =
        match arg with
        | Some s -> (
          match int_of_string_opt s with
          | Some j -> j
          | None -> fail 2 "ack needs a numeric job id")
        | None -> fail 2 "ack needs a job id"
      in
      let c = connect () in
      match request c (Serve.Proto.Ack job) with
      | Serve.Proto.Acked { job } ->
        Format.printf "acked %d@." job;
        finish c 0
      | r -> unexpected r)
    | `Resume -> (
      let c = connect () in
      match request c (Serve.Proto.Resume tenant) with
      | Serve.Proto.Resumed { results; pending; _ } ->
        let worst = ref 0 in
        let got = ref 0 in
        while !got < results do
          match Serve.Client.read_reply ~timeout_s:reply_timeout c with
          | Error msg -> fail 5 msg
          | Ok (Serve.Proto.Result r) ->
            incr got;
            worst := max !worst (print_result r);
            maybe_ack c r
          | Ok _ -> ()
        done;
        if pending > 0 then
          Format.printf "%d job(s) still pending; resume again later@." pending;
        finish c (exit_of_rank !worst)
      | r -> unexpected r)
    | `Submit ->
      let design =
        match arg with
        | Some d -> d
        | None -> fail 2 "submit needs a design (name or .emn/.aag path)"
      in
      let s =
        {
          Serve.Proto.s_id = request_id;
          s_design = design;
          s_property = property;
          s_method = method_name;
          s_max_depth = max_depth;
          s_timeout_s = timeout_s;
          s_cache = (if no_cache then Some false else None);
        }
      in
      let rec attempt () =
        let c = connect () in
        match request c (Serve.Proto.Submit s) with
        | Serve.Proto.Busy { queue_depth; max_queue; retry_after_s; _ } ->
          Serve.Client.close c;
          retry_or ~hint_s:(Some retry_after_s)
            (Printf.sprintf "server busy: queue %d/%d full" queue_depth
               max_queue)
            attempt
        | Serve.Proto.Shutdown_reply { retry_after_s; _ } ->
          Serve.Client.close c;
          retry_or ~hint_s:retry_after_s "server is draining" attempt
        | Serve.Proto.Error { message; _ } -> fail 5 message
        | Serve.Proto.Accepted { jobs; queue_depth; _ } ->
          Format.printf "accepted %d job(s), queue depth %d@."
            (List.length jobs) queue_depth;
          let remaining = ref (List.map fst jobs) in
          let worst = ref 0 in
          while !remaining <> [] do
            match Serve.Client.read_reply ~timeout_s:reply_timeout c with
            | Error msg -> fail 5 msg
            | Ok (Serve.Proto.Result r) when List.mem r.Serve.Proto.r_job !remaining ->
              remaining := List.filter (fun j -> j <> r.Serve.Proto.r_job) !remaining;
              worst := max !worst (print_result r);
              maybe_ack c r
            | Ok (Serve.Proto.Shutdown_reply { job = Some j; _ }) ->
              remaining := List.filter (fun j' -> j' <> j) !remaining;
              Format.eprintf "job %d dropped: server draining@." j;
              worst := max !worst 2
            | Ok _ -> ()
          done;
          finish c (exit_of_rank !worst)
        | r -> unexpected r
      in
      attempt ()
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,emmver serve) daemon: submit a design and \
          stream back per-property results, poll a job, $(b,resume) results \
          that were completed while disconnected, fetch the metrics \
          snapshot, or start a graceful drain. Busy/draining replies and an \
          unreachable daemon are retried with jittered exponential backoff. \
          Exit codes follow $(b,emmver verify), plus 7 when the daemon \
          stays busy or unreachable after the retries")
    Term.(
      const run $ action_arg $ arg_arg $ socket_arg $ client_id_arg
      $ property_arg $ method_arg $ client_depth_arg $ timeout_arg
      $ no_cache_arg $ request_id_arg $ reply_timeout_arg $ retries_arg
      $ no_ack_arg)

let () =
  let doc = "verification of embedded memory systems using efficient memory modeling" in
  let info = Cmd.info "emmver" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            props_cmd;
            stats_cmd;
            verify_cmd;
            portfolio_cmd;
            diff_verify_cmd;
            serve_cmd;
            client_cmd;
            cache_cmd;
            solve_cmd;
            save_cmd;
            races_cmd;
          ]))
