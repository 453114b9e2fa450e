type abstraction = {
  kept_latches : Netlist.signal list;
  free_latches : Netlist.signal list;
  modeled_memories : Netlist.memory list;
  abstracted_memories : Netlist.memory list;
  discovery_depth : int;
  discovery_time : float;
}

let memory_control_latches net mem =
  Netlist.support_latches net (Netlist.memory_interface_signals mem)

let is_memory_modeled net reasons mem =
  let control = memory_control_latches net mem in
  List.exists (fun l -> List.mem l reasons) control

(* A memory stays modeled when its EMM constraints took part in some
   refutation; for discovery runs without EMM (explicit baseline) fall back
   to the latch-control criterion of §4.3. *)
let abstraction_of_reasons net ~depth ~time ~use_emm ~mem_reasons reasons =
  let kept = List.filter (fun l -> List.mem l reasons) (Netlist.latches net) in
  let free = List.filter (fun l -> not (List.mem l reasons)) (Netlist.latches net) in
  let modeled, abstracted =
    List.partition
      (fun m ->
        if use_emm then List.mem (Netlist.memory_id m) mem_reasons
        else is_memory_modeled net reasons m)
      (Netlist.memories net)
  in
  {
    kept_latches = kept;
    free_latches = free;
    modeled_memories = modeled;
    abstracted_memories = abstracted;
    discovery_depth = depth;
    discovery_time = time;
  }

let discover ?(max_depth = 200) ?(stability = 10) ?deadline ?(use_emm = true) ?within
    net ~property =
  let free_latches =
    match within with
    | Some a ->
      let free = a.free_latches in
      fun l -> List.mem l free
    | None -> fun _ -> false
  in
  let config =
    {
      Bmc.Engine.max_depth;
      deadline;
      proof_checks = false;
      collect_reasons = true;
      stop_on_stable = Some stability;
      free_latches;
      simplify = true;
      certify = false;
      conflict_budget = None;
      learnt_mb_budget = None;
      proof_file = None;
      portfolio = None;
    }
  in
  let t0 = Obs.now () in
  let result =
    if use_emm then
      let memories = Option.map (fun a -> a.modeled_memories) within in
      fst (Emm.check ~config ?memories net ~property)
    else Bmc.Engine.check ~config net ~property
  in
  let time = Obs.now () -. t0 in
  match result.Bmc.Engine.verdict with
  | Bmc.Engine.Reasons_stable depth | Bmc.Engine.Bounded_safe depth ->
    let reasons = result.Bmc.Engine.stats.Bmc.Engine.latch_reasons in
    let mem_reasons = result.Bmc.Engine.stats.Bmc.Engine.memory_reasons in
    Either.Left (abstraction_of_reasons net ~depth ~time ~use_emm ~mem_reasons reasons)
  | ( Bmc.Engine.Counterexample _ | Bmc.Engine.Proof _ | Bmc.Engine.Timed_out _
    | Bmc.Engine.Out_of_budget _ ) as v ->
    Either.Right v

let iterate ?(rounds = 3) ?max_depth ?stability ?deadline net ~property =
  let rec go round within =
    match discover ?max_depth ?stability ?deadline ?within net ~property with
    | Either.Right _ as concluded -> (
      match within with
      | Some a -> Either.Left a (* keep the last stable abstraction *)
      | None -> concluded)
    | Either.Left a ->
      let shrunk =
        match within with
        | Some prev -> List.length a.kept_latches < List.length prev.kept_latches
        | None -> true
      in
      if round >= rounds || not shrunk then Either.Left a
      else go (round + 1) (Some a)
  in
  go 1 None

let check_with_abstraction ?config net abstraction ~property =
  let config = Option.value config ~default:Bmc.Engine.default_config in
  let free = abstraction.free_latches in
  let config =
    { config with Bmc.Engine.free_latches = (fun l -> List.mem l free) }
  in
  Emm.check ~config ~memories:abstraction.modeled_memories net ~property

let pp_abstraction net ppf a =
  Format.fprintf ppf
    "@[<v>abstraction: %d/%d latches kept (stable at depth %d, %.2fs)@,"
    (List.length a.kept_latches)
    (List.length a.kept_latches + List.length a.free_latches)
    a.discovery_depth a.discovery_time;
  Format.fprintf ppf "modeled memories:";
  List.iter (fun m -> Format.fprintf ppf " %s" (Netlist.memory_name m)) a.modeled_memories;
  if a.modeled_memories = [] then Format.fprintf ppf " (none)";
  Format.fprintf ppf "@,abstracted memories:";
  List.iter
    (fun m -> Format.fprintf ppf " %s" (Netlist.memory_name m))
    a.abstracted_memories;
  if a.abstracted_memories = [] then Format.fprintf ppf " (none)";
  ignore net;
  Format.fprintf ppf "@]"
