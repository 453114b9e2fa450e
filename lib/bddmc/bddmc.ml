type verdict = Safe of int | Unsafe of int | Node_limit | Step_limit of int

type result = {
  verdict : verdict;
  peak_nodes : int;
  reachable_size : int;
  time : float;
}

(* Variable layout: latch i gets current-state var 2i and next-state var
   2i+1 (interleaving keeps the transition relation small); inputs follow
   after all state variables. *)
let check ?(max_nodes = 2_000_000) ?(max_steps = 10_000) net ~property =
  if Netlist.memories net <> [] then
    invalid_arg "Bddmc.check: netlist has memory modules; expand them first";
  let t0 = Obs.now () in
  let m = Bdd.man ~max_nodes () in
  let latches = Array.of_list (Netlist.latches net) in
  let nl = Array.length latches in
  let cur_var i = 2 * i and nxt_var i = (2 * i) + 1 in
  let latch_index = Hashtbl.create 64 in
  Array.iteri (fun i l -> Hashtbl.replace latch_index (Netlist.node_of l) i) latches;
  let input_index = Hashtbl.create 64 in
  let input_var id =
    match Hashtbl.find_opt input_index id with
    | Some v -> v
    | None ->
      let v = (2 * nl) + Hashtbl.length input_index in
      Hashtbl.replace input_index id v;
      v
  in
  (* Combinational BDD of a signal over current-state and input vars. *)
  let node_cache = Hashtbl.create 1024 in
  let rec bdd_of_node id =
    match Hashtbl.find_opt node_cache id with
    | Some b -> b
    | None ->
      let b =
        match Netlist.node net id with
        | Netlist.Const_false -> Bdd.fls m
        | Netlist.Input _ -> Bdd.var m (input_var id)
        | Netlist.Latch _ -> Bdd.var m (cur_var (Hashtbl.find latch_index id))
        | Netlist.And (a, b) -> Bdd.and_ m (bdd_of_signal a) (bdd_of_signal b)
        | Netlist.Mem_out _ -> assert false
      in
      Hashtbl.replace node_cache id b;
      b
  and bdd_of_signal s =
    let b = bdd_of_node (Netlist.node_of s) in
    if Netlist.is_complement s then Bdd.not_ m b else b
  in
  let finish verdict reachable =
    {
      verdict;
      peak_nodes = Bdd.live_nodes m;
      reachable_size = Bdd.size reachable;
      time = Obs.now () -. t0;
    }
  in
  try
    let prop = bdd_of_signal (Netlist.find_property net property) in
    (* Transition relation: /\ (next_i <-> f_i). *)
    let trans =
      Array.to_list latches
      |> List.mapi (fun i l ->
             Bdd.xnor_ m
               (Bdd.var m (nxt_var i))
               (bdd_of_signal (Netlist.latch_next net l)))
      |> List.fold_left (Bdd.and_ m) (Bdd.tru m)
    in
    let init =
      Array.to_list latches
      |> List.mapi (fun i l ->
             match Netlist.latch_init net l with
             | Some true -> Bdd.var m (cur_var i)
             | Some false -> Bdd.nvar m (cur_var i)
             | None -> Bdd.tru m)
      |> List.fold_left (Bdd.and_ m) (Bdd.tru m)
    in
    let input_vars () = Hashtbl.fold (fun _ v acc -> v :: acc) input_index [] in
    let cur_vars = List.init nl cur_var in
    (* Bad states: some input valuation falsifies the property. *)
    let bad = Bdd.exists m (input_vars ()) (Bdd.not_ m prop) in
    let rename_next_to_cur b =
      Bdd.compose m
        (fun v ->
          if v < 2 * nl && v land 1 = 1 then Some (Bdd.var m (v - 1)) else None)
        b
    in
    let image s =
      rename_next_to_cur
        (Bdd.exists m (cur_vars @ input_vars ()) (Bdd.and_ m s trans))
    in
    let rec iterate reached frontier step =
      if not (Bdd.is_false (Bdd.and_ m reached bad)) then finish (Unsafe step) reached
      else if step >= max_steps then finish (Step_limit step) reached
      else
        let next = image frontier in
        let fresh = Bdd.and_ m next (Bdd.not_ m reached) in
        if Bdd.is_false fresh then finish (Safe step) reached
        else iterate (Bdd.or_ m reached fresh) fresh (step + 1)
    in
    iterate init init 0
  with Bdd.Blowup -> finish Node_limit (Bdd.fls m)

let pp_verdict ppf = function
  | Safe n -> Format.fprintf ppf "safe (fixpoint after %d steps)" n
  | Unsafe n -> Format.fprintf ppf "unsafe (bad state reachable in %d steps)" n
  | Node_limit -> Format.fprintf ppf "BDD node limit exceeded"
  | Step_limit n -> Format.fprintf ppf "step limit reached (%d)" n
