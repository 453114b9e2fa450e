module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

module Tag = struct
  type meaning =
    | Latch of Netlist.signal
    | Memory of int
    | Misc of string
end

(* Plaisted–Greenbaum polarity: [Pos] means the literal may be forced true
   by its context (the gate's downward implications are needed), [Neg] that
   it may be forced false (upward implications), [Both] both. *)
type polarity = Pos | Neg | Both

let flip = function Pos -> Neg | Neg -> Pos | Both -> Both
let needs = function Pos -> (true, false) | Neg -> (false, true) | Both -> (true, true)

(* Definition of a structurally-hashed auxiliary variable. *)
type def =
  | And_def of Lit.t array (* v <-> conjunction of the literals (sorted) *)
  | Mux_def of Lit.t * Lit.t * Lit.t (* v <-> if s then a else b, s positive *)

type gate = {
  g_var : int;
  g_def : def;
  g_tag : int option;
  mutable g_down : bool; (* v -> definition clauses emitted *)
  mutable g_up : bool; (* definition -> v clauses emitted *)
}

type stats = {
  folds : int;
  hash_hits : int;
  collapsed_nodes : int;
  vars_saved : int;
  clauses_saved : int;
}

type t = {
  solver : Solver.t;
  net : Netlist.t;
  free_latches : Netlist.signal -> bool;
  simplify : bool;
  fold_init : bool;
  track_reasons : bool;
  mutable frames : Lit.t array array; (* frame -> node id -> lit, or [no_lit] *)
  gate_hash : (def * int option, Lit.t) Hashtbl.t;
  mutable gates : gate option array; (* var -> its gate definition *)
  tags : (Tag.meaning, int) Hashtbl.t;
  meanings : (int, Tag.meaning) Hashtbl.t;
  mutable collapsible : Bytes.t option; (* node id -> may be swallowed *)
  mutable next_tag : int;
  mutable act_init : Lit.t option;
  mutable false_lit : Lit.t option;
  mutable clauses_added : int;
  mutable aux_vars : int;
  (* Simplification bookkeeping: [plain_*] is what the unsimplified encoder
     would have emitted for the same on-demand requests, [circ_*] what the
     circuit encoding actually emitted. *)
  mutable plain_vars : int;
  mutable plain_clauses : int;
  mutable circ_vars : int;
  mutable circ_clauses : int;
  mutable folds : int;
  mutable hash_hits : int;
  mutable collapsed : int;
  mutable spare : int array; (* [shift_model]'s second buffer *)
}

let create ?(free_latches = fun _ -> false) ?(simplify = true) ?(fold_init = false)
    ?(track_reasons = true) solver net =
  {
    solver;
    net;
    free_latches;
    simplify;
    fold_init;
    track_reasons;
    frames = [||];
    gate_hash = Hashtbl.create 256;
    gates = [||];
    tags = Hashtbl.create 64;
    meanings = Hashtbl.create 64;
    collapsible = None;
    next_tag = 0;
    act_init = None;
    false_lit = None;
    clauses_added = 0;
    aux_vars = 0;
    plain_vars = 0;
    plain_clauses = 0;
    circ_vars = 0;
    circ_clauses = 0;
    folds = 0;
    hash_hits = 0;
    collapsed = 0;
    spare = [||];
  }

let solver t = t.solver
let net t = t.net
let simplify_enabled t = t.simplify

let add_clause ?tag t lits =
  t.clauses_added <- t.clauses_added + 1;
  Solver.add_clause ?tag t.solver lits

(* Circuit-encoding clause (counted against the plain-Tseitin baseline). *)
let emit ?tag t lits =
  t.circ_clauses <- t.circ_clauses + 1;
  add_clause ?tag t lits

let new_circ_var t =
  t.circ_vars <- t.circ_vars + 1;
  Solver.new_var t.solver

let bump_plain t vars clauses =
  t.plain_vars <- t.plain_vars + vars;
  t.plain_clauses <- t.plain_clauses + clauses

let fresh_lit t =
  t.aux_vars <- t.aux_vars + 1;
  Lit.pos (Solver.new_var t.solver)

let tag_for t meaning =
  match Hashtbl.find_opt t.tags meaning with
  | Some tag -> tag
  | None ->
    let tag = t.next_tag in
    t.next_tag <- tag + 1;
    Hashtbl.replace t.tags meaning tag;
    Hashtbl.replace t.meanings tag meaning;
    tag

let meaning_of t tag = Hashtbl.find_opt t.meanings tag

let act_init t =
  match t.act_init with
  | Some l -> l
  | None ->
    let l = Lit.pos (Solver.new_var t.solver) in
    t.act_init <- Some l;
    l

let false_lit t =
  match t.false_lit with
  | Some l -> l
  | None ->
    let l = Lit.pos (new_circ_var t) in
    emit t [ Lit.negate l ];
    t.false_lit <- Some l;
    l

let true_lit t = Lit.negate (false_lit t)
let is_false_lit t l = match t.false_lit with Some f -> l = f | None -> false
let is_true_lit t l = match t.false_lit with Some f -> l = Lit.negate f | None -> false

(* {2 Per-frame node tables}

   Frame [f]'s table maps a node id to its literal at [f]; [no_lit] marks a
   node not yet encoded there.  Tables are sized to the netlist and grow
   with it. *)

let no_lit = -1

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let find_node t frame id =
  if frame >= Array.length t.frames then no_lit
  else
    let tbl = t.frames.(frame) in
    if id < Array.length tbl then tbl.(id) else no_lit

let set_node t frame id l =
  if frame >= Array.length t.frames then t.frames <- grow t.frames (frame + 1) [||];
  let tbl = t.frames.(frame) in
  let tbl =
    if id < Array.length tbl then tbl
    else begin
      let b = grow tbl (max (id + 1) (Netlist.num_nodes t.net)) no_lit in
      t.frames.(frame) <- b;
      b
    end
  in
  tbl.(id) <- l

let is_free_latch t l = t.free_latches l

(* An AND node may be swallowed into a parent's n-ary/MUX pattern iff it has
   exactly one AND fan-out reference and is not referenced from outside the
   combinational fabric (latch next-states, properties, outputs, memory port
   buses) — such nodes will be requested directly and would otherwise be
   encoded twice. *)
let collapsible t =
  match t.collapsible with
  | Some b -> b
  | None ->
    let n = Netlist.num_nodes t.net in
    let refs = Array.make n 0 in
    let rooted = Array.make n false in
    for id = 0 to n - 1 do
      match Netlist.node t.net id with
      | Netlist.And (a, b) ->
        refs.(Netlist.node_of a) <- refs.(Netlist.node_of a) + 1;
        refs.(Netlist.node_of b) <- refs.(Netlist.node_of b) + 1
      | Netlist.Latch { next = Some nx; _ } -> rooted.(Netlist.node_of nx) <- true
      | _ -> ()
    done;
    let root s =
      let i = Netlist.node_of s in
      if i < n then rooted.(i) <- true
    in
    List.iter (fun (_, s) -> root s) (Netlist.properties t.net);
    List.iter (fun (_, s) -> root s) (Netlist.outputs t.net);
    List.iter
      (fun m -> List.iter root (Netlist.memory_interface_signals m))
      (Netlist.memories t.net);
    let col = Bytes.make n '\000' in
    for id = 0 to n - 1 do
      match Netlist.node t.net id with
      | Netlist.And _ when refs.(id) <= 1 && not rooted.(id) -> Bytes.set col id '\001'
      | _ -> ()
    done;
    t.collapsible <- Some col;
    col

let node_collapsible t id =
  let col = collapsible t in
  id < Bytes.length col && Bytes.get col id = '\001'

(* {2 Polarity-aware clause emission} *)

let rec ensure_lit t l pol =
  let v = Lit.var l in
  if v < Array.length t.gates then
    match t.gates.(v) with
    | None -> ()
    | Some g -> ensure_gate t g (if Lit.sign l then pol else flip pol)

and ensure_gate t g pol =
  let need_down, need_up = needs pol in
  let v = Lit.pos g.g_var in
  if need_down && not g.g_down then begin
    g.g_down <- true;
    match g.g_def with
    | And_def ls ->
      Array.iter
        (fun l ->
          emit ?tag:g.g_tag t [ Lit.negate v; l ];
          ensure_lit t l Pos)
        ls
    | Mux_def (s, a, b) ->
      emit ?tag:g.g_tag t [ Lit.negate v; Lit.negate s; a ];
      emit ?tag:g.g_tag t [ Lit.negate v; s; b ];
      ensure_lit t s Both;
      ensure_lit t a Pos;
      ensure_lit t b Pos
  end;
  if need_up && not g.g_up then begin
    g.g_up <- true;
    match g.g_def with
    | And_def ls ->
      emit ?tag:g.g_tag t (v :: List.map Lit.negate (Array.to_list ls));
      Array.iter (fun l -> ensure_lit t l Neg) ls
    | Mux_def (s, a, b) ->
      emit ?tag:g.g_tag t [ v; Lit.negate s; Lit.negate a ];
      emit ?tag:g.g_tag t [ v; s; Lit.negate b ];
      ensure_lit t s Both;
      ensure_lit t a Neg;
      ensure_lit t b Neg
  end

(* {2 Structurally-hashed gate construction over literals} *)

let hashed_gate t ?tag pol def =
  let key = (def, tag) in
  match Hashtbl.find_opt t.gate_hash key with
  | Some l ->
    t.hash_hits <- t.hash_hits + 1;
    ensure_lit t l pol;
    l
  | None ->
    let v = new_circ_var t in
    let g = { g_var = v; g_def = def; g_tag = tag; g_down = false; g_up = false } in
    if v >= Array.length t.gates then t.gates <- grow t.gates (v + 1) None;
    t.gates.(v) <- Some g;
    Hashtbl.replace t.gate_hash key (Lit.pos v);
    ensure_gate t g pol;
    Lit.pos v

(* Conjunction of already-resolved literals with constant folding, complement
   cancellation, deduplication and structural hashing. *)
let and_lits t ?tag pol lits =
  let n_in = List.length lits in
  let rec norm acc = function
    | [] -> Some acc
    | l :: rest ->
      if is_false_lit t l then None
      else if is_true_lit t l then norm acc rest
      else norm (l :: acc) rest
  in
  match norm [] lits with
  | None ->
    t.folds <- t.folds + 1;
    false_lit t
  | Some ls -> (
    let ls = List.sort_uniq compare ls in
    if List.exists (fun l -> List.mem (Lit.negate l) ls) ls then begin
      t.folds <- t.folds + 1;
      false_lit t
    end
    else
      match ls with
      | [] ->
        t.folds <- t.folds + 1;
        true_lit t
      | [ l ] ->
        t.folds <- t.folds + 1;
        l
      | _ ->
        if List.compare_length_with ls n_in < 0 then t.folds <- t.folds + 1;
        hashed_gate t ?tag pol (And_def (Array.of_list ls)))

(* v <-> if s then a else b, with branch-aware constant folding. *)
let mux_lits t ?tag pol s a b =
  if is_true_lit t s then a
  else if is_false_lit t s then b
  else begin
    let a = if a = s then true_lit t else if a = Lit.negate s then false_lit t else a in
    let b = if b = s then false_lit t else if b = Lit.negate s then true_lit t else b in
    if a = b then a
    else if is_true_lit t a && is_false_lit t b then s
    else if is_false_lit t a && is_true_lit t b then Lit.negate s
    else if is_false_lit t a then and_lits t ?tag pol [ Lit.negate s; b ]
    else if is_true_lit t a then
      Lit.negate (and_lits t ?tag (flip pol) [ Lit.negate s; Lit.negate b ])
    else if is_false_lit t b then and_lits t ?tag pol [ s; a ]
    else if is_true_lit t b then Lit.negate (and_lits t ?tag (flip pol) [ s; Lit.negate a ])
    else
      let s, a, b = if Lit.sign s then (s, a, b) else (Lit.negate s, b, a) in
      hashed_gate t ?tag pol (Mux_def (s, a, b))
  end

(* {2 Netlist elaboration} *)

(* MUX pattern: And(~A1, ~A2) with A1 = (p & r1), A2 = (q & r2), q = ~p, both
   A1 and A2 swallowable.  Then the node is ~mux(p, r1, r2). *)
let mux_match t id =
  match Netlist.node t.net id with
  | Netlist.And (c1, c2)
    when Netlist.is_complement c1 && Netlist.is_complement c2
         && node_collapsible t (Netlist.node_of c1)
         && node_collapsible t (Netlist.node_of c2) -> (
    match (Netlist.node t.net (Netlist.node_of c1), Netlist.node t.net (Netlist.node_of c2)) with
    | Netlist.And (u1, v1), Netlist.And (u2, v2) ->
      let compl_pair p q =
        Netlist.node_of p = Netlist.node_of q
        && Netlist.is_complement p <> Netlist.is_complement q
      in
      if compl_pair u1 u2 then Some (u1, v1, v2)
      else if compl_pair u1 v2 then Some (u1, v1, u2)
      else if compl_pair v1 u2 then Some (v1, u1, v2)
      else if compl_pair v1 v2 then Some (v1, u1, u2)
      else None
    | _ -> None)
  | _ -> None

exception False_leaf

let rec node_lit t frame id pol =
  let l = find_node t frame id in
  if l <> no_lit then begin
    if t.simplify then ensure_lit t l pol;
    l
  end
  else if not t.simplify then begin
    (* Plain mode: the paper-faithful per-frame Tseitin encoding,
       preserved verbatim for A/B comparison. *)
    let v = Solver.new_var t.solver in
    (* Register before elaborating the definition: latch links reach back
       to earlier frames only, so no cycle goes through (frame, id) itself,
       but early registration keeps the recursion linear. *)
    set_node t frame id (Lit.pos v);
    let lv = Lit.pos v in
    (match Netlist.node t.net id with
    | Netlist.Const_false -> add_clause t [ Lit.negate lv ]
    | Netlist.Input _ | Netlist.Mem_out _ -> ()
    | Netlist.And (a, b) ->
      let la = signal_lit t frame a Both in
      let lb = signal_lit t frame b Both in
      add_clause t [ Lit.negate lv; la ];
      add_clause t [ Lit.negate lv; lb ];
      add_clause t [ lv; Lit.negate la; Lit.negate lb ]
    | Netlist.Latch { init; next; _ } ->
      let lsig = Netlist.signal_of_node id false in
      if not (t.free_latches lsig) then begin
        let tag = tag_for t (Tag.Latch lsig) in
        if frame = 0 then begin
          match init with
          | Some b ->
            let a = act_init t in
            add_clause ~tag t [ Lit.negate a; (if b then lv else Lit.negate lv) ]
          | None -> ()
        end
        else begin
          match next with
          | Some n ->
            let ln = signal_lit t (frame - 1) n Both in
            add_clause ~tag t [ Lit.negate lv; ln ];
            add_clause ~tag t [ lv; Lit.negate ln ]
          | None -> invalid_arg "Cnf: latch with unset next-state"
        end
      end);
    lv
  end
  else begin
    let l =
      match Netlist.node t.net id with
      | Netlist.Const_false ->
        bump_plain t 1 1;
        false_lit t
      | Netlist.Input _ | Netlist.Mem_out _ ->
        bump_plain t 1 0;
        Lit.pos (new_circ_var t)
      | Netlist.And _ -> encode_and t frame id pol
      | Netlist.Latch { init; next; _ } -> encode_latch t frame id pol init next
    in
    set_node t frame id l;
    ensure_lit t l pol;
    l
  end

and encode_latch t frame id pol init next =
  let lsig = Netlist.signal_of_node id false in
  if t.free_latches lsig then begin
    bump_plain t 1 0;
    Lit.pos (new_circ_var t)
  end
  else if frame = 0 then begin
    match init with
    | Some b when t.fold_init ->
      (* Initial value folded to a constant: only sound when every solver
         query assumes [act_init] (falsification mode). *)
      bump_plain t 1 1;
      t.folds <- t.folds + 1;
      if b then true_lit t else false_lit t
    | Some b ->
      bump_plain t 1 1;
      let v = new_circ_var t in
      let lv = Lit.pos v in
      let tag = tag_for t (Tag.Latch lsig) in
      let a = act_init t in
      emit ~tag t [ Lit.negate a; (if b then lv else Lit.negate lv) ];
      lv
    | None ->
      bump_plain t 1 0;
      Lit.pos (new_circ_var t)
  end
  else begin
    match next with
    | None -> invalid_arg "Cnf: latch with unset next-state"
    | Some n ->
      bump_plain t 1 2;
      if t.track_reasons then begin
        let v = new_circ_var t in
        let lv = Lit.pos v in
        let ln = signal_lit t (frame - 1) n Both in
        let tag = tag_for t (Tag.Latch lsig) in
        emit ~tag t [ Lit.negate lv; ln ];
        emit ~tag t [ lv; Lit.negate ln ];
        lv
      end
      else
        (* Alias the latch to its previous-frame next-state literal: one
           variable and two clauses cheaper per latch per frame.  Requires
           [track_reasons = false]: the tagged link clauses consumed by
           UNSAT-core reason extraction disappear. *)
        signal_lit t (frame - 1) n pol
  end

and encode_and t frame id pol =
  bump_plain t 1 3;
  match mux_match t id with
  | Some (sel, r1, r2) ->
    (* ~((sel & r1) | (~sel & r2)) — both inner ANDs are swallowed. *)
    bump_plain t 2 6;
    t.collapsed <- t.collapsed + 2;
    let mpol = flip pol in
    let ls = signal_lit t frame sel Both in
    let la = signal_lit t frame r1 mpol in
    let lb = signal_lit t frame r2 mpol in
    Lit.negate (mux_lits t mpol ls la lb)
  | None ->
    (* n-ary flattening: expand swallowable non-complemented AND children
       into a single conjunction, short-circuiting on a false leaf. *)
    let leaves = ref [] in
    let rec go s =
      let cid = Netlist.node_of s in
      if (not (Netlist.is_complement s)) && node_collapsible t cid then begin
        match Netlist.node t.net cid with
        | Netlist.And (a, b) ->
          bump_plain t 1 3;
          t.collapsed <- t.collapsed + 1;
          go a;
          go b
        | _ -> assert false
      end
      else begin
        let l = signal_lit t frame s pol in
        if is_false_lit t l then raise False_leaf
        else if is_true_lit t l then ()
        else leaves := l :: !leaves
      end
    in
    (match Netlist.node t.net id with
    | Netlist.And (a, b) -> (
      try
        go a;
        go b;
        and_lits t pol !leaves
      with False_leaf ->
        t.folds <- t.folds + 1;
        false_lit t)
    | _ -> assert false)

and signal_lit t frame s pol =
  let pol = if Netlist.is_complement s then flip pol else pol in
  let l = node_lit t frame (Netlist.node_of s) pol in
  if Netlist.is_complement s then Lit.negate l else l

let lit ?(pol = Both) t ~frame s =
  if frame < 0 then invalid_arg "Cnf.lit: negative frame";
  signal_lit t frame s (if t.simplify then pol else Both)

let lit_opt t ~frame s =
  let l = find_node t frame (Netlist.node_of s) in
  if l = no_lit then None
  else Some (if Netlist.is_complement s then Lit.negate l else l)

(* Every node encoded at frames [f] and [f + 1] passes its frame-[f] value
   in [src] to its frame-[f + 1] variable in [dst], over the solver's [n]
   variables.  Reads come from [src] and writes go to [dst], so the order of
   the walk only matters where two writes land on one variable (latch
   aliasing, structural hashing): the last one wins. *)
let shift_frame t ~depth ~n src dst =
  let len = Array.length src in
  (* A loop, not [Array.blit]: the runtime's blit into a major-heap array
     goes through the write barrier word by word. *)
  for v = 0 to n - 1 do
    Array.unsafe_set dst v (if v < len then Array.unsafe_get src v else -1)
  done;
  for f = 0 to min depth (Array.length t.frames - 1) - 1 do
    let sf = t.frames.(f) and df = t.frames.(f + 1) in
    (* Frame-table entries are solver literals, so [dst] has room for their
       variables.  A literal is its variable times two plus its sign bit
       ([Lit]), spelled out here: the dev profile's [-opaque] turns every
       [Lit.var] into a call. *)
    for id = 0 to min (Array.length sf) (Array.length df) - 1 do
      let a = Array.unsafe_get sf id in
      if a <> no_lit && a lsr 1 < len then begin
        let x = Array.unsafe_get src (a lsr 1) and b = Array.unsafe_get df id in
        (* A literal's value is its variable's value flipped by its sign
           bit, both ways. *)
        if b <> no_lit && x >= 0 then
          Array.unsafe_set dst (b lsr 1) (x lxor (a land 1) lxor (b land 1))
      end
    done
  done

(* [frames] one-frame passes alternate between the result and [t.spare] so
   that the last one lands in the result.  Both buffers are sized to the
   solver's variable count; a fresh one has room for the variables of a few
   more frames, so that a caller passing its result back as [into] at the
   next depth reuses it. *)
let shift_model ?into ?(frames = 1) t ~depth m =
  if frames < 1 then invalid_arg "Cnf.shift_model: frames < 1";
  let n = Solver.num_vars t.solver in
  let fresh () = Array.make (2 * n) (-1) in
  let out =
    match into with
    | Some b when Array.length b >= n && b != m -> b
    | Some _ | None -> fresh ()
  in
  if frames > 1 && Array.length t.spare < n then t.spare <- fresh ();
  let rec pass k src =
    let dst = if k land 1 = 1 then out else t.spare in
    shift_frame t ~depth ~n src dst;
    if k > 1 then pass (k - 1) dst
  in
  pass frames m;
  out

let and_lit ?tag ?(pol = Both) t lits = and_lits t ?tag pol lits
let mux_lit ?tag ?(pol = Both) t s a b = mux_lits t ?tag pol s a b

let clauses_added t = t.clauses_added
let aux_vars t = t.aux_vars

let stats t =
  {
    folds = t.folds;
    hash_hits = t.hash_hits;
    collapsed_nodes = t.collapsed;
    vars_saved = t.plain_vars - t.circ_vars;
    clauses_saved = t.plain_clauses - t.circ_clauses;
  }
