module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

type counts = {
  addr_clauses : int;
  excl_gates : int;
  data_clauses : int;
  init_clauses : int;
  init_pairs : int;
  aux_vars : int;
  saved_vars : int;
  saved_clauses : int;
  distinct_preds : int;
  distinct_clauses : int;
  encode_time_s : float;
}

let zero_counts =
  {
    addr_clauses = 0;
    excl_gates = 0;
    data_clauses = 0;
    init_clauses = 0;
    init_pairs = 0;
    aux_vars = 0;
    saved_vars = 0;
    saved_clauses = 0;
    distinct_preds = 0;
    distinct_clauses = 0;
    encode_time_s = 0.0;
  }

let add_counts a b =
  {
    addr_clauses = a.addr_clauses + b.addr_clauses;
    excl_gates = a.excl_gates + b.excl_gates;
    data_clauses = a.data_clauses + b.data_clauses;
    init_clauses = a.init_clauses + b.init_clauses;
    init_pairs = a.init_pairs + b.init_pairs;
    aux_vars = a.aux_vars + b.aux_vars;
    saved_vars = a.saved_vars + b.saved_vars;
    saved_clauses = a.saved_clauses + b.saved_clauses;
    distinct_preds = a.distinct_preds + b.distinct_preds;
    distinct_clauses = a.distinct_clauses + b.distinct_clauses;
    encode_time_s = a.encode_time_s +. b.encode_time_s;
  }

let pp_counts ppf c =
  Format.fprintf ppf
    "addr-clauses=%d excl-gates=%d data-clauses=%d init-clauses=%d init-pairs=%d \
     aux-vars=%d saved-vars=%d saved-clauses=%d distinct-preds=%d \
     distinct-clauses=%d encode=%.3fs"
    c.addr_clauses c.excl_gates c.data_clauses c.init_clauses c.init_pairs c.aux_vars
    c.saved_vars c.saved_clauses c.distinct_preds c.distinct_clauses c.encode_time_s

(* One read access: frame, read port, its "never written" chain head N, the
   initial-data word V, and the read-address literals (for equation (6)
   pairing and for initial-state extraction).  In simplify mode V is the
   read-data bus itself: when N holds the read observes the initial word, so
   no separate V variables are needed. *)
type access = {
  a_frame : int;
  a_port : int;
  n_lit : Lit.t;
  v_lits : Lit.t array;
  ra_lits : Lit.t array;
}

(* The literal buses of one write port at one frame. *)
type write_bus = { wa : Lit.t array; wd : Lit.t array; we : Lit.t }

type mem_state = {
  mem : Netlist.memory;
  tag : int;
  mutable accesses : access list; (* newest first *)
  mutable writes : write_bus option array;
      (* frame * write ports + port -> its buses, built on first use *)
}

type t = {
  unr : Cnf.t;
  mems : mem_state list;
  init_consistency : bool;
  simplify : bool;
  (* Shared equality terms, live for the whole unrolling (simplify mode):
     per-bit equality variables, full address-equality variables and merged
     select networks, each keyed on the literal tuple (plus the memory tag,
     so UNSAT-core attribution stays per-memory). *)
  e_memo : (int * Lit.t * Lit.t, Lit.t) Hashtbl.t;
  eq_memo : (int * Lit.t array * Lit.t array, Lit.t) Hashtbl.t;
  s_memo : (int * Lit.t array * Lit.t array * Lit.t, Lit.t) Hashtbl.t;
  (* Memory-state distinctness state (see [mem_distinct_lit]): phantom read
     accesses, or the always-enabled real reads standing in for them, per
     (memory tag, frame, address bus), the per-frame "this step changes
     memory" predicates, and the per-(i, j) distinctness literals handed to
     the engine's loop-free-path clauses. *)
  distinct_tag : int;
  phantom_memo : (int * int * Lit.t array, access) Hashtbl.t;
  chg_memo : (int, Lit.t) Hashtbl.t;
  distinct_memo : (int * int, Lit.t) Hashtbl.t;
  mutable next_depth : int;
  mutable emitted : int; (* clauses actually emitted by this layer *)
  per_depth : (int, counts) Hashtbl.t;
  mutable current : counts; (* accumulator for the depth being generated *)
  mutable extra : counts;
      (* distinctness constraints built outside [add_constraints] (the engine
         requests them per frame pair, after the depth snapshot) *)
}

let create ?memories ?(init_consistency = true) ?simplify unr =
  let net = Cnf.net unr in
  let simplify =
    match simplify with Some s -> s | None -> Cnf.simplify_enabled unr
  in
  let mems = match memories with Some ms -> ms | None -> Netlist.memories net in
  let mems =
    List.map
      (fun mem ->
        (match Netlist.memory_init mem with
        | Netlist.Words _ ->
          invalid_arg
            (Printf.sprintf "Emm.create: memory %s has concrete initial words"
               (Netlist.memory_name mem))
        | Netlist.Zeros | Netlist.Arbitrary -> ());
        let tag = Cnf.tag_for unr (Cnf.Tag.Memory (Netlist.memory_id mem)) in
        { mem; tag; accesses = []; writes = [||] })
      mems
  in
  {
    unr;
    mems;
    init_consistency;
    simplify;
    e_memo = Hashtbl.create 256;
    eq_memo = Hashtbl.create 64;
    s_memo = Hashtbl.create 256;
    distinct_tag = Cnf.tag_for unr (Cnf.Tag.Misc "emm-mem-distinct");
    phantom_memo = Hashtbl.create 64;
    chg_memo = Hashtbl.create 64;
    distinct_memo = Hashtbl.create 64;
    next_depth = 0;
    emitted = 0;
    per_depth = Hashtbl.create 64;
    current = zero_counts;
    extra = zero_counts;
  }

let fresh t =
  t.current <- { t.current with aux_vars = t.current.aux_vars + 1 };
  Cnf.fresh_lit t.unr

let bump_addr t n = t.current <- { t.current with addr_clauses = t.current.addr_clauses + n }
let bump_data t n = t.current <- { t.current with data_clauses = t.current.data_clauses + n }
let bump_init t n = t.current <- { t.current with init_clauses = t.current.init_clauses + n }
let bump_pairs t n = t.current <- { t.current with init_pairs = t.current.init_pairs + n }
let bump_gates t n = t.current <- { t.current with excl_gates = t.current.excl_gates + n }

let bump_saved t v c =
  t.current <-
    {
      t.current with
      saved_vars = t.current.saved_vars + v;
      saved_clauses = t.current.saved_clauses + c;
    }

let bump_distinct t ~preds ~clauses =
  t.current <-
    {
      t.current with
      distinct_preds = t.current.distinct_preds + preds;
      distinct_clauses = t.current.distinct_clauses + clauses;
    }

(* Emission wrapper tracking the clauses this layer actually produced. *)
let emitc ?tag t lits =
  t.emitted <- t.emitted + 1;
  Cnf.add_clause ?tag t.unr lits

let lfalse t = Cnf.false_lit t.unr
let ltrue t = Lit.negate (Cnf.false_lit t.unr)
let is_f t l = l = lfalse t
let is_t t l = l = Lit.negate (lfalse t)

(* A 2-input AND "gate" in the hybrid representation: fresh variable plus the
   three defining clauses.  Counted as one exclusivity gate, per the paper's
   accounting, unless [counted] is false (eq. (6) helper gates are reported
   through [init_pairs] instead).  Plain-mode encoding. *)
let and_gate ?(counted = true) t ~tag a b =
  let v = fresh t in
  emitc ~tag t [ Lit.negate v; a ];
  emitc ~tag t [ Lit.negate v; b ];
  emitc ~tag t [ v; Lit.negate a; Lit.negate b ];
  if counted then bump_gates t 1;
  v

(* Address-equality variable over two literal buses, with the paper's 4m+1
   clause encoding: per bit, (E -> (a=b)) and ((a=b) -> e); finally
   (/\ e -> E).  Plain-mode encoding. *)
let addr_equal t ~tag ~bump a_bus b_bus =
  let m = Array.length a_bus in
  let e_vars = Array.make m (Lit.pos 0) in
  let eq = fresh t in
  for i = 0 to m - 1 do
    let a = a_bus.(i) and b = b_bus.(i) in
    let e = fresh t in
    e_vars.(i) <- e;
    (* E -> (a = b) *)
    emitc ~tag t [ Lit.negate eq; Lit.negate a; b ];
    emitc ~tag t [ Lit.negate eq; a; Lit.negate b ];
    (* (a = b) -> e *)
    emitc ~tag t [ Lit.negate a; Lit.negate b; e ];
    emitc ~tag t [ a; b; e ]
  done;
  (* (/\ e) -> E *)
  emitc ~tag t (eq :: Array.to_list (Array.map Lit.negate e_vars));
  bump t ((4 * m) + 1);
  eq

(* {2 Simplify-mode equality networks}

   Bits of a bus pair are classified once: syntactically equal (dropped),
   complementary (the equality is constantly false), one side constant (the
   bit-equality {e is} the other literal, no clauses), or general (a shared
   one-directional equality variable e with (a=b) -> e, two clauses, memoized
   per memory tag).  The e variables only ever occur as premises, so the
   missing direction is never needed. *)

type bit_class =
  | Bit_conflict (* a = ~b: never equal *)
  | Bit_exact of Lit.t (* equality reduces to this literal, both directions *)
  | Bit_e of Lit.t * Lit.t * Lit.t (* (a, b, e): e one-directional premise *)

let classify_bit t ~tag a b =
  if a = b then Bit_exact (ltrue t)
  else if a = Lit.negate b then Bit_conflict
  else if is_t t a then Bit_exact b
  else if is_f t a then Bit_exact (Lit.negate b)
  else if is_t t b then Bit_exact a
  else if is_f t b then Bit_exact (Lit.negate a)
  else
    let key = (tag, min a b, max a b) in
    let e =
      match Hashtbl.find_opt t.e_memo key with
      | Some e -> e
      | None ->
        let e = fresh t in
        (* (a = b) -> e *)
        emitc ~tag t [ Lit.negate a; Lit.negate b; e ];
        emitc ~tag t [ a; b; e ];
        Hashtbl.replace t.e_memo key e;
        e
    in
    Bit_e (a, b, e)

let classify_bus t ~tag a_bus b_bus =
  let m = Array.length a_bus in
  let rec go i acc =
    if i >= m then Some (List.rev acc)
    else
      match classify_bit t ~tag a_bus.(i) b_bus.(i) with
      | Bit_conflict -> None
      | Bit_exact e when is_t t e -> go (i + 1) acc
      | c -> go (i + 1) (c :: acc)
  in
  go 0 []

(* Full address-equality literal (simplify mode): constant-folded, memoized
   on the bus pair, down-clauses direct on the bits, up-clause through the
   shared e premises. *)
let eq_lit t ~tag a_bus b_bus =
  let a_bus, b_bus = if a_bus <= b_bus then (a_bus, b_bus) else (b_bus, a_bus) in
  let key = (tag, a_bus, b_bus) in
  match Hashtbl.find_opt t.eq_memo key with
  | Some l -> l
  | None ->
    let l =
      match classify_bus t ~tag a_bus b_bus with
      | None -> lfalse t
      | Some [] -> ltrue t
      | Some [ Bit_exact e ] -> e
      | Some bits ->
        let eq = fresh t in
        let premises =
          List.map
            (fun c ->
              match c with
              | Bit_conflict -> assert false
              | Bit_exact e ->
                emitc ~tag t [ Lit.negate eq; e ];
                e
              | Bit_e (a, b, e) ->
                (* eq -> (a = b) *)
                emitc ~tag t [ Lit.negate eq; Lit.negate a; b ];
                emitc ~tag t [ Lit.negate eq; a; Lit.negate b ];
                e)
            bits
        in
        (* (/\ e) -> eq *)
        emitc ~tag t (eq :: List.map Lit.negate premises);
        eq
    in
    Hashtbl.replace t.eq_memo key l;
    l

(* Merged select network (simplify mode): s <-> (wa = ra) /\ we in 4m+2
   clauses, skipping the standalone E variable, memoized on the literal
   tuple so identical (write bus, read bus, enable) combinations share one
   network across ports and depths. *)
let s_net t ~tag wa ra we =
  let wa, ra = if wa <= ra then (wa, ra) else (ra, wa) in
  let key = (tag, wa, ra, we) in
  match Hashtbl.find_opt t.s_memo key with
  | Some s -> s
  | None ->
    let s =
      if is_f t we then lfalse t
      else
        match classify_bus t ~tag wa ra with
        | None -> lfalse t
        | Some [] -> we (* addresses always equal: s = we *)
        | Some [ Bit_exact e ] when is_t t we -> e
        | Some bits ->
          let s = fresh t in
          let premises =
            List.map
              (fun c ->
                match c with
                | Bit_conflict -> assert false
                | Bit_exact e ->
                  emitc ~tag t [ Lit.negate s; e ];
                  e
                | Bit_e (a, b, e) ->
                  (* s -> (a = b) *)
                  emitc ~tag t [ Lit.negate s; Lit.negate a; b ];
                  emitc ~tag t [ Lit.negate s; a; Lit.negate b ];
                  e)
              bits
          in
          let premises = if is_t t we then premises else we :: premises in
          if not (is_t t we) then emitc ~tag t [ Lit.negate s; we ];
          (* (/\ e /\ we) -> s *)
          emitc ~tag t (s :: List.map Lit.negate premises);
          s
    in
    Hashtbl.replace t.s_memo key s;
    s

(* One exclusivity chain step (simplify mode): S = s /\ ps', PS = ~s /\ ps'
   jointly in five clauses instead of two 3-clause gates, with constant
   folding at both inputs. *)
let chain_pair t ~tag s ps' =
  if is_t t s then (ps', lfalse t)
  else if is_f t s then (lfalse t, ps')
  else if is_f t ps' then (lfalse t, lfalse t)
  else if is_t t ps' then (s, Lit.negate s)
  else begin
    let sel = fresh t in
    let ps = fresh t in
    emitc ~tag t [ Lit.negate sel; s ];
    emitc ~tag t [ Lit.negate sel; ps' ];
    emitc ~tag t [ Lit.negate ps; Lit.negate s ];
    emitc ~tag t [ Lit.negate ps; ps' ];
    emitc ~tag t [ Lit.negate ps'; sel; ps ];
    bump_gates t 2;
    (sel, ps)
  end

let lits_of_bus t ~frame bus = Array.map (fun s -> Cnf.lit t.unr ~frame s) bus

(* Write port [w] of [ms] at frame [j], encoded on first use and shared by
   every later read.  The enable is requested first, then the data bus,
   then the address bus: the request order fixes the numbering of the
   variables they introduce. *)
let write_bus t ms j w =
  let i = (j * Netlist.num_write_ports ms.mem) + w in
  if i >= Array.length ms.writes then begin
    let a = Array.make (max (i + 1) (2 * Array.length ms.writes)) None in
    Array.blit ms.writes 0 a 0 (Array.length ms.writes);
    ms.writes <- a
  end;
  match ms.writes.(i) with
  | Some b -> b
  | None ->
    let wa_bus, wd_bus, we_sig = Netlist.write_port ms.mem w in
    let we = Cnf.lit t.unr ~frame:j we_sig in
    let wd = lits_of_bus t ~frame:j wd_bus in
    let wa = lits_of_bus t ~frame:j wa_bus in
    let b = { wa; wd; we } in
    ms.writes.(i) <- Some b;
    b

(* Polarity-reduced equation-(6) consistency between two accesses: the pair
   variable u only needs (premises -> u) and (u -> V = V'), since u never
   occurs elsewhere.  Shared by the simplifying read encoder and the phantom
   reads of the distinctness machinery. *)
let init_pair_reduced t ~tag ~n_bits this other =
  if not (is_f t this.n_lit || is_f t other.n_lit) then begin
    match classify_bus t ~tag other.ra_lits this.ra_lits with
    | None -> bump_pairs t 1 (* addresses provably differ: no constraint *)
    | Some bits ->
      let e_of = function
        | Bit_conflict -> assert false
        | Bit_exact e | Bit_e (_, _, e) -> e
      in
      let premises = List.filter (fun l -> not (is_t t l)) (List.map e_of bits) in
      let premises =
        premises @ List.filter (fun l -> not (is_t t l)) [ this.n_lit; other.n_lit ]
      in
      let u =
        match premises with
        | [] -> ltrue t
        | [ l ] -> l
        | _ ->
          let u = fresh t in
          (* premises -> u *)
          emitc ~tag t (u :: List.map Lit.negate premises);
          u
      in
      let prefix = if is_t t u then [] else [ Lit.negate u ] in
      for b = 0 to n_bits - 1 do
        if this.v_lits.(b) <> other.v_lits.(b) then begin
          emitc ~tag t (prefix @ [ Lit.negate this.v_lits.(b); other.v_lits.(b) ]);
          emitc ~tag t (prefix @ [ this.v_lits.(b); Lit.negate other.v_lits.(b) ])
        end
      done;
      bump_pairs t 1
  end
  else bump_pairs t 1

(* Generate all constraints for read port [r] of memory [ms] at depth [k] —
   the paper-faithful plain encoding. *)
let constrain_read_plain t ms k r =
  let unr = t.unr in
  let tag = ms.tag in
  let mem = ms.mem in
  let n_bits = Netlist.memory_data_width mem in
  let w_count = Netlist.num_write_ports mem in
  let addr_bus, enable, out = Netlist.read_port mem r in
  let ra = lits_of_bus t ~frame:k addr_bus in
  let re = Cnf.lit unr ~frame:k enable in
  let rd = lits_of_bus t ~frame:k out in
  (* s(j,w) = E(j,k,w,r) /\ WE(j,w) for every write access before k. *)
  let s_of =
    Array.init k (fun j ->
        Array.init w_count (fun w ->
            let { wa; we; _ } = write_bus t ms j w in
            let e = addr_equal t ~tag ~bump:bump_addr wa ra in
            and_gate t ~tag e we))
  in
  (* Exclusivity chains (eq. 4), built from the most recent access backwards:
     PS(k,k,0) = RE; PS(i,p) = ~s(i,p) /\ PS(i,p+1); PS(i,W) = PS(i+1,0);
     S(i,p) = s(i,p) /\ PS(i,p+1). *)
  let s_sel = Array.make_matrix (max k 1) (max w_count 1) (Lit.pos 0) in
  let ps = ref re in
  for i = k - 1 downto 0 do
    for p = w_count - 1 downto 0 do
      let s = s_of.(i).(p) in
      let ps_next = !ps in
      s_sel.(i).(p) <- and_gate t ~tag s ps_next;
      ps := and_gate t ~tag (Lit.negate s) ps_next
    done
  done;
  let n_never = !ps in
  (* Read-data constraints (eq. 5): S(i,p) -> RD = WD(i,p). *)
  for i = 0 to k - 1 do
    for p = 0 to w_count - 1 do
      let { wd; _ } = write_bus t ms i p in
      let sel = s_sel.(i).(p) in
      for b = 0 to n_bits - 1 do
        emitc ~tag t [ Lit.negate sel; Lit.negate rd.(b); wd.(b) ];
        emitc ~tag t [ Lit.negate sel; rd.(b); Lit.negate wd.(b) ]
      done;
      bump_data t (2 * n_bits)
    done
  done;
  (* Arbitrary initial word V: N -> RD = V. *)
  let v_lits = Array.init n_bits (fun _ -> fresh t) in
  for b = 0 to n_bits - 1 do
    emitc ~tag t [ Lit.negate n_never; Lit.negate rd.(b); v_lits.(b) ];
    emitc ~tag t [ Lit.negate n_never; rd.(b); Lit.negate v_lits.(b) ]
  done;
  bump_data t (2 * n_bits);
  (* Read-validity clause: RE -> (\/ S \/ N).  Implied by the chain but added
     explicitly, as in the paper, to speed up the solver. *)
  let sels =
    List.concat_map
      (fun i -> List.map (fun p -> s_sel.(i).(p)) (List.init w_count Fun.id))
      (List.init k Fun.id)
  in
  emitc ~tag t (Lit.negate re :: n_never :: sels);
  bump_data t 1;
  (* Reset contents: a memory initialised to zero reads 0 from unwritten
     locations — but only on paths starting at the initial state. *)
  (match Netlist.memory_init mem with
  | Netlist.Zeros ->
    let act = Cnf.act_init unr in
    for b = 0 to n_bits - 1 do
      emitc ~tag t [ Lit.negate act; Lit.negate n_never; Lit.negate rd.(b) ]
    done;
    bump_init t n_bits
  | Netlist.Arbitrary -> ()
  | Netlist.Words _ -> assert false);
  (* Equation (6): pairwise consistency with every earlier read access. *)
  let this = { a_frame = k; a_port = r; n_lit = n_never; v_lits; ra_lits = ra } in
  if t.init_consistency then
    List.iter
      (fun other ->
        let eq = addr_equal t ~tag ~bump:(fun _ _ -> ()) other.ra_lits ra in
        let u =
          and_gate ~counted:false t ~tag eq
            (and_gate ~counted:false t ~tag n_never other.n_lit)
        in
        for b = 0 to n_bits - 1 do
          emitc ~tag t [ Lit.negate u; Lit.negate v_lits.(b); other.v_lits.(b) ];
          emitc ~tag t [ Lit.negate u; v_lits.(b); Lit.negate other.v_lits.(b) ]
        done;
        bump_pairs t 1)
      ms.accesses;
  ms.accesses <- this :: ms.accesses

(* The simplifying counterpart: merged select networks, joint chain steps,
   the V word merged into the read-data bus, polarity-reduced eq. (6) and
   constant folding everywhere.  [saved_vars]/[saved_clauses] record the
   difference against what the plain encoding above would have emitted for
   the same port and depth. *)
let constrain_read_simpl t ms k r =
  let unr = t.unr in
  let tag = ms.tag in
  let mem = ms.mem in
  let n_bits = Netlist.memory_data_width mem in
  let m_bits = Netlist.memory_addr_width mem in
  let w_count = Netlist.num_write_ports mem in
  let vars0 = t.current.aux_vars and emitted0 = t.emitted in
  let plain_vars = ref 0 and plain_clauses = ref 0 in
  let plain v c =
    plain_vars := !plain_vars + v;
    plain_clauses := !plain_clauses + c
  in
  let addr_bus, enable, out = Netlist.read_port mem r in
  let ra = lits_of_bus t ~frame:k addr_bus in
  let re = Cnf.lit unr ~frame:k enable in
  let rd = lits_of_bus t ~frame:k out in
  (* s(j,w) = (WA(j,w) = RA) /\ WE(j,w), merged and memoized. *)
  let s_of =
    Array.init k (fun j ->
        Array.init w_count (fun w ->
            let { wa; we; _ } = write_bus t ms j w in
            plain (m_bits + 4) ((4 * m_bits) + 10);
            let before = t.emitted in
            let s = s_net t ~tag wa ra we in
            bump_addr t (t.emitted - before);
            s))
  in
  (* Exclusivity chains (eq. 4), folded. *)
  let s_sel = Array.make_matrix (max k 1) (max w_count 1) (Lit.pos 0) in
  let ps = ref re in
  for i = k - 1 downto 0 do
    for p = w_count - 1 downto 0 do
      let sel, ps' = chain_pair t ~tag s_of.(i).(p) !ps in
      s_sel.(i).(p) <- sel;
      ps := ps'
    done
  done;
  let n_never = !ps in
  (* Read-data constraints (eq. 5): S(i,p) -> RD = WD(i,p). *)
  for i = 0 to k - 1 do
    for p = 0 to w_count - 1 do
      plain 0 (2 * n_bits);
      let sel = s_sel.(i).(p) in
      if not (is_f t sel) then begin
        let { wd; _ } = write_bus t ms i p in
        let prefix = if is_t t sel then [] else [ Lit.negate sel ] in
        let emitted = ref 0 in
        for b = 0 to n_bits - 1 do
          if rd.(b) <> wd.(b) then begin
            emitc ~tag t (prefix @ [ Lit.negate rd.(b); wd.(b) ]);
            emitc ~tag t (prefix @ [ rd.(b); Lit.negate wd.(b) ]);
            emitted := !emitted + 2
          end
        done;
        bump_data t !emitted
      end
    done
  done;
  (* The initial word V is the read-data bus itself when N holds: no fresh
     variables and no linking clauses needed. *)
  plain n_bits (2 * n_bits);
  let v_lits = rd in
  (* Read-validity clause: RE -> (\/ S \/ N). *)
  plain 0 1;
  if not (is_f t re) then begin
    let sels =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun p -> if is_f t s_sel.(i).(p) then None else Some s_sel.(i).(p))
            (List.init w_count Fun.id))
        (List.init k Fun.id)
    in
    let tauto = is_t t n_never || List.exists (is_t t) sels in
    if not tauto then begin
      let head = if is_f t n_never then [] else [ n_never ] in
      emitc ~tag t ((Lit.negate re :: head) @ sels);
      bump_data t 1
    end
  end;
  (* Reset contents: a memory initialised to zero reads 0 from unwritten
     locations — but only on paths starting at the initial state. *)
  (match Netlist.memory_init mem with
  | Netlist.Zeros ->
    plain 0 n_bits;
    if not (is_f t n_never) then begin
      let act = Cnf.act_init unr in
      let guard =
        if is_t t n_never then [ Lit.negate act ]
        else [ Lit.negate act; Lit.negate n_never ]
      in
      for b = 0 to n_bits - 1 do
        emitc ~tag t (guard @ [ Lit.negate rd.(b) ])
      done;
      bump_init t n_bits
    end
  | Netlist.Arbitrary -> ()
  | Netlist.Words _ -> assert false);
  (* Equation (6): pairwise consistency with every earlier read access,
     polarity-reduced — the pair variable u only needs (premises -> u) and
     (u -> V = V'), 2m+1+2n clauses instead of 4m+7+2n. *)
  let this = { a_frame = k; a_port = r; n_lit = n_never; v_lits; ra_lits = ra } in
  if t.init_consistency then
    List.iter
      (fun other ->
        plain (m_bits + 3) ((4 * m_bits) + 7 + (2 * n_bits));
        init_pair_reduced t ~tag ~n_bits this other)
      ms.accesses;
  ms.accesses <- this :: ms.accesses;
  (* Enabled in every state, this read observes the word stored at [ra]
     entering frame [k]: it doubles as the phantom read for (k, ra). *)
  if is_t t re && not (Hashtbl.mem t.phantom_memo (tag, k, ra)) then
    Hashtbl.replace t.phantom_memo (tag, k, ra) this;
  bump_saved t
    (!plain_vars - (t.current.aux_vars - vars0))
    (!plain_clauses - (t.emitted - emitted0))

let constrain_read t ms k r =
  if t.simplify then constrain_read_simpl t ms k r else constrain_read_plain t ms k r

(* One instant event per memory per depth, carrying the delta of the eq.(3)–(6)
   constraint counts contributed by that memory's read ports at this depth. *)
let mem_count_attrs ~before ~after ~emitted =
  let d f = Obs.Int (f after - f before) in
  [
    ("addr_clauses", d (fun c -> c.addr_clauses));
    ("excl_gates", d (fun c -> c.excl_gates));
    ("data_clauses", d (fun c -> c.data_clauses));
    ("init_clauses", d (fun c -> c.init_clauses));
    ("init_pairs", d (fun c -> c.init_pairs));
    ("aux_vars", d (fun c -> c.aux_vars));
    ("emitted_clauses", Obs.Int emitted);
  ]

let add_constraints t k =
  if k <> t.next_depth then
    invalid_arg
      (Printf.sprintf "Emm.add_constraints: expected depth %d, got %d" t.next_depth k);
  t.next_depth <- k + 1;
  t.current <- zero_counts;
  let t0 = Obs.now () in
  Obs.span "emm" ~attrs:[ ("k", Obs.Int k) ] (fun () ->
      let emitted_at_start = t.emitted in
      List.iter
        (fun ms ->
          let before = t.current and emitted0 = t.emitted in
          let nports = Netlist.num_read_ports ms.mem in
          List.iter (fun r -> constrain_read t ms k r) (List.init nports Fun.id);
          if Obs.enabled () then
            Obs.instant "emm.memory"
              ~attrs:
                (("name", Obs.Str (Netlist.memory_name ms.mem))
                 :: ("read_ports", Obs.Int nports)
                 :: mem_count_attrs ~before ~after:t.current
                      ~emitted:(t.emitted - emitted0)))
        t.mems;
      if Obs.enabled () then
        Obs.counter_add "emm.clauses" (t.emitted - emitted_at_start));
  t.current <- { t.current with encode_time_s = Obs.now () -. t0 };
  Hashtbl.replace t.per_depth k t.current

let counts_at t k =
  match Hashtbl.find_opt t.per_depth k with Some c -> c | None -> zero_counts

let counts_total t =
  add_counts t.extra
    (Hashtbl.fold (fun _ c acc -> add_counts c acc) t.per_depth zero_counts)

(* {2 Memory-state distinctness (loop-free-path termination)}

   The engine's loop-free-path constraints range over latch state, so a
   design whose latches repeat while memory contents diverge would be
   over-proved.  [mem_distinct_lit t ~i ~j] returns a literal D with

     D -> chg(j) \/ ... \/ chg(i-1)

   where chg(f) may hold only if some enabled write at frame [f] stores a
   value its target location does not already hold — i.e. the step from
   frame [f] to [f+1] changes some modeled memory.  If every step in [j, i)
   leaves memory unchanged then every chg is false, D is forced false, and
   the engine's LFP clause correctly falls back to latch distinctness;
   conversely, whenever memory contents at frames [i] and [j] differ, some
   step in between changed memory, so the solver can satisfy the clause
   through D.  All implications are one-directional — D only ever occurs
   positively in the LFP clauses, so the converse directions are never
   needed.

   "What the location already holds" is a phantom EMM read: an interface
   word for (frame f, the write port's own address bus), constrained by the
   same merged select networks, exclusivity chain, reset-contents and
   equation-(6) machinery as a real read port with RE = true, and registered
   as an access (port -1) so initial-state consistency ties its
   never-written word to every other access of the memory.  A real read
   port with RE = true at the same frame and address bus already is that
   word, and stands in for the phantom read ([constrain_read_simpl]
   registers it).  Phantom reads are built only for the frame pairs the
   engine requests — it constrains a pair only when a model repeats the
   pair's latch vector — and are memoized per (memory, frame, address bus),
   with chg(f) per frame, so the requested pairs share at most
   O(depth x write-ports) phantom reads. *)

(* Phantom read of memory [ms] at frame [f], address bus [ra] (already
   per-frame literals).  Returns the registered access; its [v_lits] is the
   word the memory holds at address [ra] entering frame [f]. *)
let phantom_access t ms f ra =
  let key = (ms.tag, f, ra) in
  match Hashtbl.find_opt t.phantom_memo key with
  | Some a -> a
  | None ->
    let unr = t.unr in
    let tag = ms.tag in
    let mem = ms.mem in
    let n_bits = Netlist.memory_data_width mem in
    let w_count = Netlist.num_write_ports mem in
    let pv = Array.init n_bits (fun _ -> fresh t) in
    (* s(j,w) over every write access before [f]; RE = true. *)
    let s_of =
      Array.init f (fun j ->
          Array.init w_count (fun w ->
              let { wa; we; _ } = write_bus t ms j w in
              let before = t.emitted in
              let s = s_net t ~tag wa ra we in
              bump_addr t (t.emitted - before);
              s))
    in
    let s_sel = Array.make_matrix (max f 1) (max w_count 1) (Lit.pos 0) in
    let ps = ref (ltrue t) in
    for j = f - 1 downto 0 do
      for p = w_count - 1 downto 0 do
        let sel, ps' = chain_pair t ~tag s_of.(j).(p) !ps in
        s_sel.(j).(p) <- sel;
        ps := ps'
      done
    done;
    let n_never = !ps in
    (* S(j,p) -> PV = WD(j,p): the phantom word tracks the stored value. *)
    for j = 0 to f - 1 do
      for p = 0 to w_count - 1 do
        let sel = s_sel.(j).(p) in
        if not (is_f t sel) then begin
          let { wd; _ } = write_bus t ms j p in
          let prefix = if is_t t sel then [] else [ Lit.negate sel ] in
          let emitted = ref 0 in
          for b = 0 to n_bits - 1 do
            if pv.(b) <> wd.(b) then begin
              emitc ~tag t (prefix @ [ Lit.negate pv.(b); wd.(b) ]);
              emitc ~tag t (prefix @ [ pv.(b); Lit.negate wd.(b) ]);
              emitted := !emitted + 2
            end
          done;
          bump_data t !emitted
        end
      done
    done;
    (* Validity: some selector or the never-written head holds (RE = true). *)
    let sels =
      List.concat_map
        (fun j ->
          List.filter_map
            (fun p -> if is_f t s_sel.(j).(p) then None else Some s_sel.(j).(p))
            (List.init w_count Fun.id))
        (List.init f Fun.id)
    in
    if not (is_t t n_never || List.exists (is_t t) sels) then begin
      let head = if is_f t n_never then [] else [ n_never ] in
      emitc ~tag t (head @ sels);
      bump_data t 1
    end;
    (* Reset contents, guarded on initial-state paths as for real reads. *)
    (match Netlist.memory_init mem with
    | Netlist.Zeros ->
      if not (is_f t n_never) then begin
        let act = Cnf.act_init unr in
        let guard =
          if is_t t n_never then [ Lit.negate act ]
          else [ Lit.negate act; Lit.negate n_never ]
        in
        for b = 0 to n_bits - 1 do
          emitc ~tag t (guard @ [ Lit.negate pv.(b) ])
        done;
        bump_init t n_bits
      end
    | Netlist.Arbitrary -> ()
    | Netlist.Words _ -> assert false);
    (* Equation (6) against every earlier access, real or phantom. *)
    let this = { a_frame = f; a_port = -1; n_lit = n_never; v_lits = pv; ra_lits = ra } in
    if t.init_consistency then
      List.iter (fun other -> init_pair_reduced t ~tag ~n_bits this other) ms.accesses;
    ms.accesses <- this :: ms.accesses;
    Hashtbl.replace t.phantom_memo key this;
    this

(* chg(f): some enabled write at frame [f] stores a value its target
   location does not already hold.  One-directional, memoized per frame and
   shared by every (i, j) pair whose window contains [f]. *)
let change_lit t f =
  match Hashtbl.find_opt t.chg_memo f with
  | Some l -> l
  | None ->
    let ds =
      List.concat_map
        (fun ms ->
          let mem = ms.mem in
          let tag = ms.tag in
          let n_bits = Netlist.memory_data_width mem in
          List.filter_map
            (fun w ->
              let wa_bus, wd_bus, we_sig = Netlist.write_port mem w in
              let wa = lits_of_bus t ~frame:f wa_bus in
              let wd = lits_of_bus t ~frame:f wd_bus in
              let we = Cnf.lit t.unr ~frame:f we_sig in
              if is_f t we then None
              else begin
                let pv = (phantom_access t ms f wa).v_lits in
                (* x_b -> WD_b <> PV_b. *)
                let xs =
                  List.filter_map
                    (fun b ->
                      if wd.(b) = pv.(b) then None (* bit provably unchanged *)
                      else if wd.(b) = Lit.negate pv.(b) then Some (ltrue t)
                      else begin
                        let x = fresh t in
                        emitc ~tag t [ Lit.negate x; wd.(b); pv.(b) ];
                        emitc ~tag t
                          [ Lit.negate x; Lit.negate wd.(b); Lit.negate pv.(b) ];
                        bump_distinct t ~preds:1 ~clauses:2;
                        Some x
                      end)
                    (List.init n_bits Fun.id)
                in
                (* d -> WE /\ (\/ x): this write changes its target word. *)
                if xs = [] then None (* rewrites the stored value bit-for-bit *)
                else if List.exists (is_t t) xs then Some we
                else if is_t t we && List.compare_length_with xs 1 = 0 then
                  Some (List.hd xs)
                else begin
                  let d = fresh t in
                  bump_distinct t ~preds:1 ~clauses:0;
                  if not (is_t t we) then begin
                    emitc ~tag t [ Lit.negate d; we ];
                    bump_distinct t ~preds:0 ~clauses:1
                  end;
                  emitc ~tag t (Lit.negate d :: xs);
                  bump_distinct t ~preds:0 ~clauses:1;
                  Some d
                end
              end)
            (List.init (Netlist.num_write_ports mem) Fun.id))
        t.mems
    in
    let ds = List.filter (fun l -> not (is_f t l)) ds in
    let chg =
      if List.exists (is_t t) ds then ltrue t
      else
        match ds with
        | [] -> lfalse t
        | [ d ] -> d
        | ds ->
          let chg = fresh t in
          emitc ~tag:t.distinct_tag t (Lit.negate chg :: ds);
          bump_distinct t ~preds:1 ~clauses:1;
          chg
    in
    Hashtbl.replace t.chg_memo f chg;
    chg

let mem_distinct_lit t ~i ~j =
  if not (0 <= j && j < i) then
    invalid_arg
      (Printf.sprintf "Emm.mem_distinct_lit: need 0 <= j < i, got i=%d j=%d" i j);
  if i >= t.next_depth + 1 then
    invalid_arg
      (Printf.sprintf
         "Emm.mem_distinct_lit: frame %d beyond encoded depth %d (call \
          add_constraints first)"
         i (t.next_depth - 1));
  match Hashtbl.find_opt t.distinct_memo (i, j) with
  | Some l -> l
  | None ->
    (* Distinctness is requested by the engine after [add_constraints] has
       snapshotted the depth's counts, so accumulate into [t.extra]. *)
    let saved = t.current in
    t.current <- zero_counts;
    let t0 = Obs.now () in
    let l =
      let chgs =
        List.filter
          (fun l -> not (is_f t l))
          (List.map (fun f -> change_lit t f) (List.init (i - j) (fun o -> j + o)))
      in
      if List.exists (is_t t) chgs then ltrue t
      else
        match chgs with
        | [] -> lfalse t
        | [ c ] -> c
        | cs ->
          let d = fresh t in
          emitc ~tag:t.distinct_tag t (Lit.negate d :: cs);
          bump_distinct t ~preds:1 ~clauses:1;
          d
    in
    t.extra <- add_counts t.extra { t.current with encode_time_s = Obs.now () -. t0 };
    t.current <- saved;
    Hashtbl.replace t.distinct_memo (i, j) l;
    l

let word_of_lits solver lits =
  let w = ref 0 in
  Array.iteri (fun i l -> if Solver.value solver l then w := !w lor (1 lsl i)) lits;
  !w

let mem_init_of_model t =
  let solver = Cnf.solver t.unr in
  List.filter_map
    (fun ms ->
      match Netlist.memory_init ms.mem with
      | Netlist.Zeros -> None (* defaults already match *)
      | Netlist.Words _ -> None
      | Netlist.Arbitrary ->
        (* First (most recent) access per address wins; a hash table keyed on
           the address keeps the dedup linear in the number of accesses. *)
        let seen = Hashtbl.create 16 in
        let words =
          List.filter_map
            (fun a ->
              if Solver.value solver a.n_lit then begin
                let addr = word_of_lits solver a.ra_lits in
                if Hashtbl.mem seen addr then None
                else begin
                  Hashtbl.add seen addr ();
                  Some (addr, word_of_lits solver a.v_lits)
                end
              end
              else None)
            ms.accesses
        in
        Some (Netlist.memory_name ms.mem, words))
    t.mems

let predicted_clauses ~aw ~dw ~k ~writes ~reads =
  ((((4 * aw) + (2 * dw) + 1) * k * writes) + (2 * dw) + 1) * reads

let predicted_gates ~k ~writes ~reads = 3 * k * writes * reads

type race = {
  race_memory : string;
  race_depth : int;
  race_ports : int * int;
  race_trace : Bmc.Trace.t;
}

(* Input stimulus of the current model, for race reporting. *)
let trace_of_model t ~depth ~label =
  let net = Cnf.net t.unr in
  let solver = Cnf.solver t.unr in
  let inputs =
    Array.init (depth + 1) (fun frame ->
        List.filter_map
          (fun s ->
            match Netlist.node net (Netlist.node_of s) with
            | Netlist.Input name ->
              Some (name, Solver.value solver (Cnf.lit t.unr ~frame s))
            | Netlist.Const_false | Netlist.Latch _ | Netlist.And _
            | Netlist.Mem_out _ -> None)
          (Netlist.inputs net))
  in
  let latch0 =
    List.filter_map
      (fun l ->
        match Netlist.latch_init net l with
        | None ->
          Some (Netlist.latch_name net l, Solver.value solver (Cnf.lit t.unr ~frame:0 l))
        | Some _ -> None)
      (Netlist.latches net)
  in
  {
    Bmc.Trace.property = label;
    depth;
    inputs;
    latch0;
    mem_init = mem_init_of_model t;
    watch = [];
  }

let find_data_race ?(max_depth = 50) ?deadline net =
  let solver = Solver.create () in
  Solver.set_deadline solver deadline;
  (* Every query below assumes [act_init], so frame-0 latch values can be
     folded to constants; no reason extraction happens here. *)
  let unr = Cnf.create ~fold_init:true ~track_reasons:false solver net in
  let t = create unr in
  let act_init = Cnf.act_init unr in
  let deadline_passed () =
    match deadline with Some d -> Obs.now () > d | None -> false
  in
  let result = ref None in
  (try
     for k = 0 to max_depth do
       if deadline_passed () then raise Exit;
       add_constraints t k;
       List.iter
         (fun ms ->
           let mem = ms.mem in
           let w = Netlist.num_write_ports mem in
           for w1 = 0 to w - 1 do
             for w2 = w1 + 1 to w - 1 do
               let a1, _, e1 = Netlist.write_port mem w1 in
               let a2, _, e2 = Netlist.write_port mem w2 in
               let l1 = lits_of_bus t ~frame:k a1 in
               let l2 = lits_of_bus t ~frame:k a2 in
               let eq =
                 if t.simplify then eq_lit t ~tag:ms.tag l1 l2
                 else addr_equal t ~tag:ms.tag ~bump:(fun _ _ -> ()) l1 l2
               in
               let assumptions =
                 [
                   act_init;
                   eq;
                   Cnf.lit unr ~frame:k e1;
                   Cnf.lit unr ~frame:k e2;
                 ]
               in
               if !result = None && Solver.solve ~assumptions solver = Solver.Sat
               then
                 result :=
                   Some
                     {
                       race_memory = Netlist.memory_name mem;
                       race_depth = k;
                       race_ports = (w1, w2);
                       race_trace =
                         trace_of_model t ~depth:k
                           ~label:
                             (Printf.sprintf "__race_%s__" (Netlist.memory_name mem));
                     }
             done
           done)
         t.mems;
       if !result <> None then raise Exit
     done
   with Exit | Solver.Timeout -> ());
  !result

let hooks ?memories ?init_consistency ?simplify ?(mem_distinct = true) net =
  ignore net;
  let state = ref None in
  let get unr =
    match !state with
    | Some s -> s
    | None ->
      let s = create ?memories ?init_consistency ?simplify unr in
      state := Some s;
      s
  in
  let hooks =
    {
      Bmc.Engine.on_unroll = (fun unr k -> add_constraints (get unr) k);
      mem_init_of_model =
        (fun unr _depth -> match !state with
          | Some s -> mem_init_of_model s
          | None -> ignore unr; []);
      mem_distinct =
        (if mem_distinct then
           Some (fun unr ~i ~j -> mem_distinct_lit (get unr) ~i ~j)
         else None);
    }
  in
  let get_counts () = match !state with Some s -> counts_total s | None -> zero_counts in
  (hooks, get_counts)

let check ?config ?memories ?init_consistency ?simplify ?mem_distinct net ~property =
  let hks, get_counts = hooks ?memories ?init_consistency ?simplify ?mem_distinct net in
  let result = Bmc.Engine.check ?config ~hooks:hks net ~property in
  (result, get_counts ())

let check_many ?config ?memories ?init_consistency ?simplify ?mem_distinct net
    ~properties =
  let hks, get_counts = hooks ?memories ?init_consistency ?simplify ?mem_distinct net in
  let results, stats = Bmc.Engine.check_all ?config ~hooks:hks net ~properties in
  (results, stats, get_counts ())
