module Lit = Satsolver.Lit
module Solver = Satsolver.Solver

type kind = Drat_checked | Trace_replayed
type t = Certified of kind | Refuted of string | Unchecked of string

let label = function
  | Certified Drat_checked -> "drat-checked"
  | Certified Trace_replayed -> "trace-replayed"
  | Refuted _ -> "refuted"
  | Unchecked _ -> "unchecked"

let pp ppf = function
  | Certified Drat_checked -> Format.pp_print_string ppf "certified (drat-checked)"
  | Certified Trace_replayed ->
    Format.pp_print_string ppf "certified (trace-replayed)"
  | Refuted why -> Format.fprintf ppf "REFUTED: %s" why
  | Unchecked why -> Format.fprintf ppf "unchecked (%s)" why

module Drat = struct
  type step = Solver.proof_step = Padd of Lit.t list | Pdel of Lit.t list

  type report = {
    steps : int;
    lemmas : int;
    checked_lemmas : int;
    obligations : int;
  }

  type outcome = Valid of report | Invalid of string

  exception Invalid_proof of string

  (* {2 Flat clause store}

     Clause [c] owns [len.(c)] literals of [lits] from [start.(c)]; its two
     watched literals sit in the first two positions.  Watch slot [2c + w]
     watches the literal at position [w], and each literal's watch list is
     a chain of slots through [whead] and [wnext].  Dead clauses stay
     chained and are skipped.  Every refutation attempt starts from the
     empty assignment, where any two literals of a clause are valid
     watches, so a clause revived between attempts needs no repair. *)
  type state = {
    lits : int array;
    mutable top : int;  (* first free slot of [lits] *)
    start : int array;
    len : int array;
    mutable n : int;  (* clauses loaded *)
    alive : Bytes.t;
    marked : Bytes.t;
    lit_stamp : int array;  (* literal -> stamp: duplicates and set tests *)
    mutable lit_clock : int;
    whead : int array;  (* literal -> first watch slot, -1 when none *)
    wnext : int array;  (* watch slot -> next slot on the same literal *)
    mutable units : int list;  (* unit clauses, newest first *)
    mutable empties : int list;  (* empty clauses, newest first *)
    value : Bytes.t;  (* literal -> unassigned / true / false *)
    reason : int array;  (* var -> clause that forced it, -1 for none *)
    trail : int array;  (* assigned literals in order; doubles as queue *)
    mutable trail_size : int;
    mutable qhead : int;
    visited : int array;  (* var -> cone-marking stamp *)
    mutable var_clock : int;
    stack : int array;  (* cone-marking work list *)
    (* Deletion index, built when the first deletion step arrives: clauses
       chained by an order-independent key of their literal set. *)
    mutable key : int array;
    mutable bhead : int array;
    mutable bnext : int array;
  }

  let unassigned = '\000'
  let true_ = '\001'
  let false_ = '\002'

  let create ~nvars ~nclauses ~nlits =
    {
      lits = Array.make nlits 0;
      top = 0;
      start = Array.make nclauses 0;
      len = Array.make nclauses 0;
      n = 0;
      alive = Bytes.make nclauses '\000';
      marked = Bytes.make nclauses '\000';
      lit_stamp = Array.make (2 * nvars) 0;
      lit_clock = 0;
      whead = Array.make (2 * nvars) (-1);
      wnext = Array.make (2 * nclauses) (-1);
      units = [];
      empties = [];
      value = Bytes.make (2 * nvars) unassigned;
      reason = Array.make nvars (-1);
      trail = Array.make nvars 0;
      trail_size = 0;
      qhead = 0;
      visited = Array.make nvars 0;
      var_clock = 0;
      stack = Array.make nvars 0;
      key = [||];
      bhead = [||];
      bnext = [||];
    }

  (* Sizes from the literals themselves: one more than the largest variable,
     and the clause and literal counts of everything [load] will see. *)
  let sizes ~original ~proof ~obligations =
    let nvars = ref 0 and nclauses = ref 0 and nlits = ref 0 in
    let see l = if Lit.var l >= !nvars then nvars := Lit.var l + 1 in
    let clause ls =
      incr nclauses;
      nlits := !nlits + List.length ls;
      List.iter see ls
    in
    List.iter clause original;
    List.iter (function Padd ls -> clause ls | Pdel ls -> List.iter see ls) proof;
    List.iter (List.iter see) obligations;
    (!nvars, !nclauses, !nlits)

  let[@inline] is_alive st c = Bytes.unsafe_get st.alive c = '\001'
  let set_alive st c b = Bytes.unsafe_set st.alive c (if b then '\001' else '\000')

  let watch st slot l =
    st.wnext.(slot) <- st.whead.(l);
    st.whead.(l) <- slot

  (* An order-independent key of a literal set: its size and the sum of
     its mixed literals. *)
  let mix l =
    let h = (l + 1) * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)

  let set_key n sum = ((n * 0x2545F4914F6CDD1) + sum) land max_int

  let key_of st c =
    let sum = ref 0 in
    for i = st.start.(c) to st.start.(c) + st.len.(c) - 1 do
      sum := !sum + mix st.lits.(i)
    done;
    set_key st.len.(c) !sum

  let index_add st c =
    let k = key_of st c in
    st.key.(c) <- k;
    let b = k land (Array.length st.bhead - 1) in
    st.bnext.(c) <- st.bhead.(b);
    st.bhead.(b) <- c

  let build_index st =
    let cap = Array.length st.start in
    let buckets = ref 16 in
    while !buckets < cap do
      buckets := 2 * !buckets
    done;
    st.key <- Array.make cap 0;
    st.bhead <- Array.make !buckets (-1);
    st.bnext <- Array.make cap (-1);
    for c = 0 to st.n - 1 do
      index_add st c
    done

  (* Append a clause, alive, dropping duplicate literals. *)
  let load st ls =
    let c = st.n in
    st.n <- c + 1;
    let s = st.lit_clock + 1 in
    st.lit_clock <- s;
    let b = st.top in
    List.iter
      (fun l ->
        if st.lit_stamp.(l) <> s then begin
          st.lit_stamp.(l) <- s;
          st.lits.(st.top) <- l;
          st.top <- st.top + 1
        end)
      ls;
    st.start.(c) <- b;
    st.len.(c) <- st.top - b;
    set_alive st c true;
    (match st.len.(c) with
    | 0 -> st.empties <- c :: st.empties
    | 1 -> st.units <- c :: st.units
    | _ ->
      watch st (2 * c) st.lits.(b);
      watch st ((2 * c) + 1) st.lits.(b + 1));
    if Array.length st.bhead > 0 then index_add st c;
    c

  (* The newest alive clause whose literal set is that of [ls], or -1. *)
  let find_alive st ls =
    if Array.length st.bhead = 0 then build_index st;
    let s = st.lit_clock + 1 in
    st.lit_clock <- s;
    let n = ref 0 and sum = ref 0 in
    List.iter
      (fun l ->
        if st.lit_stamp.(l) <> s then begin
          st.lit_stamp.(l) <- s;
          incr n;
          sum := !sum + mix l
        end)
      ls;
    let k = set_key !n !sum in
    (* Equal sizes and every literal of [c] in [ls]: the same set. *)
    let same c =
      st.key.(c) = k
      && st.len.(c) = !n
      &&
      let i = ref st.start.(c) and e = st.start.(c) + st.len.(c) in
      while !i < e && st.lit_stamp.(st.lits.(!i)) = s do
        incr i
      done;
      !i = e
    in
    let rec walk c = if c < 0 || (is_alive st c && same c) then c else walk st.bnext.(c) in
    walk st.bhead.(k land (Array.length st.bhead - 1))

  let sorted_lits st c =
    List.sort compare (List.init st.len.(c) (fun i -> st.lits.(st.start.(c) + i)))

  let pp_clause ppf lits =
    if lits = [] then Format.pp_print_string ppf "<empty>"
    else
      List.iteri
        (fun i l -> Format.fprintf ppf "%s%d" (if i = 0 then "" else " ") (Lit.to_dimacs l))
        lits

  (* {2 Unit propagation} *)

  let assign st l r =
    Bytes.unsafe_set st.value l true_;
    Bytes.unsafe_set st.value (l lxor 1) false_;
    st.reason.(Lit.var l) <- r;
    st.trail.(st.trail_size) <- l;
    st.trail_size <- st.trail_size + 1

  (* Mark the conflict cone: the conflicting clause [confl] (or none, -1),
     the reason chain of variable [v] (or none, -1), and transitively the
     reasons of every variable they mention. *)
  let mark_cone st confl v =
    st.var_clock <- st.var_clock + 1;
    let s = st.var_clock in
    let sp = ref 0 in
    let push v =
      if st.visited.(v) <> s then begin
        st.visited.(v) <- s;
        st.stack.(!sp) <- v;
        incr sp
      end
    in
    let push_clause c =
      Bytes.unsafe_set st.marked c '\001';
      for i = st.start.(c) to st.start.(c) + st.len.(c) - 1 do
        push (Lit.var st.lits.(i))
      done
    in
    if confl >= 0 then push_clause confl;
    if v >= 0 then push v;
    while !sp > 0 do
      decr sp;
      let r = st.reason.(st.stack.(!sp)) in
      if r >= 0 then push_clause r
    done

  (* Assert [l] with reason [r] (-1 for an assumption).  [false] on a clash
     with the current assignment, whose cone is then marked. *)
  let assume st l r =
    let v = Bytes.unsafe_get st.value l in
    if v = true_ then true
    else if v = false_ then begin
      mark_cone st r (Lit.var l);
      false
    end
    else begin
      assign st l r;
      true
    end

  (* Propagate the trail to fixpoint over the alive clauses; returns the
     falsified clause, or -1. *)
  let propagate st =
    let lits = st.lits and value = st.value and wnext = st.wnext in
    let confl = ref (-1) in
    while !confl < 0 && st.qhead < st.trail_size do
      let f = st.trail.(st.qhead) lxor 1 in
      st.qhead <- st.qhead + 1;
      let prev = ref (-1) in
      let slot = ref st.whead.(f) in
      while !slot >= 0 do
        let sl = !slot in
        let next = wnext.(sl) in
        let c = sl lsr 1 in
        let b = st.start.(c) in
        let w = sl land 1 in
        let other = lits.(b + 1 - w) in
        if (not (is_alive st c)) || Bytes.unsafe_get value other = true_ then begin
          prev := sl;
          slot := next
        end
        else begin
          let e = b + st.len.(c) in
          let k = ref (b + 2) in
          while !k < e && Bytes.unsafe_get value lits.(!k) = false_ do
            incr k
          done;
          if !k < e then begin
            (* Move the watch to the non-false literal. *)
            let l = lits.(!k) in
            lits.(!k) <- f;
            lits.(b + w) <- l;
            if !prev < 0 then st.whead.(f) <- next else wnext.(!prev) <- next;
            watch st sl l;
            slot := next
          end
          else if Bytes.unsafe_get value other = unassigned then begin
            assign st other c;
            prev := sl;
            slot := next
          end
          else begin
            confl := c;
            slot := -1
          end
        end
      done
    done;
    !confl

  let undo st =
    for i = 0 to st.trail_size - 1 do
      let l = st.trail.(i) in
      Bytes.unsafe_set st.value l unassigned;
      Bytes.unsafe_set st.value (l lxor 1) unassigned;
      st.reason.(Lit.var l) <- -1
    done;
    st.trail_size <- 0;
    st.qhead <- 0

  (* Does propagation from the alive unit clauses plus the literals that
     [assume_extra] asserts yield a conflict?  On success the conflict cone
     is marked. *)
  let refutes st assume_extra =
    match List.find_opt (is_alive st) st.empties with
    | Some c ->
      Bytes.unsafe_set st.marked c '\001';
      true
    | None ->
      let clash =
        (not
           (List.for_all
              (fun c -> (not (is_alive st c)) || assume st st.lits.(st.start.(c)) c)
              st.units))
        || (not (assume_extra ()))
        ||
        let confl = propagate st in
        confl >= 0 && (mark_cone st confl (-1); true)
      in
      undo st;
      clash

  let refutes_cube st cube = refutes st (fun () -> List.for_all (fun l -> assume st l (-1)) cube)

  (* RUP: asserting the negation of clause [c] conflicts. *)
  let refutes_negation st c =
    refutes st (fun () ->
        let ok = ref true and i = ref st.start.(c) in
        while !ok && !i < st.start.(c) + st.len.(c) do
          ok := assume st (st.lits.(!i) lxor 1) (-1);
          incr i
        done;
        !ok)

  let check ?(every_lemma = false) ~original ~proof ~obligations () =
    let nvars, nclauses, nlits = sizes ~original ~proof ~obligations in
    let st = create ~nvars ~nclauses ~nlits in
    List.iter (fun c -> ignore (load st c)) original;
    try
      (* Forward replay of the derivation, honouring deletions.  [steps.(i)]
         is the clause step [i] added, or -(c + 1) for a deleted clause [c]. *)
      let steps = Array.make (List.length proof) 0 in
      List.iteri
        (fun i step ->
          match step with
          | Padd lits -> steps.(i) <- load st lits
          | Pdel lits ->
            let c = find_alive st lits in
            if c < 0 then
              raise
                (Invalid_proof
                   (Format.asprintf "step %d deletes absent clause [%a]" i pp_clause
                      (List.sort_uniq compare lits)));
            set_alive st c false;
            steps.(i) <- -c - 1)
        proof;
      (* Every obligation must conflict at the end state.  Deletion weakens
         propagation but never implication, so revive deleted lemmas once
         before giving up. *)
      List.iteri
        (fun i a ->
          let ok =
            refutes_cube st a
            ||
            (Array.iter (fun s -> if s < 0 then set_alive st (-s - 1) true) steps;
             refutes_cube st a)
          in
          if not ok then
            raise
              (Invalid_proof
                 (Format.asprintf
                    "obligation %d ([%a]) not refuted by unit propagation" i
                    pp_clause a)))
        obligations;
      (* Backward pass: walk the derivation in reverse, reviving deletions
         and retiring additions; verify each addition in the marked cone
         against exactly the clauses that preceded it. *)
      let checked = ref 0 in
      let lemmas = ref 0 in
      for i = Array.length steps - 1 downto 0 do
        let c = steps.(i) in
        if c < 0 then set_alive st (-c - 1) true
        else begin
          incr lemmas;
          set_alive st c false;
          if Bytes.get st.marked c = '\001' || every_lemma then begin
            if refutes_negation st c then incr checked
            else
              raise
                (Invalid_proof
                   (Format.asprintf "lemma %d ([%a]) is not RUP" i pp_clause
                      (sorted_lits st c)))
          end
        end
      done;
      Valid
        {
          steps = Array.length steps;
          lemmas = !lemmas;
          checked_lemmas = !checked;
          obligations = List.length obligations;
        }
    with Invalid_proof why -> Invalid why

  let clause_is_rup set clause =
    let nvars, nclauses, nlits = sizes ~original:set ~proof:[] ~obligations:[ clause ] in
    let st = create ~nvars ~nclauses ~nlits in
    List.iter (fun c -> ignore (load st c)) set;
    refutes_cube st (List.map Lit.negate clause)

  let verify ~original ~derivation =
    match
      check ~every_lemma:true ~original
        ~proof:(List.map (fun c -> Padd c) derivation)
        ~obligations:[ [] ] ()
    with
    | Valid _ -> true
    | Invalid _ -> false

  let output oc steps =
    List.iter
      (fun s ->
        let prefix, lits = match s with Padd l -> ("", l) | Pdel l -> ("d ", l) in
        output_string oc prefix;
        List.iter
          (fun l ->
            output_string oc (string_of_int (Lit.to_dimacs l));
            output_char oc ' ')
          lits;
        output_string oc "0\n")
      steps
end
