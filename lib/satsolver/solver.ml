type result = Sat | Unsat

(* Bookkeeping needed to rebuild refutations after clause deletion, for the
   clause ids that are not original clauses ([cid_tag] holds [derived] for
   them): learnt clauses keep the premises they were resolved from.
   Premise entries >= 0 are clause ids; a negative entry -(v+1) refers to
   the root-level derivation of variable [v] (root assignments are
   permanent, so their reason chains can be re-traversed at core-extraction
   time). *)
type cid_info =
  | Learnt_from of int array
  | Imported  (* clause imported from a portfolio peer; no local derivation *)

(* One line of a DRAT proof: clause additions (learnt clauses, in derivation
   order) interleaved with the deletions performed by DB reduction. *)
type proof_step = Padd of Lit.t list | Pdel of Lit.t list

(* Cumulative search statistics, cheap enough to keep always-on. *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;  (* total clauses ever learnt *)
  deleted_clauses : int;  (* learnt clauses dropped by DB reduction *)
  db_reductions : int;
  minimised_lits : int;  (* literals removed by conflict-clause minimisation *)
  avg_lbd : float;  (* mean LBD over all learnt clauses *)
  solve_time_s : float;  (* time spent inside [solve], on the [Obs.now] clock *)
  shared_out : int;  (* learnt clauses accepted by the share callback *)
  shared_in : int;  (* peer clauses imported via [import_clauses] *)
}

let empty_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_clauses = 0;
    deleted_clauses = 0;
    db_reductions = 0;
    minimised_lits = 0;
    avg_lbd = 0.0;
    solve_time_s = 0.0;
    shared_out = 0;
    shared_in = 0;
  }

(* {2 Data layout}

   Clauses live in one growable [int array], the arena.  A clause reference
   (cref) is the index of the clause's three-word header:

     arena.(cr)       size lsl 2, lor 2 if removed, lor 1 if learnt
     arena.(cr + 1)   clause id (cid)
     arena.(cr + 2)   LBD (glue); 0 for original clauses
     arena.(cr + 3)…  the literals, the two watched ones first

   Clause activity lives apart, in a [float array] indexed by cid, so that
   no float is boxed.  A variable's reason is a cref, or -1.  The watch list
   of a literal is an [int array]: slot 0 holds the number of words in use,
   then come (blocker, tagged cref) pairs, where the tag (bit 0) marks a
   binary clause.  The blocker is a literal of the clause other than the
   watched one: when it is already true the clause is satisfied and its
   arena words are never loaded.  For a binary clause the blocker is the
   other literal, so propagation resolves it from the watch entry alone and
   leaves its literal order alone; whoever reads a binary clause orients it
   first ([reason_of] for reasons, [propagate] for a conflict).

   dune's default (dev) profile compiles with -opaque, which rules out
   inlining across modules, so the literal, growable-array and heap helpers
   the hot paths call are defined here rather than taken from [Lit]. *)

let hdr = 3
let learnt_bit = 1
let removed_bit = 2

(* Per-clause footprint in words: header, literals and the two watch
   pairs.  The learnt-DB memory budget counts this for every live learnt
   clause. *)
let clause_words n = hdr + n + 4

(* Arena words held by removed clauses, as a share of the arena, past which
   [reduce_db] compacts the arena. *)
let garbage_fraction = 0.2

(* [cid_tag] entry of a learnt or imported clause. *)
let derived = -2

let[@inline] var l = l lsr 1
let[@inline] negate l = l lxor 1
let[@inline] positive l = l land 1 = 0

type t = {
  mutable nvars : int;
  mutable arena : int array;
  mutable arena_top : int; (* first free word *)
  mutable garbage : int; (* arena words held by removed clauses *)
  mutable clauses : int array; (* crefs of original clauses, insertion order *)
  mutable n_clauses : int;
  mutable learnts : int array; (* crefs of live learnt clauses, learning order *)
  mutable n_learnts : int;
  mutable clause_act : float array; (* cid -> activity *)
  mutable watches : int array array; (* indexed by literal *)
  mutable assign : int array; (* var -> -1 undef / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* var -> cref, -1 for none *)
  mutable phase : bool array;
  mutable seen : int array; (* 0 unseen / 1 in-clause / 2 removable / 3 failed *)
  mutable level_stamp : int array; (* level -> stamp, for LBD counting *)
  mutable stamp : int;
  mutable trail : int array; (* sized to the variable capacity *)
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable n_levels : int; (* decision level = used prefix of [trail_lim] *)
  mutable qhead : int;
  mutable activity : float array; (* VSIDS score per variable *)
  mutable var_inc : float;
  mutable cla_inc : float;
  (* VSIDS decision order: a binary max-heap of variables keyed by
     [activity], with each variable's heap position (-1 when absent). *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;
  mutable cid_tag : int array; (* cid -> caller's tag (-1 none), or [derived] *)
  cid_info : (int, cid_info) Hashtbl.t; (* derived cids only *)
  mutable next_cid : int;
  (* [collect_refutation]'s visited marks: clause ids and variables whose
     stamp equals [refute_stamp] were reached by the current traversal. *)
  mutable refute_stamp : int;
  mutable cid_stamp : int array;
  mutable var_stamp : int array;
  mutable ok : bool;
  mutable last_core : int list;
  mutable last_failed : int list;
  mutable model : int array;
  mutable assumptions : int array;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_total : int;
  mutable lbd_sum : int;
  mutable deleted_total : int;
  mutable db_reductions : int;
  mutable minimised_lits : int;
  mutable solve_time : float;
  mutable max_learnts : float;
  mutable deadline : float option;
  mutable proof_steps : proof_step list; (* DRAT log, newest first *)
  mutable proof_logging : bool;
  mutable conflict_budget : int option; (* max conflicts per [solve] call *)
  mutable conflict_base : int; (* [t.conflicts] at [solve] entry *)
  mutable learnt_budget_mb : float option; (* learnt-DB memory ceiling *)
  mutable learnt_words : int; (* words held by live learnt clauses *)
  mutable lits_buf : int array; (* scratch: the clause being taken in *)
  (* Portfolio hooks — all inert by default; see lib/portfolio. *)
  mutable stop : bool Atomic.t option; (* cooperative cancellation flag *)
  mutable share_callback : (lbd:int -> Lit.t list -> bool) option;
  mutable import_source : (unit -> Lit.t list list) option;
  mutable clause_listener : (int -> Lit.t list -> unit) option;
  mutable shared_out : int;
  mutable shared_in : int;
  mutable core_tainted : bool; (* last refutation traversed an imported clause *)
  (* Diversification knobs for portfolio replicas. *)
  mutable var_decay_inv : float;
  mutable restart_base : float;
  mutable phase_default : bool;
  mutable rnd_state : int;
  mutable rnd_phase_freq : float;
}

exception Timeout

exception Budget_exceeded of string

exception Stopped

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999
let var_marker v = -v - 1

(* A fresh watch list: four pairs of room. *)
let empty_watches () = Array.make 9 0

let create () =
  {
    nvars = 0;
    arena = Array.make 1024 0;
    arena_top = 0;
    garbage = 0;
    clauses = Array.make 64 0;
    n_clauses = 0;
    learnts = Array.make 64 0;
    n_learnts = 0;
    clause_act = Array.make 64 0.0;
    watches = Array.init 128 (fun _ -> empty_watches ());
    assign = Array.make 64 (-1);
    level = Array.make 64 (-1);
    reason = Array.make 64 (-1);
    phase = Array.make 64 false;
    seen = Array.make 64 0;
    level_stamp = Array.make 65 0;
    stamp = 0;
    trail = Array.make 64 0;
    trail_size = 0;
    trail_lim = Array.make 64 0;
    n_levels = 0;
    qhead = 0;
    activity = Array.make 64 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    heap = Array.make 64 0;
    heap_size = 0;
    heap_pos = Array.make 64 (-1);
    cid_tag = Array.make 64 derived;
    cid_info = Hashtbl.create 1024;
    next_cid = 0;
    refute_stamp = 0;
    cid_stamp = Array.make 64 0;
    var_stamp = Array.make 64 0;
    ok = true;
    last_core = [];
    last_failed = [];
    model = [||];
    assumptions = [||];
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_total = 0;
    lbd_sum = 0;
    deleted_total = 0;
    db_reductions = 0;
    minimised_lits = 0;
    solve_time = 0.0;
    max_learnts = 0.0;
    deadline = None;
    proof_steps = [];
    proof_logging = false;
    conflict_budget = None;
    conflict_base = 0;
    learnt_budget_mb = None;
    learnt_words = 0;
    lits_buf = Array.make 64 0;
    stop = None;
    share_callback = None;
    import_source = None;
    clause_listener = None;
    shared_out = 0;
    shared_in = 0;
    core_tainted = false;
    var_decay_inv = var_decay;
    restart_base = 100.0;
    phase_default = false;
    rnd_state = 0;
    rnd_phase_freq = 0.0;
  }

let set_deadline t d = t.deadline <- d
let set_proof_logging t b = t.proof_logging <- b
let set_conflict_budget t b = t.conflict_budget <- b
let set_learnt_budget_mb t b = t.learnt_budget_mb <- b
let set_stop t f = t.stop <- f
let set_share_callback t f = t.share_callback <- f
let set_import_source t f = t.import_source <- f
let set_clause_listener t f = t.clause_listener <- f

let set_var_decay t d =
  if d <= 0.0 || d > 1.0 then invalid_arg "Solver.set_var_decay";
  t.var_decay_inv <- 1.0 /. d

let set_restart_base t b =
  if b < 1 then invalid_arg "Solver.set_restart_base";
  t.restart_base <- float_of_int b

let set_default_phase t p =
  t.phase_default <- p;
  Array.fill t.phase 0 (Array.length t.phase) p

let set_random_seed t s = t.rnd_state <- s land max_int
let set_random_phase_freq t f = t.rnd_phase_freq <- f
let deadline t = t.deadline
let conflict_budget t = t.conflict_budget
let learnt_budget_mb t = t.learnt_budget_mb
let proof_logging_enabled t = t.proof_logging
let core_complete t = not t.core_tainted
let raw_model t = Array.copy t.model
let adopt_model t m = t.model <- Array.copy m
let proof t = List.rev t.proof_steps

let proof_log t =
  List.rev
    (List.filter_map (function Padd c -> Some c | Pdel _ -> None) t.proof_steps)

let num_vars t = t.nvars
let num_clauses t = t.n_clauses
let num_learnts t = t.n_learnts
let num_conflicts t = t.conflicts
let num_decisions t = t.decisions
let num_propagations t = t.propagations
let okay t = t.ok

let stats t =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    learnt_clauses = t.learnt_total;
    deleted_clauses = t.deleted_total;
    db_reductions = t.db_reductions;
    minimised_lits = t.minimised_lits;
    avg_lbd =
      (if t.learnt_total = 0 then 0.0
       else float_of_int t.lbd_sum /. float_of_int t.learnt_total);
    solve_time_s = t.solve_time;
    shared_out = t.shared_out;
    shared_in = t.shared_in;
  }

(* {2 Growable arrays} *)

(* [a] with room for at least [n] elements; the first [used] are kept and
   the rest read [fill]. *)
let reserve a n used fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (Array.length a + (Array.length a / 2) + 1)) fill in
    Array.blit a 0 b 0 used;
    b
  end

let push_int a size x =
  let a = reserve a (size + 1) size 0 in
  Array.unsafe_set a size x;
  a

let grow_arrays t n =
  let old = Array.length t.assign in
  if n > old then begin
    let cap = max (2 * old) n in
    let grow a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 old;
      b
    in
    t.assign <- grow t.assign (-1);
    t.level <- grow t.level (-1);
    t.reason <- grow t.reason (-1);
    t.seen <- grow t.seen 0;
    t.var_stamp <- grow t.var_stamp 0;
    t.trail <- grow t.trail 0;
    t.heap <- grow t.heap 0;
    t.heap_pos <- grow t.heap_pos (-1);
    t.phase <- grow t.phase t.phase_default;
    t.activity <- grow t.activity 0.0;
    let b = Array.make (cap + 1) 0 in
    Array.blit t.level_stamp 0 b 0 (Array.length t.level_stamp);
    t.level_stamp <- b
  end;
  let oldw = Array.length t.watches in
  if 2 * n > oldw then begin
    let cap = max (2 * oldw) (2 * n) in
    t.watches <-
      Array.init cap (fun i -> if i < oldw then t.watches.(i) else empty_watches ())
  end

(* {2 The clause arena} *)

(* {3 Clause intake}

   Every clause enters through [t.lits_buf]: [load_lits] copies it there,
   [normalise] sorts and cleans it in place, and [alloc_clause] stores the
   buffer's first [n] literals. *)

let rec blit_list a i = function
  | [] -> ()
  | l :: rest ->
    Array.unsafe_set a i l;
    blit_list a (i + 1) rest

let load_lits t lits =
  let n = List.length lits in
  if n > Array.length t.lits_buf then
    t.lits_buf <- Array.make (max n (2 * Array.length t.lits_buf)) 0;
  blit_list t.lits_buf 0 lits;
  n

(* Shell sort (Knuth's gaps) of [a.(0) .. a.(n-1)], ascending: an insertion
   sort on the short clauses that make up nearly all intake, and no
   quadratic blow-up on long ones. *)
let sort_prefix a n =
  let gap = ref 1 in
  while !gap < n / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    let h = !gap in
    for i = h to n - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j >= h && a.(!j - h) > x do
        a.(!j) <- a.(!j - h);
        j := !j - h
      done;
      a.(!j) <- x
    done;
    gap := h / 3
  done

(* Store a clause of [n] literals from [t.lits_buf] and return its cref.
   The arena may move: callers re-read [t.arena] afterwards. *)
let alloc_clause t ~learnt ~cid ~lbd n =
  let cr = t.arena_top in
  let top = cr + hdr + n in
  t.arena <- reserve t.arena top cr 0;
  let a = t.arena in
  a.(cr) <- (n lsl 2) lor (if learnt then learnt_bit else 0);
  a.(cr + 1) <- cid;
  a.(cr + 2) <- lbd;
  Array.blit t.lits_buf 0 a (cr + hdr) n;
  t.arena_top <- top;
  t.clause_act <- reserve t.clause_act (cid + 1) (Array.length t.clause_act) 0.0;
  t.cid_tag <- reserve t.cid_tag (cid + 1) (Array.length t.cid_tag) derived;
  t.cid_stamp <- reserve t.cid_stamp (cid + 1) (Array.length t.cid_stamp) 0;
  cr

let[@inline] clause_size t cr = t.arena.(cr) lsr 2

let clause_lits t cr =
  let base = cr + hdr in
  List.init (clause_size t cr) (fun i -> t.arena.(base + i))

let watch t lit blocker tagged =
  let ws = t.watches.(lit) in
  let n = ws.(0) in
  let ws =
    if n + 2 < Array.length ws then ws
    else begin
      let w = reserve ws (n + 3) (n + 1) 0 in
      t.watches.(lit) <- w;
      w
    end
  in
  ws.(n + 1) <- blocker;
  ws.(n + 2) <- tagged;
  ws.(0) <- n + 2

let attach_clause t cr =
  let c = cr + hdr in
  let l0 = t.arena.(c) and l1 = t.arena.(c + 1) in
  let tagged = (cr lsl 1) lor (if clause_size t cr = 2 then 1 else 0) in
  watch t l0 l1 tagged;
  watch t l1 l0 tagged

(* {2 VSIDS order heap}

   The sift loops move a hole up/down and drop the element in once, rather
   than swapping at every level; scores are read straight from the
   [activity] float array. *)

let heap_sift_up t i =
  let heap = t.heap and pos = t.heap_pos and act = t.activity in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pv = heap.(parent) in
    if a > act.(pv) then begin
      heap.(!i) <- pv;
      pos.(pv) <- !i;
      i := parent
    end
    else continue_ := false
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_sift_down t i =
  let heap = t.heap and pos = t.heap_pos and act = t.activity in
  let n = t.heap_size in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i in
  let continue_ = ref true in
  while !continue_ do
    let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
    if left >= n then continue_ := false
    else begin
      let child =
        if right < n && act.(heap.(right)) > act.(heap.(left)) then right else left
      in
      let cv = heap.(child) in
      if act.(cv) > a then begin
        heap.(!i) <- cv;
        pos.(cv) <- !i;
        i := child
      end
      else continue_ := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    let i = t.heap_size in
    t.heap.(i) <- v;
    t.heap_pos.(v) <- i;
    t.heap_size <- i + 1;
    heap_sift_up t i
  end

let heap_remove_max t =
  let v = t.heap.(0) in
  let n = t.heap_size - 1 in
  t.heap_size <- n;
  t.heap_pos.(v) <- -1;
  if n > 0 then begin
    let last = t.heap.(n) in
    t.heap.(0) <- last;
    t.heap_pos.(last) <- 0;
    heap_sift_down t 0
  end;
  v

let heap_update t v =
  if t.heap_pos.(v) >= 0 then begin
    heap_sift_up t t.heap_pos.(v);
    heap_sift_down t t.heap_pos.(v)
  end

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  heap_insert t v;
  v

let ensure_vars t n =
  while t.nvars < n do
    ignore (new_var t)
  done

(* -1 undef / 0 false / 1 true *)
let[@inline] lit_value t l =
  let v = t.assign.(var l) in
  if v < 0 then -1 else v lxor (l land 1)

let bump_var t v =
  let a = t.activity in
  a.(v) <- a.(v) +. t.var_inc;
  if a.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      a.(i) <- a.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  heap_update t v

let bump_clause t cr =
  let act = t.clause_act in
  let cid = t.arena.(cr + 1) in
  act.(cid) <- act.(cid) +. t.cla_inc;
  if act.(cid) > 1e20 then begin
    for i = 0 to t.n_learnts - 1 do
      let c = t.arena.(t.learnts.(i) + 1) in
      act.(c) <- act.(c) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

(* LBD (literal block distance) of a set of literals: the number of distinct
   non-root decision levels, counted with a stamped per-level scratch array
   (Audemard & Simon's "glue").  Only meaningful while the literals are
   assigned. *)
let count_level t stamp n l =
  let lv = t.level.(var l) in
  if lv > 0 && t.level_stamp.(lv) <> stamp then begin
    t.level_stamp.(lv) <- stamp;
    incr n
  end

let lits_lbd t lits =
  t.stamp <- t.stamp + 1;
  let n = ref 0 in
  List.iter (count_level t t.stamp n) lits;
  !n

let clause_lbd t cr =
  t.stamp <- t.stamp + 1;
  let n = ref 0 in
  for i = cr + hdr to cr + hdr + clause_size t cr - 1 do
    count_level t t.stamp n t.arena.(i)
  done;
  !n

let[@inline] enqueue t l reason =
  let v = var l in
  t.assign.(v) <- 1 - (l land 1);
  t.level.(v) <- t.n_levels;
  t.reason.(v) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let new_decision_level t =
  t.trail_lim <- push_int t.trail_lim t.n_levels t.trail_size;
  t.n_levels <- t.n_levels + 1

let cancel_until t lvl =
  if t.n_levels > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let l = t.trail.(i) in
      let v = var l in
      t.phase.(v) <- positive l;
      t.assign.(v) <- -1;
      t.reason.(v) <- -1;
      t.level.(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.n_levels <- lvl;
    t.qhead <- bound
  end

(* The reason clause of [v]'s assignment, with [v]'s literal at position 0
   as conflict analysis expects.  Only a binary clause can be out of that
   orientation, since propagation leaves binary clauses untouched. *)
let reason_of t v =
  let r = t.reason.(v) in
  if r >= 0 && clause_size t r = 2 then begin
    let a = t.arena and c = r + hdr in
    if var a.(c) <> v then begin
      let x = a.(c) in
      a.(c) <- a.(c + 1);
      a.(c + 1) <- x
    end
  end;
  r

(* Two-watched-literal Boolean constraint propagation with blocking literals
   and binary clauses resolved from their watch entries.  Returns the cref
   of the conflicting clause, or -1.  Allocates nothing unless a watch list
   outgrows its array. *)
let propagate t =
  let confl = ref (-1) in
  let arena = t.arena in
  while !confl < 0 && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = negate p in
    let ws = t.watches.(false_lit) in
    let n = ws.(0) in
    let i = ref 1 in
    let j = ref 1 in
    while !i < n && !confl < 0 do
      let blocker = Array.unsafe_get ws !i in
      let tagged = Array.unsafe_get ws (!i + 1) in
      i := !i + 2;
      if lit_value t blocker = 1 then begin
        (* Blocker satisfies the clause; the clause itself stays cold. *)
        Array.unsafe_set ws !j blocker;
        Array.unsafe_set ws (!j + 1) tagged;
        j := !j + 2
      end
      else if tagged land 1 = 1 then begin
        (* Binary: the blocker is the other literal, so the watch entry alone
           decides between unit propagation and conflict. *)
        Array.unsafe_set ws !j blocker;
        Array.unsafe_set ws (!j + 1) tagged;
        j := !j + 2;
        let cr = tagged lsr 1 in
        if lit_value t blocker = 0 then begin
          (* Analysis reads a conflict from position 0: orient it now. *)
          arena.(cr + hdr) <- blocker;
          arena.(cr + hdr + 1) <- false_lit;
          confl := cr;
          t.qhead <- t.trail_size
        end
        else enqueue t blocker cr
      end
      else begin
        let cr = tagged lsr 1 in
        let h = arena.(cr) in
        (* A removed clause's entry is dropped when next visited, or by
           compaction. *)
        if h land removed_bit = 0 then begin
          let c = cr + hdr in
          (* Normalise: the falsified watch sits at position 1. *)
          if arena.(c) = false_lit then begin
            arena.(c) <- arena.(c + 1);
            arena.(c + 1) <- false_lit
          end;
          let first = arena.(c) in
          if first <> blocker && lit_value t first = 1 then begin
            (* Clause already satisfied; refresh the blocker in place. *)
            Array.unsafe_set ws !j first;
            Array.unsafe_set ws (!j + 1) tagged;
            j := !j + 2
          end
          else begin
            (* Look for a replacement watch. *)
            let stop = c + (h lsr 2) in
            let k = ref (c + 2) in
            while !k < stop && lit_value t arena.(!k) = 0 do
              incr k
            done;
            if !k < stop then begin
              let l = arena.(!k) in
              arena.(c + 1) <- l;
              arena.(!k) <- false_lit;
              watch t l first tagged
            end
            else begin
              (* Unit or conflicting. *)
              Array.unsafe_set ws !j first;
              Array.unsafe_set ws (!j + 1) tagged;
              j := !j + 2;
              if lit_value t first = 0 then begin
                confl := cr;
                t.qhead <- t.trail_size
              end
              else enqueue t first cr
            end
          end
        end
      end
    done;
    (* After a conflict, keep the entries not yet visited. *)
    if !i <= n then begin
      Array.blit ws !i ws !j (n + 1 - !i);
      j := !j + n + 1 - !i
    end;
    ws.(0) <- !j - 1
  done;
  !confl

(* DFS over the resolution bookkeeping.  Seeds follow the premise encoding:
   entries >= 0 are clause ids, negative entries refer to the reason closure
   of a variable's current assignment.  Returns the original clause ids
   reached, plus the assumption literals (reason-less assignments above the
   root level) encountered on the way. *)
let collect_refutation t seeds =
  t.core_tainted <- false;
  t.refute_stamp <- t.refute_stamp + 1;
  let stamp = t.refute_stamp in
  let originals = ref [] in
  let failed = ref [] in
  let stack = ref seeds in
  let push s = stack := s :: !stack in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      if s >= 0 then begin
        if t.cid_stamp.(s) <> stamp then begin
          t.cid_stamp.(s) <- stamp;
          if t.cid_tag.(s) <> derived then originals := s :: !originals
          else
            match Hashtbl.find t.cid_info s with
            | Imported ->
              (* No local derivation: the core under-approximates the
                 original clauses actually needed.  Flag it so consumers
                 that require an exact core ({!core_complete}) can degrade
                 conservatively. *)
              t.core_tainted <- true
            | Learnt_from premises -> Array.iter push premises
        end
      end
      else begin
        let v = -s - 1 in
        if t.var_stamp.(v) <> stamp then begin
          t.var_stamp.(v) <- stamp;
          let r = t.reason.(v) in
          if r >= 0 then begin
            push t.arena.(r + 1);
            for i = r + hdr to r + hdr + clause_size t r - 1 do
              let w = var t.arena.(i) in
              if w <> v then push (var_marker w)
            done
          end
          else if t.level.(v) > 0 then
            failed := Lit.of_var v (t.assign.(v) = 1) :: !failed
        end
      end
  done;
  (List.sort_uniq compare !originals, !failed)

(* Recursive (MiniSat 2.2 [litRedundant]-style) redundancy check used by
   conflict-clause minimisation: a candidate literal is redundant when every
   path through its reason chain terminates in a literal of the learnt
   clause (seen = 1), an already-proved-removable literal (seen = 2) or the
   root level.  The traversal is an explicit-stack DFS with memoisation in
   [t.seen] (2 = removable, 3 = failed).

   Every reason clause consulted on a successful derivation participates in
   the implicit resolution, so its id — and markers for its root-level
   literals — must join [premises] to keep refutations reconstructible.
   Premises of sub-derivations that concluded "removable" are committed at
   marking time even if the top-level check later fails: a later check may
   reuse the cached mark, and an over-approximated premise set only makes
   the extracted core larger, never wrong. *)
let abstract_level t v = 1 lsl (t.level.(v) land 31)

(* The reason [r] of [v] joins the premises, with markers for its root-level
   literals. *)
let add_reason_premises t premises v r =
  premises := t.arena.(r + 1) :: !premises;
  for i = r + hdr to r + hdr + clause_size t r - 1 do
    let w = var t.arena.(i) in
    if w <> v && t.level.(w) = 0 then premises := var_marker w :: !premises
  done

(* On BMC unrollings reason chains run thousands of assignments deep, so an
   unbounded walk can dwarf the savings; past the budget the literal is
   conservatively kept. *)
let redundancy_budget = 512

(* A failed derivation: every literal on the DFS path is marked failed. *)
let fail_path t to_clear path =
  List.iter
    (fun (_, pl) ->
      let w = var pl in
      if t.seen.(w) = 0 then begin
        t.seen.(w) <- 3;
        to_clear := w :: !to_clear
      end)
    path

let lit_redundant t abstract_levels premises to_clear q =
  if t.reason.(var q) < 0 then false
  else begin
    let stack = ref [] in (* (resume index, literal) continuations *)
    let p = ref q in
    let c = ref (reason_of t (var q)) in
    let i = ref 1 in
    let ok = ref true in
    let running = ref true in
    let budget = ref redundancy_budget in
    while !running do
      if !i < clause_size t !c then begin
        let l = t.arena.(!c + hdr + !i) in
        incr i;
        let v = var l in
        decr budget;
        if !budget < 0 then begin
          (* Out of budget: give up on the whole derivation. *)
          fail_path t to_clear ((0, !p) :: !stack);
          ok := false;
          running := false
        end
        else if t.level.(v) = 0 || t.seen.(v) = 1 || t.seen.(v) = 2 then ()
        else if
          t.reason.(v) < 0 || t.seen.(v) = 3
          || abstract_level t v land abstract_levels = 0
        then begin
          (* Dead end: everything on the DFS path fails with it. *)
          fail_path t to_clear ((0, !p) :: !stack);
          if t.seen.(v) = 0 then begin
            t.seen.(v) <- 3;
            to_clear := v :: !to_clear
          end;
          ok := false;
          running := false
        end
        else begin
          (* Descend into [l]'s reason. *)
          stack := (!i, !p) :: !stack;
          p := l;
          c := reason_of t v;
          i := 1
        end
      end
      else begin
        (* All parents of [p] proved redundant. *)
        let v = var !p in
        if t.seen.(v) = 0 then begin
          t.seen.(v) <- 2;
          to_clear := v :: !to_clear;
          add_reason_premises t premises v t.reason.(v)
        end;
        match !stack with
        | [] -> running := false
        | (si, sp) :: rest ->
          stack := rest;
          p := sp;
          c := t.reason.(var sp);
          i := si
      end
    done;
    !ok
  end

(* First-UIP conflict analysis.  Returns the learnt clause (asserting literal
   first), its LBD, the backjump level, and the premises resolved on the
   way. *)
let analyze t confl =
  let learnt_tail = ref [] in
  let premises = ref [] in
  let to_clear = ref [] in
  let path_c = ref 0 in
  let p = ref (-1) in
  let c = ref confl in
  let index = ref (t.trail_size - 1) in
  let conflict_level = t.n_levels in
  let continue = ref true in
  while !continue do
    let cr = !c in
    let h = t.arena.(cr) in
    premises := t.arena.(cr + 1) :: !premises;
    if h land learnt_bit <> 0 then begin
      bump_clause t cr;
      (* Glucose-style dynamic LBD update: clauses that turn out to have a
         lower glue than when they were learnt are promoted. *)
      let lbd = t.arena.(cr + 2) in
      if lbd > 2 then begin
        let d = clause_lbd t cr in
        if d < lbd then t.arena.(cr + 2) <- d
      end
    end;
    let start = if !p = -1 then 0 else 1 in
    for idx = cr + hdr + start to cr + hdr + (h lsr 2) - 1 do
      let q = t.arena.(idx) in
      let v = var q in
      if t.seen.(v) = 0 then begin
        if t.level.(v) > 0 then begin
          t.seen.(v) <- 1;
          to_clear := v :: !to_clear;
          bump_var t v;
          if t.level.(v) >= conflict_level then incr path_c
          else learnt_tail := q :: !learnt_tail
        end
        else
          (* Root-level literal, resolved away: record its derivation so the
             refutation remains reconstructible. *)
          premises := var_marker v :: !premises
      end
    done;
    (* Select the next literal to resolve on. *)
    while t.seen.(var t.trail.(!index)) = 0 do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    t.seen.(var !p) <- 0;
    decr path_c;
    if !path_c <= 0 then continue := false
    else begin
      let r = reason_of t (var !p) in
      if r >= 0 then c := r
      else continue := false (* decision reached; cannot precede the UIP *)
    end
  done;
  (* Conflict-clause minimisation: drop every non-asserting literal whose
     reason chain is fully covered by the remaining clause (recursively, not
     just one level deep).  Each dropped literal's reason joins the
     premises. *)
  let abstract_levels =
    List.fold_left (fun m q -> m lor abstract_level t (var q)) 0 !learnt_tail
  in
  let minimised =
    List.filter
      (fun q ->
        let v = var q in
        let r = t.reason.(v) in
        if r < 0 then true
        else if lit_redundant t abstract_levels premises to_clear q then begin
          add_reason_premises t premises v r;
          t.minimised_lits <- t.minimised_lits + 1;
          false
        end
        else true)
      !learnt_tail
  in
  let learnt = negate !p :: minimised in
  (* LBD must be computed before backjumping unassigns the asserting
     literal. *)
  let lbd = lits_lbd t learnt in
  List.iter (fun v -> t.seen.(v) <- 0) !to_clear;
  let bj =
    List.fold_left
      (fun acc q -> if q = negate !p then acc else max acc t.level.(var q))
      0 learnt
  in
  (learnt, lbd, bj, Array.of_list !premises)

let record_refutation t seeds =
  let core, failed = collect_refutation t seeds in
  t.last_core <- core;
  t.last_failed <- List.sort_uniq compare failed

let mark_root_unsat t seeds =
  record_refutation t seeds;
  t.ok <- false

let clause_seeds t cr =
  let seeds = ref [ t.arena.(cr + 1) ] in
  for i = cr + hdr to cr + hdr + clause_size t cr - 1 do
    seeds := var_marker (var t.arena.(i)) :: !seeds
  done;
  !seeds

(* Move up to two non-false literals of a freshly stored clause into the
   watch positions, then attach it, or assert it when it is unit at root,
   or record the root refutation when every literal is false.  The
   root-falsified literals stay in the clause so refutations remain
   faithful. *)
let install_clause t cr =
  let a = t.arena and c = cr + hdr in
  let n = clause_size t cr in
  let free = ref 0 in
  let i = ref 0 in
  while !free < 2 && !i < n do
    if lit_value t a.(c + !i) <> 0 then begin
      let tmp = a.(c + !free) in
      a.(c + !free) <- a.(c + !i);
      a.(c + !i) <- tmp;
      incr free
    end;
    incr i
  done;
  if !free = 0 then mark_root_unsat t (clause_seeds t cr)
  else if !free = 1 then begin
    enqueue t a.(c) cr;
    let confl = propagate t in
    if confl >= 0 then mark_root_unsat t (clause_seeds t confl)
  end
  else attach_clause t cr

(* Sort the [n] literals in [t.lits_buf] ascending and drop duplicates in
   place.  Returns how many remain; -1 when the clause is a tautology or
   already satisfied at root, -2 when it names an undeclared variable.  A
   literal and its negation (2v, 2v + 1) end up neighbours, so one pass
   finds duplicates and complementary pairs alike. *)
let normalise t n =
  let a = t.lits_buf in
  sort_prefix a n;
  let m = ref 0 and dropped = ref false and undeclared = ref false in
  for i = 0 to n - 1 do
    let l = a.(i) in
    let last = if !m > 0 then a.(!m - 1) else -1 in
    if l = last then ()
    else if l = negate last then dropped := true
    else begin
      if var l >= t.nvars then undeclared := true
      else if lit_value t l = 1 then dropped := true;
      a.(!m) <- l;
      incr m
    end
  done;
  if !dropped then -1 else if !undeclared then -2 else !m

let add_clause ?(tag = -1) t lits =
  (* The listener sees the raw clause stream, pre-simplification and even
     when the solver is already unsat — portfolio replicas must replay the
     exact same stream to keep variable numbering and clause ids aligned. *)
  (match t.clause_listener with Some f -> f tag lits | None -> ());
  if t.ok then begin
    if t.n_levels <> 0 then invalid_arg "Solver.add_clause: not at root level";
    (* Deduplicate and drop tautologies / root-satisfied clauses. *)
    let n = normalise t (load_lits t lits) in
    if n = -2 then invalid_arg "Solver.add_clause: undeclared variable";
    if n >= 0 then begin
      let cid = t.next_cid in
      t.next_cid <- cid + 1;
      let cr = alloc_clause t ~learnt:false ~cid ~lbd:0 n in
      t.cid_tag.(cid) <- max tag (-1);
      t.clauses <- push_int t.clauses t.n_clauses cr;
      t.n_clauses <- t.n_clauses + 1;
      install_clause t cr
    end
  end

let push_learnt t cr =
  t.learnts <- push_int t.learnts t.n_learnts cr;
  t.n_learnts <- t.n_learnts + 1

let learn_clause t lits lbd premises =
  if t.proof_logging then t.proof_steps <- Padd lits :: t.proof_steps;
  (match t.share_callback with
  | Some f -> if f ~lbd lits then t.shared_out <- t.shared_out + 1
  | None -> ());
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  Hashtbl.replace t.cid_info cid (Learnt_from premises);
  let cr = alloc_clause t ~learnt:true ~cid ~lbd (load_lits t lits) in
  let n = clause_size t cr in
  t.learnt_words <- t.learnt_words + clause_words n;
  t.learnt_total <- t.learnt_total + 1;
  t.lbd_sum <- t.lbd_sum + lbd;
  push_learnt t cr;
  if n > 1 then begin
    (* Position 1 must hold the highest-level non-asserting literal so the
       watch invariant survives the backjump. *)
    let a = t.arena and c = cr + hdr in
    let best = ref 1 in
    for i = 2 to n - 1 do
      if t.level.(var a.(c + i)) > t.level.(var a.(c + !best)) then best := i
    done;
    let tmp = a.(c + 1) in
    a.(c + 1) <- a.(c + !best);
    a.(c + !best) <- tmp;
    attach_clause t cr
  end;
  bump_clause t cr;
  cr

(* Install a clause learnt by a peer solver over the same variable
   numbering.  Root-level only.  The clause enters the learnt database with
   glue LBD (2), so DB reduction protects it, but it carries no local
   premises: refutations that traverse it are flagged via {!core_complete}.
   Returns [false] when the clause is dropped (unknown variable, tautology,
   or already satisfied at root). *)
let import_clause t lits =
  if t.n_levels <> 0 then invalid_arg "Solver.import_clause: not at root level";
  let n = normalise t (load_lits t lits) in
  if n <= 0 then false
  else begin
    let cid = t.next_cid in
    t.next_cid <- cid + 1;
    Hashtbl.replace t.cid_info cid Imported;
    let cr = alloc_clause t ~learnt:true ~cid ~lbd:2 n in
    t.learnt_words <- t.learnt_words + clause_words (clause_size t cr);
    push_learnt t cr;
    install_clause t cr;
    true
  end

(* Imports are refused under proof logging: a peer's clause is not RUP with
   respect to this instance's own derivation, so admitting it would
   invalidate the DRAT log.  Callers that certify must solve without
   sharing (the portfolio layer enforces this). *)
let import_clauses t cls =
  if t.proof_logging then 0
  else begin
    let n =
      List.fold_left
        (fun acc lits -> if t.ok && import_clause t lits then acc + 1 else acc)
        0 cls
    in
    t.shared_in <- t.shared_in + n;
    n
  end

let pull_imports t =
  match t.import_source with
  | None -> ()
  | Some f -> ignore (import_clauses t (f ()))

let locked t cr = t.reason.(var t.arena.(cr + hdr)) = cr

(* Copy the live clauses to a fresh arena, in their current order, and
   relocate every cref: reasons, watch entries (dropping those of removed
   clauses), the original-clause list and the learnt list.  The old header's
   cid slot holds the forwarding address while relocating. *)
let compact t =
  let old = t.arena in
  let live = t.arena_top - t.garbage in
  let fresh = Array.make (max 1024 (live + (live / 2))) 0 in
  let top = ref 0 in
  let cr = ref 0 in
  while !cr < t.arena_top do
    let h = old.(!cr) in
    let words = hdr + (h lsr 2) in
    if h land removed_bit = 0 then begin
      Array.blit old !cr fresh !top words;
      old.(!cr + 1) <- !top;
      top := !top + words
    end;
    cr := !cr + words
  done;
  let fwd r = old.(r + 1) in
  for i = 0 to t.trail_size - 1 do
    let v = var t.trail.(i) in
    if t.reason.(v) >= 0 then t.reason.(v) <- fwd t.reason.(v)
  done;
  for i = 0 to t.n_clauses - 1 do
    t.clauses.(i) <- fwd t.clauses.(i)
  done;
  for i = 0 to t.n_learnts - 1 do
    t.learnts.(i) <- fwd t.learnts.(i)
  done;
  for l = 0 to (2 * t.nvars) - 1 do
    let ws = t.watches.(l) in
    let n = ws.(0) in
    let j = ref 1 in
    let i = ref 1 in
    while !i < n do
      let tagged = ws.(!i + 1) in
      let r = tagged lsr 1 in
      if old.(r) land removed_bit = 0 then begin
        ws.(!j) <- ws.(!i);
        ws.(!j + 1) <- (fwd r lsl 1) lor (tagged land 1);
        j := !j + 2
      end;
      i := !i + 2
    done;
    ws.(0) <- !j - 1
  done;
  t.arena <- fresh;
  t.arena_top <- !top;
  t.garbage <- 0

(* Learnt-clause database reduction, LBD-first (Glucose): the half of the
   database with the worst (highest) glue goes, ties broken by activity.
   Glue clauses (LBD <= 2), binary clauses and clauses currently locked as
   reasons are protected regardless of their rank.  Candidates enter the
   (unstable) sort newest first, which fixes how equal keys are ordered. *)
let reduce_db t =
  t.db_reductions <- t.db_reductions + 1;
  let a = t.arena and act = t.clause_act in
  let n = t.n_learnts in
  let ranked = Array.init n (fun i -> t.learnts.(n - 1 - i)) in
  Array.sort
    (fun x y ->
      let lx = a.(x + 2) and ly = a.(y + 2) in
      if lx <> ly then compare ly lx else compare act.(a.(x + 1)) act.(a.(y + 1)))
    ranked;
  let deleted = ref 0 in
  Array.iteri
    (fun i cr ->
      let size = a.(cr) lsr 2 in
      if i < n / 2 && size > 2 && a.(cr + 2) > 2 && not (locked t cr) then begin
        a.(cr) <- a.(cr) lor removed_bit;
        if t.proof_logging then t.proof_steps <- Pdel (clause_lits t cr) :: t.proof_steps;
        t.learnt_words <- t.learnt_words - clause_words size;
        t.garbage <- t.garbage + hdr + size;
        incr deleted
      end)
    ranked;
  t.deleted_total <- t.deleted_total + !deleted;
  let j = ref 0 in
  for i = 0 to n - 1 do
    let cr = t.learnts.(i) in
    if a.(cr) land removed_bit = 0 then begin
      t.learnts.(!j) <- cr;
      incr j
    end
  done;
  t.n_learnts <- !j;
  if float_of_int t.garbage > garbage_fraction *. float_of_int t.arena_top then compact t;
  (* If protection kept most of the database, allow it to grow so reduction
     does not retrigger on every conflict. *)
  t.max_learnts <- t.max_learnts *. 1.1

let luby y x =
  let rec find_size size seq =
    if size >= x + 1 then (size, seq) else find_size ((2 * size) + 1) (seq + 1)
  in
  let rec reduce size seq x =
    if size - 1 = x then seq
    else
      let size = (size - 1) / 2 in
      reduce size (seq - 1) (x mod size)
  in
  let size, seq = find_size 1 0 in
  y ** float_of_int (reduce size seq x)

let rec pick_branch_var t =
  if t.heap_size = 0 then -1
  else
    let v = heap_remove_max t in
    if t.assign.(v) < 0 then v else pick_branch_var t

exception Found of result
exception Restart

(* Deterministic per-instance PRNG (48-bit drand48 LCG) driving random
   phase flips.  State lives in the solver so portfolio replicas diverge
   reproducibly from their seeds. *)
let next_random t =
  let s = ((t.rnd_state * 25214903917) + 11) land 0xFFFFFFFFFFFF in
  t.rnd_state <- s;
  float_of_int ((s lsr 24) land 0xFFFFFF) /. 16777216.0

(* Push the solver's cumulative counters into the ambient trace.  Called on
   a sampling tick in the conflict loop and once per [solve] call, and only
   when tracing is on — the hot path pays one [land] and one branch. *)
let sample_counters t =
  Obs.counter_set "solver.conflicts" (float_of_int t.conflicts);
  Obs.counter_set "solver.decisions" (float_of_int t.decisions);
  Obs.counter_set "solver.propagations" (float_of_int t.propagations);
  Obs.counter_set "solver.restarts" (float_of_int t.restarts);
  Obs.counter_set "solver.learnts" (float_of_int t.n_learnts)

(* One restart-bounded search episode; raises [Found] on a definitive
   answer, [Restart] when the conflict budget runs out. *)
let search t conflict_budget =
  let conflicts = ref 0 in
  let n_assumptions = Array.length t.assumptions in
  while true do
    let confl = propagate t in
    if confl >= 0 then begin
      t.conflicts <- t.conflicts + 1;
      incr conflicts;
      if t.conflicts land 1023 = 0 && Obs.enabled () then sample_counters t;
      (match t.deadline with
      | Some d when t.conflicts land 255 = 0 && Obs.now () > d ->
        cancel_until t 0;
        raise Timeout
      | Some _ | None -> ());
      (match t.stop with
      | Some flag when Atomic.get flag ->
        cancel_until t 0;
        raise Stopped
      | Some _ | None -> ());
      (match t.conflict_budget with
      | Some b when t.conflicts - t.conflict_base >= b ->
        cancel_until t 0;
        raise (Budget_exceeded "conflicts")
      | Some _ | None -> ());
      (match t.learnt_budget_mb with
      | Some mb
        when t.conflicts land 255 = 0
             && float_of_int (t.learnt_words * 8) /. 1048576.0 > mb ->
        cancel_until t 0;
        raise (Budget_exceeded "learnt-db memory")
      | Some _ | None -> ());
      if t.n_levels = 0 then begin
        mark_root_unsat t (clause_seeds t confl);
        raise (Found Unsat)
      end
      else if t.n_levels <= n_assumptions then begin
        (* The conflict is forced by the assumptions alone. *)
        record_refutation t (clause_seeds t confl);
        raise (Found Unsat)
      end
      else begin
        let learnt, lbd, bj, premises = analyze t confl in
        cancel_until t (max bj 0);
        let cr = learn_clause t learnt lbd premises in
        (match learnt with
        | asserting :: _ -> enqueue t asserting cr
        | [] -> ());
        t.var_inc <- t.var_inc *. t.var_decay_inv;
        t.cla_inc <- t.cla_inc *. cla_decay;
        if float_of_int t.n_learnts >= t.max_learnts then reduce_db t
      end
    end
    else begin
      (match t.stop with
      | Some flag when Atomic.get flag ->
        cancel_until t 0;
        raise Stopped
      | Some _ | None -> ());
      if !conflicts >= conflict_budget then begin
        cancel_until t 0;
        raise Restart
      end;
      if t.n_levels < n_assumptions then begin
        (* Enqueue the next assumption. *)
        let p = t.assumptions.(t.n_levels) in
        match lit_value t p with
        | 1 -> new_decision_level t (* already satisfied: placeholder level *)
        | 0 ->
          (* Assumption contradicted by the implied assignment. *)
          let core, failed = collect_refutation t [ var_marker (var p) ] in
          t.last_core <- core;
          t.last_failed <- List.sort_uniq compare (p :: failed);
          raise (Found Unsat)
        | _ ->
          new_decision_level t;
          enqueue t p (-1)
      end
      else begin
        let v = pick_branch_var t in
        if v < 0 then raise (Found Sat)
        else begin
          t.decisions <- t.decisions + 1;
          new_decision_level t;
          let ph =
            if t.rnd_phase_freq > 0.0 && next_random t < t.rnd_phase_freq then
              not t.phase.(v)
            else t.phase.(v)
          in
          enqueue t ((2 * v) + if ph then 0 else 1) (-1)
        end
      end
    end
  done

let solve ?(assumptions = []) t =
  if not t.ok then begin
    t.last_failed <- [];
    Unsat
  end
  else begin
    let t0 = Obs.now () in
    Fun.protect
      ~finally:(fun () ->
        t.solve_time <- t.solve_time +. Obs.now () -. t0;
        if Obs.enabled () then sample_counters t)
      (fun () ->
        cancel_until t 0;
        t.conflict_base <- t.conflicts;
        (* Import boundary: peers' clauses enter at root level, here and at
           every restart.  An import can close the formula outright (root
           conflict), so [t.ok] must be re-checked after every pull — a
           consumed root conflict would otherwise let a later search return
           a bogus Sat. *)
        pull_imports t;
        if not t.ok then begin
          t.last_failed <- [];
          Unsat
        end
        else begin
          t.assumptions <- Array.of_list assumptions;
          Array.iter
            (fun l ->
              if var l >= t.nvars then
                invalid_arg "Solver.solve: undeclared assumption")
            t.assumptions;
          t.max_learnts <- max 1000.0 (float_of_int t.n_clauses /. 3.0);
          let restarts = ref 0 in
          let answer = ref None in
          while !answer = None do
            let budget = int_of_float (luby 2.0 !restarts *. t.restart_base) in
            incr restarts;
            match search t budget with
            | exception Restart ->
              t.restarts <- t.restarts + 1;
              pull_imports t;
              if not t.ok then answer := Some Unsat
            | exception Found r -> answer := Some r
            | () -> ()
          done;
          (match !answer with
          | Some Sat ->
            t.model <- Array.sub t.assign 0 t.nvars;
            (* Unassigned variables default to false in the model. *)
            Array.iteri (fun i v -> if v < 0 then t.model.(i) <- 0) t.model
          | Some Unsat | None -> ());
          cancel_until t 0;
          t.assumptions <- [||];
          match !answer with Some r -> r | None -> assert false
        end)
  end

let export_clauses t = List.init t.n_clauses (fun i -> clause_lits t t.clauses.(i))

let value_var t v = v < Array.length t.model && t.model.(v) = 1

let value t l =
  if positive l then value_var t (var l) else not (value_var t (var l))

let unsat_core t = t.last_core

let unsat_core_tags t =
  List.sort_uniq compare
    (List.filter_map
       (fun cid -> if t.cid_tag.(cid) >= 0 then Some t.cid_tag.(cid) else None)
       t.last_core)

let failed_assumptions t = t.last_failed

let pp_stats ppf t =
  let s = stats t in
  Format.fprintf ppf
    "vars=%d clauses=%d learnts=%d conflicts=%d decisions=%d props=%d restarts=%d \
     deleted=%d minimised=%d avg-lbd=%.2f shared-out=%d shared-in=%d"
    t.nvars t.n_clauses t.n_learnts s.conflicts s.decisions
    s.propagations s.restarts s.deleted_clauses s.minimised_lits s.avg_lbd
    s.shared_out s.shared_in
