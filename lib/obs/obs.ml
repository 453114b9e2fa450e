(* Structured observability.  See obs.mli for the contract.

   Implementation notes: rows are kept as a reversed list (append is the
   only hot operation); the span stack and counter totals live beside the
   log so emission stays well-formed by construction.  Everything a worker
   marshals back is made of plain constructors over immediate values. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type event =
  | Begin of { name : string; ts : float; attrs : attr list }
  | End of { name : string; ts : float; alloc_words : float }
  | Count of { name : string; ts : float; value : float }
  | Instant of { name : string; ts : float; attrs : attr list }

type row = int * event

module Clock = struct
  type t = unit -> float

  let wall = Unix.gettimeofday

  let fixed ?(start = 0.0) ?(step = 1.0) () =
    let t = ref (start -. step) in
    fun () ->
      t := !t +. step;
      !t
end

type t = {
  c : Clock.t;
  pid : int;
  track_alloc : bool;
  mutable rev_rows : row list;
  mutable n : int;
  mutable stack : (string * float) list; (* open spans: name, alloc at begin *)
  totals : (string, float) Hashtbl.t;
}

let create ?(clock = Clock.wall) ?pid ?(track_alloc = true) () =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  {
    c = clock;
    pid;
    track_alloc;
    rev_rows = [];
    n = 0;
    stack = [];
    totals = Hashtbl.create 16;
  }

let clock t = t.c
let rows t = List.rev t.rev_rows
let num_rows t = t.n
let open_spans t = List.map fst t.stack

(* Cumulative words this domain has allocated so far.  Not
   [Gc.quick_stat]: on OCaml 5.1 its counters stand still between minor
   collections.  [Gc.minor_words] counts up to the allocation pointer, and
   [Gc.counters]' major and promoted words are the domain's own, exact at
   each call; its minor count is not. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let push t row =
  t.rev_rows <- (t.pid, row) :: t.rev_rows;
  t.n <- t.n + 1

let end_top t =
  match t.stack with
  | [] -> ()
  | (name, a0) :: rest ->
    t.stack <- rest;
    let alloc = if t.track_alloc then alloc_words () -. a0 else 0.0 in
    push t (End { name; ts = t.c (); alloc_words = alloc })

let close_open_spans t =
  while t.stack <> [] do
    end_top t
  done

(* {2 The current recorder}

   The ambient recorder is domain-local: every domain sees its own slot,
   and a freshly spawned domain starts with [None] (emission disabled)
   until [domain_scope] installs a private recorder for it.  A recorder is
   therefore only ever mutated by the one domain that installed it — the
   cross-domain hand-off happens through [rows] after the domain joins. *)

let cur_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let cur () = Domain.DLS.get cur_key
let set_cur v = Domain.DLS.set cur_key v

let set_current r = set_cur r
let current () = cur ()
let enabled () = cur () <> None

let now () = match cur () with Some r -> r.c () | None -> Unix.gettimeofday ()

let span ?(attrs = []) name f =
  match cur () with
  | None -> f ()
  | Some r ->
    let a0 = if r.track_alloc then alloc_words () else 0.0 in
    r.stack <- (name, a0) :: r.stack;
    push r (Begin { name; ts = r.c (); attrs });
    Fun.protect f ~finally:(fun () -> end_top r)

let instant ?(attrs = []) name =
  match cur () with
  | None -> ()
  | Some r -> push r (Instant { name; ts = r.c (); attrs })

let bump r name total =
  Hashtbl.replace r.totals name total;
  push r (Count { name; ts = r.c (); value = total })

let counter_add name delta =
  match cur () with
  | None -> ()
  | Some r ->
    let delta = max 0 delta in
    let total =
      (match Hashtbl.find_opt r.totals name with Some v -> v | None -> 0.0)
      +. float_of_int delta
    in
    bump r name total

let counter_set name v =
  match cur () with
  | None -> ()
  | Some r ->
    let old = match Hashtbl.find_opt r.totals name with Some v -> v | None -> 0.0 in
    bump r name (Float.max old v)

let counter_total t name =
  match Hashtbl.find_opt t.totals name with Some v -> v | None -> 0.0

let counter_totals t =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* {2 Worker support} *)

let worker_scope f =
  match cur () with
  | None -> (f (), [])
  | Some parent ->
    let r = create ~clock:parent.c ~track_alloc:parent.track_alloc () in
    set_cur (Some r);
    let v = Fun.protect f ~finally:(fun () -> set_cur None) in
    close_open_spans r;
    (v, rows r)

(* Belt-and-braces: ingestion is the one recorder operation several domains
   could plausibly reach concurrently (workers reporting as they finish), so
   it takes a global lock.  The intended discipline remains single-domain —
   parents ingest after join. *)
let ingest_mutex = Mutex.create ()

let ingest t worker_rows =
  Mutex.protect ingest_mutex (fun () ->
      List.iter
        (fun row ->
          t.rev_rows <- row :: t.rev_rows;
          t.n <- t.n + 1)
        worker_rows)

let ingest_current worker_rows =
  match cur () with None -> () | Some r -> ingest r worker_rows

(* {2 Domain support} *)

type domain_token = { dt_parent : t; dt_pid : int }

(* Synthetic-pid allocator: distinct pids keep the per-pid span stacks of
   [spans]/[validate] well-formed when several domains' rows are merged
   into one trace. *)
let domain_seq = Atomic.make 0

let domain_fork ?pid () =
  match cur () with
  | None -> None
  | Some parent ->
    let pid =
      match pid with
      | Some p -> p
      | None -> (parent.pid * 1000) + 1 + Atomic.fetch_and_add domain_seq 1
    in
    Some { dt_parent = parent; dt_pid = pid }

let domain_scope token f =
  match token with
  | None -> (f (), [])
  | Some { dt_parent = parent; dt_pid = pid } ->
    let r = create ~clock:parent.c ~pid ~track_alloc:parent.track_alloc () in
    set_cur (Some r);
    let v = Fun.protect f ~finally:(fun () -> set_cur None) in
    close_open_spans r;
    (v, rows r)

(* {2 Validation and span extraction} *)

type span_info = {
  sp_pid : int;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_alloc_words : float;
  sp_attrs : attr list;
  sp_level : int;
  sp_parent : int option;
}

let ts_of = function
  | Begin { ts; _ } | End { ts; _ } | Count { ts; _ } | Instant { ts; _ } -> ts

let spans rows =
  (* One stack per pid: (index into the output, name). *)
  let stacks : (int, (int * string) list) Hashtbl.t = Hashtbl.create 4 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 4 in
  let out = ref [] in
  let n_out = ref 0 in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  List.iter
    (fun (pid, ev) ->
      if !err = None then begin
        let ts = ts_of ev in
        (match Hashtbl.find_opt last_ts pid with
        | Some prev when ts < prev ->
          fail "pid %d: timestamp runs backwards (%g after %g)" pid ts prev
        | _ -> Hashtbl.replace last_ts pid ts);
        let stack = match Hashtbl.find_opt stacks pid with Some s -> s | None -> [] in
        match ev with
        | Begin { name; ts; attrs } ->
          let parent = match stack with (i, _) :: _ -> Some i | [] -> None in
          let idx = !n_out in
          out :=
            {
              sp_pid = pid;
              sp_name = name;
              sp_start = ts;
              sp_stop = nan;
              sp_alloc_words = 0.0;
              sp_attrs = attrs;
              sp_level = List.length stack;
              sp_parent = parent;
            }
            :: !out;
          incr n_out;
          Hashtbl.replace stacks pid ((idx, name) :: stack)
        | End { name; ts; alloc_words } -> (
          match stack with
          | [] -> fail "pid %d: orphan end of span %S" pid name
          | (idx, open_name) :: rest ->
            if open_name <> name then
              fail "pid %d: end of span %S while %S is open" pid name open_name
            else begin
              Hashtbl.replace stacks pid rest;
              out :=
                List.mapi
                  (fun i sp ->
                    if i = !n_out - 1 - idx then
                      { sp with sp_stop = ts; sp_alloc_words = alloc_words }
                    else sp)
                  !out
            end)
        | Count _ | Instant _ -> ()
      end)
    rows;
  (match !err with
  | None ->
    Hashtbl.iter
      (fun pid stack ->
        match stack with
        | (_, name) :: _ -> fail "pid %d: span %S left open" pid name
        | [] -> ())
      stacks
  | Some _ -> ());
  match !err with Some m -> Error m | None -> Ok (List.rev !out)

let validate rows =
  match spans rows with
  | Error _ as e -> e
  | Ok _ ->
    let totals : (int * string, float) Hashtbl.t = Hashtbl.create 16 in
    let err = ref None in
    List.iter
      (fun (pid, ev) ->
        if !err = None then
          match ev with
          | Count { name; value; _ } -> (
            match Hashtbl.find_opt totals (pid, name) with
            | Some prev when value < prev ->
              err :=
                Some
                  (Printf.sprintf "pid %d: counter %S not monotone (%g after %g)"
                     pid name value prev)
            | _ -> Hashtbl.replace totals (pid, name) value)
          | Begin _ | End _ | Instant _ -> ())
      rows;
    (match !err with Some m -> Error m | None -> Ok ())

let attr_int key attrs =
  match List.assoc_opt key attrs with Some (Int i) -> Some i | _ -> None

let duration sp = sp.sp_stop -. sp.sp_start

(* {2 JSON: the one reader and writer}

   Defined ahead of the exporters, which write through it. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Fail of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'
          | Some '\\' -> Buffer.add_char b '\\'
          | Some '/' -> Buffer.add_char b '/'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' ->
            (* Decode the escape; non-ASCII code points come back as '?'
               (the exporter never emits them). *)
            if !pos + 4 >= n then fail "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            pos := !pos + 4;
            Buffer.add_char b (if code < 128 then Char.chr code else '?')
          | _ -> fail "bad escape");
          advance ();
          go ()
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while match peek () with Some c when is_num_char c -> true | _ -> false do
        advance ()
      done;
      if !pos = start then fail "expected a number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> fail "unexpected end of input"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Fail m -> Error m

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | Null | Bool _ | Num _ | Str _ | Arr _ -> None

  (* {3 Field readers} *)

  let str_field name o = match member name o with Some (Str s) -> Some s | _ -> None
  let num_field name o = match member name o with Some (Num n) -> Some n | _ -> None
  let int_field name o = Option.map int_of_float (num_field name o)
  let bool_field name o = match member name o with Some (Bool v) -> Some v | _ -> None

  let required name = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

  (* {3 Writer} *)

  (* Runs of bytes that need no escaping are copied whole. *)
  let add_string b s =
    Buffer.add_char b '"';
    let run = ref 0 in
    for i = 0 to String.length s - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || c < ' ' then begin
        Buffer.add_substring b s !run (i - !run);
        Buffer.add_string b
          (match c with
          | '"' -> "\\\""
          | '\\' -> "\\\\"
          | '\n' -> "\\n"
          | '\r' -> "\\r"
          | '\t' -> "\\t"
          | c -> Printf.sprintf "\\u%04x" (Char.code c));
        run := i + 1
      end
    done;
    Buffer.add_substring b s !run (String.length s - !run);
    Buffer.add_char b '"'

  let str s b = add_string b s
  let int n b = Buffer.add_string b (string_of_int n)
  let bool v b = Buffer.add_string b (if v then "true" else "false")
  let fixed3 x b = Buffer.add_string b (Printf.sprintf "%.3f" x)
  let exact x b = Buffer.add_string b (Printf.sprintf "%.17g" x)

  let list f xs b =
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        f x b)
      xs;
    Buffer.add_char b ']'

  let obj fields b =
    Buffer.add_char b '{';
    fields b;
    Buffer.add_char b '}'

  (* Inside [obj], a field follows either the opening brace or a complete
     value, so the byte before it says whether a comma is due. *)
  let add_field b name v =
    if Buffer.nth b (Buffer.length b - 1) <> '{' then Buffer.add_char b ',';
    add_string b name;
    Buffer.add_char b ':';
    v b

  let opt b name v = function Some x -> add_field b name (v x) | None -> ()

  let to_string v =
    let b = Buffer.create 128 in
    v b;
    Buffer.contents b
end

(* {2 Exporters} *)

type format = Jsonl | Chrome

let format_of_path path =
  if Filename.check_suffix path ".jsonl" then Jsonl else Chrome

(* Deterministic number rendering: integers without a fraction, everything
   else with six significant digits. *)
let num (x : float) b =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.6g" x)

let value = function
  | Str s -> Json.str s
  | Int i -> Json.int i
  | Float f -> num f
  | Bool v -> Json.bool v

(* Timestamps: JSON-lines keeps the raw clock readings ("ts"); Chrome wants
   microseconds ("ts" in us), which we make relative to the earliest row so
   traces open at t=0 in Perfetto. *)
let add_event b ~us_of (pid, ev) =
  let common ph name ts b =
    Json.add_field b "ph" (Json.str ph);
    Json.add_field b "name" (Json.str name);
    Json.add_field b "ts" (num (us_of ts));
    Json.add_field b "pid" (Json.int pid);
    Json.add_field b "tid" (Json.int pid)
  in
  let args attrs b =
    if attrs <> [] then
      Json.add_field b "args"
        (Json.obj (fun b -> List.iter (fun (k, v) -> Json.add_field b k (value v)) attrs))
  in
  let arg name x b =
    Json.add_field b "args" (Json.obj (fun b -> Json.add_field b name (num x)))
  in
  Json.obj
    (fun b ->
      match ev with
      | Begin { name; ts; attrs } ->
        common "B" name ts b;
        args attrs b
      | End { name; ts; alloc_words } ->
        common "E" name ts b;
        arg "alloc_words" alloc_words b
      | Count { name; ts; value } ->
        common "C" name ts b;
        arg "value" value b
      | Instant { name; ts; attrs } ->
        common "i" name ts b;
        Json.add_field b "s" (Json.str "t");
        args attrs b)
    b

let export fmt b rows =
  match fmt with
  | Jsonl ->
    List.iter
      (fun row ->
        add_event b ~us_of:Fun.id row;
        Buffer.add_char b '\n')
      rows
  | Chrome ->
    let base =
      List.fold_left (fun acc (_, ev) -> Float.min acc (ts_of ev)) infinity rows
    in
    let base = if base = infinity then 0.0 else base in
    let us_of ts =
      (* Round to a tenth of a microsecond: deterministic and far below
         the clock's own resolution. *)
      Float.round ((ts -. base) *. 1e7) /. 10.0
    in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i row ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        add_event b ~us_of row)
      rows;
    Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_file ?format path t =
  let fmt = match format with Some f -> f | None -> format_of_path path in
  let b = Buffer.create 65536 in
  export fmt b (rows t);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)

(* {2 Trace-file plumbing} *)

let trace_env_var = "EMMVER_TRACE"

let run_with_trace ?clock ?out ~label f =
  let out =
    match out with Some _ -> out | None -> Sys.getenv_opt trace_env_var
  in
  match out with
  | None | Some "" -> f ()
  | Some path ->
    let r = create ?clock () in
    set_current (Some r);
    let written = ref false in
    let write () =
      if not !written then begin
        written := true;
        (match current () with
        | Some r' when r' == r -> set_current None
        | Some _ | None -> ());
        close_open_spans r;
        try write_file path r with Sys_error _ -> ()
      end
    in
    (* The CLI exits from inside [f]; the hook makes sure the trace still
       lands on disk. *)
    at_exit write;
    Fun.protect (fun () -> span label f) ~finally:write
