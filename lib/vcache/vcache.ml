type config = { dir : string; payload_limit_bytes : int }

let default_dir () =
  match Sys.getenv_opt "EMMVER_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "emmver"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "emmver"
      | _ -> ".emmver-cache"))

let config ?dir ?(payload_limit_bytes = 32 * 1024 * 1024) () =
  {
    dir = (match dir with Some d -> d | None -> default_dir ());
    payload_limit_bytes;
  }

module Key = struct
  type t = string (* MD5 hex *)

  let make ~cone ~attrs =
    let attrs = List.sort compare attrs in
    let buf = Buffer.create (String.length cone + 64) in
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Buffer.add_string buf v;
        Buffer.add_char buf ';')
      attrs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf cone;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  let to_hex k = k
end

type verdict =
  | Proved of { depth : int; induction : bool }
  | Falsified of { depth : int }
  | Bounded of { depth : int; reason : string }

type payload =
  | No_payload
  | Trace_payload of Bmc.Trace.t
  | Drat_payload of Bmc.Engine.cert_artifact

type entry = {
  e_method : string;
  e_verdict : verdict;
  e_time_s : float;
  e_solve_time_s : float;
  e_model_vars : int;
  e_model_clauses : int;
  e_model_latches : int;
  e_cert : string;
  e_created : float;
  e_payload : payload;
}

(* {2 JSON writing} *)

(* Runs of bytes that need no escaping are copied whole. *)
let add_jstring b s =
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

let add_field b ~first name f =
  if not first then Buffer.add_char b ',';
  add_jstring b name;
  Buffer.add_char b ':';
  f b

let jint n b = Buffer.add_string b (string_of_int n)
let jfloat x b = Buffer.add_string b (Printf.sprintf "%.17g" x)
let jbool v b = Buffer.add_string b (if v then "true" else "false")
let jstr s b = add_jstring b s

(* {2 Signals, traces, DRAT artifacts as JSON-friendly values} *)

(* A signal travels as [2 * node + complement] — the store may be read by a
   different process against a rebuilt (but structurally identical) design,
   and the hit path replays the trace before trusting it, so stale codes
   only ever cause a miss. *)
let signal_code s =
  (2 * Netlist.node_of s) lor (if Netlist.is_complement s then 1 else 0)

let signal_of_code c = Netlist.signal_of_node (c lsr 1) (c land 1 = 1)

let bits_of_string s = Array.init (String.length s) (fun i -> s.[i] = '1')

let string_of_bits a =
  String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

let trace_to_json (t : Bmc.Trace.t) b =
  Buffer.add_char b '{';
  add_field b ~first:true "property" (jstr t.Bmc.Trace.property);
  add_field b ~first:false "depth" (jint t.Bmc.Trace.depth);
  add_field b ~first:false "inputs" (fun b ->
      Buffer.add_char b '[';
      Array.iteri
        (fun i frame ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          List.iteri
            (fun j (name, v) ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_char b '[';
              add_jstring b name;
              Buffer.add_char b ',';
              jbool v b;
              Buffer.add_char b ']')
            frame;
          Buffer.add_char b ']')
        t.Bmc.Trace.inputs;
      Buffer.add_char b ']');
  add_field b ~first:false "latch0" (fun b ->
      Buffer.add_char b '[';
      List.iteri
        (fun j (name, v) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          add_jstring b name;
          Buffer.add_char b ',';
          jbool v b;
          Buffer.add_char b ']')
        t.Bmc.Trace.latch0;
      Buffer.add_char b ']');
  add_field b ~first:false "mem_init" (fun b ->
      Buffer.add_char b '[';
      List.iteri
        (fun j (name, words) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          add_jstring b name;
          Buffer.add_string b ",[";
          List.iteri
            (fun k (a, w) ->
              if k > 0 then Buffer.add_char b ',';
              Buffer.add_string b (Printf.sprintf "[%d,%d]" a w))
            words;
          Buffer.add_string b "]]")
        t.Bmc.Trace.mem_init;
      Buffer.add_char b ']');
  add_field b ~first:false "watch" (fun b ->
      Buffer.add_char b '[';
      List.iteri
        (fun j (w : Bmc.Trace.watch) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_char b '{';
          add_field b ~first:true "name" (jstr w.Bmc.Trace.w_name);
          add_field b ~first:false "signal" (jint (signal_code w.Bmc.Trace.w_signal));
          add_field b ~first:false "enable"
            (jint
               (match w.Bmc.Trace.w_enable with
               | Some e -> signal_code e
               | None -> -1));
          add_field b ~first:false "values"
            (jstr (string_of_bits w.Bmc.Trace.w_values));
          Buffer.add_char b '}')
        t.Bmc.Trace.watch;
      Buffer.add_char b ']');
  Buffer.add_char b '}'

(* DRAT artifacts travel as DIMACS text: one clause/cube per line terminated
   by 0, deletions prefixed with "d " — compact and trivially stable. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_dimacs_clause b c =
  List.iter
    (fun l ->
      let d = Satsolver.Lit.to_dimacs l in
      if d < 0 then Buffer.add_char b '-';
      add_digits b (abs d);
      Buffer.add_char b ' ')
    c;
  Buffer.add_string b "0\n"

let dimacs_of_clauses clauses =
  let b = Buffer.create 4096 in
  List.iter (add_dimacs_clause b) clauses;
  Buffer.contents b

let dimacs_of_proof proof =
  let b = Buffer.create 4096 in
  List.iter
    (function
      | Cert.Drat.Padd c -> add_dimacs_clause b c
      | Cert.Drat.Pdel c ->
        Buffer.add_string b "d ";
        add_dimacs_clause b c)
    proof;
  Buffer.contents b

exception Corrupt

let clauses_of_dimacs s =
  let clauses = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then begin
        let toks = String.split_on_char ' ' line in
        let toks = List.filter (fun t -> t <> "") toks in
        let lits =
          List.filter_map
            (fun t ->
              match int_of_string_opt t with
              | Some 0 -> None
              | Some d -> Some (Satsolver.Lit.of_dimacs d)
              | None -> raise Corrupt)
            toks
        in
        (match List.rev toks with "0" :: _ -> () | _ -> raise Corrupt);
        clauses := lits :: !clauses
      end)
    (String.split_on_char '\n' s);
  List.rev !clauses

let proof_of_dimacs s =
  let steps = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then begin
        let del = String.length line >= 2 && String.sub line 0 2 = "d " in
        let body = if del then String.sub line 2 (String.length line - 2) else line in
        match clauses_of_dimacs body with
        | [ c ] ->
          steps := (if del then Cert.Drat.Pdel c else Cert.Drat.Padd c) :: !steps
        | [] -> steps := (if del then Cert.Drat.Pdel [] else Cert.Drat.Padd []) :: !steps
        | _ -> raise Corrupt
      end)
    (String.split_on_char '\n' s);
  List.rev !steps

(* Cubes serialize like clauses; an empty cube (plain UNSAT) is a bare "0"
   line, which [clauses_of_dimacs] drops — count lines instead. *)
let cubes_of_dimacs s =
  let cubes = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then
        match clauses_of_dimacs line with
        | [ c ] -> cubes := c :: !cubes
        | [] -> cubes := [] :: !cubes
        | _ -> raise Corrupt)
    (String.split_on_char '\n' s);
  List.rev !cubes

(* {2 Entry rendering} *)

(* A payload as written: DRAT evidence as its DIMACS texts, rendered once
   so that the payload limit is checked against the bytes that are
   stored. *)
type rendered =
  | Render_none
  | Render_trace of Bmc.Trace.t
  | Render_drat of { num_vars : int; cnf : string; proof : string; obligations : string }

let entry_to_json e payload =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  add_field b ~first:true "version" (jint 1);
  add_field b ~first:false "method" (jstr e.e_method);
  (match e.e_verdict with
  | Proved { depth; induction } ->
    add_field b ~first:false "verdict" (jstr "proved");
    add_field b ~first:false "depth" (jint depth);
    add_field b ~first:false "induction" (jbool induction)
  | Falsified { depth } ->
    add_field b ~first:false "verdict" (jstr "falsified");
    add_field b ~first:false "depth" (jint depth)
  | Bounded { depth; reason } ->
    add_field b ~first:false "verdict" (jstr "bounded");
    add_field b ~first:false "depth" (jint depth);
    add_field b ~first:false "reason" (jstr reason));
  add_field b ~first:false "time_s" (jfloat e.e_time_s);
  add_field b ~first:false "solve_time_s" (jfloat e.e_solve_time_s);
  add_field b ~first:false "model_vars" (jint e.e_model_vars);
  add_field b ~first:false "model_clauses" (jint e.e_model_clauses);
  add_field b ~first:false "model_latches" (jint e.e_model_latches);
  add_field b ~first:false "cert" (jstr e.e_cert);
  add_field b ~first:false "created" (jfloat e.e_created);
  (match payload with
  | Render_none -> add_field b ~first:false "payload" (jstr "none")
  | Render_trace t ->
    add_field b ~first:false "payload" (jstr "trace");
    add_field b ~first:false "trace" (trace_to_json t)
  | Render_drat { num_vars; cnf; proof; obligations } ->
    add_field b ~first:false "payload" (jstr "drat");
    add_field b ~first:false "drat" (fun b ->
        Buffer.add_char b '{';
        add_field b ~first:true "num_vars" (jint num_vars);
        add_field b ~first:false "cnf" (jstr cnf);
        add_field b ~first:false "proof" (jstr proof);
        add_field b ~first:false "obligations" (jstr obligations);
        Buffer.add_char b '}'));
  Buffer.add_char b '}';
  Buffer.contents b

(* {2 Entry parsing} *)

open Obs.Json

let str_field name o = match member name o with Some (Str s) -> s | _ -> raise Corrupt
let num_field name o =
  match member name o with Some (Num n) -> n | _ -> raise Corrupt

let int_field name o = int_of_float (num_field name o)

let bool_field name o =
  match member name o with Some (Bool v) -> v | _ -> raise Corrupt

let pairs_field name o =
  match member name o with
  | Some (Arr l) ->
    List.map
      (function Arr [ Str n; Bool v ] -> (n, v) | _ -> raise Corrupt)
      l
  | _ -> raise Corrupt

let trace_of_json o : Bmc.Trace.t =
  let inputs =
    match member "inputs" o with
    | Some (Arr frames) ->
      Array.of_list
        (List.map
           (function
             | Arr pairs ->
               List.map
                 (function Arr [ Str n; Bool v ] -> (n, v) | _ -> raise Corrupt)
                 pairs
             | _ -> raise Corrupt)
           frames)
    | _ -> raise Corrupt
  in
  let mem_init =
    match member "mem_init" o with
    | Some (Arr l) ->
      List.map
        (function
          | Arr [ Str n; Arr words ] ->
            ( n,
              List.map
                (function
                  | Arr [ Num a; Num w ] -> (int_of_float a, int_of_float w)
                  | _ -> raise Corrupt)
                words )
          | _ -> raise Corrupt)
        l
    | _ -> raise Corrupt
  in
  let watch =
    match member "watch" o with
    | Some (Arr l) ->
      List.map
        (fun w ->
          let enable = int_field "enable" w in
          {
            Bmc.Trace.w_name = str_field "name" w;
            w_signal = signal_of_code (int_field "signal" w);
            w_enable = (if enable < 0 then None else Some (signal_of_code enable));
            w_values = bits_of_string (str_field "values" w);
          })
        l
    | _ -> raise Corrupt
  in
  {
    Bmc.Trace.property = str_field "property" o;
    depth = int_field "depth" o;
    inputs;
    latch0 = pairs_field "latch0" o;
    mem_init;
    watch;
  }

let entry_of_json o =
  if int_field "version" o <> 1 then raise Corrupt;
  let depth = int_field "depth" o in
  let e_verdict =
    match str_field "verdict" o with
    | "proved" -> Proved { depth; induction = bool_field "induction" o }
    | "falsified" -> Falsified { depth }
    | "bounded" -> Bounded { depth; reason = str_field "reason" o }
    | _ -> raise Corrupt
  in
  let e_payload =
    match str_field "payload" o with
    | "none" -> No_payload
    | "trace" -> (
      match member "trace" o with
      | Some t -> Trace_payload (trace_of_json t)
      | None -> raise Corrupt)
    | "drat" -> (
      match member "drat" o with
      | Some d ->
        Drat_payload
          {
            Bmc.Engine.ca_num_vars = int_field "num_vars" d;
            ca_original = clauses_of_dimacs (str_field "cnf" d);
            ca_proof = proof_of_dimacs (str_field "proof" d);
            ca_obligations = cubes_of_dimacs (str_field "obligations" d);
          }
      | None -> raise Corrupt)
    | _ -> raise Corrupt
  in
  {
    e_method = str_field "method" o;
    e_verdict;
    e_time_s = num_field "time_s" o;
    e_solve_time_s = num_field "solve_time_s" o;
    e_model_vars = int_field "model_vars" o;
    e_model_clauses = int_field "model_clauses" o;
    e_model_latches = int_field "model_latches" o;
    e_cert = str_field "cert" o;
    e_created = num_field "created" o;
    e_payload;
  }

(* {2 The on-disk store} *)

(* File layout: a one-line header [EMMVER-VCACHE 1 <md5-of-body>] followed
   by the JSON body.  The checksum makes truncation and bit-flips a miss;
   the version makes format evolution a miss rather than a parse error. *)

let magic = "EMMVER-VCACHE 1 "

let entry_path cfg key = Filename.concat cfg.dir (Key.to_hex key ^ ".json")

(* Hit-rate sidecar: an empty [<entry>.json.hit] file is created the first
   time an entry is served.  Watermark eviction uses it to tell entries
   that earned at least one hit from entries written once and never asked
   for again — the latter are evicted first, whatever their age.  A
   sidecar, not a field, so recording a hit never rewrites (and never
   risks tearing) the checksummed entry itself. *)
let hit_marker path = path ^ ".hit"

let mark_hit path =
  try
    Unix.close
      (Unix.openfile (hit_marker path) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644)
  with _ -> ()

let remove_with_marker path =
  (try Sys.remove (hit_marker path) with _ -> ());
  Sys.remove path

let ensure_dir dir =
  let rec mk d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tmp_counter = ref 0

let store cfg key entry =
  Obs.span "cache.store" (fun () ->
      try
        ensure_dir cfg.dir;
        let payload =
          match entry.e_payload with
          | No_payload -> Render_none
          | Trace_payload t -> Render_trace t
          | Drat_payload a ->
            let cnf = dimacs_of_clauses a.Bmc.Engine.ca_original in
            let proof = dimacs_of_proof a.Bmc.Engine.ca_proof in
            if String.length cnf + String.length proof > cfg.payload_limit_bytes then begin
              Obs.counter_add "vcache.payloads_dropped" 1;
              Render_none
            end
            else
              Render_drat
                {
                  num_vars = a.Bmc.Engine.ca_num_vars;
                  cnf;
                  proof;
                  obligations = dimacs_of_clauses a.Bmc.Engine.ca_obligations;
                }
        in
        let body = entry_to_json entry payload in
        let header = magic ^ Digest.to_hex (Digest.string body) ^ "\n" in
        incr tmp_counter;
        let tmp =
          Filename.concat cfg.dir
            (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) !tmp_counter)
        in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc header;
            output_string oc body);
        (* Atomic within one directory: concurrent writers of the same key
           race benignly, the survivor is one complete entry. *)
        Sys.rename tmp (entry_path cfg key);
        Obs.counter_add "vcache.stores" 1;
        Obs.counter_add "vcache.bytes_written" (String.length header + String.length body)
      with _ -> Obs.counter_add "vcache.store_errors" 1)

let parse_data data =
  let nl = String.index data '\n' in
  let header = String.sub data 0 nl in
  let body = String.sub data (nl + 1) (String.length data - nl - 1) in
  if String.length header <> String.length magic + 32 then raise Corrupt;
  if String.sub header 0 (String.length magic) <> magic then raise Corrupt;
  let sum = String.sub header (String.length magic) 32 in
  if not (String.equal sum (Digest.to_hex (Digest.string body))) then raise Corrupt;
  match Obs.Json.parse body with
  | Ok o -> entry_of_json o
  | Error _ -> raise Corrupt

let load cfg key =
  Obs.span "cache.lookup" (fun () ->
      let path = entry_path cfg key in
      match
        if Sys.file_exists path then
          let data = read_file path in
          Some (parse_data data, String.length data)
        else None
      with
      | Some (entry, bytes) ->
        Obs.counter_add "vcache.hits" 1;
        Obs.counter_add "vcache.bytes_read" bytes;
        (* Refresh the entry's clock: watermark GC ([maintain], [gc])
           orders evictions by mtime, so a hit renews the entry's lease —
           entries that keep earning hits survive the size watermark,
           entries nobody asks for age out.  Best-effort: a read-only
           store still serves hits. *)
        (try Unix.utimes (entry_path cfg key) 0.0 0.0 with _ -> ());
        mark_hit (entry_path cfg key);
        Some entry
      | None ->
        Obs.counter_add "vcache.misses" 1;
        None
      | exception _ ->
        (* Corrupt, truncated, tampered, unreadable, version-mismatched:
           all of it is a miss, never an error. *)
        Obs.counter_add "vcache.misses" 1;
        Obs.counter_add "vcache.corrupt" 1;
        None)

let remove cfg key = try remove_with_marker (entry_path cfg key) with _ -> ()

type store_stats = {
  entries : int;
  bytes : int;
  proved : int;
  falsified : int;
  bounded : int;
  with_payload : int;
}

let entry_files cfg =
  if Sys.file_exists cfg.dir && Sys.is_directory cfg.dir then
    Array.to_list (Sys.readdir cfg.dir)
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.map (fun f -> Filename.concat cfg.dir f)
  else []

let stats cfg =
  List.fold_left
    (fun acc path ->
      match parse_data (read_file path) with
      | e ->
        let size = (Unix.stat path).Unix.st_size in
        {
          entries = acc.entries + 1;
          bytes = acc.bytes + size;
          proved = (acc.proved + match e.e_verdict with Proved _ -> 1 | _ -> 0);
          falsified =
            (acc.falsified + match e.e_verdict with Falsified _ -> 1 | _ -> 0);
          bounded = (acc.bounded + match e.e_verdict with Bounded _ -> 1 | _ -> 0);
          with_payload =
            (acc.with_payload + match e.e_payload with No_payload -> 0 | _ -> 1);
        }
      | exception _ -> acc)
    { entries = 0; bytes = 0; proved = 0; falsified = 0; bounded = 0; with_payload = 0 }
    (entry_files cfg)

let clear cfg =
  List.fold_left
    (fun n path ->
      match remove_with_marker path with () -> n + 1 | exception _ -> n)
    0 (entry_files cfg)

(* {2 Daemon-grade maintenance}

   The serve loop runs [maintain] periodically: an age watermark drops
   entries not used (loaded or written) for [max_age_s], then a size
   watermark evicts entries until the store fits [max_bytes].  Eviction is
   hit-rate-aware on two axes: [load] refreshes an entry's mtime (a hot
   entry is never older than its last hit), and the size watermark evicts
   {e never-hit} entries (no [.hit] sidecar) oldest-first before touching
   any entry that earned at least one hit — a burst of one-off writes
   cannot flush the working set. *)

type gc_policy = { max_bytes : int option; max_age_s : float option }

let gc_policy ?max_bytes ?max_age_s () = { max_bytes; max_age_s }

type maintain_report = {
  evicted_age : int;
  evicted_size : int;
  evicted_cold : int;
  kept : int;
  kept_bytes : int;
}

(* Entries as (path, mtime, size, ever_hit), oldest last-use first. *)
let scan_entries cfg =
  List.filter_map
    (fun path ->
      match Unix.stat path with
      | st ->
        Some
          ( path,
            st.Unix.st_mtime,
            st.Unix.st_size,
            Sys.file_exists (hit_marker path) )
      | exception _ -> None)
    (entry_files cfg)
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b)

(* Size-watermark order: cold (never-hit) entries oldest-first, then hot
   entries oldest-first. *)
let eviction_order files =
  let cold, hot = List.partition (fun (_, _, _, hit) -> not hit) files in
  cold @ hot

let maintain cfg policy =
  Obs.span "cache.maintain" (fun () ->
      let now = Unix.gettimeofday () in
      let files = scan_entries cfg in
      let evicted_age = ref 0 and evicted_size = ref 0 and evicted_cold = ref 0 in
      let survivors =
        match policy.max_age_s with
        | None -> files
        | Some age ->
          List.filter
            (fun (path, mtime, _, _) ->
              if now -. mtime > age then (
                (match remove_with_marker path with
                | () -> incr evicted_age
                | exception _ -> ());
                false)
              else true)
            files
      in
      let remaining =
        ref (List.fold_left (fun acc (_, _, s, _) -> acc + s) 0 survivors)
      in
      let kept = ref 0 and kept_bytes = ref 0 in
      List.iter
        (fun (path, _, size, hit) ->
          match policy.max_bytes with
          | Some budget when !remaining > budget -> (
            match remove_with_marker path with
            | () ->
              incr evicted_size;
              if not hit then incr evicted_cold;
              remaining := !remaining - size
            | exception _ ->
              incr kept;
              kept_bytes := !kept_bytes + size)
          | _ ->
            incr kept;
            kept_bytes := !kept_bytes + size)
        (eviction_order survivors);
      Obs.counter_add "vcache.gc_evicted_age" !evicted_age;
      Obs.counter_add "vcache.gc_evicted_size" !evicted_size;
      Obs.counter_add "vcache.gc_evicted_cold" !evicted_cold;
      {
        evicted_age = !evicted_age;
        evicted_size = !evicted_size;
        evicted_cold = !evicted_cold;
        kept = !kept;
        kept_bytes = !kept_bytes;
      })

let gc cfg ~max_bytes =
  let files = eviction_order (scan_entries cfg) in
  let total = List.fold_left (fun acc (_, _, s, _) -> acc + s) 0 files in
  let deleted = ref 0 and kept = ref 0 and remaining = ref total in
  List.iter
    (fun (path, _, size, _) ->
      if !remaining > max_bytes then begin
        (match remove_with_marker path with
        | () ->
          incr deleted;
          remaining := !remaining - size
        | exception _ -> incr kept)
      end
      else incr kept)
    files;
  (!deleted, !kept)
