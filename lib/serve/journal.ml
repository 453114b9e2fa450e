(* Write-ahead job journal for the serve daemon.

   One file, append-only, one record per line:

     EMMVER-JOURNAL 1
     <md5-hex-of-json> <canonical json>
     ...

   The checksum covers exactly the JSON body of its own line, so every
   record is independently verifiable: a torn tail (daemon killed mid
   [write]), a flipped bit, or a stray partial line is detected and
   skipped during replay without poisoning the records around it.
   Records are idempotent under replay — duplicates (possible when a
   crash lands between a state change and its fsync on a previous
   incarnation's file) collapse to the same job state.

   Durability discipline mirrors the vcache store: appends are plain
   writes until the daemon is about to make a promise externally visible
   (an [accepted] reply, a [result] line), at which point it calls
   {!sync}; compaction writes a fresh file to [<path>.tmp], fsyncs it,
   [rename]s over the journal and fsyncs the directory. *)

let magic = "EMMVER-JOURNAL 1"

type record =
  | Accepted of { a_job : int; a_tenant : string; a_submit : Proto.submit }
  | Started of { job : int; pid : int; token : string }
  | Finished of { f_tenant : string; f_line : Proto.result_line }
  | Acked of { job : int }
  | Cancelled of { job : int }

(* {2 Canonical rendering} — the wire protocol's codec: the fields a record
   shares with its wire message are written by [Proto], after the journal's
   own [rec], [job], [tenant] and [req]. *)

open Obs.Json

let record_to_json r =
  let body kind job fields =
    to_string
      (obj (fun b ->
           add_field b "rec" (str kind);
           add_field b "job" (int job);
           fields b))
  in
  let owner tenant req b =
    add_field b "tenant" (str tenant);
    add_field b "req" (str req)
  in
  match r with
  | Accepted { a_job; a_tenant; a_submit = s } ->
    body "accepted" a_job (fun b ->
        owner a_tenant s.Proto.s_id b;
        Proto.add_submit_fields b s)
  | Started { job; pid; token } ->
    body "started" job (fun b ->
        add_field b "pid" (int pid);
        add_field b "token" (str token))
  | Finished { f_tenant; f_line = l } ->
    body "result" l.Proto.r_job (fun b ->
        owner f_tenant l.Proto.r_id b;
        Proto.add_result_fields b l)
  | Acked { job } -> body "acked" job ignore
  | Cancelled { job } -> body "cancelled" job ignore

(* {2 Parsing} *)

let ( let* ) = Result.bind

let record_of_json body =
  match parse body with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok o -> (
    let field name = required name (str_field name o) in
    let* kind = field "rec" in
    let* job = required "job" (int_field "job" o) in
    let req = Option.value (str_field "req" o) ~default:"" in
    match kind with
    | "accepted" ->
      let* a_tenant = field "tenant" in
      let* a_submit = Proto.submit_of ~id:req o in
      (* The wire defaults a missing property and method; a journalled job
         was accepted with both, so a record without them is corrupt. *)
      let* _ = field "property" in
      let* _ = field "method" in
      Ok (Accepted { a_job = job; a_tenant; a_submit })
    | "started" ->
      let* pid = required "pid" (int_field "pid" o) in
      let* token = field "token" in
      Ok (Started { job; pid; token })
    | "result" ->
      let* f_tenant = field "tenant" in
      let* f_line = Proto.result_of ~job ~id:req o in
      Ok (Finished { f_tenant; f_line })
    | "acked" -> Ok (Acked { job })
    | "cancelled" -> Ok (Cancelled { job })
    | kind -> Error (Printf.sprintf "unknown record kind %S" kind))

let job_of = function
  | Accepted { a_job; _ } -> a_job
  | Finished { f_line; _ } -> f_line.Proto.r_job
  | Started { job; _ } | Acked { job } | Cancelled { job } -> job

(* {2 Live state}

   The journal tracks per-job state as records are applied (both at replay
   and at runtime), so it can count dead lines for compaction and project
   the recovery view without a second pass. *)

type jstate = {
  mutable js_submit : (string * Proto.submit) option;  (** tenant, submission *)
  mutable js_started : (int * string) option;
  mutable js_result : (string * Proto.result_line) option;  (** tenant, result *)
  mutable js_closed : bool;  (** acked or cancelled: nothing left to do *)
  mutable js_lines : int;  (** journal lines this job occupies *)
}

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  mutable bytes : int;
  mutable records : int;
  mutable dead : int;  (** lines belonging to closed jobs *)
  mutable compactions : int;
  jobs : (int, jstate) Hashtbl.t;
}

type recovery = {
  pending : (int * string * Proto.submit) list;
  orphans : (int * int * string) list;
  undelivered : (string * Proto.result_line) list;
  next_job : int;
  replayed : int;
  corrupt : int;
}

let jstate t job =
  match Hashtbl.find_opt t.jobs job with
  | Some s -> s
  | None ->
    let s =
      {
        js_submit = None;
        js_started = None;
        js_result = None;
        js_closed = false;
        js_lines = 0;
      }
    in
    Hashtbl.replace t.jobs job s;
    s

let apply t r =
  let s = jstate t (job_of r) in
  s.js_lines <- s.js_lines + 1;
  if s.js_closed then t.dead <- t.dead + 1
  else
    match r with
    | Accepted { a_tenant; a_submit; _ } ->
      if s.js_submit = None then s.js_submit <- Some (a_tenant, a_submit)
    | Started { pid; token; _ } -> s.js_started <- Some (pid, token)
    | Finished { f_tenant; f_line } ->
      if s.js_result = None then s.js_result <- Some (f_tenant, f_line);
      s.js_started <- None
    | Acked _ | Cancelled _ ->
      s.js_closed <- true;
      t.dead <- t.dead + s.js_lines

(* {2 Low-level IO} *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with _ -> ());
    Unix.close fd
  | exception _ -> ()

let ensure_dir dir =
  let rec mk d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let line_of_record r =
  let body = record_to_json r in
  Digest.to_hex (Digest.string body) ^ " " ^ body ^ "\n"

let parse_line line =
  (* <32 hex chars> <space> <json> *)
  let n = String.length line in
  if n < 34 || line.[32] <> ' ' then Stdlib.Error "malformed line"
  else
    let sum = String.sub line 0 32 in
    let body = String.sub line 33 (n - 33) in
    if not (String.equal sum (Digest.to_hex (Digest.string body))) then
      Stdlib.Error "checksum mismatch"
    else record_of_json body

(* {2 Compaction}

   Rewrites the journal to just the live truth: for every open job, its
   accepted record, its last started record (a running child of {e this}
   daemon, meaningless after recovery — the caller clears it first there)
   and its undelivered result.  Closed jobs vanish entirely. *)

let live_records t =
  Hashtbl.fold (fun job s acc -> (job, s) :: acc) t.jobs []
  |> List.filter (fun (_, s) -> not s.js_closed)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map (fun (job, s) ->
         List.concat
           [
             (match s.js_submit with
             | Some (a_tenant, a_submit) ->
               [ Accepted { a_job = job; a_tenant; a_submit } ]
             | None -> []);
             (match s.js_started with
             | Some (pid, token) -> [ Started { job; pid; token } ]
             | None -> []);
             (match s.js_result with
             | Some (f_tenant, f_line) -> [ Finished { f_tenant; f_line } ]
             | None -> []);
           ])

let compact t =
  let records = live_records t in
  let tmp = t.path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let bytes = ref 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      let header = magic ^ "\n" in
      write_all fd header;
      bytes := String.length header;
      List.iter
        (fun r ->
          let line = line_of_record r in
          write_all fd line;
          bytes := !bytes + String.length line)
        records;
      Unix.fsync fd);
  Sys.rename tmp t.path;
  fsync_dir t.path;
  (try Unix.close t.fd with _ -> ());
  t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
  t.bytes <- !bytes;
  t.records <- List.length records;
  t.dead <- 0;
  t.compactions <- t.compactions + 1;
  (* Rebuild line accounting and forget closed jobs. *)
  Hashtbl.iter (fun _ s -> s.js_lines <- 0) t.jobs;
  let closed =
    Hashtbl.fold (fun job s acc -> if s.js_closed then job :: acc else acc) t.jobs []
  in
  List.iter (Hashtbl.remove t.jobs) closed;
  List.iter (fun r -> (jstate t (job_of r)).js_lines <- (jstate t (job_of r)).js_lines + 1) records

(* Compact when at least half the lines are dead and the waste is worth a
   rewrite.  Called opportunistically (after acks); cheap when it says no. *)
let maybe_compact t =
  if t.dead >= 64 && t.dead * 2 >= t.records then begin
    compact t;
    true
  end
  else false

let append ?(sync = false) t r =
  let line = line_of_record r in
  write_all t.fd line;
  t.bytes <- t.bytes + String.length line;
  t.records <- t.records + 1;
  apply t r;
  if sync then Unix.fsync t.fd

let sync t = Unix.fsync t.fd

let close t = try Unix.close t.fd with _ -> ()

let records t = t.records
let bytes t = t.bytes
let compactions t = t.compactions
let path t = t.path

(* {2 Open + replay} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let open_ path =
  ensure_dir (Filename.dirname path);
  let content = if Sys.file_exists path then Some (read_file path) else None in
  let t =
    {
      path;
      fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
      bytes = 0;
      records = 0;
      dead = 0;
      compactions = 0;
      jobs = Hashtbl.create 64;
    }
  in
  let replayed = ref 0 and corrupt = ref 0 in
  (match content with
   | None -> ()
   | Some content ->
     match String.split_on_char '\n' content with
     | header :: lines when String.equal header magic ->
       List.iter
         (fun line ->
           if line <> "" then
             match parse_line line with
             | Ok r ->
               t.records <- t.records + 1;
               incr replayed;
               apply t r
             | Stdlib.Error _ -> incr corrupt)
         lines
     | lines ->
       (* Wrong or missing header: nothing in this file can be trusted to
          be ours; count it all corrupt and start fresh. *)
       List.iter (fun l -> if l <> "" then incr corrupt) lines);
  let open_jobs =
    Hashtbl.fold (fun job s acc -> if s.js_closed then acc else (job, s) :: acc) t.jobs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let pending =
    List.filter_map
      (fun (job, s) ->
        match (s.js_submit, s.js_result) with
        | Some (tenant, submit), None -> Some (job, tenant, submit)
        | _ -> None)
      open_jobs
  in
  let orphans =
    List.filter_map
      (fun (job, s) ->
        match (s.js_started, s.js_result) with
        | Some (pid, token), None -> Some (job, pid, token)
        | _ -> None)
      open_jobs
  in
  let undelivered = List.filter_map (fun (_, s) -> s.js_result) open_jobs in
  let next_job = 1 + Hashtbl.fold (fun job _ acc -> max job acc) t.jobs 0 in
  (* The previous incarnation's workers are dead (or about to be reaped by
     the caller): a [started] record must not survive into the fresh file,
     or the *next* recovery would try to reap a long-recycled pid. *)
  Hashtbl.iter (fun _ s -> s.js_started <- None) t.jobs;
  (* Compaction rewrites the (possibly corrupt-tailed) file into a clean
     one and opens the append fd as a side effect. *)
  compact t;
  t.compactions <- 0;
  ( t,
    {
      pending;
      orphans;
      undelivered;
      next_job;
      replayed = !replayed;
      corrupt = !corrupt;
    } )
