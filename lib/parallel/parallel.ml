(* Fork-per-job workers on one loop.  See parallel.mli for the contract.

   Parent-side machinery: one pipe per live worker, a select loop that
   drains result bytes as they are produced (so a result larger than the
   pipe buffer cannot deadlock a worker), wall-clock deadlines enforced
   with SIGKILL, and waitpid-based post-mortems that distinguish clean
   results from crashes, timeouts and cancellations. *)

type reason =
  | Crashed of string
  | Timed_out of float
  | Cancelled
  | Protocol of string

type failure = { reason : reason; elapsed_s : float }

let failure_message f =
  match f.reason with
  | Crashed why -> Printf.sprintf "%s after %.1fs" why f.elapsed_s
  | Timed_out d -> Printf.sprintf "killed by %.1fs deadline" d
  | Cancelled -> "cancelled by portfolio winner"
  | Protocol why -> Printf.sprintf "unreadable result (%s)" why

type 'a job_result = ('a, failure) result

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* {2 Worker side} *)

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let write_all fd bytes =
  let n = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + retry_eintr (fun () -> Unix.write fd bytes !pos (n - !pos))
  done

(* The child computes [f x], marshals [Ok v] (or [Error backtrace] when [f]
   raises) to the write end of its pipe and leaves with [_exit], never
   returning into the caller's control flow (at_exit handlers, pending
   alcotest reporters, ... belong to the parent).

   When tracing is on, the whole job runs under [Obs.worker_scope]: the
   child records spans into its own recorder and the rows ride back with
   the result, so the parent can merge a pid-annotated trace.  A worker
   that dies (deadline SIGKILL, crash) writes no payload — its partial
   spans are dropped rather than corrupting the merged stream. *)
let exec_child wfd f x =
  let result, obs_rows =
    Obs.worker_scope (fun () ->
        try Ok (f x) with e -> Error (Printexc.to_string e))
  in
  let payload =
    try Marshal.to_bytes (result, obs_rows) []
    with e ->
      (* the value itself would not marshal (closure, custom block, ...) *)
      Marshal.to_bytes
        ((Error (Printexc.to_string e), obs_rows)
          : (_, string) result * Obs.row list)
        []
  in
  (try write_all wfd payload with _ -> ());
  (try Unix.close wfd with _ -> ());
  Unix._exit 0

(* {2 Parent side} *)

(* One forked job computing a ['b]. *)
type 'b handle = {
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  started : float;
  kill_at : float option;
  mutable killed : reason option;  (* set when we SIGKILLed it ourselves *)
  mutable settled : bool;
}

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" s

(* The worker's pipe hit EOF: reap the process and produce its slot's
   result.  A deadline or cancellation kill takes precedence over whatever
   the dying worker managed to write. *)
let post_mortem h =
  (try Unix.close h.fd with Unix.Unix_error _ -> ());
  let _, status = retry_eintr (fun () -> Unix.waitpid [] h.pid) in
  let elapsed_s = Unix.gettimeofday () -. h.started in
  let fail reason = Error { reason; elapsed_s } in
  match (h.killed, status) with
  | Some reason, _ -> fail reason
  | None, Unix.WEXITED 0 -> (
    match
      (try Ok (Marshal.from_bytes (Buffer.to_bytes h.buf) 0)
       with e -> Error (Printexc.to_string e))
    with
    | Ok ((res : (_, string) result), (obs_rows : Obs.row list)) -> (
      (* Merge the worker's trace rows (pid-annotated at emission) before
         judging the result: a worker that failed with an exception still
         produced a well-formed partial trace worth keeping. *)
      Obs.ingest_current obs_rows;
      match res with
      | Ok v -> Ok v
      | Error exn_text -> fail (Crashed ("uncaught exception: " ^ exn_text)))
    | Error why -> fail (Protocol why))
  | None, Unix.WEXITED code -> fail (Crashed (Printf.sprintf "exit %d" code))
  | None, Unix.WSIGNALED s | None, Unix.WSTOPPED s ->
    fail (Crashed ("killed by " ^ signal_name s))

(* {2 One job at a time}

   The daemon's select loop and [run] below both drive these handles, so
   bytes, EOF, post-mortem and deadline kills go through them only. *)

module Async = struct
  type nonrec 'b handle = 'b handle

  let spawn ?job_timeout_s ~f x =
    (* Anything buffered on the standard channels would be flushed twice —
       once per process — if it survived the fork. *)
    flush stdout;
    flush stderr;
    let rfd, wfd = Unix.pipe ~cloexec:false () in
    match Unix.fork () with
    | 0 ->
      (try Unix.close rfd with _ -> ());
      exec_child wfd f x
    | pid ->
      Unix.close wfd;
      let now = Unix.gettimeofday () in
      {
        pid;
        fd = rfd;
        buf = Buffer.create 1024;
        started = now;
        kill_at = Option.map (fun d -> now +. d) job_timeout_s;
        killed = None;
        settled = false;
      }

  let fd h = h.fd
  let pid h = h.pid

  let kill h reason =
    if h.killed = None then begin
      (try Unix.kill h.pid Sys.sigkill with Unix.Unix_error _ -> ());
      h.killed <- Some reason
    end

  let cancel h = kill h Cancelled

  let check_deadline h =
    match h.kill_at with
    | Some ka when h.killed = None && ka <= Unix.gettimeofday () ->
      kill h (Timed_out (ka -. h.started))
    | _ -> ()

  let service h =
    if h.settled then invalid_arg "Parallel.Async.service: handle already settled";
    let chunk = Bytes.create 65536 in
    let k = retry_eintr (fun () -> Unix.read h.fd chunk 0 (Bytes.length chunk)) in
    if k = 0 then begin
      h.settled <- true;
      Some (post_mortem h)
    end
    else begin
      Buffer.add_subbytes h.buf chunk 0 k;
      None
    end
end

(* {2 The batch loop} *)

let run ?job_timeout_s ?(settle = fun _ _ -> `Continue) ~jobs ~f xs =
  let cancelled = Error { reason = Cancelled; elapsed_s = 0.0 } in
  let results = Array.make (List.length xs) cancelled in
  (* Slots not yet started, in start order: a retry joins at the front. *)
  let todo = ref (List.mapi (fun slot x -> (slot, x)) xs) in
  let running = ref [] in
  let stopped = ref false in
  let finish slot result =
    results.(slot) <- result;
    if not !stopped then
      match settle slot result with
      | `Continue -> ()
      | `Retry x ->
        results.(slot) <- cancelled;
        todo := (slot, x) :: !todo
      | `Stop ->
        stopped := true;
        todo := [];
        List.iter (fun (_, h) -> Async.cancel h) !running
  in
  try
    while !todo <> [] || !running <> [] do
      while !todo <> [] && List.length !running < max 1 jobs do
        match !todo with
        | (slot, x) :: rest ->
          todo := rest;
          running := (slot, Async.spawn ?job_timeout_s ~f x) :: !running
        | [] -> ()
      done;
      (* Enforce deadlines, and size the select timeout to the nearest one. *)
      let now = Unix.gettimeofday () in
      let wait =
        List.fold_left
          (fun wait (_, h) ->
            Async.check_deadline h;
            match h.kill_at with
            | Some ka when h.killed = None -> Float.min wait (ka -. now)
            | _ -> wait)
          0.5 !running
      in
      let readable, _, _ =
        retry_eintr (fun () ->
            Unix.select (List.map (fun (_, h) -> Async.fd h) !running) [] []
              (Float.max 0.01 wait))
      in
      List.iter
        (fun (slot, h) ->
          if List.mem (Async.fd h) readable then
            match Async.service h with
            | None -> ()
            | Some result ->
              running := List.filter (fun (_, h') -> h' != h) !running;
              finish slot result)
        !running
    done;
    Array.to_list results
  with e ->
    (* An exception escaping the loop (fork failure, a raising [settle])
       must not abandon live children: kill, close and reap every running
       worker before letting it propagate, or each aborted run leaks
       zombies for the life of the parent. *)
    List.iter
      (fun (_, h) ->
        Async.cancel h;
        (try Unix.close (Async.fd h) with Unix.Unix_error _ -> ());
        try ignore (retry_eintr (fun () -> Unix.waitpid [] (Async.pid h)))
        with Unix.Unix_error _ -> ())
      !running;
    raise e

(* {2 Orphan reaping}

   A daemon that dies (SIGKILL, power loss) abandons its forked workers:
   they reparent to init and keep burning CPU until their own deadline or
   completion.  The restarted daemon knows their pids from its journal,
   but a pid alone is not an identity — it may have been recycled.  The
   Linux-specific guard is the process start time (field 22 of
   /proc/<pid>/stat, in clock ticks since boot): recorded at spawn, it
   uniquely names one incarnation of a pid.  No /proc, no token, no
   match: never kill. *)

let proc_start_token pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | ic -> (
    let line =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try Some (input_line ic) with End_of_file -> None)
    in
    match line with
    | None -> None
    | Some line -> (
      (* The comm field is parenthesized and may contain spaces: split
         after the last ')'. *)
      match String.rindex_opt line ')' with
      | None -> None
      | Some i ->
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        let fields =
          String.split_on_char ' ' rest |> List.filter (fun s -> s <> "")
        in
        (* [rest] starts at field 3 (state); starttime is field 22. *)
        List.nth_opt fields 19))
  | exception _ -> None

let process_token pid =
  match proc_start_token pid with Some t -> t | None -> ""

let reap_orphan ~pid ~token =
  if token = "" then false
  else
    match proc_start_token pid with
    | Some t when String.equal t token -> (
      match Unix.kill pid Sys.sigkill with
      | () -> true
      | exception Unix.Unix_error _ -> false)
    | _ -> false
