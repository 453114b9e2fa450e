(** The serve daemon's wire protocol: message types plus their canonical
    JSON codec.

    Rendering is deterministic (fixed field order, fixed number format),
    so recorded transcripts can be checked byte-for-byte — the golden
    tests in [test_serve.ml] do exactly that, and any drift in the codec
    breaks them rather than deployed clients.  The protocol is specified
    in the {{!page-protocol}protocol manual}.

    The daemon's journal ([Serve.Journal]) stores these same records: a
    journalled job is its {!submit}, a journalled result its
    {!result_line}.  The field writers and readers at the end of this
    interface are the part of the codec the two formats share. *)

type submit = {
  s_id : string;  (** client-chosen request id, echoed in every reply *)
  s_design : string;  (** registry name or [.emn]/[.aag] path *)
  s_property : string option;  (** [None] = every property of the design *)
  s_method : string;  (** engine name; default ["emm"] *)
  s_max_depth : int option;
  s_timeout_s : float option;
  s_cache : bool option;  (** override the server's cache default *)
}

type request =
  | Hello of string  (** declare a client (tenant) id for fairness *)
  | Ping
  | Submit of submit
  | Poll of int  (** job id *)
  | Resume of string
      (** take the given tenant identity and stream every retained
          (completed, unacked) result it missed, oldest first *)
  | Ack of int
      (** confirm delivery of a result: the server may forget it *)
  | Metrics
  | Shutdown  (** begin a graceful drain, as SIGTERM does *)

type result_line = {
  r_job : int;
  r_id : string;
  r_property : string;
  r_method : string;
  r_verdict : string;  (** ["proved"], ["falsified"] or ["inconclusive"] *)
  r_depth : int option;
  r_induction : bool option;
  r_genuine : bool option;
  r_reason : string option;  (** inconclusive explanation, if any *)
  r_time_s : float;
  r_cache : string;  (** ["off"], ["miss"], ["hit"] or ["dedup"] *)
  r_certificate : string;
}

type metrics_line = {
  m_uptime_s : float;
  m_queue_depth : int;
  m_running : int;
  m_clients : int;  (** distinct client ids seen since start *)
  m_accepted : int;
  m_completed : int;
  m_failed : int;  (** worker crashed or hit its kill deadline *)
  m_cancelled : int;  (** dropped by client disconnect or drain *)
  m_rejected_busy : int;
  m_rejected_shutdown : int;
  m_protocol_errors : int;
  m_cache_hits : int;
  m_cache_misses : int;
  m_cache_entries : int;  (** current store size, from {!Vcache.stats} *)
  m_cache_bytes : int;
  m_gc_runs : int;
  m_gc_evicted : int;
  m_journal_records : int;  (** journal lines in the current file *)
  m_journal_bytes : int;
  m_compactions : int;  (** journal compactions since startup replay *)
  m_replayed : int;  (** jobs re-enqueued from the journal at startup *)
  m_recovered : int;  (** undelivered results recovered at startup *)
  m_orphans_killed : int;  (** dead incarnation's workers reaped *)
  m_redelivered : int;  (** result lines re-sent via [resume] *)
  m_acked : int;  (** retained results released by [ack] *)
  m_retained : int;  (** results currently awaiting an [ack] *)
  m_methods : (string * int * float) list;
      (** per-method [(name, jobs, wall_s)] aggregates, sorted by name *)
}

type reply =
  | Hello_ok of { server : string; version : int }
  | Pong
  | Accepted of { id : string; jobs : (int * string) list; queue_depth : int }
      (** jobs as [(job id, property)]; results stream back later *)
  | Busy of {
      id : string;
      queue_depth : int;
      max_queue : int;
      retry_after_s : float;
    }
      (** queue full — nothing was enqueued; resubmit after roughly
          [retry_after_s] seconds ([0.] when talking to a v1 server) *)
  | Shutdown_reply of {
      id : string;
      job : int option;
      retry_after_s : float option;
    }
      (** the daemon is draining: with [job = None] the submission was
          refused, with [Some j] a previously queued job was dropped (a
          journalled daemon's successor will still run it); retry against
          the successor after [retry_after_s] *)
  | Error of { id : string option; message : string }
  | Result of result_line
  | Status of { job : int; state : string }
      (** [state]: ["queued"], ["running"], ["done"] or ["unknown"] *)
  | Resumed of { client : string; results : int; pending : int }
      (** [resume] header: [results] retained result lines follow
          immediately; [pending] jobs are still queued or running *)
  | Acked of { job : int }  (** [ack] acknowledgment (idempotent) *)
  | Metrics_reply of metrics_line
  | Draining  (** acknowledgment of a [shutdown] request *)

val request_to_string : request -> string
(** One line of JSON, without the trailing newline. *)

val request_of_string : string -> (request, string) result
val reply_to_string : reply -> string
val reply_of_string : string -> (reply, string) result

(** {1 Fields shared with the journal}

    A submission and a result each carry their ids first and then the
    same fields, in the same order, on the wire and in the journal.  These
    write and read those fields; the ids around them are the caller's. *)

val add_submit_fields : Buffer.t -> submit -> unit
(** [design], [property], [method], [max_depth], [timeout_s], [cache]; the
    optional ones only when set. *)

val submit_of : id:string -> Obs.Json.t -> (submit, string) result
(** Read those fields the way the wire does: [design] is required, an
    absent [property] means every property, an absent [method] is
    ["emm"], and an ill-typed optional field reads as absent. *)

val add_result_fields : Buffer.t -> result_line -> unit
(** [property] through [certificate], after the job and request ids. *)

val result_of : job:int -> id:string -> Obs.Json.t -> (result_line, string) result
(** Read those fields: [property], [method], [verdict], [time_s], [cache]
    and [certificate] are required, the others optional. *)
