(** Structured observability: spans, counters, Chrome traces.

    The verification platform needs to answer "where does the time go?" per
    unroll depth, per phase and per worker — the paper's whole evaluation
    (§5) is a performance decomposition of EMM vs explicit modeling.  This
    library provides the measurement substrate:

    - {b hierarchical timing spans} ({!span}): nested begin/end intervals
      with attributes and per-span GC allocation deltas;
    - {b monotonic counters} ({!counter_add}, {!counter_set}) and
      {b instant annotations} ({!instant});
    - an {b injectable clock} ({!Clock}), so tests can run against a
      deterministic fixed clock and the engine's deadline checks share one
      time source with the telemetry ({!now});
    - two {b exporters}: a JSON-lines event stream and the Chrome
      [trace_event] format loadable in [chrome://tracing] / Perfetto;
    - {b worker merging}: a forked worker records events locally
      ({!worker_scope}), marshals them back with its result, and the parent
      {!ingest}s them into one pid-annotated trace.

    The layer is zero-dependency (only [unix] for the wall clock) and
    designed to vanish when disabled: every emission point is a single
    branch on the current-recorder option ({!enabled}), so a run without
    [EMMVER_TRACE] / [--trace-out] pays only that branch. *)

(** {1 Events} *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type event =
  | Begin of { name : string; ts : float; attrs : attr list }
      (** a span opened *)
  | End of { name : string; ts : float; alloc_words : float }
      (** the matching span closed; [alloc_words] is the GC words allocated
          between begin and end (minor + major - promoted deltas) *)
  | Count of { name : string; ts : float; value : float }
      (** a monotonic counter's new total *)
  | Instant of { name : string; ts : float; attrs : attr list }
      (** a point annotation *)

type row = int * event
(** An event annotated with the pid of the process that recorded it.  Rows
    are marshal-safe (plain constructors over strings, ints and floats), so
    they can travel over the worker-pool result pipe. *)

(** {1 Clocks} *)

module Clock : sig
  type t = unit -> float

  val wall : t
  (** [Unix.gettimeofday]. *)

  val fixed : ?start:float -> ?step:float -> unit -> t
  (** A deterministic clock: the first reading is [start] (default 0.0) and
      every subsequent reading advances by [step] (default 1.0).  Two runs
      of the same workload against two [fixed] clocks with the same
      parameters produce identical timestamps — no wall-clock reads. *)
end

(** {1 Recorders} *)

type t
(** A recorder: an append-only event log plus the span stack and counter
    totals needed to emit well-formed streams. *)

val create : ?clock:Clock.t -> ?pid:int -> ?track_alloc:bool -> unit -> t
(** [create ()] makes an empty recorder on the wall clock for the calling
    process.  [~track_alloc:false] zeroes the per-span GC deltas, which
    makes exporter output byte-reproducible across runs even when the
    runtime allocates differently. *)

val clock : t -> Clock.t
val rows : t -> row list
(** Recorded rows, in emission order. *)

val num_rows : t -> int

val open_spans : t -> string list
(** Names of spans begun but not yet ended, innermost first. *)

val close_open_spans : t -> unit
(** Emit [End] events for every open span (innermost first) — used before
    exporting a trace from a run that was cut short. *)

(** {1 The current recorder}

    Emission goes through an ambient current recorder so instrumentation
    points (solver tick, EMM generator, engine loop) need no plumbing.  With
    no current recorder every emission function is a no-op behind one
    branch. *)

val set_current : t option -> unit
val current : unit -> t option

val enabled : unit -> bool
(** [true] iff a current recorder is installed.  Guard any non-trivial
    attribute computation with this. *)

val now : unit -> float
(** The current recorder's clock, or [Unix.gettimeofday] when disabled.
    The single time source for engine deadline checks and telemetry. *)

(** {1 Emission} *)

val span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a [name] span: a [Begin] row before, an
    [End] row after — also when [f] raises, so streams stay balanced.
    Disabled: exactly [f ()]. *)

val instant : ?attrs:attr list -> string -> unit

val counter_add : string -> int -> unit
(** Add a (non-negative; negative deltas are ignored) delta to a named
    monotonic counter and record its new total. *)

val counter_set : string -> float -> unit
(** Raise a named monotonic counter to the given total; values below the
    current total are clamped (the counter never goes backwards). *)

val counter_total : t -> string -> float
(** The recorder's current total for a named counter ([0.0] if it was
    never bumped) — a snapshot accessor for long-running services that
    report metrics without exporting a trace. *)

val counter_totals : t -> (string * float) list
(** Every counter's current total, sorted by name (deterministic for
    golden output). *)

(** {1 Worker support} *)

val worker_scope : (unit -> 'a) -> 'a * row list
(** Run [f] in a fork-side scope: if tracing is enabled the inherited
    recorder (whose rows belong to the parent) is replaced by a fresh one
    for this process, and the rows recorded by [f] are returned for
    marshalling back.  Disabled: [(f (), [])]. *)

val ingest : t -> row list -> unit
(** Append a worker's rows (keeping their pid annotations) to a parent
    recorder. *)

val ingest_current : row list -> unit
(** [ingest] into the current recorder; no-op when disabled. *)

(** {1 Domain support}

    The current recorder is domain-local ([Domain.DLS]): a freshly spawned
    domain starts disabled and never sees the parent's recorder, so a
    recorder is only ever mutated by the one domain that installed it.  To
    trace work running on another domain, capture a {!domain_fork} token on
    the parent {e before} spawning, run the domain's body inside
    {!domain_scope}, and {!ingest} the returned rows on the parent after
    joining — the portfolio layer does exactly this, mirroring the
    fork-worker flow of {!worker_scope}.

    Caveat: {!Clock.fixed} closures are stateful and unsynchronised; use
    the wall clock for multi-domain traces. *)

type domain_token
(** Parent-side capture (clock, allocation tracking, a fresh synthetic pid)
    for tracing one spawned domain. *)

val domain_fork : ?pid:int -> unit -> domain_token option
(** Capture the current recorder's configuration for a child domain, with a
    distinct synthetic pid (derived from the parent's, unless [pid] is
    given) so merged traces keep one well-formed span stack per domain.
    [None] when tracing is disabled — {!domain_scope} then runs its body
    untraced. *)

val domain_scope : domain_token option -> (unit -> 'a) -> 'a * row list
(** Run a domain's body against a private recorder described by the token,
    returning its rows for the parent to {!ingest} after [Domain.join].
    With [None]: [(f (), [])]. *)

(** {1 Validation and span extraction} *)

type span_info = {
  sp_pid : int;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_alloc_words : float;
  sp_attrs : attr list;
  sp_level : int;  (** nesting depth, 0 = top-level *)
  sp_parent : int option;  (** index of the enclosing span, if any *)
}

val spans : row list -> (span_info list, string) result
(** Reconstruct the span forest (per pid, via a stack), in begin order.
    [Error] on an orphan [End], a name mismatch, a timestamp running
    backwards within a pid, or a span left open. *)

val validate : row list -> (unit, string) result
(** The well-formedness judgment used by the tests: {!spans} succeeds and
    every counter is monotone per (pid, name). *)

val attr_int : string -> attr list -> int option

val duration : span_info -> float

(** {1 Exporters} *)

type format = Jsonl | Chrome

val format_of_path : string -> format
(** [.jsonl] extension selects {!Jsonl}; anything else {!Chrome}. *)

val export : format -> Buffer.t -> row list -> unit
(** Render rows. {!Jsonl}: one JSON object per line, absolute timestamps.
    {!Chrome}: a [{"traceEvents": [...]}] document with B/E/C/i phase
    events, microsecond timestamps relative to the earliest row, and
    [pid]/[tid] tracks per process — loadable in Perfetto. *)

val write_file : ?format:format -> string -> t -> unit

(** {1 Trace-file plumbing} *)

val trace_env_var : string
(** ["EMMVER_TRACE"]: setting it to a path enables tracing in any CLI or
    bench run, as if [--trace-out] had been given. *)

val run_with_trace : ?clock:Clock.t -> ?out:string -> label:string -> (unit -> 'a) -> 'a
(** [run_with_trace ~out ~label f]: when [out] (or, if [out] is [None], the
    {!trace_env_var} environment variable) names a file, install a fresh
    current recorder, run [f] inside a [label] root span, and write the
    trace to that file ({!format_of_path}) — also when [f] raises or calls
    [exit] (an [at_exit] hook covers the latter; open spans are closed
    first).  Otherwise exactly [f ()]. *)

(** {1 JSON}

    The platform's one JSON codec.  The serve wire protocol and its
    journal, vcache entries and the trace exporters above are written and
    read through this module, and BENCH baselines are read with it.  The
    writer is canonical — a value has exactly one rendering, in the field
    order its caller writes — so each of those formats can be pinned by
    byte-exact golden tests.  Numbers have no single rule: the wire and
    the journal write floats with {!Json.fixed3}, vcache entries with
    {!Json.exact} (a float reads back bit for bit), and the trace
    exporters keep their own integer-or-six-digits rule. *)

module Json : sig
  (** {2 Reading}

      A small recursive-descent reader, not a general-purpose
      implementation: [\u] escapes above ASCII decode to ['?'] (no writer
      here emits them). *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  val member : string -> t -> t option

  (** {2 Field readers}

      [None] when the field is absent or has the wrong type, so an
      ill-typed optional field reads as absent. *)

  val str_field : string -> t -> string option
  val num_field : string -> t -> float option

  val int_field : string -> t -> int option
  (** A number field, truncated to an int. *)

  val bool_field : string -> t -> bool option

  val required : string -> 'a option -> ('a, string) result
  (** [required name v]: [v]'s value, or an error naming the missing or
      ill-typed field [name]. *)

  (** {2 Writing}

      A value writer has type [Buffer.t -> unit]: [int 3], [str s] and
      [obj (fun b -> add_field b "k" (int 3))] are writers.  Objects are
      written by {!obj} and their fields by {!add_field}, which places the
      commas itself. *)

  val add_string : Buffer.t -> string -> unit
  (** A quoted string.  The double quote, the backslash and the bytes
      below 0x20 are escaped: newline, carriage return and tab by their
      two-byte escapes, the other control bytes as [\u00XX].  Every other
      byte is copied as is, in runs. *)

  val str : string -> Buffer.t -> unit
  val int : int -> Buffer.t -> unit
  val bool : bool -> Buffer.t -> unit

  val fixed3 : float -> Buffer.t -> unit
  (** [%.3f]: the wire protocol's and the journal's float. *)

  val exact : float -> Buffer.t -> unit
  (** [%.17g]: vcache's float, which reads back to the same float. *)

  val list : ('a -> Buffer.t -> unit) -> 'a list -> Buffer.t -> unit
  (** A JSON array of the elements, each written by the given writer. *)

  val obj : (Buffer.t -> unit) -> Buffer.t -> unit
  (** A JSON object whose fields the function writes with {!add_field}
      and {!opt}. *)

  val add_field : Buffer.t -> string -> (Buffer.t -> unit) -> unit
  (** [add_field b name v] writes one field of the enclosing {!obj}. *)

  val opt : Buffer.t -> string -> ('a -> Buffer.t -> unit) -> 'a option -> unit
  (** [opt b name v x]: the field when [x] is [Some _], nothing when it is
      [None]. *)

  val to_string : (Buffer.t -> unit) -> string
  (** Run a writer on a fresh buffer. *)
end
