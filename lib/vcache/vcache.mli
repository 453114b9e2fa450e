(** Content-addressed, persistent verification-result cache.

    The netlist is hash-consed and every engine encodes exactly the
    sequential fan-in cone of the property it checks, so a verification
    sub-problem is fully determined by {e cone structure} plus the
    verdict-relevant options (method, bound, encoder generation).  This
    module keys [(verdict, certificate)] entries by an MD5 digest of
    [Netlist.cone_signature] and those options, and persists them in an
    on-disk store shared by every process on the machine — identical
    sub-problems across runs, designs, depths and parallel workers reach
    the SAT solver once.

    Trust model: a cache hit is {e evidence}, not gospel.

    - Every entry carries a whole-file checksum; a corrupt, truncated,
      tampered or version-mismatched file is a miss, never an error.
    - Falsified entries carry the counterexample trace; the engine layer
      replays it on the live design before believing the hit (and under
      [--certify] runs the full interface-diffing replay), so a stale or
      foreign entry degrades to a miss.
    - Proved / bounded-safe entries can carry the DRAT evidence
      ({!Bmc.Engine.cert_artifact}); under [--certify] the independent
      checker re-validates it on the hit path.

    Writes are atomic (write-to-temp then [rename] within the store
    directory), so concurrent writers — the fork worker pool, racing
    portfolio engines, unrelated CLI runs — never corrupt the store; the
    last writer of an identical key wins and all of them wrote the same
    verdict.  All store operations are instrumented with [Obs] spans and
    [vcache.*] counters. *)

type config = {
  dir : string;  (** store directory, created on demand *)
  payload_limit_bytes : int;
      (** DRAT payloads above this size are dropped at store time (the entry
          is still written, verdict-only); default 32 MB *)
}

val default_dir : unit -> string
(** [$EMMVER_CACHE_DIR], else [$XDG_CACHE_HOME/emmver], else
    [~/.cache/emmver], else [.emmver-cache] when no home is known. *)

val config : ?dir:string -> ?payload_limit_bytes:int -> unit -> config

(** {1 Keys} *)

module Key : sig
  type t

  val make : cone:string -> attrs:(string * string) list -> t
  (** Digest of a canonical cone serialization ({!Netlist.cone_signature})
      and the verdict-relevant option attributes, order-normalized. *)

  val to_hex : t -> string
end

(** {1 Entries} *)

type verdict =
  | Proved of { depth : int; induction : bool }
  | Falsified of { depth : int }
  | Bounded of { depth : int; reason : string }
      (** a deterministic inconclusive: the bound (in the key) was exhausted
          without a counterexample; [reason] is the engine's message *)

type payload =
  | No_payload
  | Trace_payload of Bmc.Trace.t  (** counterexample evidence *)
  | Drat_payload of Bmc.Engine.cert_artifact  (** UNSAT evidence *)

type entry = {
  e_method : string;
  e_verdict : verdict;
  e_time_s : float;  (** wall clock of the recording (cold) run *)
  e_solve_time_s : float;
  e_model_vars : int;
  e_model_clauses : int;
  e_model_latches : int;
  e_cert : string;  (** certificate label of the recording run *)
  e_created : float;  (** seconds since the epoch *)
  e_payload : payload;
}

(** {1 Store operations} *)

val store : config -> Key.t -> entry -> unit
(** Atomically persist the entry under its key.  Never raises: an
    unwritable store directory only drops the entry (recorded on the
    [vcache.store_errors] counter). *)

val load : config -> Key.t -> entry option
(** [None] on absence, checksum mismatch, version mismatch or any parse
    error — corruption is indistinguishable from a miss by design.  A hit
    refreshes the entry's mtime and drops an empty [<entry>.json.hit]
    sidecar next to it: watermark eviction treats entries that never
    earned a hit as first to go (see {!maintain}). *)

val remove : config -> Key.t -> unit
(** Drop one entry (used when a hit fails its independent re-check). *)

(** {1 Administration} *)

type store_stats = {
  entries : int;
  bytes : int;
  proved : int;
  falsified : int;
  bounded : int;
  with_payload : int;
}

val stats : config -> store_stats
val clear : config -> int
(** Delete every entry; returns the number deleted. *)

(** {1 Daemon-grade maintenance}

    A long-running server cannot rely on an operator running [cache gc] by
    hand; it calls {!maintain} periodically from its event loop.  Eviction
    is hit-rate-aware on two axes: watermarks order by {e last use}, not
    creation ({!load} refreshes a served entry's mtime), and the size
    watermark evicts entries that {e never} earned a hit before touching
    any entry that did — a burst of one-off writes cannot flush the
    working set.  The only bookkeeping is the filesystem's (mtimes and
    empty [.hit] sidecars). *)

type gc_policy = {
  max_bytes : int option;
      (** size watermark: evict cold-then-LRU entries down to this *)
  max_age_s : float option;
      (** age watermark: evict entries not used for this many seconds *)
}

val gc_policy : ?max_bytes:int -> ?max_age_s:float -> unit -> gc_policy
(** Both watermarks default to off ([None]). *)

type maintain_report = {
  evicted_age : int;  (** entries dropped by the age watermark *)
  evicted_size : int;  (** entries dropped by the size watermark *)
  evicted_cold : int;
      (** of [evicted_size], how many had never earned a hit — the
          hit-rate-aware half of the size watermark *)
  kept : int;
  kept_bytes : int;
}

val maintain : config -> gc_policy -> maintain_report
(** Apply the age watermark, then the size watermark (never-hit entries
    oldest-first, then LRU).  Never raises; unremovable files are kept and
    counted.  Instrumented with the [cache.maintain] span and the
    [vcache.gc_evicted_age]/[vcache.gc_evicted_size]/[vcache.gc_evicted_cold]
    counters. *)
