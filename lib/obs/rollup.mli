(** Streaming per-session rollups over the supervise stream.

    The fleet-level view of a serve/chaos run, folded decision by
    decision so nothing retains full traces: per-server-class counters
    of every supervision action (admitted / shed / restarts / trips /
    done / failed / ...), a rounds-to-goal histogram, a session-latency
    histogram (admit tick → done tick), and — when a [clock] is
    supplied — sessions/sec.

    {b Determinism.}  All aggregation state is integer counters and
    fixed-bucket histograms; {!merge} is element-wise addition.  Two
    rollups fed the same supervise decisions agree bit for bit whatever
    the engine's [jobs] count (the engine makes supervision decisions
    in its sequential phase), and a clock-less snapshot is a pure
    function of the stream — the golden stats test pins one.  Wall
    clock enters only through [clock], and only into [wall_s] /
    [sessions_per_sec].

    Feed a rollup either from the engine's [on_supervise] hook (live,
    no tracing needed) or from a recorded stream via {!observe} /
    {!sink} (only [Trace.Supervise] events are aggregated). *)

(** Fixed-bucket (HDR-style) histogram over non-negative ints: values
    [0..63] in exact unit buckets, then 32 sub-buckets per power-of-two
    octave — relative quantisation error is bounded by 1/32.  Negative
    values clamp to 0.  Quantiles report the matched bucket's inclusive
    upper bound, so small exact values quantise exactly. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val total : t -> int
  val mean : t -> float

  val percentile : float -> t -> int
  (** [percentile q t] for [q] in [0..100]; 0 when empty. *)

  val merge : into:t -> t -> unit
  (** Element-wise count addition: associative, commutative, and
      bit-deterministic — merged shards equal single-stream feeding. *)

  val bucket_of : int -> int
  (** The bucket index a value lands in (exposed for the edge tests). *)

  val upper_of : int -> int
  (** Inclusive upper bound of a bucket. *)
end

type t

val create : ?clock:(unit -> float) -> ?class_of:(int -> string) -> unit -> t
(** [class_of] maps a session id to its server class (default: one
    ["all"] class).  [clock] (e.g. [Unix.gettimeofday]) enables
    [wall_s] and [sessions_per_sec] in snapshots; omit it for
    deterministic output. *)

val supervise :
  t -> tick:int -> session:int -> action:string -> detail:string -> unit
(** Fold one supervision decision (the engine's [on_supervise] hook
    calls this).  Actions are the [Trace.Supervise] vocabulary;
    unknown actions are ignored.  ["done"] details of the engine's
    ["rounds=%d ..."] shape feed the rounds histogram. *)

val observe : t -> Goalcom.Trace.event -> unit
(** Fold a [Trace.Supervise] event; every other event is ignored. *)

val merge : into:t -> t -> unit
(** Add [src]'s counters and histograms into [into] (deterministic;
    see the module preamble). *)

(** {1 Snapshots} *)

type class_stats = {
  cls : string;
  admitted : int;
  shed : int;
  started : int;
  restarts : int;
  completed : int;
  failed : int;  (** failed incarnations, before the restart policy *)
  gave_up : int;
  deadlines : int;
  wedges : int;
  kills : int;
  trips : int;
  delivered : int;
      (** frames a shared-world arbiter delivered for this class's
          sessions (the engine group report's ["deliver"] action —
          lib/net Medium slots won) *)
  collisions : int;  (** medium slots this class's sessions clashed in *)
}

type snapshot = {
  ticks : int;  (** highest tick seen *)
  classes : class_stats list;  (** sorted by class name *)
  totals : class_stats;  (** summed, [cls = "total"] *)
  latency_p50 : int;  (** admit→done latency in ticks, completed sessions *)
  latency_p99 : int;
  latency_p999 : int;
  rounds_p50 : int;  (** rounds-to-goal, completed sessions *)
  rounds_p99 : int;
  rounds_p999 : int;
  rounds_total : int;
  wall_s : float option;  (** with [clock] only *)
  sessions_per_sec : float option;  (** completed / wall_s, with [clock] *)
}

val snapshot : t -> snapshot

val table : snapshot -> Goalcom_prelude.Table.t
(** The [goalcom top] / end-of-serve rendering. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition ([goalcom_sessions_total{class,action}],
    latency/rounds quantile summaries, [goalcom_sessions_per_sec]). *)

val to_json : snapshot -> string
(** One-line JSON snapshot ([serve --stats FILE] appends these;
    [goalcom top] polls the newest). *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json} up to float formatting. *)
