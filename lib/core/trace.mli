(** Structured execution tracing: the event algebra and the ambient sink.

    Every claim in the paper is about what happens {e during} a run —
    sensing verdicts, the strategy switches of Theorem 1's enumeration,
    rounds until the referee settles.  This module makes those moments
    first-class events.  {!Exec.run} emits round boundaries, per-party
    message emissions and the user's halt; {!Universal} emits sensing
    verdicts, strategy switches, Levin schedule steps and checkpoint
    resumes; {!Sensing.tolerant} emits masked verdicts; the fault layer
    ([lib/faults]) emits fault activations; {!Exec.run_outcome} emits
    referee violations.  The attribution fold ([Span]), the ring, the
    JSONL exporter and the pretty-printer live on top, in [lib/obs]
    ([goalcom_obs]).

    {b Sink discipline.}  There is one ambient sink {e per domain},
    installed with {!set_sink} or scoped with {!with_sink} (the model is
    a [Logs] reporter, made domain-local).  Emitters go through the
    typed emitters ({!emit_round_start} and friends, one per event
    kind), so with no sink installed {e no event value is allocated}:
    the disabled path costs one load and branch per site.  When the
    installed sink offers a wire ({!encoded_sink}), the typed emitters
    write each event's bytes straight into the sink's arena and build
    no event either; every other sink receives the built event.  What
    an emitter does is resolved once, when the sink is installed, never
    per event.  Traces carry no wall-clock stamps — a trace is a pure
    function of (strategies, goal, seed, config), so same seed ⇒
    bit-identical trace; timing lives in the metrics layer, out of band.

    {b Domains.}  {!set_sink}, {!with_sink}, {!handle_set_round} and
    their readers act on the {e calling domain only}; fresh domains
    start with no sink.  The parallel entry points ([Trial.run_par],
    [Universal.finite_par]) install a buffering sink inside each pool
    task and merge the buffers in deterministic (trial, round) order, so
    a parallel run's merged trace equals the sequential trace.
    Installing a sink from a domain that is {e not} participating in an
    in-flight pool batch while one runs elsewhere raises
    [Invalid_argument] — such a sink would silently observe nothing. *)

type party = Trace_wire.party = User | Server | World

val party_name : party -> string
(** ["user"], ["server"], ["world"]. *)

type event =
  | Run_start of {
      goal : string;
      user : string;
      server : string;
      horizon : int;
      drain : int;
      world_choice : int;
    }  (** emitted once by {!Exec.run}, before the parties are created *)
  | Round_start of { round : int }  (** round boundary (rounds start at 1) *)
  | Emit of { round : int; src : party; dst : party; msg : Msg.t }
      (** a non-silent message placed on the wire in [round] *)
  | Halt of { round : int }  (** the user requested halt in [round] *)
  | Sense of {
      round : int;
      sensor : string;
      positive : bool;
      clock : int;  (** rounds the judged strategy has been running *)
      patience : int;  (** effective grace / tolerance threshold in force *)
    }  (** a sensing verdict, as consumed by a universal construction *)
  | Switch of { round : int; from_index : int; to_index : int; attempt : int }
      (** compact enumeration advanced (or retried: same index, higher
          [attempt]) after a negative indication *)
  | Resume of { index : int; slots : int }
      (** a fresh incarnation resumed a checkpointed enumeration *)
  | Session of { round : int; index : int; budget : int }
      (** the finite (Levin) construction started a scheduled session *)
  | Fault of { round : int; fault : string; detail : string }
      (** a fault combinator activated (corruption, crash, outage, ...) *)
  | Violation of { round : int }
      (** referee violation, judged post-run by {!Exec.run_outcome} *)
  | Run_end of { rounds : int; halted : bool }
  | Supervise of { tick : int; session : int; action : string; detail : string }
      (** a supervision decision of the session engine ([lib/session]):
          [action] is one of ["admit"], ["shed"], ["start"], ["restart"],
          ["kill"], ["fail"], ["wedge"], ["give-up"], ["deadline"],
          ["trip"], ["half-open"], ["close"] or ["done"]; [tick] is the
          engine's scheduler tick (not an execution round — supervision
          happens between runs) *)
  | Warm of {
      server_class : string;
      enum : string;
      index : int;
      accepted : bool;
      detail : string;
    }
      (** a warm-start cache decision ([Goalcom_harness.Warm]): an entry for
          ([server_class], [enum]) proposing candidate [index] was
          applied ([accepted = true], [detail = "hit"]) or rejected in
          favour of the cold enumeration ([accepted = false]; [detail]
          says why — a parse error, a stale index, a bad budget).
          [index] is [-1] when no usable index was recovered *)

type sink = event -> unit

type wire =
  | Write of { enc : Trace_wire.enc; commit : int -> unit }
      (** Append the event's bytes to [enc], then [commit start] with
          the offset they start at. *)
  | Count of (unit -> unit)
      (** Neither build nor encode the event: only call the counter
          (the engine's sessions whose events the ring will not keep). *)

type encoded_sink = {
  push : Bytes.t -> int -> int -> unit;
      (** [push buf off len]: the bytes [buf.[off .. off+len-1]] are
          exactly one event in [Goalcom_obs.Binary]'s format.  The
          callee copies what it keeps. *)
  retain : int;  (** the sink keeps only its last [retain] events *)
  discard : int -> unit;
      (** [discard k]: [k] events pushed and evicted, bytes unseen.
          @raise Invalid_argument if [k < 0]. *)
  mutable wire : wire;
      (** where the typed emitters write; read per event, so a producer
          may point one installed offer at successive arenas (the
          session engine does, session by session) *)
}
(** A sink's encoded form; see {!offer_encoded} and the typed
    emitters. *)

(** {1 The ambient sink} *)

val enabled : unit -> bool
(** Guard emissions with this so the no-sink path allocates nothing. *)

val emit : event -> unit
(** Deliver to the ambient sink ([()] when none is installed). *)

val current : unit -> sink option

val set_sink : sink option -> unit
(** Install (or clear) the calling domain's ambient sink — CLI-style
    usage.  @raise Invalid_argument when installing from a
    non-participant domain while a pool batch is in flight (see the
    module preamble: sinks are domain-local). *)

val with_sink : ?offer:encoded_sink -> sink -> (unit -> 'a) -> 'a
(** Run the thunk with the given sink installed on the calling domain,
    restoring the previous sink (and current round) afterwards,
    exceptions included.  Same in-flight-batch guard as {!set_sink}.
    [offer], when given, is the sink's encoded form for this scope
    only: the domain's {!offer_encoded} slot is neither read nor
    changed (the session engine installs each session's arena this
    way). *)

(** {1 The hot-path handle}

    {!emit} and {!enabled} each perform one domain-local lookup; an
    emitter that touches the sink several times per round (the
    {!Exec.Stepper} step loop pays up to nine accesses per round) can
    fetch the calling domain's trace state {e once} and go through the
    handle instead.  A handle stays valid while the holder remains on
    its domain — {!set_sink} and {!with_sink} mutate the same record in
    place, so a cached handle observes sink changes immediately.  Never
    move a handle across domains. *)

type handle

val handle : unit -> handle
(** The calling domain's trace state; one DLS access. *)

val handle_enabled : handle -> bool
val handle_emit : handle -> event -> unit
val handle_set_round : handle -> int -> unit
(** Maintained by {!Exec.run} while tracing so emitters that cannot see
    the round number (fault wrappers) can stamp their events. *)

val handle_round : handle -> int

(** {1 Typed emitters}

    One per event kind, each taking the event's fields instead of the
    event.  With no sink installed an emitter is one load and branch.
    With a sink that offers a {!Write} wire it appends the event's
    bytes ([Trace_wire]'s writer for the kind) to the wire's arena and
    calls [commit start] with the offset they start at; with a {!Count}
    wire it calls the counter; with any other sink it builds the event
    and delivers it.  The bytes are exactly [Goalcom_obs.Binary]'s
    encoding of the event the sink would otherwise have received. *)

val emit_run_start :
  handle ->
  goal:string ->
  user:string ->
  server:string ->
  horizon:int ->
  drain:int ->
  world_choice:int ->
  unit

val emit_round_start : handle -> round:int -> unit

val emit_msg : handle -> round:int -> src:party -> dst:party -> Msg.t -> unit
(** An [Emit] event; the caller skips silent messages. *)

val emit_halt : handle -> round:int -> unit

val emit_sense :
  handle ->
  round:int ->
  sensor:string ->
  positive:bool ->
  clock:int ->
  patience:int ->
  unit

val emit_switch :
  handle -> round:int -> from_index:int -> to_index:int -> attempt:int -> unit

val emit_resume : handle -> index:int -> slots:int -> unit
val emit_session : handle -> round:int -> index:int -> budget:int -> unit
val emit_fault : handle -> round:int -> fault:string -> detail:string -> unit
val emit_violation : handle -> round:int -> unit
val emit_run_end : handle -> rounds:int -> halted:bool -> unit

val emit_supervise :
  handle -> tick:int -> session:int -> action:string -> detail:string -> unit

val emit_warm :
  handle ->
  server_class:string ->
  enum:string ->
  index:int ->
  accepted:bool ->
  detail:string ->
  unit

(** {1 The encoded fast path}

    A sink that stores events in [Goalcom_obs.Binary]'s encoding (the
    ring) can also accept an event already in that encoding, skipping
    a decode and re-encode.  A producer holding encoded events (the
    session engine's replay) asks {!encoded} and, when it answers,
    pushes byte slices instead of events.

    The offer also states the sink's retention: a sink that keeps only
    its last [retain] events need not be handed the ones it would
    evict.  [discard k] counts [k] events as pushed and then evicted,
    without their bytes.  Its contract: the caller pushes at least
    [retain] more events afterwards, so every event the sink held
    before [discard] (and the [k] it skipped) would have been evicted
    anyway, and the sink ends exactly as if all of them had been
    pushed.  A producer that cannot promise those pushes must not
    call [discard].

    Its [wire] is where the typed emitters write: the ring's shard
    arena with the ring's index/eviction tail as [commit], or a
    session arena of the engine whose [commit] counts the event. *)

val offer_encoded : sink -> encoded_sink -> unit
(** [offer_encoded s e] declares, on the calling domain, that [e] is
    [s]'s encoded form.  The domain keeps one offer (the latest), held
    weakly: it never keeps [s] alive.  The offer is read when [s] is
    installed ({!set_sink}, {!with_sink}), so make it before. *)

val encoded : unit -> encoded_sink option
(** The installed ambient sink's offer, if it made one before it was
    installed and is physically the closure that offered it; [None]
    otherwise (no sink, a different sink, or a wrapper around the
    offering one).  Wrappers, tees and sinks that make no offer
    therefore receive every event, decoded. *)

val tee : sink -> sink -> sink
(** Both sinks, left first. *)

val null : sink
(** Accepts and discards every event (for benchmarking the hot path). *)

(** {1 Trace invariants}

    Pure checks over recorded event lists; the trace-invariant test
    suite and the golden tests run {!check} with {!standard}. *)

type invariant

val invariant : name:string -> (event list -> string option) -> invariant
(** The function returns [Some message] describing the first violation,
    [None] if the trace satisfies the invariant. *)

val rounds_increase : invariant
(** [Round_start] rounds are strictly increasing. *)

val no_emission_after_drain : invariant
(** After [Halt] at round [h], no [Emit] occurs past [h + drain] (drain
    taken from [Run_start], 0 if absent). *)

val switch_follows_negative : invariant
(** Every [Switch] is immediately preceded (in sense order) by a
    negative [Sense] verdict. *)

val standard : invariant list
(** The three invariants above. *)

val split_runs : event list -> event list list
(** Group a (possibly multi-run) event stream into runs: each
    [Run_start] opens a new segment; events before the first
    [Run_start], if any, form a leading segment.  Concatenating the
    segments restores the input. *)

val check : invariant list -> event list -> (unit, string) result
(** First violated invariant, as ["<invariant>: <detail>"].  Checked
    per run (see {!split_runs}): round numbers restart at each
    [Run_start], so invariants quantify over single runs. *)
