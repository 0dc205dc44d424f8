(** The synchronous execution engine (§2).

    Rounds are numbered from 1.  In round [r] every party simultaneously
    observes the messages emitted for it in round [r-1] (silence in
    round 1) and emits its round-[r] messages.  After the user halts it
    emits silence forever; execution continues for [drain] extra rounds
    so in-flight messages (e.g. the user's final answer to the world)
    are delivered and reflected in the world state, then stops.

    Compact goals never halt: the run is truncated at [horizon].

    {b Tracing.}  Both entry points take an optional {!Trace.sink}.
    When given, it is installed as the ambient sink for the duration of
    the call (so strategy-level emitters — universal users, tolerant
    sensing, fault wrappers — share it); when absent, whatever ambient
    sink is already installed (see {!Trace.set_sink}) is used, and with
    no sink at all the tracing path allocates nothing. *)

type config = {
  horizon : int;  (** maximum number of rounds; must be positive *)
  drain : int;  (** extra rounds executed after the user halts *)
  world_choice : int;  (** which non-deterministic world to couple *)
}

val config : ?horizon:int -> ?drain:int -> ?world_choice:int -> unit -> config
(** Defaults: [horizon = 1000], [drain = 2], [world_choice = 0]. *)

(** A single run as a resumable state machine.

    {!run} executes a run start to finish; a stepper exposes the same
    loop one round at a time, so a scheduler ([lib/session]) can
    interleave thousands of live runs.  Stepping a fresh stepper to
    completion is {e bit-identical} to {!run} — same trace events, same
    RNG consumption, same history — which the golden-trace suite pins.

    Tracing: {!create} emits [Run_start] under the ambient sink in
    force at creation; each {!step} re-resolves the ambient sink, so an
    engine may install a per-session buffering sink around every
    quantum (and around creation) and the events land in the right
    buffer even when consecutive quanta run on different domains. *)
module Stepper : sig
  type t

  (** What a stepper keeps of its rounds.

      - [Full] appends every round to a {!History.Builder}; the finished
        run is read with {!history}.  {!run} uses it (experiments,
        transcripts, anything that inspects past rounds).
      - [Summary] keeps no rounds: each round's world view goes into one
        live referee judge ({!Outcome.Live}), and the finished run is
        read with {!summary}.  A Summary stepper's memory does not grow
        with its horizon (beyond the violation rounds of a compact goal
        while a trace sink was ambient at {!create}); the session engine
        uses it.

      Both modes execute the same rounds, consume the same randomness
      and emit the same trace events. *)
  type retention = Full | Summary

  val create :
    ?config:config ->
    ?retention:retention ->
    goal:Goal.t ->
    user:Strategy.user ->
    server:Strategy.server ->
    Goalcom_prelude.Rng.t ->
    t
  (** Split the RNG, instantiate the parties, emit [Run_start].  The
      run has executed zero rounds; no other events are emitted until
      the first {!step}.  [retention] defaults to [Full]. *)

  val step : t -> bool
  (** Execute one round (or, if the termination condition already
      holds, finalize: freeze the history or the summary and emit
      [Run_end]).  Returns [true] while the run remains live, [false]
      once finished.  Calling [step] on a finished stepper is a no-op
      returning [false]. *)

  val finished : t -> bool

  val finishing : t -> bool
  (** The termination condition holds: the next {!step} only
      finalizes (no round executes).  True once finished. *)

  val halted : t -> bool
  (** The user has requested halt (draining may still be running). *)

  val round : t -> int
  (** Next round to execute (rounds start at 1). *)

  val rounds_executed : t -> int

  val history : t -> History.t
  (** A finished [Full] run's history.  @raise Invalid_argument while
      the run is still live, or on a [Summary] stepper. *)

  val summary : t -> Outcome.t * Msg.t
  (** A finished [Summary] run's outcome — {!Outcome.judge} of the run
      under the default tail window, see {!Outcome.Live} for
      [violation_rounds] — and its achieved view
      ({!Outcome.Live.achieved_view}).  @raise Invalid_argument while the
      run is still live, or on a [Full] stepper. *)

  val run_to_end : t -> History.t
  (** Step a [Full] stepper until finished and return the history. *)
end

val run :
  ?sink:Trace.sink ->
  ?config:config ->
  goal:Goal.t ->
  user:Strategy.user ->
  server:Strategy.server ->
  Goalcom_prelude.Rng.t ->
  History.t
(** Execute the coupled system and return its history.  The generator
    is split into independent streams for the three parties, so a
    party's randomness does not depend on the others' sampling order.
    Emits [Run_start], [Round_start], [Emit] (non-silent messages
    only), [Halt] and [Run_end] trace events when tracing is on. *)

val run_outcome :
  ?sink:Trace.sink ->
  ?config:config ->
  ?tail_window:int ->
  goal:Goal.t ->
  user:Strategy.user ->
  server:Strategy.server ->
  Goalcom_prelude.Rng.t ->
  Outcome.t * History.t
(** {!run} followed by {!Outcome.judge}; additionally emits one
    [Violation] event per referee-violation round (after [Run_end] —
    violations are post-hoc judgments, not run-time occurrences).

    For success-rate estimation over repeated trials use
    [Goalcom_harness.Trial.run] (or its [success_rate] wrapper), which
    also cycles world choices and counts unsafe halts. *)
