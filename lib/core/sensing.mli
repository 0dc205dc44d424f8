(** Sensing: the user's feedback about its progress (§3).

    A sensing function is a predicate of the user's view of the
    execution, producing a Boolean indication each round.  Two
    properties make sensing useful as feedback:

    {b Compact goals.}
    - {e Safety}: when the user is coupled with a server with which the
      current execution does {e not} lead to achieving the goal,
      negative indications keep being produced (infinitely often).
    - {e Viability}: for every server in the class there is a user
      strategy whose executions produce only finitely many negative
      indications (and achieve the goal).

    {b Finite goals.}
    - {e Safety}: a positive indication is only produced when the
      history so far is acceptable (so halting on a positive indication
      is sound).
    - {e Viability}: with every server in the class, some user strategy
      obtains a positive indication.

    {b Incremental sensing.}  A sensor is a fold over the user's view:
    a spawnable instance ({!start}/{!observe}/{!verdict}) absorbs one
    {!View.event} per round and answers the verdict on the prefix seen
    so far in O(1).  A predicate on whole views is the special case
    whose state is the view itself, so this loses nothing; the round
    loop (universal users, {!halt_on_positive}, {!verdicts}) and every
    one-shot judgement of a history fold a fresh instance over
    {!View.fold_events}.

    The [check_*] validators below are Monte-Carlo approximations of
    the quantified safety/viability statements over horizon-bounded
    executions; each returns a structured report with counterexamples,
    and they are what the test-suite and the experiment harness run.
    Each validator cycles its trials through the goal's
    non-deterministic worlds (raising the trial count to the number of
    worlds if necessary), so the world choice is quantified over as
    well. *)

type verdict = Positive | Negative

type state
(** A live incremental sensing instance.  Thread it linearly: feed each
    round's event with {!observe} and read the current verdict with
    {!verdict}.  {!observe} may update its argument in place (as
    {!tolerant}'s ring buffer always has), so a state must not be reused
    after it is stepped: keep only the value {!observe} returns. *)

type t = { name : string; spawn : unit -> state  (** fresh instance *) }

val start : t -> state
(** Fresh instance; its verdict is the empty-view verdict. *)

val observe : state -> View.event -> state
(** Absorb one round's event.  Updates the state in place and returns
    it, so the argument must not be reused afterwards.  O(1) for the
    constructors below. *)

val verdict : state -> verdict
(** Verdict on the prefix observed so far — O(1), no re-evaluation. *)

val incremental :
  name:string ->
  init:(unit -> 's * verdict) ->
  step:('s -> View.event -> 's * verdict) ->
  t
(** Sensor from a fold: [init] yields the state and empty-view verdict,
    [step] absorbs one event. *)

val of_latest : name:string -> empty:bool -> (View.event -> bool) -> t
(** Sensor that judges only the latest event ([true] maps to
    [Positive]); [empty] is the verdict (as a bool) on the empty view.
    O(1) per round. *)

val of_recent : name:string -> window:int -> (View.event -> bool) -> t
(** [Positive] iff some event among the last [window] satisfies the
    predicate; [Negative] on the empty view.  The incremental instance
    tracks the index of the most recent hit, so each round is O(1).
    @raise Invalid_argument unless [window >= 1]. *)

val constant : verdict -> t

val verdicts : t -> History.t -> (int * verdict) list
(** The indication at every round of a history (round, verdict) — a
    single incremental pass over the history's events. *)

val negatives_after : t -> History.t -> int -> int
(** Number of negative indications strictly after the given round; one
    incremental pass. *)

val tolerant : window:int -> threshold:int -> t -> t
(** Fault-tolerant wrapper for {e compact-goal switching}: the wrapped
    function reports [Negative] only when the underlying sensing is
    Negative on at least [threshold] of the last [window] prefixes of
    the view (i.e. [threshold]-of-[window] recent raw negatives).
    Transient faults — an isolated bad round — no longer evict the
    correct strategy, while persistent failure still produces negatives
    infinitely often, so compact safety is preserved.  Not for use with
    finite-goal halting (there, flipping Negative to Positive is the
    unsafe direction).

    Each instance keeps a ring buffer of the last [window] raw verdicts
    plus a running negative count, so each round costs one base-sensor
    observation and O(1) bookkeeping — the per-round price does not
    grow with the view.  When tracing is on, each raw negative that the
    window masks to [Positive] emits a {!Trace.Sense} event whose sensor
    name carries a ["/mask"] suffix ([clock] = raw negatives in the
    window, [patience] = [threshold]).
    @raise Invalid_argument unless [1 <= threshold <= window]. *)

val corrupt_unsafe :
  flip_to_positive:float -> Goalcom_prelude.Rng.t -> t -> t
(** Ablation helper: with the given probability a [Negative] indication
    is reported as [Positive] — breaking safety while keeping viability.
    Draws from the generator once per [Negative] round, and for the
    empty view only when that verdict is read. *)

val corrupt_unviable : t -> t
(** Ablation helper: all indications become [Negative] — trivially safe
    but not viable. *)

val halt_on_positive : t -> Strategy.user -> Strategy.user
(** A user that behaves like the given one but halts as soon as sensing
    reports [Positive] on the view of the completed rounds.  The inner
    strategy's own halt requests are suppressed, so in the resulting
    runs every halt is attributable to a positive indication (this is
    the harness behind {!check_safety_finite}). *)

(** Validation reports. *)
type report = {
  property : string;
  holds : bool;
  checked : int;  (** number of (server, trial) combinations examined *)
  counterexamples : string list;  (** human-readable, possibly truncated *)
}

val pp_report : Format.formatter -> report -> unit

val check_safety_compact :
  ?config:Exec.config ->
  ?tail_window:int ->
  ?trials:int ->
  goal:Goal.t ->
  users:Strategy.user list ->
  servers:Strategy.server list ->
  t ->
  Goalcom_prelude.Rng.t ->
  report
(** For every listed server and user and trial: if the run fails the
    goal, sensing must produce a negative indication in the tail
    window. *)

val check_viability_compact :
  ?config:Exec.config ->
  ?tail_window:int ->
  ?trials:int ->
  goal:Goal.t ->
  user_for:(Strategy.server -> Strategy.user) ->
  servers:Strategy.server list ->
  t ->
  Goalcom_prelude.Rng.t ->
  report
(** For every listed server, the designated user strategy must achieve
    the goal with no negative indication in the tail window. *)

val check_safety_finite :
  ?config:Exec.config ->
  ?trials:int ->
  goal:Goal.t ->
  users:Strategy.user list ->
  servers:Strategy.server list ->
  t ->
  Goalcom_prelude.Rng.t ->
  report
(** Whenever sensing reports [Positive] at some round of a run, the
    finite referee must accept the history truncated at that round. *)

val check_viability_finite :
  ?config:Exec.config ->
  ?trials:int ->
  goal:Goal.t ->
  user_for:(Strategy.server -> Strategy.user) ->
  servers:Strategy.server list ->
  t ->
  Goalcom_prelude.Rng.t ->
  report
(** With every listed server, the designated user strategy must obtain a
    positive indication at some round. *)
