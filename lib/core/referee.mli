(** Referees: the success criterion of a goal (§2–3).

    A referee is a function of the sequence of world states (views).
    The paper distinguishes two families:

    - {b Finite goals}: the user must halt, and the referee decides the
      finite history available at that point.
    - {b Compact goals}: the execution runs forever and the referee's
      verdict is determined by whether the number of {e unacceptable}
      prefixes is finite.  Each prefix is judged by a temporal predicate;
      a successful execution is one whose violations eventually stop
      (co-Büchi acceptance).

    Executable semantics: runs are truncated at a horizon, and "finitely
    many unacceptable prefixes" becomes "no unacceptable prefix in the
    tail window" (see {!Outcome}).

    {b Incremental evaluation.}  Referees are judged as folds: a live
    {!type:judge} is primed with the initial world view and absorbs one
    world view per round, reporting the current prefix's verdict after
    each step.  Native incremental referees ({!finite_incremental},
    {!compact_incremental}) carry their own O(1)-per-step state; the
    list-predicate constructors ({!finite}, {!compact}) remain as
    compatibility adapters whose judge accumulates the prefix and
    re-applies the predicate (one predicate call per round, exactly the
    historical cost). *)

type t

type verdict = [ `Ok | `Violation ]

val finite : string -> (Msg.t list -> bool) -> t
(** Legacy finite constructor: the predicate decides the chronological
    world views, initial view first.  Adapter: stepping this referee's
    judge re-runs the predicate on the accumulated prefix, so only the
    final verdict is cheap — prefer {!finite_incremental} on hot
    paths. *)

val compact : string -> (Msg.t list -> bool) -> t
(** Legacy compact constructor: the predicate judges one prefix, given
    its world views most recent first (so O(1) access to the current
    world state).  Adapter: the judge conses each view and calls the
    predicate once per round — the same cost the engine always paid. *)

val finite_incremental :
  string ->
  init:(Msg.t -> 's * verdict) ->
  step:('s -> Msg.t -> 's * verdict) ->
  t
(** Native incremental finite referee.  [init] receives the initial
    world view and returns the state plus the verdict on the empty
    (zero-round) history; [step] absorbs one round's world view and
    reports the verdict on the prefix ending there.  The final verdict
    is the referee's decision ({!decide_finite}). *)

val compact_incremental :
  string ->
  init:(Msg.t -> 's * verdict) ->
  step:('s -> Msg.t -> 's * verdict) ->
  t
(** Native incremental compact referee: [step]'s verdict is the
    acceptability of the prefix ending at the absorbed round.  [init]'s
    verdict is recorded for the zero-round prefix but never counted by
    {!violations} (violations are per round, 1-based). *)

val finite_exists : string -> (Msg.t -> bool) -> t
(** Finite referee accepting iff some world view (including the initial
    one) satisfies the predicate — the incremental state is a single
    "seen it" bool, and the predicate is no longer consulted once it
    has held (like [List.exists]).  Most finite goals in the library
    have this shape. *)

val name : t -> string
val is_finite : t -> bool

(** {2 Live judging} *)

type judge
(** One judging instance: feed it world views round by round, linearly
    (see {!step}). *)

val start : t -> Msg.t -> judge * verdict
(** Fresh judge primed with the initial world view; the verdict is the
    empty-history verdict (meaningful for finite referees). *)

val step : judge -> Msg.t -> judge * verdict
(** Absorb one round's world view; the verdict judges the prefix ending
    at that round.  The judge is updated in place and returned, so a
    judge must not be reused after it is stepped: keep only the judge
    [step] returns.  O(1) for native incremental referees; for the
    list-predicate adapters it costs one predicate call (finite
    adapters re-decide the whole accumulated prefix). *)

val advance : judge -> Msg.t -> verdict
(** [step] without the pair: absorbs the view into the judge in place
    and returns only the verdict, so a round allocates nothing beyond
    what the referee's own step does. *)

(** {2 Whole-history judgements} *)

val decide_finite : t -> History.t -> bool
(** Finite referee's verdict on a history — a single fold.
    @raise Invalid_argument on a compact referee. *)

val decider : t -> Msg.t list -> bool
(** The finite decision as a list predicate (chronological world views,
    initial first), however the referee is represented — what
    {!Multi_session} uses to judge inner sessions.
    @raise Invalid_argument on a compact referee or an empty list. *)

val violations : t -> History.t -> int list
(** Rounds (1-based) whose prefix is unacceptable, for a compact
    referee; for a finite referee, [[]] if the history is accepted and
    [[length]] otherwise.  A single O(n) fold: one {!step} per round. *)

val violations_prefix : t -> History.t -> int list
(** Reference implementation of {!violations} that re-judges every
    prefix from scratch — O(n²).  It exists as the equivalence oracle
    for the incremental engine (the qcheck suite asserts
    [violations = violations_prefix]) and as the quadratic baseline the
    bench's compact-judge kernel measures the fold against. *)

val verdict_of_bool : bool -> verdict
(** [`Ok] iff the argument holds — a convenience for writing
    incremental referees. *)
