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

    {b Incremental evaluation.}  A referee is a fold: a live
    {!type:judge} is primed with the initial world view and absorbs one
    world view per round, reporting the current prefix's verdict after
    each step.  A predicate on whole prefixes is the special case whose
    state is the prefix itself, so this loses nothing; the library's
    referees carry O(1)-per-step state instead. *)

type t

type verdict = [ `Ok | `Violation ]

val finite_incremental :
  string ->
  init:(Msg.t -> 's * verdict) ->
  step:('s -> Msg.t -> 's * verdict) ->
  t
(** Finite referee as a fold.  [init] receives the initial
    world view and returns the state plus the verdict on the empty
    (zero-round) history; [step] absorbs one round's world view and
    reports the verdict on the prefix ending there.  The final verdict
    is the referee's decision ({!decide_finite}). *)

val compact_incremental :
  string ->
  init:(Msg.t -> 's * verdict) ->
  step:('s -> Msg.t -> 's * verdict) ->
  t
(** Compact referee as a fold: [step]'s verdict is the
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
    [step] returns.  Costs one call of the referee's own step. *)

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
    initial first): one fold over the list — what {!Multi_session} uses
    to judge inner sessions.
    @raise Invalid_argument on a compact referee or an empty list. *)

val violations : t -> History.t -> int list
(** Rounds (1-based) whose prefix is unacceptable, for a compact
    referee; for a finite referee, [[]] if the history is accepted and
    [[length]] otherwise.  A single O(n) fold: one {!step} per round. *)

val verdict_of_bool : bool -> verdict
(** [`Ok] iff the argument holds — a convenience for writing
    incremental referees. *)
