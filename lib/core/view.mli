(** The user's view of an execution.

    Sensing functions (§3) are predicates of "the history of the portion
    of the system visible to the user": the messages the user received
    and sent, round by round.  Views grow by one event per round;
    internally they are stored most-recent-first so extension is O(1)
    and sensing functions that inspect recent rounds stay cheap. *)

type event = {
  round : int;
  from_server : Msg.t;
  from_world : Msg.t;  (** received by the user this round *)
  to_server : Msg.t;
  to_world : Msg.t;  (** sent by the user this round *)
  halted : bool;
}

val of_round : Io.User.obs -> Io.User.act -> event
(** The event of a round the user observed [obs] in and answered with
    [act] (not halted): what {!of_history} builds for that round. *)

type t

val empty : t
val extend : t -> event -> t
val length : t -> int

val events : t -> event list
(** Chronological. *)

val events_rev : t -> event list
(** Most recent first (O(1)). *)

val latest : t -> event option

val last_n : int -> t -> event list
(** The last [n] events, chronological. *)

val drop_latest : int -> t -> t
(** The view as it was [k] rounds ago (the [k] most recent events
    removed); [t] itself when [k <= 0], {!empty} when [k >= length t].
    O(k).  Used by tolerant sensing to re-evaluate a verdict on recent
    prefixes of the same view. *)

val of_history : History.t -> t
(** Project a full history onto what the user saw. *)

val fold_events : History.t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Fold over the user-visible events of a history in chronological
    order, without materialising any view: the stream of events
    {!of_history} would build, one per round.  This is the single pass
    incremental sensing rides on. *)

val prefixes : History.t -> t list
(** Views after round 1, 2, ..., in order — each sharing structure with
    the next, so materialising all prefixes is O(rounds). *)
