(** The user's view of an execution.

    Sensing functions (§3) are predicates of "the history of the portion
    of the system visible to the user": the messages the user received
    and sent, round by round.  A view is the stream of these events,
    one per round; sensors consume it as a fold ({!Sensing.observe}), so
    no view is ever materialised as a list. *)

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
    [act] (not halted): what {!fold_events} yields for that round. *)

val fold_events : History.t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Fold over the user-visible events of a history in chronological
    order, one per round: the user's view of the history.  This is the
    single pass incremental sensing rides on. *)
