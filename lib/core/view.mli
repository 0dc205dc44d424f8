(** The user's view of an execution.

    Sensing functions (§3) are predicates of "the history of the portion
    of the system visible to the user": the messages the user received
    and sent, round by round.  A view is the stream of these events,
    one per round; sensors consume it as a fold ({!Sensing.observe}), so
    no view is ever materialised as a list. *)

type event = {
  mutable round : int;
  mutable from_server : Msg.t;
  mutable from_world : Msg.t;  (** received by the user this round *)
  mutable to_server : Msg.t;
  mutable to_world : Msg.t;  (** sent by the user this round *)
  mutable halted : bool;
}
(** The event fed to a sensor may be refilled once {!Sensing.observe}
    returns (a universal user {!fill}s one event every round): a sensor
    keeps fields, never the event. *)

val empty : unit -> event
(** Silence at round 0, for {!fill} to overwrite. *)

val fill : event -> Io.User.obs -> Io.User.act -> unit
(** [fill e obs act] copies into [e] the round the user observed [obs]
    in and answered with [act] (not halted): what {!fold_events}
    yields for that round. *)

val fold_events : History.t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Fold over the user-visible events of a history in chronological
    order, one per round: the user's view of the history.  This is the
    single pass incremental sensing rides on. *)
