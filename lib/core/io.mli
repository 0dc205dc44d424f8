(** Per-party observation and action types.

    Each round, every party observes the messages that were addressed to
    it in the previous round and emits one message per outgoing channel.
    The system is the two-party asymmetric setting of the paper — a user
    and a server — plus the third entity, the world, that embodies the
    goal (§2).

    {b Who owns an obs.}  The obs a step receives belongs to the
    stepper ({!Exec.Stepper}), which overwrites it next round: a
    strategy that needs a field later copies it (messages are
    immutable), never the record. *)

module User : sig
  type obs = {
    mutable from_server : Msg.t;
    mutable from_world : Msg.t;
    mutable round : int;  (** 1-based round number, for convenience *)
  }

  type act = {
    to_server : Msg.t;
    to_world : Msg.t;
    halt : bool;  (** finite goals: the user must eventually halt *)
  }

  val silent : act
  (** Send nothing, keep running. *)

  val halt_act : act
  (** Send nothing and halt. *)

  val say_server : Msg.t -> act
  val say_world : Msg.t -> act

  val unhalted : act -> act
  (** The act with its halt request cleared; the act itself when it
      makes none. *)
end

module Server : sig
  type obs = { mutable from_user : Msg.t; mutable from_world : Msg.t }
  type act = { to_user : Msg.t; to_world : Msg.t }

  val silent : act
  val say_user : Msg.t -> act
  val say_world : Msg.t -> act
end

module World : sig
  type obs = { mutable from_user : Msg.t; mutable from_server : Msg.t }
  type act = { to_user : Msg.t; to_server : Msg.t }

  val silent : act
  val say_user : Msg.t -> act
  val say_server : Msg.t -> act
  val broadcast : Msg.t -> act
  (** Same message to user and server. *)
end
