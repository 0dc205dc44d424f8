(** The world: the third entity that embodies the goal (§2).

    The world is a probabilistic strategy whose {e states} are what the
    referee judges.  [view] projects the internal state to the
    world-state value recorded in the history; referees are functions of
    these view sequences, exactly as the paper defines goals in terms of
    sequences of world states.

    The paper's non-determinism ("the world makes a single
    non-deterministic choice of a standard probabilistic strategy") is
    represented one level up: a {!Goal.t} carries a non-empty list of
    worlds, and validators quantify over all of them. *)

type t

val make :
  name:string ->
  init:(unit -> 'state) ->
  step:(Goalcom_prelude.Rng.t -> 'state -> Io.World.obs -> 'state * Io.World.act) ->
  view:('state -> Msg.t) ->
  t

val make_inplace :
  name:string ->
  init:(unit -> 'state) ->
  step:(Goalcom_prelude.Rng.t -> 'state -> Io.World.obs -> Io.World.act) ->
  view:('state -> Msg.t) ->
  t
(** A world whose [step] updates a fresh-per-[init] state in place and
    returns the act, as {!Strategy.make_inplace}. *)

val name : t -> string

(** A running world instance. *)
module Instance : sig
  type world := t
  type t

  val create : world -> t
  val step : Goalcom_prelude.Rng.t -> t -> Io.World.obs -> Io.World.act
  val view : t -> Msg.t
  (** View of the current state. *)
end
