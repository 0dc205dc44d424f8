(** Strategies: the paper's model of a communicating party.

    A strategy takes an internal state and an incoming message profile
    to a (distribution over) a new state and an outgoing message profile
    (§2).  Here the distribution appears in sampling form: [step] draws
    from it using the supplied generator.  The state type is hidden
    existentially so that heterogeneous strategies can populate one
    enumerable class — exactly what the universal constructions need.

    [init] is a thunk so that strategies are {e restartable}: every
    execution (and every switch of the universal user) instantiates a
    fresh state, even for strategies whose states contain mutable
    structures.

    A step updates the state [init] built in place and returns only the
    act, so a round allocates no [(state, act)] pair.  [make] adapts a
    functional step, one that returns its next state with its act, by
    keeping the state in a ref. *)

type ('obs, 'act) t

val make :
  name:string ->
  init:(unit -> 'state) ->
  step:(Goalcom_prelude.Rng.t -> 'state -> 'obs -> 'state * 'act) ->
  ('obs, 'act) t

val make_inplace :
  name:string ->
  init:(unit -> 'state) ->
  step:(Goalcom_prelude.Rng.t -> 'state -> 'obs -> 'act) ->
  ('obs, 'act) t
(** A strategy whose [step] updates the state in place and returns the
    act.  [init] must build a fresh state per call: instances never
    share one, and strategy values are shared across domains.  The act
    may be a preallocated constant.  The ['obs] argument belongs to the
    caller, which overwrites it next round: [step] copies what it keeps
    of it (see io.mli and DESIGN.md, "The round frame"). *)

val name : ('obs, 'act) t -> string

val rename : string -> ('obs, 'act) t -> ('obs, 'act) t

val stateless : name:string -> ('obs -> 'act) -> ('obs, 'act) t
(** Memoryless deterministic strategy. *)

val stateless_random :
  name:string -> (Goalcom_prelude.Rng.t -> 'obs -> 'act) -> ('obs, 'act) t
(** Memoryless probabilistic strategy. *)

val map_obs : ('obs2 -> 'obs1) -> ('obs1, 'act) t -> ('obs2, 'act) t
(** Pre-compose on observations (e.g. decode a dialect). *)

val map_act : ('act1 -> 'act2) -> ('obs, 'act1) t -> ('obs, 'act2) t
(** Post-compose on actions (e.g. encode a dialect). *)

val switch_after : int -> ('obs, 'act) t -> ('obs, 'act) t -> ('obs, 'act) t
(** [switch_after k first rest] behaves like [first] for the first [k]
    rounds and like a freshly started [rest] from round [k+1] on.  Used
    by the forgiving-goal checker to splice an arbitrary prefix in
    front of a rescuing strategy.  @raise Invalid_argument if [k < 0]. *)

(** A running strategy: the strategy plus its mutable current state. *)
module Instance : sig
  type ('obs, 'act) strategy := ('obs, 'act) t
  type ('obs, 'act) t

  val create : ('obs, 'act) strategy -> ('obs, 'act) t
  (** Fresh state from the strategy's [init]. *)

  val step : Goalcom_prelude.Rng.t -> ('obs, 'act) t -> 'obs -> 'act
  (** Advance the instance by one round. *)

  val restart : ('obs, 'act) t -> unit
  (** Reset to a fresh initial state. *)

  val strategy : ('obs, 'act) t -> ('obs, 'act) strategy
  val rounds : ('obs, 'act) t -> int
  (** Number of steps taken since the last (re)start. *)
end

type user = (Io.User.obs, Io.User.act) t
type server = (Io.Server.obs, Io.Server.act) t
