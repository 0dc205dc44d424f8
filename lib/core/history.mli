(** Execution histories.

    A history records, for every round, the six channel messages emitted
    that round, the world-state view after the round, and whether the
    user had halted.  Referees read the world-view sequence; sensing
    reads the user-visible projection ({!View}).

    Storage is chunked: rounds are appended into fixed-size arrays hung
    off a growable spine, so recording a round is an array store rather
    than a cons, and [length]/[halted]/[halt_round]/[prefix] are O(1).
    Read rounds with {!fold_rounds}/{!iter_rounds}/{!round_exn}, which
    index the chunks directly. *)

module Round : sig
  type t = {
    index : int;  (** 1-based *)
    user_to_server : Msg.t;
    user_to_world : Msg.t;
    server_to_user : Msg.t;
    server_to_world : Msg.t;
    world_to_user : Msg.t;
    world_to_server : Msg.t;
    world_view : Msg.t;  (** world state after this round *)
    user_halted : bool;  (** true from the halting round onwards *)
  }

  val pp : Format.formatter -> t -> unit
end

type t

type history = t
(** Alias for use inside {!Builder}. *)

val make : initial_world_view:Msg.t -> Round.t list -> t
(** [make ~initial_world_view rounds] with rounds in chronological order
    and indices 1, 2, ....  @raise Invalid_argument on bad indices. *)

module Builder : sig
  (** Incremental history construction — what {!Exec}'s stepper uses to
      record rounds without a cons list + [List.rev] round-trip. *)

  type t

  val create : initial_world_view:Msg.t -> t

  val add : t -> Round.t -> unit
  (** Append the next round.  @raise Invalid_argument if the round's
      index is not [length t + 1] or the builder is finished. *)

  val length : t -> int

  val finish : t -> history
  (** Freeze the builder into a history (shares the chunk storage; the
      builder refuses further {!add}s). *)
end

val initial_world_view : t -> Msg.t

val length : t -> int

val round_exn : t -> int -> Round.t
(** [round_exn t i] is the round at 0-based position [i] (so round
    index [i + 1]), in O(1).  @raise Invalid_argument out of bounds. *)

val fold_rounds : t -> init:'a -> f:('a -> Round.t -> 'a) -> 'a
(** Chronological fold over the rounds, indexing chunks directly. *)

val iter_rounds : t -> f:(Round.t -> unit) -> unit

val world_views : t -> Msg.t list
(** Initial view followed by the per-round views (chronological;
    length is [length t + 1]). *)

val world_views_rev : t -> Msg.t list
(** Same sequence, most recent first. *)

val halted : t -> bool
(** Did the user halt during this history?  O(1). *)

val halt_round : t -> int option
(** First halting round, if any.  O(1). *)

val prefix : int -> t -> t
(** First [n] rounds (all of them if [n >= length t]); shares storage
    with the parent in O(1).  @raise Invalid_argument if [n < 0]. *)

val trace_events : t -> Trace.event list
(** Post-hoc reconstruction of the engine-level trace of this history:
    the [Round_start], [Emit], [Halt] and [Run_end] events {!Exec.run}
    would have emitted for the same run.  [Run_start] (the config is not
    recorded in a history) and the strategy-internal events (sensing
    verdicts, switches, fault activations) exist only in live traces. *)

val pp : Format.formatter -> t -> unit
