(** Judging a (truncated) execution against a goal.

    Compact goals are defined over infinite executions; a horizon-bounded
    run is judged by the standard truncation: the goal counts as achieved
    iff no prefix in the last [tail_window] rounds is unacceptable (the
    violations "stopped happening").  Finite goals are achieved iff the
    user halted and the referee accepts the history at that point. *)

type t = {
  achieved : bool;
  halted : bool;
  halt_round : int option;
  rounds : int;  (** rounds actually executed *)
  violations : int;  (** compact: number of unacceptable prefixes *)
  violation_rounds : int list;  (** ascending round indices *)
  last_violation : int option;
}

val judge : ?tail_window:int -> Goal.t -> History.t -> t
(** [tail_window] defaults to [max 1 (length / 5)].  For finite goals
    the window is ignored. *)

(** The same judgement made live, one round at a time, without keeping
    the history: what {!Exec.Stepper}'s [Summary] retention feeds.

    Stepping a live judge over a run's world views and finishing it
    gives the {!t} that {!judge} (default tail window) gives on the
    run's history — except that a compact goal's [violation_rounds]
    are kept only when a trace sink was ambient at {!Live.create}
    (they exist to be emitted as [Violation] events); otherwise that
    field is [[]] while [violations] and [last_violation] stay exact.
    Memory is O(1) in the number of rounds when not recording. *)
module Live : sig
  type outcome = t
  type t

  val create : Goal.t -> Msg.t -> t
  (** A judge for [goal] primed with the initial world view. *)

  val step : t -> round:int -> Msg.t -> unit
  (** Absorb round [round]'s world view. *)

  val finish :
    t -> rounds:int -> halted:bool -> halt_round:int option -> outcome
  (** The outcome of the [rounds] rounds absorbed so far.  Finite
      goals: achieved iff [halted] and the last verdict is [`Ok].
      Compact goals: no violation in the last [max 1 (rounds / 5)]
      rounds. *)

  val achieved_view : t -> Msg.t
  (** The achieved goal state: the first view in the sequence (initial
      view, v1, ..., vn) whose prefix verdict is [`Ok], or the last
      view absorbed when there is none. *)
end

val pp : Format.formatter -> t -> unit
