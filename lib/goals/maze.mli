(** The maze (navigation) goal — a finite goal for the Levin experiments.

    The {b world} is a grid with an agent position and a target; the
    {b server} is the "robot driver" that understands movement commands
    in its own dialect and forwards them to the world.  The world
    broadcasts (position, target) each round.  The goal is achieved once
    the agent has reached the target (monotone: reaching it counts even
    if later commands move the agent away).

    Canonical commands: directions 0..3 ({!Grid.north} etc.), plus
    [alphabet - 4] inert padding symbols for larger dialect classes. *)

open Goalcom
open Goalcom_automata

val min_alphabet : int
(** 4. *)

val driver : alphabet:int -> Strategy.server
(** Forwards canonical direction symbols to the world, ignores
    everything else.  @raise Invalid_argument on a small alphabet. *)

val server : alphabet:int -> Dialect.t -> Strategy.server
val server_class : alphabet:int -> Dialect.t Enum.t -> Strategy.server Enum.t

type scenario = private {
  grid : Grid.t;
  start : Grid.pos;
  target : Grid.pos;
  plans : int list option array;
      (** per cell [(x, y)], at index [y * width + x]: the plan
          {!Grid.bfs_path} gives from that cell to [target]; [None] for
          blocked cells.  Read it through {!plan}. *)
}

val scenario :
  ?blocked:(int * int) list ->
  width:int -> height:int -> start:Grid.pos -> target:Grid.pos -> unit ->
  scenario
(** Builds the plan table too: one {!Grid.bfs_path} per free cell.
    @raise Invalid_argument if start or target is not free, or the
    target is unreachable. *)

val plan : scenario -> Grid.pos -> int list option
(** [plan s p = Grid.bfs_path s.grid p s.target], read from the table
    for a free cell [p] (and computed, so raising as [bfs_path] does,
    otherwise). *)

val world_of_scenario : scenario -> World.t
(** State view: [Pair (Pair (position), Pair (target))]. *)

val goal : scenarios:scenario list -> alphabet:int -> unit -> Goal.t

val informed_user : alphabet:int -> scenario:scenario -> Dialect.t -> Strategy.user
(** Knows the grid and the dialect: BFS-plans from the broadcast
    position, replans when progress stalls, halts on arrival. *)

val user_class :
  alphabet:int -> scenario:scenario -> Dialect.t Enum.t -> Strategy.user Enum.t

val arrived : Msg.t -> bool
(** The goal's predicate on a world view: the view is
    [Pair (pos p, pos p)], the agent on the target.  Matched on the
    message directly, without decoding it. *)

val sensing : Sensing.t
(** Positive iff some broadcast showed position = target. *)

val universal_user :
  ?schedule:Levin.slot Seq.t ->
  ?stats:Universal.stats ->
  alphabet:int ->
  scenario:scenario ->
  Dialect.t Enum.t ->
  Strategy.user
