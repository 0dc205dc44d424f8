(** Shared message encodings used by the concrete goals. *)

open Goalcom
open Goalcom_sat

val ints : int list -> Msg.t
(** [Seq] of [Int]. *)

val ints_opt : Msg.t -> int list option
(** Inverse of {!ints}. *)

val ints_equal : Msg.t -> int list -> bool
(** [ints_equal m xs] iff [m = ints xs], without decoding [m] or
    allocating. *)

val pair_of_ints : int list -> int list -> Msg.t
(** [Pair (ints a, ints b)] — e.g. (document, page). *)

val pair_of_ints_opt : Msg.t -> (int list * int list) option

val pos : Grid.pos -> Msg.t
val pos_opt : Msg.t -> Grid.pos option

val pos_pair : Grid.pos -> Grid.pos -> Msg.t
(** (position, target). *)

val pos_pair_opt : Msg.t -> (Grid.pos * Grid.pos) option

val cnf : Cnf.t -> Msg.t
(** [Pair (Int num_vars, Seq of clause Seqs)]. *)

val cnf_opt : Msg.t -> Cnf.t option
(** Returns [None] for ill-formed encodings (including invalid
    literals). *)

val assignment : bool list -> Msg.t
(** [Seq] of 0/1 [Int]s, variable 1 first. *)

val assignment_opt : num_vars:int -> Msg.t -> Cnf.assignment option
(** Decodes into the [num_vars + 1]-slot array convention. *)
