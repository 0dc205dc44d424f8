(** Messages exchanged on the channels of the system.

    The model is agnostic about message contents; this small structured
    universe is rich enough for every goal in the library.  [Silence] is
    the distinguished "no message this round" value — channels always
    carry exactly one [Msg.t] per round, so silence is explicit. *)

type t =
  | Silence
  | Sym of int  (** a symbol of some finite command alphabet *)
  | Int of int
  | Text of string
  | Pair of t * t
  | Seq of t list

val equal : t -> t -> bool
(** Monomorphic structural equality (no polymorphic-compare tag walk —
    this runs on every silence/trace guard of the round loop). *)

val compare : t -> t -> int
(** Monomorphic total order; agrees with what [Stdlib.compare] gave
    this type. *)

val is_silence : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: [of_string (to_string m) = Ok m] for every
    message.  The trace reader ([Goalcom_obs.Jsonl]) uses this to turn
    serialized traces back into event values.  Rejects trailing input
    and malformed literals with a position-carrying error. *)

val sym_opt : t -> int option
(** [Some s] iff the message is [Sym s]. *)

val int_opt : t -> int option
val text_opt : t -> string option

val seq_of_string : string -> t
(** [Seq] of [Int (Char.code c)] for each byte — a convenient payload
    encoding for the transfer and printing goals. *)

val string_of_seq : t -> string option
(** Inverse of {!seq_of_string} when the shape matches. *)
