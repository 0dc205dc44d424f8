(** In-memory trace capture, for tests and post-hoc analysis. *)

open Goalcom

type t

val create : unit -> t
val sink : t -> Trace.sink
val events : t -> Trace.event list
(** Chronological. *)

val record : (unit -> 'a) -> 'a * Trace.event list
(** [record f] runs [f] with a fresh recorder installed as the ambient
    sink ({!Trace.with_sink}) and returns its result with the captured
    trace. *)
