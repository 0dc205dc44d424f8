(** Compact human-readable rendering of trace events, one line each:
    run/round boundaries flush left, everything else indented under its
    round.  For terminal demos and failure messages; the machine format
    is {!Jsonl}. *)

open Goalcom

val sink : Format.formatter -> Trace.sink
(** Prints each event on its own line (flushing via ["@."]). *)
