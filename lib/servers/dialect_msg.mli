(** Applying a dialect to structured messages.

    A dialect relabels the {e command symbols} of the user↔server
    protocol: every [Sym s] inside a message is permuted, recursively
    through pairs and sequences, while payload values ([Int], [Text])
    pass through unchanged.  Symbols outside the dialect's range are
    left untouched (they belong to a different alphabet, e.g. status
    codes).

    Both directions return their argument, physically, when no symbol
    changes, and rebuild only the [Pair]/[Seq] nodes above a changed
    symbol — so a message without symbols crosses a dialect without
    allocating. *)

open Goalcom
open Goalcom_automata

val encode : Dialect.t -> Msg.t -> Msg.t
(** Canonical → dialect form. *)

val decode : Dialect.t -> Msg.t -> Msg.t
(** Dialect form → canonical. *)
