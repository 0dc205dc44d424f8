(** The printing goal — the paper's motivating example.

    "The problem of using a printer to produce a document — which cannot
    be cast as a problem of delegating computation in any reasonable
    sense — is captured naturally by the simple model introduced in the
    current work."

    The {b world} holds a document the user wants printed and observes
    the printer's page; the goal is achieved (finite goal) if the page
    {e ever} equals the document — printing is monotone: a produced page
    cannot be unprinted, even if later (wrong-dialect) commands deface
    the printer's buffer.  The {b server} is the printer: it understands
    PRINT/CLEAR commands, but only in {e its own dialect} — an unknown
    relabelling of the command alphabet — so a user that assumes the
    wrong dialect garbles the page.  The world broadcasts (document,
    page) to the user each round, which yields trivially safe and viable
    sensing: compare the two.

    Canonical command alphabet: [print_cmd = 0], [clear_cmd = 1], and
    [alphabet - 2] inert padding symbols, so that rotation dialects give
    an arbitrarily large server class. *)

open Goalcom
open Goalcom_automata

val print_cmd : int
val clear_cmd : int

val min_alphabet : int
(** 3: PRINT, CLEAR, and at least one pad. *)

val printer : alphabet:int -> Strategy.server
(** The canonical-dialect printer.  Appends on
    [Pair (Sym print_cmd, Int c)], wipes the page on [Sym clear_cmd],
    ignores anything else; sends its page to the world every round.
    @raise Invalid_argument if [alphabet < min_alphabet]. *)

val server : alphabet:int -> Dialect.t -> Strategy.server
(** {!printer} behind a dialect. *)

val server_class : alphabet:int -> Dialect.t Enum.t -> Strategy.server Enum.t

val world_of_doc : int list -> World.t
(** A world whose document is fixed; its state view is
    [Pair (doc, page)].  @raise Invalid_argument on an empty document
    or characters outside [0..255]. *)

val goal : ?docs:int list list -> alphabet:int -> unit -> Goal.t
(** The printing goal.  [docs] (default three sample documents) are the
    world's non-deterministic choices.  [alphabet] is recorded in the
    goal name only; it does not constrain the world. *)

val informed_user : alphabet:int -> Dialect.t -> Strategy.user
(** The user that knows the printer's dialect: clears the page if it is
    dirty, prints the document one character per round, re-clears and
    retries if verification fails, and halts when the page matches. *)

val user_class : alphabet:int -> Dialect.t Enum.t -> Strategy.user Enum.t
(** One informed user per candidate dialect — the class enumerated by
    the universal strategies. *)

val page_matched : Msg.t -> bool
(** The goal's predicate on a world view: the view is
    [Pair (ints doc, ints page)] with [doc] non-empty and equal to
    [page].  Matched on the message directly, without decoding it. *)

val sensing : Sensing.t
(** Positive iff some world broadcast so far showed page = document.
    Monotone, hence safe by construction; viable for the dialect server
    class via the informed users. *)

val universal_user :
  ?schedule:Levin.slot Seq.t ->
  ?checkpoint:Universal.checkpoint ->
  ?stats:Universal.stats ->
  alphabet:int ->
  Dialect.t Enum.t ->
  Strategy.user
(** {!Universal.finite} over {!user_class} with {!sensing}.  Pass a
    [checkpoint] to resume the enumeration across re-instantiations
    (crash tolerance). *)
