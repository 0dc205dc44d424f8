(** Admission control: bounded live set, weighted fair-share queues,
    load shedding.

    At most [max_live] sessions run at once.  Arrivals beyond that
    wait in per-class FIFO queues (a session's class is its
    [server_class]; names without a configured class share the
    implicit ["default"] class) under one shared [queue_capacity];
    arrivals beyond {e that} are shed — refused outright, a terminal
    outcome.

    Queues are served by weighted deficit round-robin: {!promote}
    visits the classes cyclically from a cursor that persists across
    ticks, crediting each class's deficit with its weight per pass and
    spending one credit per admission, so service is proportional to
    weight under contention.  A class whose head is blocked (its
    breaker is open — [try_start] said no) is set aside for the rest
    of the call {e without} stalling the other classes: head-of-line
    blocking is confined to the class.  With a single class of weight
    1 the schedule reduces exactly to the old global FIFO.

    The primitives are split so the engine can interleave its breaker
    gate: check {!has_capacity}, consult the class breaker, then
    {!claim} the slot (or {!enqueue} / shed).  Driven in session-id
    order, the structure's evolution is deterministic. *)

type t

val make :
  ?classes:(string * int) list -> max_live:int -> queue_capacity:int -> unit -> t
(** [classes] are [(name, weight)] pairs; a ["default"] class of
    weight 1 is appended unless one is given.  @raise Invalid_argument
    if [max_live < 1], [queue_capacity < 0], a weight is [< 1], or a
    class name repeats. *)

val classes_of_string : string -> ((string * int) list, string) result
(** Parse [CLASS=WEIGHT[,CLASS=WEIGHT..]] (names and weights trimmed;
    blank = no classes) into {!make}'s [classes].  A weight must be an
    integer [>= 1], a name non-empty, and no name may repeat, so every
    [Ok] value is one {!make} accepts.  Errors name the offending
    entry. *)

val has_capacity : t -> bool

val claim : t -> unit
(** Take a live slot.  @raise Invalid_argument when full — callers
    check {!has_capacity} first. *)

val enqueue : t -> cname:string -> int -> bool
(** Join [cname]'s queue ([cname] need not be configured — unknown
    names share the default class); [false] means the shared capacity
    is exhausted — the session is counted shed. *)

val promote : t -> terminal:(int -> bool) -> try_start:(int -> bool) -> unit
(** Serve the queues: drop every leading [terminal] id from every
    class (regardless of capacity), then admit ids in weighted
    round-robin order while {!has_capacity} holds and some class is
    serviceable.  [try_start id] makes the actual admission decision
    (breaker gate + incarnation start + {!claim}); returning [false]
    marks the id's class blocked for the rest of this call.  Callback
    order is deterministic for a deterministic queue state. *)

val release : t -> unit
(** A slot-holding session ended (any outcome); frees its slot. *)

val live : t -> int

val queued : t -> int
(** Total across classes. *)

val queued_in : t -> string -> int
(** One class's backlog ([cname] resolved like {!enqueue}). *)

val shed_count : t -> int
