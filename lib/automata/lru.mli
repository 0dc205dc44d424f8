(** A bounded, domain-safe LRU cache keyed by [int].

    The decode memo of the enumeration ladder: strategy classes
    are enumerations of machines, candidates are fetched by index, and
    the same indices recur — across Levin phases within one race, and
    across runs within one process.  A bounded LRU keeps the hot prefix
    of the ladder decoded without letting an unbounded enumeration pin
    arbitrary memory.

    All bookkeeping takes an internal mutex, so one cache may be shared
    by the racer's resolution loop and by concurrent sequential runs on
    other domains.  [find_or_add] computes the missing value {e outside}
    the lock — two domains missing on the same key may both compute it
    (the first insertion wins) — so the cached computation must be pure,
    which decoding is. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity 0] is a valid, always-miss cache (caching disabled —
    every [find_or_add] recomputes and stores nothing).
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find_or_add : 'a t -> int -> (int -> 'a) -> 'a
(** [find_or_add t k f] returns the cached value for [k], computing
    [f k] and inserting it (evicting the least recently used entry at
    capacity) on a miss.  A hit refreshes [k]'s recency.  [f] must not
    re-enter the same cache. *)

val mem : 'a t -> int -> bool
(** Membership without touching recency (for tests). *)

val hits : 'a t -> int
val misses : 'a t -> int
(** Lifetime counters ([clear] does not reset them). *)

val hit_rate : 'a t -> float
(** [hits / (hits + misses)], [0.] before any lookup. *)

val clear : 'a t -> unit
(** Drop every entry (counters are kept). *)
