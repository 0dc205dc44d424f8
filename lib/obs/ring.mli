(** The always-on capture sink: a fixed-capacity ring buffer of
    {!Binary}-encoded events, one shard per domain.

    A deployment that leaves tracing ON wants two properties the JSONL
    sink lacks: bounded memory (keep the {e last} [capacity] events,
    evicting the oldest) and an emission path cheap enough to ignore
    (no formatting, no I/O, no locks).  The ring provides both: each
    domain reaches its own shard through domain-local storage — zero
    synchronisation per event, and a sink observed by many pool workers
    records each worker's stream separately — and each event costs one
    binary encode plus an array store (through {!domain_sink}'s offer,
    the typed emitters write the encoding without building the
    event).

    {!events} decodes the retained slots back to ordinary
    {!Goalcom.Trace.event}s (shards concatenated in first-use order,
    each FIFO), so a drained ring feeds [Jsonl], [Trace_diff], [Span],
    [Rollup] and the trace invariants unchanged.  On a single domain
    the drained events are exactly the tail of what a buffering sink
    would have recorded.

    Drain-side functions ({!events}, {!length}, {!evicted}, {!clear})
    are for quiescent moments — after the traced run — they do not
    synchronise with in-flight emissions on other domains. *)

type t

val create : capacity:int -> t
(** A ring retaining at most [capacity] events {e per domain} that
    emits into it.  @raise Invalid_argument if [capacity <= 0]. *)

val sink : t -> Goalcom.Trace.sink
(** The recording sink: install ambient ([Trace.with_sink]) or pass as
    [?sink].  Resolves the calling domain's shard on every event, so
    one sink value may be shared across domains. *)

val domain_sink : t -> Goalcom.Trace.sink
(** Like {!sink} but binds the {e calling} domain's shard once, now —
    the per-event path skips the domain-local lookup.  The returned
    closure must only be invoked from the domain that created it; use
    it on single-domain capture paths (the engine replay, [chaos run],
    the bench) and plain {!sink} everywhere else.

    The closure also makes an offer through
    {!Goalcom.Trace.offer_encoded}.  Its [wire] is the shard's arena
    with the shard's index, eviction and compaction as [commit]: while
    this exact closure is installed, the typed emitters write each
    event's bytes straight into the shard and build no event, leaving
    the shard exactly as the closure would.  Its [push] stores one event given
    as its {!Binary} encoding, copied verbatim, and leaves the shard
    exactly as the closure would for the decoded event.  Its [retain]
    is the ring's [capacity]: the shard keeps only its last [capacity]
    events.  Its [discard k] adds [k] to {!evicted} and touches no slot;
    the caller promises at least [capacity] pushes after it, which evict
    every slot held before, so the shard ends with the same {!slots},
    {!length} and {!evicted} as if the [k] events had been pushed.  A
    producer holding encoded events (the session engine's replay) gets
    the offer from {!Goalcom.Trace.encoded} while this exact closure
    is the ambient sink. *)

val events : t -> Goalcom.Trace.event list
(** Decode and concatenate all retained events.  @raise Failure on a
    corrupt slot (impossible unless the ring's memory was corrupted —
    slots are only ever written by {!sink}). *)

val slots : t -> string list
(** The retained events' raw encodings, in {!events} order. *)

val length : t -> int
(** Retained events, over all shards. *)

val evicted : t -> int
(** Events overwritten since creation (or {!clear}), over all shards. *)

val domains : t -> int
(** Shards in use = domains that have emitted into this ring. *)

val clear : t -> unit
(** Empty every shard (capacity and shard registration are kept). *)
