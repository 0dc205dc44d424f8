(** Compact binary encoding of {!Goalcom.Trace.event} — the wire format
    of the ring ({!Ring}) and the session engine's arenas.  The layout,
    its schema and the writers live in {!Goalcom.Trace_wire}; this
    module holds the two typed bridges between bytes and events
    ({!put_event} and the decoder) and the field readers {!Jsonl} and
    {!Trace_diff} walk the schema with.

    A [Round_start] costs 2 bytes and a typical [Emit] 6–8, an order of
    magnitude under their JSONL renderings, and encoding performs no
    formatting — which is what makes always-on capture affordable.

    {!decode} inverts {!put_event} exactly (the qcheck suite pins the
    roundtrip over arbitrary events, adversarial [Text] bytes
    included), so decoded events feed every [Trace.event] consumer
    ({!Span}, the golden tests) unchanged.  The format is an in-memory
    layout, not an archival format: it carries no version header;
    {!Jsonl}, an export of these bytes, is the interchange format. *)

val event_to_string : Goalcom.Trace.event -> string

val put_event : Goalcom.Trace_wire.enc -> Goalcom.Trace.event -> unit
(** Append one event at the cursor: the {!Goalcom.Trace_wire} writer
    for the event's kind ({!Ring} keeps a whole shard's events in one
    cursor this way). *)

(** {1 Decoding} *)

val decode : ?pos:int -> string -> (Goalcom.Trace.event * int, string) result
(** [decode ?pos s] reads one event at [pos] (default [0]); on success
    returns the event and the offset just past it.  Errors name the
    failing byte offset. *)

val event_of_string : string -> (Goalcom.Trace.event, string) result
(** One event spanning the whole string; trailing bytes are an error. *)

val decode_all : ?pos:int -> string -> (Goalcom.Trace.event list, string) result
(** Events back to back until the end of the string. *)

(** {1 Reading back trusted buffers}

    For bytes {!put_event} or a {!Goalcom.Trace_wire} writer wrote into
    a cursor, such as the session engine's per-session trace arenas.
    The readers at an offset serve the walks along a schema row
    ({!Jsonl}, {!Trace_diff}); a bool or a party is the byte itself.
    @raise Invalid_argument on a read past the end of the buffer. *)

val varint_at : Bytes.t -> int -> int
val int_at : Bytes.t -> int -> int
val varint_end : Bytes.t -> int -> int
(** At offset [p]: the unsigned varint (a string's byte length), the
    integer field, and the offset just past either. *)

val msg_at : Bytes.t -> int -> Goalcom.Msg.t
val skip_msg : Bytes.t -> int -> int
(** The message at [p], and the offset just past it. *)

val skip_event : Bytes.t -> int -> int
(** [skip_event b p] is the offset just past the event starting at [p]
    — for well-formed input exactly {!decode}'s consumed offset, found
    by walking the tag's {!Goalcom.Trace_wire.schema} row.  It
    allocates nothing.  @raise Invalid_argument on an unknown tag or a
    read past the end of [b]; other corruption goes undetected. *)

val iter : (Goalcom.Trace.event -> unit) -> Bytes.t -> int -> unit
(** [iter f b len] decodes the events packed back to back in the first
    [len] bytes of [b] (a cursor's [Trace_wire.bytes] and
    [Trace_wire.length]) and
    applies [f] to each in order, reading through one cursor.  [b] must
    not change while [iter] runs.  @raise Failure on corrupt bytes;
    @raise Invalid_argument if [len] is out of range. *)
