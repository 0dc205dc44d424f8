(** JSONL serialization of traces, both directions: one JSON object per
    line, tagged ["ev"].

    JSONL is an export of the binary wire ({!Binary}): a line is one
    event's bytes transcoded along its {!Goalcom.Trace_wire.schema}
    row, whose names are the JSON keys, in wire order; integers are
    plain decimals, messages {!Goalcom.Msg.to_string}'s rendering,
    JSON-escaped.  The sinks offer Trace a wire, as {!Ring.domain_sink}
    does, so they never build an event.  The reader writes a line back
    to wire bytes along the same row and decodes them:
    [parse_line (event_to_json e) = Ok e] for every event
    (qcheck-tested), so any [--trace] file is a dataset for the
    analytics layer ({!Span}, {!Profile}, {!Trace_diff}). *)

open Goalcom

(** {1 Writing} *)

val event_to_json : Trace.event -> string
(** A single-line JSON object, no trailing newline. *)

val add_str : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string: quotes, backslashes and control
    characters escaped, other bytes raw — what {!Json.parse} reads
    back byte for byte. *)

val to_lines : Trace.event list -> string list

val buffer_sink : Buffer.t -> Trace.sink
(** A sink appending [event_to_json ev ^ "\n"] per event to the
    buffer.  Each call makes a new sink and offers its wire on the
    calling domain ({!Goalcom.Trace.offer_encoded}); install the
    result, not a wrapper, to keep the fast path. *)

val with_file : ?buffer_bytes:int -> string -> (Trace.sink -> 'a) -> 'a
(** [with_file path f] hands [f] a sink that renders into a reused
    buffer and batches writes to [path ^ ".tmp"] in [buffer_bytes]-sized
    chunks (default 64 KiB); when [f] returns, the tail is written and
    the file renamed over [path] ({!Goalcom_prelude.File.with_atomic_out}).
    If [f] raises, [path] keeps its old contents and no temporary file
    is left.  This is the fast path the CLI's [--trace FILE] uses; the
    sink offers its wire as {!buffer_sink}'s does. *)

val to_file : string -> Trace.event list -> unit
(** Write the events to [path] atomically, as {!with_file} does. *)

(** {1 Reading} *)

val read_lines : string -> string list
(** The file's lines, unparsed (the diff layer compares serialized
    lines — the byte format is the contract). *)

val parse_line : string -> (Trace.event, string) result
(** Parse one JSONL line back into an event.  Exact inverse of
    {!event_to_json}; unknown ["ev"] tags, missing or mistyped fields
    and malformed message literals are reported, not skipped.  Never
    raises. *)

val of_file : string -> (Trace.event list, string) result
(** Read and parse a whole trace file; the first error wins, tagged
    with the path and its 1-based line number. *)
