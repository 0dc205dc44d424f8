(** JSONL serialization of traces, both directions: one JSON object per
    line, tagged ["ev"].

    The writer is hand-rolled (the event vocabulary is closed and flat)
    and deterministic — field order is fixed, numbers are plain decimal
    integers, messages are rendered with {!Goalcom.Msg.to_string} and
    JSON-escaped — so the golden-trace tests can diff files line by
    line.  Rendering goes straight into a [Buffer.t] (no [Printf]): the
    sink sits on the engine's hot path and the formatting allocations
    of a naive printer dominated the measured tracing overhead.

    The reader ({!parse_line}, {!of_file}) inverts the writer exactly:
    [parse_line (event_to_json e) = Ok e] for every event (qcheck-tested
    over arbitrary events), so any [--trace] file is a dataset for the
    analytics layer ({!Span}, {!Profile}, {!Trace_diff}). *)

open Goalcom

(** {1 Writing} *)

val add_event : Buffer.t -> Trace.event -> unit
(** Append the single-line JSON object (no trailing newline). *)

val event_to_json : Trace.event -> string
(** A single-line JSON object, no trailing newline. *)

val add_str : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string: quotes, backslashes and control
    characters escaped, other bytes raw — what {!Json.parse} reads
    back byte for byte. *)

val to_lines : Trace.event list -> string list

val sink : out_channel -> Trace.sink
(** Writes [event_to_json ev ^ "\n"] per event through a reused scratch
    buffer.  The channel is not flushed or closed; scope it with
    [Fun.protect].  Each partial application [sink oc] owns one scratch
    buffer — share the resulting closure, not the partial call. *)

val buffer_sink : Buffer.t -> Trace.sink

val with_file : ?buffer_bytes:int -> string -> (Trace.sink -> 'a) -> 'a
(** [with_file path f] hands [f] a sink that renders into a reused
    buffer and batches writes to [path ^ ".tmp"] in [buffer_bytes]-sized
    chunks (default 64 KiB); when [f] returns, the tail is written and
    the file renamed over [path] ({!Goalcom_prelude.File.with_atomic_out}).
    If [f] raises, [path] keeps its old contents and no temporary file
    is left.  This is the fast path the CLI's [--trace FILE] uses. *)

val write_events : out_channel -> Trace.event list -> unit

val to_file : string -> Trace.event list -> unit
(** Write the events to [path] atomically, as {!with_file} does. *)

(** {1 Reading} *)

val read_lines : string -> string list
(** The file's lines, unparsed (the diff layer compares serialized
    lines — the byte format is the contract). *)

val parse_line : string -> (Trace.event, string) result
(** Parse one JSONL line back into an event.  Exact inverse of
    {!event_to_json}; unknown ["ev"] tags, missing fields and malformed
    message literals are reported, not skipped. *)

val of_lines : string list -> (Trace.event list, string) result
(** First error wins, tagged with its 1-based line number. *)

val of_file : string -> (Trace.event list, string) result
(** Read and parse a whole trace file; errors carry the path. *)
