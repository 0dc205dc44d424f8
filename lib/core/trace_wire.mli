(** The trace wire format: its schema, declared once, and the writers
    of an event's bytes, field by field, without building the
    {!Trace.event} value.

    An event is one tag byte (0–12, {!Trace.event}'s declaration order)
    and then its fields in declaration order, as {!schema}'s row for
    the tag lists them.  A [Round_start] costs 2 bytes and a typical
    [Emit] 6–8.  [Goalcom_obs] reads the wire through {!schema}:
    [Binary.skip_event], the JSONL transcoder and reader, and
    [Trace_diff]'s field walk.  The per-kind writers stay hand-written
    because they are the emission hot path: {!Trace}'s typed emitters
    write through them into a sink's arena, and
    [Goalcom_obs.Binary.put_event] dispatches a built event to them.
    Each appends exactly what its {!schema} row describes. *)

type party = User | Server | World
(** Re-exported as {!Trace.party}. *)

(** {1 The schema} *)

type field_type =
  | Int  (** zigzag LEB128 varint, at most 9 bytes *)
  | Bool  (** one byte, 0 or 1 *)
  | Str  (** varint byte length, then the raw bytes (no escaping) *)
  | Party  (** one byte: user 0, server 1, world 2 *)
  | Msg  (** a tagged preorder walk of a {!Msg.t} *)

type kind = {
  name : string;  (** the JSONL ["ev"] tag, e.g. ["switch"] *)
  fields : (string * field_type) list;
      (** in wire order, each with its JSONL name (["from"], ["class"]) *)
}

val schema : kind array
(** Row [t] describes the event whose tag byte is [t]. *)

(** {1 The cursor} *)

type enc
(** A growable byte cursor: the first {!length} bytes of {!bytes} are
    the events written so far, back to back. *)

val create : int -> enc
(** A cursor with [n] bytes of initial capacity (grows as needed). *)

val length : enc -> int

val bytes : enc -> Bytes.t
(** The backing buffer (valid until the next write, which may grow
    it). *)

val truncate : enc -> int -> unit
(** Keep the first [n] bytes ([0 <= n <= length]).
    @raise Invalid_argument otherwise. *)

val put_slice : enc -> Bytes.t -> int -> int -> unit
(** [put_slice e b off len] appends [b.[off .. off+len-1]] verbatim —
    an event some other cursor already wrote. *)

val put_text : enc -> string -> unit
(** Append the string's bytes, no length prefix (JSONL's lines). *)

(** {1 Field writers}, one per {!field_type} and the tag byte, for code
    that writes an event by walking its {!schema} row *)

val put_byte : enc -> char -> unit
val put_int : enc -> int -> unit
val put_bool : enc -> bool -> unit
val put_party : enc -> party -> unit
val put_string : enc -> string -> unit
val put_msg : enc -> Msg.t -> unit

(** {1 One writer per event kind}

    Each appends one event at the cursor. *)

val run_start :
  enc ->
  goal:string ->
  user:string ->
  server:string ->
  horizon:int ->
  drain:int ->
  world_choice:int ->
  unit

val round_start : enc -> round:int -> unit
val emit : enc -> round:int -> src:party -> dst:party -> Msg.t -> unit
val halt : enc -> round:int -> unit

val sense :
  enc ->
  round:int ->
  sensor:string ->
  positive:bool ->
  clock:int ->
  patience:int ->
  unit

val switch :
  enc -> round:int -> from_index:int -> to_index:int -> attempt:int -> unit

val resume : enc -> index:int -> slots:int -> unit
val session : enc -> round:int -> index:int -> budget:int -> unit
val fault : enc -> round:int -> fault:string -> detail:string -> unit
val violation : enc -> round:int -> unit
val run_end : enc -> rounds:int -> halted:bool -> unit

val supervise :
  enc -> tick:int -> session:int -> action:string -> detail:string -> unit

val warm :
  enc ->
  server_class:string ->
  enum:string ->
  index:int ->
  accepted:bool ->
  detail:string ->
  unit
