(** The writer half of the trace wire format: an event's bytes, written
    field by field without building the {!Trace.event} value.

    One tag byte per event names the constructor (0–12, in
    {!Trace.event}'s declaration order), then the fields follow in
    declaration order: integers as zigzag-mapped LEB128 varints (at most
    9 bytes for the 63-bit domain), strings as a varint byte length plus
    raw bytes (no escaping), parties and booleans as one byte, messages
    as a tagged preorder walk.  A [Round_start] costs 2 bytes and a
    typical [Emit] 6–8.

    {!Trace}'s typed emitters write through these functions into a
    sink's arena; [Goalcom_obs.Binary.put_event] dispatches a built
    event to them, and [Goalcom_obs.Binary] holds the decoder that
    inverts them.  Each writer appends exactly the bytes
    [Binary.put_event] appends for the corresponding event. *)

type party = User | Server | World
(** Re-exported as {!Trace.party}. *)

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
