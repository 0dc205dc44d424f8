open Goalcom
module W = Trace_wire

(* The typed bridges between Trace.event and the wire bytes (the
   schema and writers are lib/core's Trace_wire): [put_event]
   dispatches a built event to the writers, and [read_event] inverts
   it (qcheck pins the roundtrip, adversarial Text bytes included).
   The field readers and [skip_event] walk the schema instead. *)

let unzigzag z = (z lsr 1) lxor (-(z land 1))

let put_event e (ev : Trace.event) =
  match ev with
  | Trace.Run_start { goal; user; server; horizon; drain; world_choice } ->
      W.run_start e ~goal ~user ~server ~horizon ~drain ~world_choice
  | Trace.Round_start { round } -> W.round_start e ~round
  | Trace.Emit { round; src; dst; msg } -> W.emit e ~round ~src ~dst msg
  | Trace.Halt { round } -> W.halt e ~round
  | Trace.Sense { round; sensor; positive; clock; patience } ->
      W.sense e ~round ~sensor ~positive ~clock ~patience
  | Trace.Switch { round; from_index; to_index; attempt } ->
      W.switch e ~round ~from_index ~to_index ~attempt
  | Trace.Resume { index; slots } -> W.resume e ~index ~slots
  | Trace.Session { round; index; budget } -> W.session e ~round ~index ~budget
  | Trace.Fault { round; fault; detail } -> W.fault e ~round ~fault ~detail
  | Trace.Violation { round } -> W.violation e ~round
  | Trace.Run_end { rounds; halted } -> W.run_end e ~rounds ~halted
  | Trace.Supervise { tick; session; action; detail } ->
      W.supervise e ~tick ~session ~action ~detail
  | Trace.Warm { server_class; enum; index; accepted; detail } ->
      W.warm e ~server_class ~enum ~index ~accepted ~detail

let event_to_string ev =
  let e = W.create 64 in
  put_event e ev;
  Bytes.sub_string (W.bytes e) 0 (W.length e)

(* Decoding.  A cursor over the input string; corruption (truncation,
   unknown tags, varints past 9 bytes) raises [Corrupt] internally and
   surfaces as [Error] with the failing offset. *)

exception Corrupt of string * int

let read_byte s pos =
  if !pos >= String.length s then raise (Corrupt ("truncated", !pos));
  let c = Char.code (String.unsafe_get s !pos) in
  incr pos;
  c

(* Top-level, not a local [let rec]: a local loop over [s] and [pos]
   would allocate its closure on every varint read. *)
let rec read_uvarint_from s pos acc shift =
  if shift > 56 then raise (Corrupt ("varint too long", !pos));
  let c = read_byte s pos in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else read_uvarint_from s pos acc (shift + 7)

let read_uvarint s pos = read_uvarint_from s pos 0 0

let read_int s pos = unzigzag (read_uvarint s pos)

let read_string s pos =
  let len = read_uvarint s pos in
  (* [len] may be near [max_int]: compare without adding to [!pos]. *)
  if len < 0 || len > String.length s - !pos then
    raise (Corrupt ("truncated string", !pos));
  let str = String.sub s !pos len in
  pos := !pos + len;
  str

let read_bool s pos =
  match read_byte s pos with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Corrupt ("bad boolean", !pos - 1))

let read_party s pos =
  match read_byte s pos with
  | 0 -> Trace.User
  | 1 -> Trace.Server
  | 2 -> Trace.World
  | _ -> raise (Corrupt ("bad party", !pos - 1))

let rec read_msg s pos : Msg.t =
  match read_byte s pos with
  | 0 -> Msg.Silence
  | 1 -> Msg.Sym (read_int s pos)
  | 2 -> Msg.Int (read_int s pos)
  | 3 -> Msg.Text (read_string s pos)
  | 4 ->
      let x = read_msg s pos in
      let y = read_msg s pos in
      Msg.Pair (x, y)
  | 5 ->
      let n = read_uvarint s pos in
      if n < 0 || n > String.length s - !pos then
        raise (Corrupt ("bad sequence length", !pos));
      Msg.Seq (List.init n (fun _ -> read_msg s pos))
  | _ -> raise (Corrupt ("bad message tag", !pos - 1))

let read_event s pos : Trace.event =
  match read_byte s pos with
  | 0 ->
      let goal = read_string s pos in
      let user = read_string s pos in
      let server = read_string s pos in
      let horizon = read_int s pos in
      let drain = read_int s pos in
      let world_choice = read_int s pos in
      Trace.Run_start { goal; user; server; horizon; drain; world_choice }
  | 1 -> Trace.Round_start { round = read_int s pos }
  | 2 ->
      let round = read_int s pos in
      let src = read_party s pos in
      let dst = read_party s pos in
      let msg = read_msg s pos in
      Trace.Emit { round; src; dst; msg }
  | 3 -> Trace.Halt { round = read_int s pos }
  | 4 ->
      let round = read_int s pos in
      let sensor = read_string s pos in
      let positive = read_bool s pos in
      let clock = read_int s pos in
      let patience = read_int s pos in
      Trace.Sense { round; sensor; positive; clock; patience }
  | 5 ->
      let round = read_int s pos in
      let from_index = read_int s pos in
      let to_index = read_int s pos in
      let attempt = read_int s pos in
      Trace.Switch { round; from_index; to_index; attempt }
  | 6 ->
      let index = read_int s pos in
      let slots = read_int s pos in
      Trace.Resume { index; slots }
  | 7 ->
      let round = read_int s pos in
      let index = read_int s pos in
      let budget = read_int s pos in
      Trace.Session { round; index; budget }
  | 8 ->
      let round = read_int s pos in
      let fault = read_string s pos in
      let detail = read_string s pos in
      Trace.Fault { round; fault; detail }
  | 9 -> Trace.Violation { round = read_int s pos }
  | 10 ->
      let rounds = read_int s pos in
      let halted = read_bool s pos in
      Trace.Run_end { rounds; halted }
  | 11 ->
      let tick = read_int s pos in
      let session = read_int s pos in
      let action = read_string s pos in
      let detail = read_string s pos in
      Trace.Supervise { tick; session; action; detail }
  | 12 ->
      let server_class = read_string s pos in
      let enum = read_string s pos in
      let index = read_int s pos in
      let accepted = read_bool s pos in
      let detail = read_string s pos in
      Trace.Warm { server_class; enum; index; accepted; detail }
  | t -> raise (Corrupt (Printf.sprintf "unknown event tag %d" t, !pos - 1))

let describe msg pos = Printf.sprintf "byte %d: %s" pos msg

let decode ?(pos = 0) s =
  let cursor = ref pos in
  match read_event s cursor with
  | ev -> Ok (ev, !cursor)
  | exception Corrupt (msg, at) -> Error (describe msg at)

let event_of_string s =
  match decode s with
  | Error _ as e -> e
  | Ok (ev, consumed) ->
      if consumed = String.length s then Ok ev
      else Error (describe "trailing bytes after event" consumed)

let decode_all ?(pos = 0) s =
  let cursor = ref pos in
  let rec go acc =
    if !cursor >= String.length s then Ok (List.rev acc)
    else
      match read_event s cursor with
      | ev -> go (ev :: acc)
      | exception Corrupt (msg, at) -> Error (describe msg at)
  in
  go []

(* Reading back bytes this module wrote.  [iter] is the decode loop of
   a trusted buffer (the session engine's per-session arenas): one
   cursor for the whole slice, where [decode] would build an
   [Ok (ev, pos)] pair per event. *)

let iter f b len =
  let s = Bytes.unsafe_to_string b in
  if len < 0 || len > String.length s then invalid_arg "Binary.iter";
  let cursor = ref 0 in
  try
    while !cursor < len do
      f (read_event s cursor)
    done;
    if !cursor > len then raise (Corrupt ("event overruns slice", len))
  with Corrupt (msg, at) -> failwith ("Binary.iter: " ^ describe msg at)

(* Readers at an offset, and the boundary finder that walks the
   event's schema row with them, allocating nothing.  They trust their
   input (bytes [put_event] wrote): only [Bytes.get]'s bounds check
   stands between a corrupt buffer and a wrong offset. *)

let rec varint_end b p =
  if Char.code (Bytes.get b p) land 0x80 = 0 then p + 1 else varint_end b (p + 1)

let rec uvarint_at b p acc shift =
  let c = Char.code (Bytes.get b p) in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else uvarint_at b (p + 1) acc (shift + 7)

let varint_at b p = uvarint_at b p 0 0
let int_at b p = unzigzag (varint_at b p)

let skip_string b p = varint_end b p + varint_at b p

let rec skip_msg b p =
  match Bytes.get b p with
  | '\000' -> p + 1
  | '\001' | '\002' -> varint_end b (p + 1)
  | '\003' -> skip_string b (p + 1)
  | '\004' -> skip_msg b (skip_msg b (p + 1))
  | '\005' -> skip_msgs b (varint_end b (p + 1)) (varint_at b (p + 1))
  | _ -> invalid_arg "Binary.skip_event: bad message tag"

and skip_msgs b p n = if n = 0 then p else skip_msgs b (skip_msg b p) (n - 1)

(* Leaves, the common case, without a cursor. *)
let msg_at b p =
  match Bytes.get b p with
  | '\001' -> Msg.Sym (int_at b (p + 1))
  | '\002' -> Msg.Int (int_at b (p + 1))
  | _ -> read_msg (Bytes.unsafe_to_string b) (ref p)

let rec skip_fields b p = function
  | [] -> p
  | (_, ty) :: rest ->
      let p =
        match (ty : W.field_type) with
        | Int -> varint_end b p
        | Bool | Party -> p + 1
        | Str -> skip_string b p
        | Msg -> skip_msg b p
      in
      skip_fields b p rest

let skip_event b p =
  let tag = Char.code (Bytes.get b p) in
  if tag >= Array.length W.schema then
    invalid_arg "Binary.skip_event: unknown event tag";
  skip_fields b (p + 1) W.schema.(tag).fields
