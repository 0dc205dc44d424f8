open Goalcom

(* Compact binary encoding of Trace.event, with an exact decoder.

   This is the wire format of the ring-buffer sink (Ring): one tag byte
   per event naming the constructor, then the fields in declaration
   order — LEB128 varints for integers (zigzag-mapped first, since
   rounds are small and positive but Warm.index can be -1 and Msg.Int
   is arbitrary), length-prefixed raw bytes for strings, one byte for
   parties and booleans, and a tagged preorder walk for messages.  A
   typical Round_start is 2 bytes and an Emit 6-8 bytes, vs ~35 and
   ~90 for their JSONL renderings; more importantly encoding is pure
   byte pushes — no formatting, no escaping, no intermediate strings —
   which is what gets the enabled-tracing overhead from the JSONL
   sink's ~500% down to the ring's few tens of percent.

   The decoder inverts the encoder byte-for-byte (qcheck pins the
   roundtrip over arbitrary events, adversarial Text bytes included),
   so drained rings feed every existing consumer of Trace.event —
   Jsonl, Trace_diff, Span, the golden tests — unchanged.

   Integers are OCaml's native 63-bit ints: zigzag folds the sign into
   the low bit ((n lsl 1) lxor (n asr 62), a bijection on the 63-bit
   domain), then base-128 groups emit low-to-high, at most 9 bytes. *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

(* The encoder writes through a manual cursor over a growable [Bytes.t]
   rather than a [Buffer.t]: on the ring's hot path every event pays
   the encode, and a bounds-checked-once run of [unsafe_set]s is
   several times cheaper than per-byte [Buffer.add_char] calls.  The
   [Buffer] entry points below are wrappers so there is exactly one
   copy of the schema. *)

type enc = { mutable ebuf : Bytes.t; mutable epos : int }

(* Unaligned word access, bounds checked by the callers' [ensure]s. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let enc_create n = { ebuf = Bytes.create (max n 16); epos = 0 }
let enc_len e = e.epos
let enc_bytes e = e.ebuf

let enc_set_len e n =
  if n < 0 || n > e.epos then invalid_arg "Binary.enc_set_len";
  e.epos <- n

let grow e need =
  let cap = ref (Bytes.length e.ebuf * 2) in
  while need > !cap do
    cap := !cap * 2
  done;
  let nb = Bytes.create !cap in
  Bytes.blit e.ebuf 0 nb 0 e.epos;
  e.ebuf <- nb

let[@inline] ensure e n =
  if e.epos + n > Bytes.length e.ebuf then grow e (e.epos + n)

(* Capacity must have been [ensure]d by the caller. *)
let[@inline] put_raw e c =
  Bytes.unsafe_set e.ebuf e.epos c;
  e.epos <- e.epos + 1

let[@inline] put_byte e c =
  ensure e 1;
  put_raw e c

(* Raw (pre-[ensure]d, 9 bytes) varint write.  The first two group
   sizes are unrolled: rounds, ticks, indices and symbols are almost
   always 1-2 groups, and on the non-flambda compiler keeping the hot
   case free of the recursive loop is worth ~2x on the encode. *)
let[@inline] put_uvarint_raw e v =
  if v land lnot 0x7f = 0 then put_raw e (Char.unsafe_chr v)
  else begin
    put_raw e (Char.unsafe_chr (v land 0x7f lor 0x80));
    let v = v lsr 7 in
    if v land lnot 0x7f = 0 then put_raw e (Char.unsafe_chr v)
    else begin
      put_raw e (Char.unsafe_chr (v land 0x7f lor 0x80));
      let rec go v =
        if v land lnot 0x7f = 0 then put_raw e (Char.unsafe_chr v)
        else begin
          put_raw e (Char.unsafe_chr (v land 0x7f lor 0x80));
          go (v lsr 7)
        end
      in
      (* [lsr] brings in zeros, so this terminates after at most 9
         groups total for a 63-bit pattern. *)
      go (v lsr 7)
    end
  end

let[@inline] put_int_raw e n = put_uvarint_raw e (zigzag n)

(* The fully-local fast path used by the per-round constructors: write
   a varint group sequence at [p] in [b] (capacity ensured by the
   caller) and return the next position, so a whole event's writes
   compile to straight-line stores on one local cursor with a single
   [epos] store at the end. *)
let rec varint_rest b p v =
  if v land lnot 0x7f = 0 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr v);
    p + 1
  end
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0x7f lor 0x80));
    varint_rest b (p + 1) (v lsr 7)
  end

let[@inline] varint_at b p v =
  if v land lnot 0x7f = 0 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr v);
    p + 1
  end
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0x7f lor 0x80));
    let v = v lsr 7 in
    if v land lnot 0x7f = 0 then begin
      Bytes.unsafe_set b (p + 1) (Char.unsafe_chr v);
      p + 2
    end
    else varint_rest b (p + 1) v
  end

let put_string e s =
  let len = String.length s in
  ensure e (9 + len);
  put_uvarint_raw e len;
  let b = e.ebuf in
  let p = e.epos in
  (* Short strings (sensor names, actions, classes — the per-round
     kind) copy as one or two possibly-overlapping 8-byte words: the
     compiler lowers the [64u] primitives to plain unaligned
     loads/stores, where a blit would pay a C-call round trip per
     event.  In bounds by the [ensure] and the [len >= 8] guard. *)
  if len >= 8 then
    if len <= 16 then begin
      set64u b p (get64u s 0);
      set64u b (p + len - 8) (get64u s (len - 8))
    end
    else Bytes.unsafe_blit_string s 0 b p len
  else
    for i = 0 to len - 1 do
      Bytes.unsafe_set b (p + i) (String.unsafe_get s i)
    done;
  e.epos <- p + len

let[@inline] put_bool_raw e v = put_raw e (if v then '\001' else '\000')

let party_byte = function
  | Trace.User -> '\000'
  | Trace.Server -> '\001'
  | Trace.World -> '\002'

(* Each case ensures once for its fixed-size fields (tag byte plus
   varints, 9 bytes each worst case) and then writes raw; strings and
   sub-messages re-ensure for themselves. *)
let rec put_msg e (m : Msg.t) =
  match m with
  | Msg.Silence -> put_byte e '\000'
  | Msg.Sym s ->
      ensure e 10;
      let b = e.ebuf in
      let p = e.epos in
      Bytes.unsafe_set b p '\001';
      e.epos <- varint_at b (p + 1) (zigzag s)
  | Msg.Int n ->
      ensure e 10;
      let b = e.ebuf in
      let p = e.epos in
      Bytes.unsafe_set b p '\002';
      e.epos <- varint_at b (p + 1) (zigzag n)
  | Msg.Text s ->
      put_byte e '\003';
      put_string e s
  | Msg.Pair (x, y) ->
      put_byte e '\004';
      put_msg e x;
      put_msg e y
  | Msg.Seq ms ->
      ensure e 10;
      put_raw e '\005';
      put_uvarint_raw e (List.length ms);
      List.iter (put_msg e) ms

let put_event e (ev : Trace.event) =
  match ev with
  | Trace.Run_start { goal; user; server; horizon; drain; world_choice } ->
      put_byte e '\000';
      put_string e goal;
      put_string e user;
      put_string e server;
      ensure e 27;
      put_int_raw e horizon;
      put_int_raw e drain;
      put_int_raw e world_choice
  | Trace.Round_start { round } ->
      ensure e 10;
      let b = e.ebuf in
      let p = e.epos in
      Bytes.unsafe_set b p '\001';
      e.epos <- varint_at b (p + 1) (zigzag round)
  | Trace.Emit { round; src; dst; msg } -> (
      ensure e 22;
      let b = e.ebuf in
      let p = e.epos in
      Bytes.unsafe_set b p '\002';
      let p = varint_at b (p + 1) (zigzag round) in
      Bytes.unsafe_set b p (party_byte src);
      Bytes.unsafe_set b (p + 1) (party_byte dst);
      let p = p + 2 in
      (* Leaf payloads finish inside the one ensured window; anything
         nested falls back to the general walk. *)
      match msg with
      | Msg.Sym s ->
          Bytes.unsafe_set b p '\001';
          e.epos <- varint_at b (p + 1) (zigzag s)
      | Msg.Int n ->
          Bytes.unsafe_set b p '\002';
          e.epos <- varint_at b (p + 1) (zigzag n)
      | Msg.Silence ->
          Bytes.unsafe_set b p '\000';
          e.epos <- p + 1
      | m ->
          e.epos <- p;
          put_msg e m)
  | Trace.Halt { round } ->
      ensure e 10;
      let b = e.ebuf in
      let p = e.epos in
      Bytes.unsafe_set b p '\003';
      e.epos <- varint_at b (p + 1) (zigzag round)
  | Trace.Sense { round; sensor; positive; clock; patience } ->
      ensure e 10;
      let b = e.ebuf in
      let p = e.epos in
      Bytes.unsafe_set b p '\004';
      e.epos <- varint_at b (p + 1) (zigzag round);
      put_string e sensor;
      ensure e 19;
      let b = e.ebuf in
      let p = e.epos in
      Bytes.unsafe_set b p (if positive then '\001' else '\000');
      let p = varint_at b (p + 1) (zigzag clock) in
      e.epos <- varint_at b p (zigzag patience)
  | Trace.Switch { round; from_index; to_index; attempt } ->
      ensure e 37;
      put_raw e '\005';
      put_int_raw e round;
      put_int_raw e from_index;
      put_int_raw e to_index;
      put_int_raw e attempt
  | Trace.Resume { index; slots } ->
      ensure e 19;
      put_raw e '\006';
      put_int_raw e index;
      put_int_raw e slots
  | Trace.Session { round; index; budget } ->
      ensure e 28;
      put_raw e '\007';
      put_int_raw e round;
      put_int_raw e index;
      put_int_raw e budget
  | Trace.Fault { round; fault; detail } ->
      ensure e 10;
      put_raw e '\008';
      put_int_raw e round;
      put_string e fault;
      put_string e detail
  | Trace.Violation { round } ->
      ensure e 10;
      put_raw e '\009';
      put_int_raw e round
  | Trace.Run_end { rounds; halted } ->
      ensure e 11;
      put_raw e '\010';
      put_int_raw e rounds;
      put_bool_raw e halted
  | Trace.Supervise { tick; session; action; detail } ->
      ensure e 19;
      put_raw e '\011';
      put_int_raw e tick;
      put_int_raw e session;
      put_string e action;
      put_string e detail
  | Trace.Warm { server_class; enum; index; accepted; detail } ->
      put_byte e '\012';
      put_string e server_class;
      put_string e enum;
      ensure e 10;
      put_int_raw e index;
      put_bool_raw e accepted;
      put_string e detail

let encode e ev =
  e.epos <- 0;
  put_event e ev

let add_event b ev =
  let e = enc_create 64 in
  put_event e ev;
  Buffer.add_subbytes b e.ebuf 0 e.epos

let event_to_string ev =
  let e = enc_create 64 in
  put_event e ev;
  Bytes.sub_string e.ebuf 0 e.epos

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

let sink b ev = add_event b ev

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

(* The boundary finder mirrors [put_event] tag by tag and allocates
   nothing: varints are skipped by their continuation bits, strings by
   their length prefix.  It trusts its input — bytes written by
   [put_event] — and only [Bytes.get]'s bounds check stands between a
   corrupt buffer and a wrong offset. *)

let rec skip_varint b p =
  if Char.code (Bytes.get b p) land 0x80 = 0 then p + 1 else skip_varint b (p + 1)

let rec uvarint_at b p acc shift =
  let c = Char.code (Bytes.get b p) in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else uvarint_at b (p + 1) acc (shift + 7)

let skip_string b p =
  let len = uvarint_at b p 0 0 in
  skip_varint b p + len

let rec skip_msg b p =
  match Bytes.get b p with
  | '\000' -> p + 1
  | '\001' | '\002' -> skip_varint b (p + 1)
  | '\003' -> skip_string b (p + 1)
  | '\004' -> skip_msg b (skip_msg b (p + 1))
  | '\005' -> skip_msgs b (skip_varint b (p + 1)) (uvarint_at b (p + 1) 0 0)
  | _ -> invalid_arg "Binary.skip_event: bad message tag"

and skip_msgs b p n = if n = 0 then p else skip_msgs b (skip_msg b p) (n - 1)

let skip_event b p =
  match Bytes.get b p with
  | '\000' ->
      let p = skip_string b (skip_string b (skip_string b (p + 1))) in
      skip_varint b (skip_varint b (skip_varint b p))
  | '\001' | '\003' | '\009' -> skip_varint b (p + 1)
  | '\002' -> skip_msg b (skip_varint b (p + 1) + 2)
  | '\004' ->
      let p = skip_string b (skip_varint b (p + 1)) + 1 in
      skip_varint b (skip_varint b p)
  | '\005' ->
      skip_varint b (skip_varint b (skip_varint b (skip_varint b (p + 1))))
  | '\006' -> skip_varint b (skip_varint b (p + 1))
  | '\007' -> skip_varint b (skip_varint b (skip_varint b (p + 1)))
  | '\008' -> skip_string b (skip_string b (skip_varint b (p + 1)))
  | '\010' -> skip_varint b (p + 1) + 1
  | '\011' ->
      skip_string b (skip_string b (skip_varint b (skip_varint b (p + 1))))
  | '\012' ->
      let p = skip_string b (skip_string b (p + 1)) in
      skip_string b (skip_varint b p + 1)
  | _ -> invalid_arg "Binary.skip_event: unknown event tag"

let put_slice e b off len =
  ensure e len;
  Bytes.unsafe_blit b off e.ebuf e.epos len;
  e.epos <- e.epos + len
