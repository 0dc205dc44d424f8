(* The writer half of the trace wire format (the reader half is
   Goalcom_obs.Binary's decoder), and the schema both halves follow.

   One tag byte per event naming the constructor, then the fields in
   declaration order: LEB128 varints for integers (zigzag-mapped first,
   since rounds are small and positive but Warm.index can be -1 and
   Msg.Int is arbitrary), length-prefixed raw bytes for strings, one
   byte for parties and booleans, and a tagged preorder walk for
   messages.  [schema] says the same as data, one row per tag; lib/obs
   reads the wire through it.  The per-kind writers stay hand-written:
   they are the typed emitters' hot path, which is why this lives below
   Trace, and the round-trip properties tie each to its row.

   Integers are OCaml's native 63-bit ints: zigzag folds the sign into
   the low bit ((n lsl 1) lxor (n asr 62), a bijection on the 63-bit
   domain), then base-128 groups emit low-to-high, at most 9 bytes. *)

type party = User | Server | World
type field_type = Int | Bool | Str | Party | Msg
type kind = { name : string; fields : (string * field_type) list }

let schema =
  let k name fields = { name; fields } in
  [|
    k "run_start"
      [ ("goal", Str); ("user", Str); ("server", Str); ("horizon", Int);
        ("drain", Int); ("world_choice", Int) ];
    k "round_start" [ ("round", Int) ];
    k "emit" [ ("round", Int); ("src", Party); ("dst", Party); ("msg", Msg) ];
    k "halt" [ ("round", Int) ];
    k "sense"
      [ ("round", Int); ("sensor", Str); ("positive", Bool); ("clock", Int);
        ("patience", Int) ];
    k "switch" [ ("round", Int); ("from", Int); ("to", Int); ("attempt", Int) ];
    k "resume" [ ("index", Int); ("slots", Int) ];
    k "session" [ ("round", Int); ("index", Int); ("budget", Int) ];
    k "fault" [ ("round", Int); ("fault", Str); ("detail", Str) ];
    k "violation" [ ("round", Int) ];
    k "run_end" [ ("rounds", Int); ("halted", Bool) ];
    k "supervise"
      [ ("tick", Int); ("session", Int); ("action", Str); ("detail", Str) ];
    k "warm"
      [ ("class", Str); ("enum", Str); ("index", Int); ("accepted", Bool);
        ("detail", Str) ];
  |]

let zigzag n = (n lsl 1) lxor (n asr 62)

(* The writers go through a manual cursor over a growable [Bytes.t]
   rather than a [Buffer.t]: on the ring's hot path every event pays
   the encode, and a bounds-checked-once run of [unsafe_set]s is
   several times cheaper than per-byte [Buffer.add_char] calls. *)

(* [elim] caches [Bytes.length ebuf]: the capacity check is then one
   field load, where [Bytes.length] would read the buffer's header and
   its last byte. *)
type enc = { mutable ebuf : Bytes.t; mutable epos : int; mutable elim : int }

(* Unaligned word access, bounds checked by the callers' [ensure]s. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create n =
  let n = max n 16 in
  { ebuf = Bytes.create n; epos = 0; elim = n }
let[@inline] length e = e.epos
let bytes e = e.ebuf

let truncate e n =
  if n < 0 || n > e.epos then invalid_arg "Trace_wire.truncate";
  e.epos <- n

let grow e need =
  let cap = ref (Bytes.length e.ebuf * 2) in
  while need > !cap do
    cap := !cap * 2
  done;
  let nb = Bytes.create !cap in
  Bytes.blit e.ebuf 0 nb 0 e.epos;
  e.ebuf <- nb;
  e.elim <- !cap

let[@inline] ensure e n = if e.epos + n > e.elim then grow e (e.epos + n)

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

(* The fully-local fast path used by the per-round writers: write a
   varint group sequence at [p] in [b] (capacity ensured by the caller)
   and return the next position, so a whole event's writes compile to
   straight-line stores on one local cursor with a single [epos] store
   at the end. *)
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

(* A tag byte and one integer field: Round_start, Halt, Violation and
   the leaf messages. *)
let[@inline] tag_int e tag n =
  ensure e 10;
  let b = e.ebuf in
  let p = e.epos in
  Bytes.unsafe_set b p tag;
  e.epos <- varint_at b (p + 1) (zigzag n)

(* [s]'s bytes at [p] (capacity ensured by the caller); returns the
   next position.  Strings here are short (sensor names, JSON keys), so
   they copy as 8-byte words, the last one overlapping: plain unaligned
   stores, where a blit pays a C call per string.  In bounds by the
   [ensure] and the [len >= 8] guard. *)
let raw_at b p s =
  let len = String.length s in
  if len >= 8 then begin
    let i = ref 0 in
    while !i + 8 < len do
      set64u b (p + !i) (get64u s !i);
      i := !i + 8
    done;
    set64u b (p + len - 8) (get64u s (len - 8))
  end
  else
    for i = 0 to len - 1 do
      Bytes.unsafe_set b (p + i) (String.unsafe_get s i)
    done;
  p + len

(* Length prefix and bytes at [p] (capacity [9 + length] ensured). *)
let string_at b p s = raw_at b (varint_at b p (String.length s)) s

let put_string e s =
  ensure e (9 + String.length s);
  e.epos <- string_at e.ebuf e.epos s

let put_text e s =
  ensure e (String.length s);
  e.epos <- raw_at e.ebuf e.epos s

let[@inline] put_bool_raw e v = put_raw e (if v then '\001' else '\000')

let party_byte = function User -> '\000' | Server -> '\001' | World -> '\002'

(* Field writers for code that walks [schema] (the JSONL reader). *)
let put_int e n =
  ensure e 9;
  put_int_raw e n

let put_bool e v = put_byte e (if v then '\001' else '\000')
let put_party e p = put_byte e (party_byte p)

(* Each case ensures once for its fixed-size fields (tag byte plus
   varints, 9 bytes each worst case) and then writes raw; strings and
   sub-messages re-ensure for themselves. *)
let rec put_msg e (m : Msg.t) =
  match m with
  | Msg.Silence -> put_byte e '\000'
  | Msg.Sym s -> tag_int e '\001' s
  | Msg.Int n -> tag_int e '\002' n
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

(* --- one writer per event kind, tags 0..12 in declaration order ------ *)

let run_start e ~goal ~user ~server ~horizon ~drain ~world_choice =
  put_byte e '\000';
  put_string e goal;
  put_string e user;
  put_string e server;
  ensure e 27;
  put_int_raw e horizon;
  put_int_raw e drain;
  put_int_raw e world_choice

let[@inline] round_start e ~round = tag_int e '\001' round

let emit e ~round ~src ~dst msg =
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
      put_msg e m

let[@inline] halt e ~round = tag_int e '\003' round

let sense e ~round ~sensor ~positive ~clock ~patience =
  (* One capacity check for the whole event: tag, three varints, the
     boolean and the string with its length prefix. *)
  ensure e (38 + String.length sensor);
  let b = e.ebuf in
  let p = e.epos in
  Bytes.unsafe_set b p '\004';
  let p = string_at b (varint_at b (p + 1) (zigzag round)) sensor in
  Bytes.unsafe_set b p (if positive then '\001' else '\000');
  let p = varint_at b (p + 1) (zigzag clock) in
  e.epos <- varint_at b p (zigzag patience)

let switch e ~round ~from_index ~to_index ~attempt =
  ensure e 37;
  put_raw e '\005';
  put_int_raw e round;
  put_int_raw e from_index;
  put_int_raw e to_index;
  put_int_raw e attempt

let resume e ~index ~slots =
  ensure e 19;
  put_raw e '\006';
  put_int_raw e index;
  put_int_raw e slots

let session e ~round ~index ~budget =
  ensure e 28;
  put_raw e '\007';
  put_int_raw e round;
  put_int_raw e index;
  put_int_raw e budget

let fault e ~round ~fault ~detail =
  tag_int e '\008' round;
  put_string e fault;
  put_string e detail

let[@inline] violation e ~round = tag_int e '\009' round

let run_end e ~rounds ~halted =
  ensure e 11;
  put_raw e '\010';
  put_int_raw e rounds;
  put_bool_raw e halted

let supervise e ~tick ~session ~action ~detail =
  ensure e 19;
  put_raw e '\011';
  put_int_raw e tick;
  put_int_raw e session;
  put_string e action;
  put_string e detail

let warm e ~server_class ~enum ~index ~accepted ~detail =
  put_byte e '\012';
  put_string e server_class;
  put_string e enum;
  ensure e 10;
  put_int_raw e index;
  put_bool_raw e accepted;
  put_string e detail

let put_slice e b off len =
  ensure e len;
  Bytes.unsafe_blit b off e.ebuf e.epos len;
  e.epos <- e.epos + len
