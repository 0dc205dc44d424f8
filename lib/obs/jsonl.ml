open Goalcom
module W = Trace_wire

(* JSONL is an export of the binary wire: a line is one event's
   Trace_wire bytes, transcoded along its Trace_wire.schema row, the
   ["ev"] tag first so files stream through jq / grep.  The sinks offer
   Trace a wire, as the ring does, so typed emitters build no event and
   a replaying producer pushes arena slices through the same transcode.
   A line is rendered into a Trace_wire cursor used as a byte buffer
   and then appended to the sink's Buffer whole: on the engine's hot
   path, a Buffer append per text cost a C call each, where the cursor
   copies words.  The goldens and one exact line per event kind in the
   analytics suite pin the bytes. *)

let add_str b s =
  Buffer.add_char b '"';
  Json.add_escaped b s;
  Buffer.add_char b '"'

let ch = W.put_byte
let text = W.put_text

(* [string_of_int n]'s digits, without the string. *)
let rec digits o n =
  if n >= 10 then digits o (n / 10);
  ch o (Char.unsafe_chr (48 + (n mod 10)))

let int o n =
  if n >= 0 then digits o n
  else if n = min_int then text o (string_of_int n)
  else begin
    ch o '-';
    digits o (-n)
  end

(* The JSON-escaped form of [Msg.to_string msg], composed in one pass:
   messages render to OCaml-literal syntax (printf %S for texts), whose
   escapes then need their backslashes and quotes JSON-escaped.  Both
   layers are over printable ASCII, so the composition per source char
   is still a finite table. *)
let rec msg o (m : Msg.t) =
  match m with
  | Msg.Silence -> ch o '_'
  | Msg.Sym s ->
      ch o '#';
      int o s
  | Msg.Int n -> int o n
  | Msg.Text s ->
      text o "\\\"";
      String.iter
        (fun c ->
          match c with
          | '"' -> text o "\\\\\\\""
          | '\\' -> text o "\\\\\\\\"
          | '\n' -> text o "\\\\n"
          | '\t' -> text o "\\\\t"
          | '\r' -> text o "\\\\r"
          | '\b' -> text o "\\\\b"
          | ' ' .. '~' -> ch o c
          | c -> text o (Printf.sprintf "\\\\%03d" (Char.code c)))
        s;
      text o "\\\""
  | Msg.Pair (x, y) ->
      ch o '(';
      msg o x;
      ch o ',';
      msg o y;
      ch o ')'
  | Msg.Seq ms ->
      ch o '[';
      List.iteri
        (fun i m ->
          if i > 0 then ch o ';';
          msg o m)
        ms;
      ch o ']'

let party_names = Array.map Trace.party_name Trace.[| User; Server; World |]

let rec plain s i stop =
  i = stop || ((not (Json.needs_escape (Bytes.get s i))) && plain s (i + 1) stop)

(* One field's renderer over trusted wire bytes: its value at [p], then
   its text (for a party or a boolean, the text indexed by the value's
   byte), then [k] on the rest of the row. *)
let renderer (texts, (ty : W.field_type)) k =
  let t = texts.(0) in
  match ty with
  | Party | Bool ->
      fun o s p ->
        text o texts.(Char.code (Bytes.get s p));
        k o s (p + 1)
  | Int ->
      fun o s p ->
        int o (Binary.int_at s p);
        text o t;
        k o s (Binary.varint_end s p)
  | Str ->
      fun o s p ->
        let len = Binary.varint_at s p and off = Binary.varint_end s p in
        if plain s off (off + len) then begin
          ch o '"';
          W.put_slice o s off len;
          ch o '"'
        end
        else begin
          let b = Buffer.create (len + 8) in
          add_str b (Bytes.sub_string s off len);
          text o (Buffer.contents b)
        end;
        text o t;
        k o s (off + len)
  | Msg ->
      fun o s p ->
        msg o (Binary.msg_at s p);
        text o t;
        k o s (Binary.skip_msg s p)

(* Each schema row as constant text around its values, compiled to one
   renderer: the text up to the first value, then per field the text
   after its value up to the next one.  A party or a boolean is one
   byte naming a word, so its field keeps one text per word, the word
   included: an [Emit] line is five texts around its round and its
   message. *)
let rows =
  let quote : W.field_type -> string = function Party | Msg -> "\"" | _ -> "" in
  let key = function (name, ty) :: _ -> ",\"" ^ name ^ "\":" ^ quote ty | [] -> "}" in
  let rec texts = function
    | [] -> []
    | (_, ty) :: rest ->
        let words =
          match (ty : W.field_type) with
          | Party -> party_names
          | Bool -> [| "false"; "true" |]
          | Int | Str | Msg -> [| "" |]
        in
        (Array.map (fun w -> w ^ quote ty ^ key rest) words, ty) :: texts rest
  in
  Array.map
    (fun (k : W.kind) ->
      ( "{\"ev\":\"" ^ k.name ^ "\"" ^ key k.fields,
        List.fold_right renderer (texts k.fields) (fun _ _ p -> p) ))
    W.schema

(* The event whose bytes start at [p] in [s], as one JSON object
   appended to [o]. *)
let add_wire o s p =
  let prefix, render = rows.(Char.code (Bytes.get s p)) in
  text o prefix;
  ignore (render o s (p + 1))

let event_to_json ev =
  let o = W.create 128 in
  add_wire o (Bytes.unsafe_of_string (Binary.event_to_string ev)) 0;
  Bytes.sub_string (W.bytes o) 0 (W.length o)

let to_lines events = List.map event_to_json events

(* A sink rendering into [out] and its wire: a scratch cursor each
   commit transcodes and empties, and a push that transcodes a slice in
   place.  Once [out] holds [limit] bytes, [flush] runs. *)
let wire_sink out ~limit ~flush =
  let enc = W.create 256 and o = W.create 256 in
  let line b off =
    add_wire o b off;
    ch o '\n';
    Buffer.add_subbytes out (W.bytes o) 0 (W.length o);
    W.truncate o 0;
    if Buffer.length out >= limit then flush ()
  in
  let commit _ =
    line (W.bytes enc) 0;
    W.truncate enc 0
  in
  let sink ev =
    Binary.put_event enc ev;
    commit 0
  in
  Trace.offer_encoded sink
    {
      push = (fun b off _ -> line b off);
      retain = max_int;
      discard = (fun _ -> invalid_arg "Jsonl: no discard, retain is max_int");
      wire = Write { enc; commit };
    };
  sink

let buffer_sink b = wire_sink b ~limit:max_int ~flush:ignore

let with_file ?(buffer_bytes = 1 lsl 16) path f =
  Goalcom_prelude.File.with_atomic_out path (fun oc ->
      let b = Buffer.create buffer_bytes in
      let flush () =
        Buffer.output_buffer oc b;
        Buffer.clear b
      in
      let v = f (wire_sink b ~limit:buffer_bytes ~flush) in
      Buffer.output_buffer oc b;
      v)

let to_file path events = with_file path (fun sink -> List.iter sink events)

(* Reading traces back: the inverse of the transcoder, so any --trace
   file is a dataset. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.map conv (Json.member name j) with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some None -> Error (Printf.sprintf "field %S has the wrong type" name)
  | Some (Some x) -> Ok x

(* The JSON object back to wire bytes along its row, then the one
   typed decoder: fields are checked in wire order, so the first
   missing or mistyped one is the error. *)
let put_field e j (name, ty) =
  let str () = field name Json.string_opt j in
  match (ty : W.field_type) with
  | Int -> Result.map (W.put_int e) (field name Json.int_opt j)
  | Bool -> Result.map (W.put_bool e) (field name Json.bool_opt j)
  | Str -> Result.map (W.put_string e) (str ())
  | Party -> (
      let* s = str () in
      let parties = Trace.[ User; Server; World ] in
      match List.find_opt (fun p -> Trace.party_name p = s) parties with
      | Some p -> Ok (W.put_party e p)
      | None -> Error (Printf.sprintf "field %S is not a party" name))
  | Msg -> (
      let* s = str () in
      match Msg.of_string s with
      | Ok m -> Ok (W.put_msg e m)
      | Error err -> Error (Printf.sprintf "field %S: %s" name err))

let tags =
  Hashtbl.of_seq (Seq.mapi (fun t (k : W.kind) -> (k.name, t)) (Array.to_seq W.schema))

let parse_line line =
  let* j = Json.parse line in
  let* ev = field "ev" Json.string_opt j in
  match Hashtbl.find_opt tags ev with
  | None -> Error (Printf.sprintf "unknown event kind %S" ev)
  | Some tag ->
      let e = W.create 64 in
      W.put_byte e (Char.chr tag);
      let put acc f = Result.bind acc (fun () -> put_field e j f) in
      let* () = List.fold_left put (Ok ()) W.schema.(tag).fields in
      Binary.event_of_string (Bytes.sub_string (W.bytes e) 0 (W.length e))

let of_lines lines =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> begin
        match parse_line line with
        | Ok ev -> go (i + 1) (ev :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" i e)
      end
  in
  go 1 [] lines

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let of_file path =
  match of_lines (read_lines path) with
  | Ok events -> Ok events
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
