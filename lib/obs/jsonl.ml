open Goalcom

(* Hand-rolled JSON: the event vocabulary is closed and flat, so a
   printer per constructor beats a generic tree.  One object per line,
   the ["ev"] tag first, so the files stream through jq / grep.

   Rendering goes straight into a Buffer — no Printf, no intermediate
   strings — because the JSONL sink sits on the engine's hot path: the
   tracing-overhead benchmark showed the original sprintf-based
   renderer costing ~4.6x an untraced run, almost all of it formatting
   allocations.  The byte-level format is pinned by the golden traces
   and by a qcheck test against a sprintf reference. *)

let add_str b s =
  Buffer.add_char b '"';
  Json.add_escaped b s;
  Buffer.add_char b '"'

(* [string_of_int n]'s digits, written straight into the buffer: every
   event carries a round number, and formatting it through a fresh
   string was most of an event's rendering cost. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let add_bool b v = Buffer.add_string b (if v then "true" else "false")

(* The JSON-escaped form of [Msg.to_string msg], composed in one pass:
   messages render to OCaml-literal syntax (printf %S for texts), whose
   escapes then need their backslashes and quotes JSON-escaped.  Both
   layers are over printable ASCII, so the composition per source char
   is still a finite table. *)
let rec add_msg b (m : Msg.t) =
  match m with
  | Msg.Silence -> Buffer.add_char b '_'
  | Msg.Sym s ->
      Buffer.add_char b '#';
      add_int b s
  | Msg.Int n -> add_int b n
  | Msg.Text s ->
      Buffer.add_string b "\\\"";
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\\\\\""
          | '\\' -> Buffer.add_string b "\\\\\\\\"
          | '\n' -> Buffer.add_string b "\\\\n"
          | '\t' -> Buffer.add_string b "\\\\t"
          | '\r' -> Buffer.add_string b "\\\\r"
          | '\b' -> Buffer.add_string b "\\\\b"
          | ' ' .. '~' -> Buffer.add_char b c
          | c ->
              Buffer.add_string b "\\\\";
              Buffer.add_string b (Printf.sprintf "%03d" (Char.code c)))
        s;
      Buffer.add_string b "\\\""
  | Msg.Pair (x, y) ->
      Buffer.add_char b '(';
      add_msg b x;
      Buffer.add_char b ',';
      add_msg b y;
      Buffer.add_char b ')'
  | Msg.Seq ms ->
      Buffer.add_char b '[';
      List.iteri
        (fun i m ->
          if i > 0 then Buffer.add_char b ';';
          add_msg b m)
        ms;
      Buffer.add_char b ']'

let add_event b (ev : Trace.event) =
  match ev with
  | Trace.Run_start { goal; user; server; horizon; drain; world_choice } ->
      Buffer.add_string b "{\"ev\":\"run_start\",\"goal\":";
      add_str b goal;
      Buffer.add_string b ",\"user\":";
      add_str b user;
      Buffer.add_string b ",\"server\":";
      add_str b server;
      Buffer.add_string b ",\"horizon\":";
      add_int b horizon;
      Buffer.add_string b ",\"drain\":";
      add_int b drain;
      Buffer.add_string b ",\"world_choice\":";
      add_int b world_choice;
      Buffer.add_char b '}'
  | Trace.Round_start { round } ->
      Buffer.add_string b "{\"ev\":\"round_start\",\"round\":";
      add_int b round;
      Buffer.add_char b '}'
  | Trace.Emit { round; src; dst; msg } ->
      Buffer.add_string b "{\"ev\":\"emit\",\"round\":";
      add_int b round;
      Buffer.add_string b ",\"src\":\"";
      Buffer.add_string b (Trace.party_name src);
      Buffer.add_string b "\",\"dst\":\"";
      Buffer.add_string b (Trace.party_name dst);
      Buffer.add_string b "\",\"msg\":\"";
      add_msg b msg;
      Buffer.add_string b "\"}"
  | Trace.Halt { round } ->
      Buffer.add_string b "{\"ev\":\"halt\",\"round\":";
      add_int b round;
      Buffer.add_char b '}'
  | Trace.Sense { round; sensor; positive; clock; patience } ->
      Buffer.add_string b "{\"ev\":\"sense\",\"round\":";
      add_int b round;
      Buffer.add_string b ",\"sensor\":";
      add_str b sensor;
      Buffer.add_string b ",\"positive\":";
      add_bool b positive;
      Buffer.add_string b ",\"clock\":";
      add_int b clock;
      Buffer.add_string b ",\"patience\":";
      add_int b patience;
      Buffer.add_char b '}'
  | Trace.Switch { round; from_index; to_index; attempt } ->
      Buffer.add_string b "{\"ev\":\"switch\",\"round\":";
      add_int b round;
      Buffer.add_string b ",\"from\":";
      add_int b from_index;
      Buffer.add_string b ",\"to\":";
      add_int b to_index;
      Buffer.add_string b ",\"attempt\":";
      add_int b attempt;
      Buffer.add_char b '}'
  | Trace.Resume { index; slots } ->
      Buffer.add_string b "{\"ev\":\"resume\",\"index\":";
      add_int b index;
      Buffer.add_string b ",\"slots\":";
      add_int b slots;
      Buffer.add_char b '}'
  | Trace.Session { round; index; budget } ->
      Buffer.add_string b "{\"ev\":\"session\",\"round\":";
      add_int b round;
      Buffer.add_string b ",\"index\":";
      add_int b index;
      Buffer.add_string b ",\"budget\":";
      add_int b budget;
      Buffer.add_char b '}'
  | Trace.Fault { round; fault; detail } ->
      Buffer.add_string b "{\"ev\":\"fault\",\"round\":";
      add_int b round;
      Buffer.add_string b ",\"fault\":";
      add_str b fault;
      Buffer.add_string b ",\"detail\":";
      add_str b detail;
      Buffer.add_char b '}'
  | Trace.Violation { round } ->
      Buffer.add_string b "{\"ev\":\"violation\",\"round\":";
      add_int b round;
      Buffer.add_char b '}'
  | Trace.Run_end { rounds; halted } ->
      Buffer.add_string b "{\"ev\":\"run_end\",\"rounds\":";
      add_int b rounds;
      Buffer.add_string b ",\"halted\":";
      add_bool b halted;
      Buffer.add_char b '}'
  | Trace.Supervise { tick; session; action; detail } ->
      Buffer.add_string b "{\"ev\":\"supervise\",\"tick\":";
      add_int b tick;
      Buffer.add_string b ",\"session\":";
      add_int b session;
      Buffer.add_string b ",\"action\":";
      add_str b action;
      Buffer.add_string b ",\"detail\":";
      add_str b detail;
      Buffer.add_char b '}'
  | Trace.Warm { server_class; enum; index; accepted; detail } ->
      Buffer.add_string b "{\"ev\":\"warm\",\"class\":";
      add_str b server_class;
      Buffer.add_string b ",\"enum\":";
      add_str b enum;
      Buffer.add_string b ",\"index\":";
      add_int b index;
      Buffer.add_string b ",\"accepted\":";
      add_bool b accepted;
      Buffer.add_string b ",\"detail\":";
      add_str b detail;
      Buffer.add_char b '}'

let event_to_json ev =
  let b = Buffer.create 128 in
  add_event b ev;
  Buffer.contents b

let to_lines events = List.map event_to_json events

(* One scratch buffer per sink closure: rendering reuses its storage
   across events instead of allocating a fresh string per event. *)
let sink oc =
  let scratch = Buffer.create 512 in
  fun ev ->
    Buffer.clear scratch;
    add_event scratch ev;
    Buffer.add_char scratch '\n';
    Buffer.output_buffer oc scratch

let buffer_sink b ev =
  add_event b ev;
  Buffer.add_char b '\n'

let write_events oc events =
  let s = sink oc in
  List.iter s events

let to_file path events =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      write_events oc events)

let with_file ?(buffer_bytes = 1 lsl 16) path f =
  let oc = open_out path in
  let b = Buffer.create buffer_bytes in
  let sink ev =
    add_event b ev;
    Buffer.add_char b '\n';
    if Buffer.length b >= buffer_bytes then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Buffer.output_buffer oc b;
      close_out oc)
    (fun () -> f sink)

(* Reading traces back.  parse_line inverts add_event exactly — the
   qcheck roundtrip in the test suite quantifies over arbitrary events
   — so any --trace file is a dataset. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> begin
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name)
    end

let int_field name = field name Json.int_opt
let str_field name = field name Json.string_opt
let bool_field name = field name Json.bool_opt

let party_of_string = function
  | "user" -> Some Trace.User
  | "server" -> Some Trace.Server
  | "world" -> Some Trace.World
  | _ -> None

let party_field name j =
  let* s = str_field name j in
  match party_of_string s with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "field %S is not a party" name)

let msg_field name j =
  let* s = str_field name j in
  match Msg.of_string s with
  | Ok m -> Ok m
  | Error e -> Error (Printf.sprintf "field %S: %s" name e)

let event_of_json j : (Trace.event, string) result =
  let* ev = str_field "ev" j in
  match ev with
  | "run_start" ->
      let* goal = str_field "goal" j in
      let* user = str_field "user" j in
      let* server = str_field "server" j in
      let* horizon = int_field "horizon" j in
      let* drain = int_field "drain" j in
      let* world_choice = int_field "world_choice" j in
      Ok (Trace.Run_start { goal; user; server; horizon; drain; world_choice })
  | "round_start" ->
      let* round = int_field "round" j in
      Ok (Trace.Round_start { round })
  | "emit" ->
      let* round = int_field "round" j in
      let* src = party_field "src" j in
      let* dst = party_field "dst" j in
      let* msg = msg_field "msg" j in
      Ok (Trace.Emit { round; src; dst; msg })
  | "halt" ->
      let* round = int_field "round" j in
      Ok (Trace.Halt { round })
  | "sense" ->
      let* round = int_field "round" j in
      let* sensor = str_field "sensor" j in
      let* positive = bool_field "positive" j in
      let* clock = int_field "clock" j in
      let* patience = int_field "patience" j in
      Ok (Trace.Sense { round; sensor; positive; clock; patience })
  | "switch" ->
      let* round = int_field "round" j in
      let* from_index = int_field "from" j in
      let* to_index = int_field "to" j in
      let* attempt = int_field "attempt" j in
      Ok (Trace.Switch { round; from_index; to_index; attempt })
  | "resume" ->
      let* index = int_field "index" j in
      let* slots = int_field "slots" j in
      Ok (Trace.Resume { index; slots })
  | "session" ->
      let* round = int_field "round" j in
      let* index = int_field "index" j in
      let* budget = int_field "budget" j in
      Ok (Trace.Session { round; index; budget })
  | "fault" ->
      let* round = int_field "round" j in
      let* fault = str_field "fault" j in
      let* detail = str_field "detail" j in
      Ok (Trace.Fault { round; fault; detail })
  | "violation" ->
      let* round = int_field "round" j in
      Ok (Trace.Violation { round })
  | "run_end" ->
      let* rounds = int_field "rounds" j in
      let* halted = bool_field "halted" j in
      Ok (Trace.Run_end { rounds; halted })
  | "supervise" ->
      let* tick = int_field "tick" j in
      let* session = int_field "session" j in
      let* action = str_field "action" j in
      let* detail = str_field "detail" j in
      Ok (Trace.Supervise { tick; session; action; detail })
  | "warm" ->
      let* server_class = str_field "class" j in
      let* enum = str_field "enum" j in
      let* index = int_field "index" j in
      let* accepted = bool_field "accepted" j in
      let* detail = str_field "detail" j in
      Ok (Trace.Warm { server_class; enum; index; accepted; detail })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let parse_line line =
  let* j = Json.parse line in
  event_of_json j

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
