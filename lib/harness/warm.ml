open Goalcom_automata
open Goalcom
module Json = Goalcom_obs.Json
module Jsonl = Goalcom_obs.Jsonl

type entry = {
  server_class : string;
  enum : string;
  index : int;
  budget : int;
}

(* Same hand-rolled JSONL discipline as lib/obs: a closed, flat record
   per line, written with the Jsonl escaper and read back through the
   Json reader, so `jq` and the trace tooling both take these files. *)

let entry_to_json e =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"class\":";
  Jsonl.add_str b e.server_class;
  Buffer.add_string b ",\"enum\":";
  Jsonl.add_str b e.enum;
  Buffer.add_string b ",\"index\":";
  Buffer.add_string b (string_of_int e.index);
  Buffer.add_string b ",\"budget\":";
  Buffer.add_string b (string_of_int e.budget);
  Buffer.add_char b '}';
  Buffer.contents b

let save path entries =
  Goalcom_prelude.File.write_atomic path
    (String.concat "" (List.map (fun e -> entry_to_json e ^ "\n") entries))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let entry_of_json j =
  let* server_class = field "class" Json.string_opt j in
  let* enum = field "enum" Json.string_opt j in
  let* index = field "index" Json.int_opt j in
  let* budget = field "budget" Json.int_opt j in
  Ok { server_class; enum; index; budget }

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let result =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go k acc =
              match input_line ic with
              | exception End_of_file -> Ok (List.rev acc)
              | line when String.trim line = "" -> go (k + 1) acc
              | line -> begin
                  match
                    let* j = Json.parse line in
                    entry_of_json j
                  with
                  | Ok e -> go (k + 1) (e :: acc)
                  | Error e -> Error (Printf.sprintf "line %d: %s" k e)
                end
            in
            go 1 [])
      in
      Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) result

let key_matches ~server_class ~enum e =
  String.equal e.server_class server_class && String.equal e.enum enum

let lookup entries ~server_class ~enum =
  List.fold_left
    (fun acc e -> if key_matches ~server_class ~enum e then Some e else acc)
    None entries

let record entries e =
  let replaced = ref false in
  let entries' =
    List.map
      (fun old ->
        if key_matches ~server_class:e.server_class ~enum:e.enum old then begin
          replaced := true;
          e
        end
        else old)
      entries
  in
  if !replaced then entries' else entries @ [ e ]

let of_race ~server_class ~enum (race : Universal.race) =
  {
    server_class;
    enum = Enum.name enum;
    index = race.Universal.winner_index;
    budget = max 1 race.Universal.winner_rounds;
  }

let emit_warm ~server_class ~enum_name ~index ~accepted ~detail =
  Trace.emit_warm (Trace.handle ()) ~server_class ~enum:enum_name ~index
    ~accepted ~detail

let hints ~enum ~server_class store =
  let enum_name = Enum.name enum in
  match store with
  | Error e ->
      emit_warm ~server_class ~enum_name ~index:(-1) ~accepted:false ~detail:e;
      []
  | Ok entries -> begin
      match lookup entries ~server_class ~enum:enum_name with
      | None -> [] (* the ordinary cold start; nothing to report *)
      | Some e ->
          let stale =
            if e.budget <= 0 then
              Some (Printf.sprintf "bad budget %d" e.budget)
            else if e.index < 0 then
              Some (Printf.sprintf "bad index %d" e.index)
            else begin
              match Enum.cardinality enum with
              | Some c when e.index >= c ->
                  Some
                    (Printf.sprintf "stale index %d (class has %d candidates)"
                       e.index c)
              | _ -> None
            end
          in
          (match stale with
          | Some detail ->
              emit_warm ~server_class ~enum_name ~index:e.index ~accepted:false
                ~detail;
              []
          | None ->
              emit_warm ~server_class ~enum_name ~index:e.index ~accepted:true
                ~detail:"hit";
              [ { Levin.index = e.index; budget = e.budget } ])
    end

let hinted_schedule ?schedule ~enum ~server_class store =
  let tail = match schedule with Some s -> s | None -> Levin.schedule () in
  match hints ~enum ~server_class store with
  | [] -> tail
  | hs -> Levin.hinted ~hints:hs tail
