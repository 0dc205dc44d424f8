(* A minimal JSON reader and printer for the observability layer's own
   files: the JSONL trace lines (Jsonl) and the committed BENCH_*.json
   baselines (Bench_gate).  Both vocabularies are produced by this
   repository, so the parser favours clear errors over streaming
   generality: whole value in memory, integers kept exact, objects as
   assoc lists in input order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse of string

let fail pos msg = raise (Parse (Printf.sprintf "%s at offset %d" msg pos))

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let peek pos = if pos < n then Some s.[pos] else None in
  let rec skip_ws pos =
    match peek pos with
    | Some (' ' | '\t' | '\n' | '\r') -> skip_ws (pos + 1)
    | _ -> pos
  in
  let expect pos c =
    match peek pos with
    | Some c' when c' = c -> pos + 1
    | _ -> fail pos (Printf.sprintf "expected %C" c)
  in
  let literal pos word value =
    let len = String.length word in
    if pos + len <= n && String.sub s pos len = word then (value, pos + len)
    else fail pos (Printf.sprintf "expected %s" word)
  in
  let hex pos c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail pos "bad hex digit"
  in
  (* Code points are emitted raw as single bytes by our writer (the
     traces are byte strings, not unicode text), so \uXXXX decodes to a
     byte when it fits and errors otherwise. *)
  let parse_string pos =
    let b = Buffer.create 16 in
    let rec go pos =
      match peek pos with
      | None -> fail pos "unterminated string"
      | Some '"' -> (Buffer.contents b, pos + 1)
      | Some '\\' -> begin
          match peek (pos + 1) with
          | Some '"' -> Buffer.add_char b '"'; go (pos + 2)
          | Some '\\' -> Buffer.add_char b '\\'; go (pos + 2)
          | Some '/' -> Buffer.add_char b '/'; go (pos + 2)
          | Some 'n' -> Buffer.add_char b '\n'; go (pos + 2)
          | Some 't' -> Buffer.add_char b '\t'; go (pos + 2)
          | Some 'r' -> Buffer.add_char b '\r'; go (pos + 2)
          | Some 'b' -> Buffer.add_char b '\b'; go (pos + 2)
          | Some 'f' -> Buffer.add_char b '\012'; go (pos + 2)
          | Some 'u' ->
              if pos + 5 >= n then fail pos "truncated unicode escape";
              let code =
                (hex pos s.[pos + 2] lsl 12)
                lor (hex pos s.[pos + 3] lsl 8)
                lor (hex pos s.[pos + 4] lsl 4)
                lor hex pos s.[pos + 5]
              in
              if code > 255 then fail pos "unicode escape beyond one byte";
              Buffer.add_char b (Char.chr code);
              go (pos + 6)
          | _ -> fail pos "unknown escape"
        end
      | Some c -> Buffer.add_char b c; go (pos + 1)
    in
    go pos
  in
  let parse_number pos =
    let stop = ref pos in
    let is_float = ref false in
    let continues c =
      match c with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' -> is_float := true; true
      | _ -> false
    in
    while !stop < n && continues s.[!stop] do incr stop done;
    let text = String.sub s pos (!stop - pos) in
    let v =
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail pos "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> begin
            (* An integer too wide for the OCaml int: keep the value. *)
            match float_of_string_opt text with
            | Some f -> Float f
            | None -> fail pos "bad number"
          end
    in
    (v, !stop)
  in
  let rec parse_value pos =
    let pos = skip_ws pos in
    match peek pos with
    | None -> fail pos "empty input"
    | Some 't' -> literal pos "true" (Bool true)
    | Some 'f' -> literal pos "false" (Bool false)
    | Some 'n' -> literal pos "null" Null
    | Some '"' -> begin
        let str, pos = parse_string (pos + 1) in
        (String str, pos)
      end
    | Some ('-' | '0' .. '9') -> parse_number pos
    | Some '[' -> begin
        let pos = skip_ws (pos + 1) in
        if peek pos = Some ']' then (List [], pos + 1)
        else begin
          let rec items acc pos =
            let v, pos = parse_value pos in
            let pos = skip_ws pos in
            match peek pos with
            | Some ',' -> items (v :: acc) (pos + 1)
            | Some ']' -> (List (List.rev (v :: acc)), pos + 1)
            | _ -> fail pos "expected ',' or ']'"
          in
          items [] pos
        end
      end
    | Some '{' -> begin
        let pos = skip_ws (pos + 1) in
        if peek pos = Some '}' then (Obj [], pos + 1)
        else begin
          let member pos =
            let pos = skip_ws pos in
            let pos = expect pos '"' in
            let key, pos = parse_string pos in
            let pos = expect (skip_ws pos) ':' in
            let v, pos = parse_value pos in
            ((key, v), pos)
          in
          let rec members acc pos =
            let kv, pos = member pos in
            let pos = skip_ws pos in
            match peek pos with
            | Some ',' -> members (kv :: acc) (pos + 1)
            | Some '}' -> (Obj (List.rev (kv :: acc)), pos + 1)
            | _ -> fail pos "expected ',' or '}'"
          in
          members [] pos
        end
      end
    | Some c -> fail pos (Printf.sprintf "unexpected %C" c)
  in
  match parse_value 0 with
  | v, pos ->
      let pos = skip_ws pos in
      if pos = n then Ok v
      else Error (Printf.sprintf "trailing input at offset %d" pos)
  | exception Parse msg -> Error msg

let of_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match parse contents with
  | Ok v -> Ok v
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let string_opt = function String s -> Some s | _ -> None
let int_opt = function Int i -> Some i | _ -> None
let bool_opt = function Bool b -> Some b | _ -> None

let number_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let list_opt = function List vs -> Some vs | _ -> None

(* Printing. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Names and details rarely need escaping: copy them whole when they
   do not.  Bytes >= 0x80 go out raw, which [parse] reads back byte for
   byte. *)
let add_escaped b s =
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

(* The shortest of %.15g / %.17g that reads back as the same float,
   with a ".0" when the digits alone would read back as an Int. *)
let float_text f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json.to_string: non-finite float %h" f);
  let short = Printf.sprintf "%.15g" f in
  let text =
    if float_of_string short = f then short else Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e') text then text
  else text ^ ".0"

(* A container whose members are all scalars prints on one line; any
   other puts one member per line, so a BENCH file reads as one metric
   per line. *)
let flat = function
  | List vs -> List.for_all (function List _ | Obj _ -> false | _ -> true) vs
  | Obj kvs ->
      List.for_all (function _, (List _ | Obj _) -> false | _ -> true) kvs
  | _ -> true

let to_string v =
  let b = Buffer.create 256 in
  let rec go indent v =
    let items opening closing add xs =
      (* An empty container is flat, so a broken one has members. *)
      let pad = indent ^ "  " in
      let first, sep, last =
        if flat v then ("", ", ", "")
        else ("\n" ^ pad, ",\n" ^ pad, "\n" ^ indent)
      in
      Buffer.add_char b opening;
      Buffer.add_string b first;
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b sep;
          add pad x)
        xs;
      Buffer.add_string b last;
      Buffer.add_char b closing
    in
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_text f)
    | String s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | List vs -> items '[' ']' go vs
    | Obj kvs ->
        items '{' '}'
          (fun pad (k, x) ->
            go pad (String k);
            Buffer.add_string b ": ";
            go pad x)
          kvs
  in
  go "" v;
  Buffer.contents b
