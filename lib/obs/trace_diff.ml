open Goalcom
module W = Trace_wire

(* First-divergence trace diffing, event-kind-aware, shared by the test
   suite and the CLI (`goalcom trace diff`).  Comparison is on the
   serialized lines (the byte format is the contract the golden files
   pin down); when both sides parse, a walk of the wire bytes along the
   schema says *what* changed. *)

type divergence = {
  position : int;  (** 1-based line number of the first difference *)
  left : string option;  (** [None] = this side ended first *)
  right : string option;
  detail : string;  (** kind-aware explanation of the difference *)
}

(* A line's wire bytes, their kind name, and their fields as (JSONL
   name, value as text): strings raw, messages as Msg.to_string. *)
let wire_of_line line = Result.map Binary.event_to_string (Jsonl.parse_line line)
let kind_of_wire s = W.schema.(Char.code s.[0]).name
let kind_name ev = kind_of_wire (Binary.event_to_string ev)
let parties = Trace.[| User; Server; World |]

let fields s =
  let b = Bytes.unsafe_of_string s in
  let rec walk p = function
    | [] -> []
    | (name, (ty : W.field_type)) :: rest ->
        let text, q =
          match ty with
          | Int -> (string_of_int (Binary.int_at b p), Binary.varint_end b p)
          | Bool -> (string_of_bool (s.[p] = '\001'), p + 1)
          | Party -> (Trace.party_name parties.(Char.code s.[p]), p + 1)
          | Str ->
              let q = Binary.varint_end b p in
              (String.sub s q (Binary.varint_at b p), q + Binary.varint_at b p)
          | Msg -> (Msg.to_string (Binary.msg_at b p), Binary.skip_msg b p)
        in
        (name, text) :: walk q rest
  in
  walk 1 W.schema.(Char.code s.[0]).fields

let describe_pair left right =
  match (wire_of_line left, wire_of_line right) with
  | Ok a, Ok b ->
      let ka = kind_of_wire a and kb = kind_of_wire b in
      if ka <> kb then Printf.sprintf "event kinds differ: %s vs %s" ka kb
      else begin
        let differ (f, x) (_, y) =
          if x = y then [] else [ Printf.sprintf "%s %s vs %s" f x y ]
        in
        match List.concat (List.map2 differ (fields a) (fields b)) with
        | [] -> Printf.sprintf "%s events differ in serialization only" ka
        | ds -> Printf.sprintf "%s events differ: %s" ka (String.concat ", " ds)
      end
  | Error e, _ -> Printf.sprintf "left line does not parse: %s" e
  | _, Error e -> Printf.sprintf "right line does not parse: %s" e

let describe_tail ~ended ~continues line =
  match wire_of_line line with
  | Ok s ->
      Printf.sprintf "%s ends here; %s continues with a %s event" ended
        continues (kind_of_wire s)
  | Error _ ->
      Printf.sprintf "%s ends here; %s continues" ended continues

let lines left right =
  let rec go n left right =
    match (left, right) with
    | [], [] -> None
    | l :: _, [] ->
        Some
          {
            position = n;
            left = Some l;
            right = None;
            detail = describe_tail ~ended:"right" ~continues:"left" l;
          }
    | [], r :: _ ->
        Some
          {
            position = n;
            left = None;
            right = Some r;
            detail = describe_tail ~ended:"left" ~continues:"right" r;
          }
    | l :: ls, r :: rs ->
        if String.equal l r then go (n + 1) ls rs
        else
          Some
            {
              position = n;
              left = Some l;
              right = Some r;
              detail = describe_pair l r;
            }
  in
  go 1 left right

let events a b = lines (Jsonl.to_lines a) (Jsonl.to_lines b)

let pp ?(left_label = "left") ?(right_label = "right") ppf d =
  let side label = function
    | Some line -> Format.fprintf ppf "@,  %s: %s" label line
    | None -> Format.fprintf ppf "@,  %s: <end of trace>" label
  in
  Format.fprintf ppf "@[<v>first divergence at line %d (%s)" d.position
    d.detail;
  side left_label d.left;
  side right_label d.right;
  Format.fprintf ppf "@]"

let to_string ?left_label ?right_label d =
  Format.asprintf "%a" (pp ?left_label ?right_label) d
