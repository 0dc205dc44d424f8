open Goalcom
open Goalcom_automata
open Goalcom_servers

let print_cmd = 0
let clear_cmd = 1
let min_alphabet = 3

let check_alphabet alphabet =
  if alphabet < min_alphabet then
    invalid_arg "Printing: alphabet must have at least 3 symbols"

let page_msg page = Codec.ints (List.rev page)

(* The printer's state is its page, most-recent-character-first so
   appending is O(1) (it is reversed when rendered), paired with the
   act that shows it to the world — rendered only when the page
   changes. *)
let render_page page = (page, Io.Server.say_world (page_msg page))

let clear_page ((page, _) as st) =
  match page with [] -> st | _ -> render_page []

let printer ~alphabet =
  check_alphabet alphabet;
  Strategy.make ~name:"printer"
    ~init:(fun () -> render_page [])
    ~step:(fun _rng ((page, _) as st) (obs : Io.Server.obs) ->
      let ((_, act) as st) =
        match obs.from_user with
        | Msg.Pair (Msg.Sym c, Msg.Int ch) when c = print_cmd ->
            render_page (ch :: page)
        | Msg.Sym c when c = clear_cmd -> clear_page st
        | Msg.Pair (Msg.Sym c, _) when c = clear_cmd -> clear_page st
        | _ -> st
      in
      (st, act))

let server ~alphabet d = Transform.with_dialect d (printer ~alphabet)

let server_class ~alphabet dialects =
  Transform.dialect_class ~base:(printer ~alphabet) dialects

let check_doc doc =
  if doc = [] then invalid_arg "Printing: empty document";
  List.iter
    (fun c ->
      if c < 0 || c > 255 then invalid_arg "Printing: character out of range")
    doc

(* The world's state is the page it last saw, paired with the act that
   broadcasts (document, page); the view is that act's message.  Both
   are re-rendered only when the printer shows a different page. *)
let world_of_doc doc =
  check_doc doc;
  let doc_msg = Codec.ints doc in
  let render page =
    (page, Io.World.say_user (Msg.Pair (doc_msg, Codec.ints page)))
  in
  World.make
    ~name:(Printf.sprintf "print-world%s" (Msg.to_string doc_msg))
    ~init:(fun () -> render [])
    ~step:(fun _rng ((page, _) as st) (obs : Io.World.obs) ->
      let ((_, act) as st) =
        if Codec.ints_equal obs.from_server page then st
        else
          match Codec.ints_opt obs.from_server with
          | Some chars -> render chars
          | None -> st
      in
      (st, act))
    ~view:(fun (_, act) -> act.Io.World.to_user)

let default_docs = [ [ 3; 1; 4; 1; 5 ]; [ 2; 7 ]; [ 9; 9; 0; 4; 2; 1 ] ]

(* Producing a physical page is monotone — once the document has been
   printed, the goal is accomplished even if later commands deface the
   page (you cannot unprint paper).  Judging "the page equalled the
   document at some round" keeps the goal forgiving and makes the
   obvious sensing function (below) safe even with destructive
   wrong-dialect messages still in flight when the user halts. *)
let page_matched view =
  (* [Codec.pair_of_ints_opt view = Some (doc, doc)] with [doc <> []],
     matched on the message itself: both lists equal element by
     element, every element an [Int]. *)
  let rec same doc page =
    match (doc, page) with
    | [], [] -> true
    | Msg.Int a :: doc, Msg.Int b :: page -> a = b && same doc page
    | _ -> false
  in
  match view with
  | Msg.Pair (Msg.Seq (_ :: _ as doc), Msg.Seq page) -> same doc page
  | _ -> false

let referee = Referee.finite_exists "document-was-printed" page_matched

let goal ?(docs = default_docs) ~alphabet () =
  check_alphabet alphabet;
  Goal.make
    ~name:(Printf.sprintf "printing(alphabet=%d)" alphabet)
    ~worlds:(List.map world_of_doc docs)
    ~referee

(* The informed user's protocol, for the printer speaking dialect [d]:
   wait for the world's (document, page) broadcast; clear a dirty page;
   print one character per round; then verify via the broadcast and
   retry from scratch if the page fails to match (so the strategy also
   recovers from garbage printed by earlier, wrong-dialect sessions). *)
type phase =
  | Wait_doc
  | Printing_rest of int list
  | Verifying of int

let verify_patience = 6

(* [from_world] is decoded only in the phases that read it: printing
   ignores the broadcast, and verification needs only {!page_matched}. *)
let informed_user ~alphabet d =
  check_alphabet alphabet;
  let encode m = Dialect_msg.encode d m in
  (* [encode (Pair (Sym print_cmd, Int ch))], with the symbol encoded
     once: a dialect leaves [Int]s alone. *)
  let print_sym = encode (Msg.Sym print_cmd) in
  let send_print ch = Io.User.say_server (Msg.Pair (print_sym, Msg.Int ch)) in
  let send_clear = Io.User.say_server (encode (Msg.Sym clear_cmd)) in
  Strategy.make
    ~name:(Printf.sprintf "print-user@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> Wait_doc)
    ~step:(fun _rng phase (obs : Io.User.obs) ->
      match phase with
      | Wait_doc -> begin
          match Codec.pair_of_ints_opt obs.from_world with
          | None -> (Wait_doc, Io.User.silent)
          | Some (doc, page) ->
              if doc = page && doc <> [] then (Wait_doc, Io.User.halt_act)
              else if page <> [] then (Wait_doc, send_clear)
              else begin
                match doc with
                | [] -> (Wait_doc, Io.User.silent)
                | ch :: rest -> (Printing_rest rest, send_print ch)
              end
        end
      | Printing_rest (ch :: rest) -> (Printing_rest rest, send_print ch)
      | Printing_rest [] -> (Verifying 0, Io.User.silent)
      | Verifying _ when page_matched obs.from_world ->
          (Verifying 0, Io.User.halt_act)
      | Verifying k ->
          if k >= verify_patience then (Wait_doc, Io.User.silent)
          else (Verifying (k + 1), Io.User.silent))

let user_class ~alphabet dialects =
  Enum.map
    ~name:(Printf.sprintf "print-users(%s)" (Enum.name dialects))
    (fun d -> informed_user ~alphabet d)
    dialects

(* The match is judged over a bounded recent window so each evaluation
   is O(window), not O(history).  Still safe: a positive implies the
   page matched at some round.  Still viable: once the informed user
   prints the document the match is observed (and acted upon by the
   universal constructions) well within the window. *)
let sensing_window = 16

let sensing =
  Sensing.of_recent ~name:"page-matched-doc" ~window:sensing_window (fun e ->
      page_matched e.View.from_world)

let universal_user ?schedule ?checkpoint ?stats ~alphabet dialects =
  Universal.finite ?schedule ?checkpoint ?stats
    ~enum:(user_class ~alphabet dialects)
    ~sensing ()
