(* Helpers shared by several test executables: dune links every
   non-test module of this directory into each of them. *)

open Goalcom

(* A history's rounds as a chronological list — the view History itself
   does not offer, rebuilt on its fold for tests that compare whole
   runs. *)
let history_rounds h =
  List.rev (History.fold_rounds h ~init:[] ~f:(fun acc r -> r :: acc))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [hay] with the first occurrence of [needle] replaced by [by].
   @raise Not_found if [needle] does not occur. *)
let replace_first hay needle ~by =
  let nh = String.length hay and nn = String.length needle in
  let rec find i =
    if i + nn > nh then raise Not_found
    else if String.sub hay i nn = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub hay 0 i ^ by ^ String.sub hay (i + nn) (nh - i - nn)

(* --- Fuzzing spec parsers -------------------------------------------- *)

(* Inputs for a spec parser: arbitrary bytes, strings over the
   grammar's own characters (and a few hostile ones), and valid specs
   after a few random edits — inserts, cut slices, repeated slices, or
   two specs glued by a separator. *)
let spec_fuzz_gen ~valid =
  let open QCheck.Gen in
  let grammar =
    let own = String.concat "" valid in
    let extra = "0123456789+-:,. eEnaixX_\t\000\255" in
    let cs = own ^ extra in
    map (String.get cs) (int_bound (String.length cs - 1))
  in
  let edit s =
    let n = String.length s in
    int_bound n >>= fun i ->
    int_bound (n - i) >>= fun len ->
    grammar >>= fun c ->
    oneofl
      [
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.sub s 0 i ^ String.sub s (i + len) (n - i - len);
        String.sub s 0 (i + len) ^ String.sub s i (n - i);
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let mutated =
    oneofl valid >>= fun s ->
    oneofl valid >>= fun t ->
    oneofl [ ""; "+"; ":"; ","; "++" ] >>= fun sep ->
    bool >>= fun glue ->
    int_range 1 4 >>= fun k -> edits k (if glue then s ^ sep ^ t else s)
  in
  frequency
    [
      (1, string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 40));
      (1, string_size ~gen:grammar (0 -- 40));
      (4, mutated);
    ]

(* A spec parser's contract under fuzzing: it answers [Ok] or [Error],
   or raises [Invalid_argument], and never any other exception; it
   answers within [limit_s] seconds; and [accepted] holds of every
   value it returns. *)
let parser_total ?(limit_s = 1.) ~accepted parse s =
  let t0 = Unix.gettimeofday () in
  let ok =
    match parse s with
    | Ok v -> accepted v
    | Error _ -> true
    | exception Invalid_argument _ -> true
    | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e)
  in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > limit_s then QCheck.Test.fail_reportf "%S took %.3f s" s dt;
  ok

(* --- Oracles: the list forms of views, referees and sensors ---------- *)

(* The user's view as a list of events, most recent first: the
   whole-view form a sensing predicate reads, rebuilt on
   [View.fold_events]. *)
module View_list = struct
  type t = { rev : View.event list; len : int }

  let empty = { rev = []; len = 0 }
  let extend t e = { rev = e :: t.rev; len = t.len + 1 }
  let length t = t.len
  let events t = List.rev t.rev
  let events_rev t = t.rev
  let latest t = match t.rev with [] -> None | e :: _ -> Some e
  let last_n n t = List.rev (Goalcom_prelude.Listx.take n t.rev)

  (* The view as it was [k] rounds ago. *)
  let drop_latest k t =
    let rec go k rev =
      if k <= 0 then rev else match rev with [] -> [] | _ :: r -> go (k - 1) r
    in
    { rev = go k t.rev; len = max 0 (t.len - max 0 k) }

  let of_history h = View.fold_events h ~init:empty ~f:extend

  (* Views after round 1, 2, ..., in order. *)
  let prefixes h =
    List.rev
      (snd
         (View.fold_events h ~init:(empty, []) ~f:(fun (view, acc) e ->
              let view = extend view e in
              (view, view :: acc))))
end

let verdict_of_bool b = if b then Sensing.Positive else Sensing.Negative

(* A sensor from a whole-view predicate: its state is the view itself,
   and each round re-applies the predicate to the extended view. *)
let of_view_predicate ~name p =
  Sensing.incremental ~name
    ~init:(fun () -> (View_list.empty, verdict_of_bool (p View_list.empty)))
    ~step:(fun view e ->
      let view = View_list.extend view e in
      (view, verdict_of_bool (p view)))

(* A sensor's verdict on a whole view: a fresh instance folded over the
   view's events. *)
let sense sensor view =
  Sensing.verdict
    (List.fold_left Sensing.observe (Sensing.start sensor)
       (View_list.events view))

(* A finite referee deciding the chronological world views (initial
   first) with a list predicate: the judge keeps the prefix and
   re-decides it every round. *)
let finite_pred name decide =
  Referee.finite_incremental name
    ~init:(fun v0 -> ([ v0 ], Referee.verdict_of_bool (decide [ v0 ])))
    ~step:(fun views v ->
      let views = v :: views in
      (views, Referee.verdict_of_bool (decide (List.rev views))))

(* A compact referee judging each prefix with a predicate on its world
   views, most recent first; the initial view is kept but its zero-round
   prefix is never judged. *)
let compact_pred name acceptable =
  Referee.compact_incremental name
    ~init:(fun v0 -> ([ v0 ], `Ok))
    ~step:(fun views v ->
      let views = v :: views in
      (views, Referee.verdict_of_bool (acceptable views)))

(* Quadratic reference for [Referee.violations]: every prefix is judged
   by a fresh judge replayed from the initial world view. *)
let violations_prefix r h =
  if Referee.is_finite r then Referee.violations r h
  else
    let rounds = history_rounds h in
    let v0 = History.initial_world_view h in
    List.filteri
      (fun i _ ->
        let j, _ = Referee.start r v0 in
        let verdict = ref `Ok in
        List.iteri
          (fun k (round : History.Round.t) ->
            if k <= i then verdict := Referee.advance j round.world_view)
          rounds;
        !verdict = `Violation)
      rounds
    |> List.map (fun (round : History.Round.t) -> round.index)
