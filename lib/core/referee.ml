type verdict = [ `Ok | `Violation ]

let verdict_of_bool ok = if ok then `Ok else `Violation

(* A spawnable incremental judge: [init] consumes the initial world view
   and yields the empty-prefix verdict, [step] one round's world view.
   The state type is existential so referees of different state shapes
   live in one [t]. *)
type spawn =
  | Spawn : {
      init : Msg.t -> 's * verdict;
      step : 's -> Msg.t -> 's * verdict;
    }
      -> spawn

type t = { name : string; finite_ : bool; spawn : spawn }

let name t = t.name
let is_finite t = t.finite_

let finite_incremental name ~init ~step =
  { name; finite_ = true; spawn = Spawn { init; step } }

let compact_incremental name ~init ~step =
  { name; finite_ = false; spawn = Spawn { init; step } }

(* The common finite-referee shape — accepted once some world view
   satisfies the predicate — needs only a seen-it bool.  [||] stops
   consulting the predicate after the first hit, like [List.exists]. *)
let finite_exists name p =
  let judged seen = if seen then (true, `Ok) else (false, `Violation) in
  finite_incremental name
    ~init:(fun v0 -> judged (p v0))
    ~step:(fun seen v -> judged (seen || p v))

(* [advance] updates the judge in place. *)
type judge =
  | Judge : { mutable s : 's; step : 's -> Msg.t -> 's * verdict } -> judge

let start t v0 =
  match t.spawn with
  | Spawn { init; step } ->
      let s, verdict = init v0 in
      (Judge { s; step }, verdict)

let advance (Judge r) v =
  let s, verdict = r.step r.s v in
  r.s <- s;
  verdict

let step j v = (j, advance j v)

let decide_finite t history =
  if not t.finite_ then invalid_arg "Referee.decide_finite: compact referee";
  (* One fold over the rounds: prime with the initial world view, absorb
     one world view per round, keep the last verdict. *)
  let j, verdict = start t (History.initial_world_view history) in
  History.fold_rounds history
    ~f:(fun _ (r : History.Round.t) -> advance j r.world_view)
    ~init:verdict
  = `Ok

let decider t =
  if not t.finite_ then invalid_arg "Referee.decider: compact referee";
  function
  | [] -> invalid_arg "Referee.decider: empty world-view list"
  | v0 :: rest ->
      let j, verdict = start t v0 in
      List.fold_left (fun _ v -> advance j v) verdict rest = `Ok

let violations t history =
  if t.finite_ then
    if decide_finite t history then [] else [ History.length history ]
  else begin
    (* Single O(n) fold: the init verdict (empty prefix) is discarded,
       each round's verdict judges the prefix ending there. *)
    let j, _ = start t (History.initial_world_view history) in
    History.fold_rounds history
      ~f:(fun acc (r : History.Round.t) ->
        if advance j r.world_view = `Violation then r.index :: acc else acc)
      ~init:[]
    |> List.rev
  end
