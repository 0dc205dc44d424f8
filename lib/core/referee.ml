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

(* The legacy list-predicate representations are kept distinct from
   [Incr] so that whole-history judgements ([decide_finite], [decider])
   can keep calling the user's predicate exactly once, preserving both
   cost and any effects the predicate performs. *)
type repr =
  | Incr of spawn
  | Finite_pred of (Msg.t list -> bool)  (* chronological, initial first *)
  | Compact_pred of (Msg.t list -> bool)  (* most recent first *)

type t = { name : string; finite_ : bool; repr : repr }

let name t = t.name
let is_finite t = t.finite_

let finite name decide = { name; finite_ = true; repr = Finite_pred decide }

let compact name acceptable =
  { name; finite_ = false; repr = Compact_pred acceptable }

let finite_incremental name ~init ~step =
  { name; finite_ = true; repr = Incr (Spawn { init; step }) }

let compact_incremental name ~init ~step =
  { name; finite_ = false; repr = Incr (Spawn { init; step }) }

(* The common finite-referee shape — accepted once some world view
   satisfies the predicate — needs only a seen-it bool.  [||] keeps the
   legacy call pattern: the predicate stops being consulted after the
   first hit, exactly like [List.exists]. *)
let finite_exists name p =
  let judged seen = if seen then (true, `Ok) else (false, `Violation) in
  finite_incremental name
    ~init:(fun v0 -> judged (p v0))
    ~step:(fun seen v -> judged (seen || p v))

let spawn_of_repr = function
  | Incr s -> s
  | Compact_pred acceptable ->
      (* State: world views most recent first.  The initial view is
         recorded without judging it — historically the 0-round prefix
         was never submitted to a compact predicate. *)
      Spawn
        {
          init = (fun v0 -> ([ v0 ], `Ok));
          step =
            (fun views v ->
              let views = v :: views in
              (views, verdict_of_bool (acceptable views)));
        }
  | Finite_pred decide ->
      (* State: world views most recent first; each step re-decides the
         reversed prefix.  O(n) per step — callers that only need the
         final verdict go through [decide_finite], which special-cases
         this representation. *)
      Spawn
        {
          init = (fun v0 -> ([ v0 ], verdict_of_bool (decide [ v0 ])));
          step =
            (fun views v ->
              let views = v :: views in
              (views, verdict_of_bool (decide (List.rev views))));
        }

(* [advance] updates the judge in place. *)
type judge =
  | Judge : { mutable s : 's; step : 's -> Msg.t -> 's * verdict } -> judge

let start t v0 =
  match spawn_of_repr t.repr with
  | Spawn { init; step } ->
      let s, verdict = init v0 in
      (Judge { s; step }, verdict)

let advance (Judge r) v =
  let s, verdict = r.step r.s v in
  r.s <- s;
  verdict

let step j v = (j, advance j v)

(* One fold over the rounds: prime with the initial world view, absorb
   one world view per round, keep the last verdict. *)
let final_verdict t history =
  let j, verdict = start t (History.initial_world_view history) in
  History.fold_rounds history
    ~f:(fun _ (r : History.Round.t) -> advance j r.world_view)
    ~init:verdict

let decide_finite t history =
  if not t.finite_ then invalid_arg "Referee.decide_finite: compact referee";
  match t.repr with
  | Finite_pred decide -> decide (History.world_views history)
  | _ -> final_verdict t history = `Ok

let decider t =
  if not t.finite_ then invalid_arg "Referee.decider: compact referee";
  match t.repr with
  | Finite_pred decide -> decide
  | repr -> (
      fun views ->
        match spawn_of_repr repr with
        | Spawn { init; step } ->
            let v0, rest =
              match views with
              | [] -> invalid_arg "Referee.decider: empty world-view list"
              | v0 :: rest -> (v0, rest)
            in
            let s, verdict = init v0 in
            let _, verdict =
              List.fold_left (fun (s, _) v -> step s v) (s, verdict) rest
            in
            verdict = `Ok)

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

(* Quadratic reference: judge every prefix from scratch.  For the
   compact-predicate representation this reconstructs the historical
   engine exactly (one predicate call per prefix, over a freshly built
   most-recent-first list); for incremental referees it replays a fresh
   judge per prefix.  Kept as the equivalence oracle of the qcheck
   suite and as the baseline the bench's compact-judge kernel measures
   the fold against. *)
let violations_prefix t history =
  if t.finite_ then violations t history
  else begin
    let n = History.length history in
    let rounds = Array.init n (History.round_exn history) in
    match t.repr with
    | Compact_pred acceptable ->
        let acc = ref [] in
        for i = n - 1 downto 0 do
          let views = ref [ History.initial_world_view history ] in
          for k = 0 to i do
            views := rounds.(k).History.Round.world_view :: !views
          done;
          if not (acceptable !views) then
            acc := rounds.(i).History.Round.index :: !acc
        done;
        !acc
    | repr -> (
        match spawn_of_repr repr with
        | Spawn { init; step } ->
            let acc = ref [] in
            for i = n - 1 downto 0 do
              let s = ref (fst (init (History.initial_world_view history))) in
              let verdict = ref (`Ok : verdict) in
              for k = 0 to i do
                let s', v = step !s rounds.(k).History.Round.world_view in
                s := s';
                verdict := v
              done;
              if !verdict = `Violation then
                acc := rounds.(i).History.Round.index :: !acc
            done;
            !acc)
  end
