open Goalcom
open Goalcom_automata
open Goalcom_servers

let min_alphabet = Grid.num_directions

let check_alphabet alphabet =
  if alphabet < min_alphabet then
    invalid_arg "Maze: alphabet must have at least 4 symbols"

(* The driver's acts, one per direction: immutable, so every driver
   shares them. *)
let moves =
  Array.init Grid.num_directions (fun d -> Io.Server.say_world (Msg.Sym d))

let driver ~alphabet =
  check_alphabet alphabet;
  Strategy.stateless ~name:"maze-driver" (fun (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Sym d when d >= 0 && d < Grid.num_directions -> moves.(d)
      | _ -> Io.Server.silent)

let server ~alphabet d = Transform.with_dialect d (driver ~alphabet)

let server_class ~alphabet dialects =
  Transform.dialect_class ~base:(driver ~alphabet) dialects

type scenario = {
  grid : Grid.t;
  start : Grid.pos;
  target : Grid.pos;
  plans : int list option array;
}

let cell grid (x, y) = (y * grid.Grid.width) + x

(* [plans.(cell p)] is [Grid.bfs_path grid p target] for every free
   cell [p] ([None] for blocked cells, which are never looked up).
   Immutable once built, so a scenario is safe to share across
   domains. *)
let scenario ?blocked ~width ~height ~start ~target () =
  let grid = Grid.make ~width ~height ?blocked () in
  if not (Grid.is_free grid start) then invalid_arg "Maze.scenario: bad start";
  if not (Grid.is_free grid target) then invalid_arg "Maze.scenario: bad target";
  let plans =
    Array.init (width * height) (fun i ->
        let p = (i mod width, i / width) in
        if Grid.is_free grid p then Grid.bfs_path grid p target else None)
  in
  if plans.(cell grid start) = None then
    invalid_arg "Maze.scenario: target unreachable";
  { grid; start; target; plans }

let plan s pos =
  if Grid.is_free s.grid pos then s.plans.(cell s.grid pos)
  else Grid.bfs_path s.grid pos s.target

(* The world's state is the agent's position, paired with the act that
   broadcasts (position, target); the view is that act's message.  Both
   are re-rendered only when a move changes the position. *)
let world_of_scenario s =
  let render pos = (pos, Io.World.say_user (Codec.pos_pair pos s.target)) in
  World.make
    ~name:
      (Printf.sprintf "maze-world(%dx%d,%d walls)" s.grid.Grid.width
         s.grid.Grid.height
         (List.length s.grid.Grid.blocked))
    ~init:(fun () -> render s.start)
    ~step:(fun _rng ((pos, _) as st) (obs : Io.World.obs) ->
      let ((_, act) as st) =
        match obs.from_server with
        | Msg.Sym d when d >= 0 && d < Grid.num_directions ->
            let ((x', y') as pos') = Grid.move s.grid pos d in
            let x, y = pos in
            if x' = x && y' = y then st else render pos'
        | _ -> st
      in
      (st, act))
    ~view:(fun (_, act) -> act.Io.World.to_user)

(* [Codec.pos_pair_opt view = Some (p, p)], matched on the message
   itself. *)
let arrived = function
  | Msg.Pair (Msg.Pair (Msg.Int x, Msg.Int y), Msg.Pair (Msg.Int x', Msg.Int y'))
    ->
      x = x' && y = y'
  | _ -> false

let referee = Referee.finite_exists "target-was-reached" arrived

let goal ~scenarios ~alphabet () =
  check_alphabet alphabet;
  if scenarios = [] then invalid_arg "Maze.goal: no scenarios";
  Goal.make
    ~name:(Printf.sprintf "maze(alphabet=%d)" alphabet)
    ~worlds:(List.map world_of_scenario scenarios)
    ~referee

(* The informed user plans a BFS path from the broadcast position and
   emits it one direction per round; when the plan is exhausted and the
   (lagging) broadcast still shows the agent away from the target it
   replans — which also recovers from moves garbled by earlier
   wrong-dialect sessions of a universal run. *)
type phase = Planless | Executing of int list | Settling of int

let settle_patience = 3

let informed_user ~alphabet ~scenario:s d =
  check_alphabet alphabet;
  let sends =
    Array.init Grid.num_directions (fun dir ->
        Io.User.say_server (Dialect_msg.encode d (Msg.Sym dir)))
  in
  let send dir = sends.(dir) in
  (* Only the planless phase reads the broadcast beyond {!arrived}; a
     plan towards the scenario's own target comes from its table. *)
  let replan from_world =
    match Codec.pos_pair_opt from_world with
    | None -> (Planless, Io.User.silent)
    | Some (pos, target) -> begin
        let path =
          if target = s.target then plan s pos else Grid.bfs_path s.grid pos target
        in
        match path with
        | Some (dir :: rest) -> (Executing rest, send dir)
        | Some [] | None -> (Planless, Io.User.silent)
      end
  in
  Strategy.make
    ~name:(Printf.sprintf "maze-user@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> Planless)
    ~step:(fun _rng phase (obs : Io.User.obs) ->
      if arrived obs.from_world then (phase, Io.User.halt_act)
      else begin
        match phase with
        | Planless -> replan obs.from_world
        | Executing (dir :: rest) -> (Executing rest, send dir)
        | Executing [] -> (Settling 0, Io.User.silent)
        | Settling k ->
            if k >= settle_patience then (Planless, Io.User.silent)
            else (Settling (k + 1), Io.User.silent)
      end)

let user_class ~alphabet ~scenario:s dialects =
  Enum.map
    ~name:(Printf.sprintf "maze-users(%s)" (Enum.name dialects))
    (fun d -> informed_user ~alphabet ~scenario:s d)
    dialects

(* Bounded-window scan: cheap per round, still safe (a positive means
   the target was reached) and viable (arrival is acted on within the
   window). *)
let sensing_window = 12

let sensing =
  Sensing.of_recent ~name:"target-reached" ~window:sensing_window (fun e ->
      arrived e.View.from_world)

let universal_user ?schedule ?stats ~alphabet ~scenario:s dialects =
  Universal.finite ?schedule ?stats
    ~enum:(user_class ~alphabet ~scenario:s dialects)
    ~sensing ()
