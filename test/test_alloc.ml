(* The allocation-lean round keeps the old behaviour:
   - the maze plan table holds exactly what BFS would compute;
   - the decode-free predicates agree with the decoding ones, and a
     dialect shares the message when it changes no symbol;
   - state updated in place stays per instance: two instances of one
     strategy, sensor or referee, stepped interleaved, each behave as
     if run alone, and a restart equals a fresh instance. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_servers
open Goalcom_goals
module Fault = Goalcom_faults.Fault
module Chaos = Goalcom_session.Chaos

(* --- maze plans = BFS --------------------------------------------------- *)

let check_plans what (s : Maze.scenario) =
  let g = s.Maze.grid in
  for y = 0 to g.Grid.height - 1 do
    for x = 0 to g.Grid.width - 1 do
      if Grid.is_free g (x, y) then
        Alcotest.(check (option (list int)))
          (Printf.sprintf "%s: plan from (%d,%d)" what x y)
          (Grid.bfs_path g (x, y) s.Maze.target)
          (Maze.plan s (x, y))
    done
  done

let test_plans_scenarios () =
  (* E03/E04's open 8x8 room and E18's corridor and open room. *)
  check_plans "e03/e04"
    (Maze.scenario ~width:8 ~height:8 ~start:(0, 0) ~target:(5, 4) ());
  check_plans "e18 corridor"
    (Maze.scenario
       ~blocked:[ (0, 1); (1, 1); (2, 1); (3, 1); (0, 2); (1, 2) ]
       ~width:5 ~height:3 ~start:(0, 0) ~target:(2, 2) ());
  check_plans "e18 open room"
    (Maze.scenario ~width:4 ~height:4 ~start:(0, 0) ~target:(3, 3) ())

let test_plan_off_grid () =
  let s = Maze.scenario ~blocked:[ (1, 1) ] ~width:3 ~height:3 ~start:(0, 0)
      ~target:(2, 2) () in
  Alcotest.check_raises "blocked cell raises as bfs_path"
    (Invalid_argument "Grid.bfs_path: bad source") (fun () ->
      ignore (Maze.plan s (1, 1)));
  Alcotest.check_raises "out-of-bounds cell raises as bfs_path"
    (Invalid_argument "Grid.bfs_path: bad source") (fun () ->
      ignore (Maze.plan s (3, 0)))

(* A random grid up to 6x6 with up to a third of its cells blocked; a
   start and target are drawn among the free cells, and the case is
   kept only when the target is reachable (what [Maze.scenario]
   demands). *)
let grid_case_gen =
  QCheck.Gen.(
    let* width = int_range 1 6 in
    let* height = int_range 1 6 in
    let cells = List.init (width * height) (fun i -> (i mod width, i / width)) in
    let* blocked =
      list_size (int_bound (width * height / 3)) (oneofl cells)
    in
    let free = List.filter (fun c -> not (List.mem c blocked)) cells in
    if free = [] then return None
    else
      let* start = oneofl free in
      let* target = oneofl free in
      return (Some (width, height, blocked, start, target)))

let print_grid_case = function
  | None -> "no free cell"
  | Some (w, h, blocked, (sx, sy), (tx, ty)) ->
      Printf.sprintf "%dx%d blocked=[%s] start=(%d,%d) target=(%d,%d)" w h
        (String.concat ";"
           (List.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) blocked))
        sx sy tx ty

let prop_plans_bfs =
  QCheck.Test.make ~count:300 ~name:"maze plan table = Grid.bfs_path"
    (QCheck.make ~print:print_grid_case grid_case_gen) (function
    | None -> true
    | Some (width, height, blocked, start, target) -> (
        let grid = Grid.make ~width ~height ~blocked () in
        match Grid.bfs_path grid start target with
        | None -> QCheck.assume_fail ()
        | Some _ ->
            let s = Maze.scenario ~blocked ~width ~height ~start ~target () in
            List.for_all
              (fun (x, y) ->
                (not (Grid.is_free grid (x, y)))
                || Maze.plan s (x, y) = Grid.bfs_path grid (x, y) target)
              (List.init (width * height) (fun i -> (i mod width, i / width)))))

(* --- decode-free predicates = decoding ones ---------------------------- *)

(* The predicates as they were written before they matched messages
   directly: decode through Codec, then compare. *)
let page_matched_oracle view =
  match Codec.pair_of_ints_opt view with
  | Some (doc, page) -> doc <> [] && doc = page
  | None -> false

let arrived_oracle view =
  match Codec.pos_pair_opt view with
  | Some (pos, target) -> pos = target
  | None -> false

let leaf_gen =
  QCheck.Gen.(
    oneof
      [
        return Msg.Silence;
        map (fun s -> Msg.Sym s) (int_bound 7);
        map (fun n -> Msg.Int n) (int_range (-1) 3);
        map (fun s -> Msg.Text s) (oneofl [ ""; "a"; "#1" ]);
      ])

let rec any_gen depth =
  QCheck.Gen.(
    if depth = 0 then leaf_gen
    else
      frequency
        [
          (2, leaf_gen);
          (2, map2 (fun a b -> Msg.Pair (a, b)) (any_gen (depth - 1)) (any_gen (depth - 1)));
          (1, map (fun l -> Msg.Seq l) (list_size (int_bound 4) (any_gen (depth - 1))));
        ])

(* A list of small [Int]s, sometimes with one element replaced by a
   [Sym] or [Text] (a malformed page). *)
let ints_gen =
  QCheck.Gen.(
    let* xs = list_size (int_bound 4) (int_bound 2) in
    let items = List.map (fun x -> Msg.Int x) xs in
    let* spoil = int_bound 4 in
    match (spoil, items) with
    | 0, _ :: rest -> return (Msg.Sym 0 :: rest)
    | 1, _ :: _ -> return (items @ [ Msg.Text "x" ])
    | _ -> return items)

let page_view_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          let* doc = ints_gen in
          let* same = bool in
          let* page = if same then return doc else ints_gen in
          return (Msg.Pair (Msg.Seq doc, Msg.Seq page)) );
        (1, map (fun d -> Msg.Pair (Msg.Seq d, Msg.Int 0)) ints_gen);
        (1, map (fun d -> Msg.Seq d) ints_gen);
        (1, any_gen 3);
      ])

let coord_gen = QCheck.Gen.(map (fun n -> Msg.Int n) (int_bound 1))

let pos_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun x y -> Msg.Pair (x, y)) coord_gen coord_gen);
        (1, map (fun x -> Msg.Pair (x, Msg.Sym 0)) coord_gen);
        (1, coord_gen);
        (1, return (Msg.Text "pos"));
        (1, map (fun x -> Msg.Seq [ x; x ]) coord_gen);
      ])

let maze_view_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          let* p = pos_gen in
          let* same = bool in
          let* t = if same then return p else pos_gen in
          return (Msg.Pair (p, t)) );
        (1, any_gen 3);
      ])

let prop_page_matched =
  QCheck.Test.make ~count:2000 ~name:"Printing.page_matched = decoding oracle"
    (QCheck.make ~print:Msg.to_string page_view_gen) (fun view ->
      Printing.page_matched view = page_matched_oracle view)

let prop_arrived =
  QCheck.Test.make ~count:2000 ~name:"Maze.arrived = decoding oracle"
    (QCheck.make ~print:Msg.to_string maze_view_gen) (fun view ->
      Maze.arrived view = arrived_oracle view)

let test_predicate_cases () =
  let ints = Codec.ints in
  let check what expected view =
    Alcotest.(check bool) (what ^ " (oracle)") expected (page_matched_oracle view);
    Alcotest.(check bool) what expected (Printing.page_matched view)
  in
  check "matched" true (Codec.pair_of_ints [ 1; 2 ] [ 1; 2 ]);
  check "empty document" false (Codec.pair_of_ints [] []);
  check "short page" false (Codec.pair_of_ints [ 1; 2 ] [ 1 ]);
  check "sym in page" false
    (Msg.Pair (ints [ 1 ], Msg.Seq [ Msg.Sym 1 ]));
  check "sym in both" false
    (Msg.Pair (Msg.Seq [ Msg.Sym 1 ], Msg.Seq [ Msg.Sym 1 ]));
  check "text" false (Msg.Text "[1]");
  let check what expected view =
    Alcotest.(check bool) (what ^ " (oracle)") expected (arrived_oracle view);
    Alcotest.(check bool) what expected (Maze.arrived view)
  in
  check "arrived" true (Codec.pos_pair (2, 1) (2, 1));
  check "away" false (Codec.pos_pair (2, 1) (1, 2));
  check "short pair" false (Msg.Pair (Codec.pos (1, 1), Msg.Int 1));
  check "sym coordinate" false
    (Msg.Pair (Msg.Pair (Msg.Sym 1, Msg.Int 1), Msg.Pair (Msg.Sym 1, Msg.Int 1)));
  check "text" false (Msg.Text "(1,1)")

let dialect_gen =
  QCheck.Gen.(
    let* size = int_range 1 6 in
    let* code = int_bound (Dialect.factorial size - 1) in
    return (Option.get (Dialect.of_lehmer ~size code)))

let prop_dialect_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"Dialect_msg: decode (encode m) = m"
    (QCheck.make
       ~print:(fun (d, m) ->
         Format.asprintf "%a %s" Dialect.pp d (Msg.to_string m))
       QCheck.Gen.(pair dialect_gen (any_gen 3)))
    (fun (d, m) ->
      Msg.equal (Dialect_msg.decode d (Dialect_msg.encode d m)) m
      && Msg.equal (Dialect_msg.encode d (Dialect_msg.decode d m)) m)

let prop_dialect_sharing =
  QCheck.Test.make ~count:1000
    ~name:"Dialect_msg: a message no symbol changes is returned as is"
    (QCheck.make
       ~print:(fun (d, m) ->
         Format.asprintf "%a %s" Dialect.pp d (Msg.to_string m))
       QCheck.Gen.(pair dialect_gen (any_gen 3)))
    (fun (d, m) ->
      let shared f =
        let m' = f d m in
        (not (Msg.equal m' m)) || m' == m
      in
      shared Dialect_msg.encode && shared Dialect_msg.decode)

let test_dialect_sharing_cases () =
  let d = Dialect.rotation ~size:4 1 in
  let page = Codec.pair_of_ints [ 1; 2 ] [ 3 ] in
  Alcotest.(check bool) "no symbol: same message" true
    (Dialect_msg.encode d page == page);
  let out_of_range = Msg.Pair (Msg.Sym 9, Msg.Int 1) in
  Alcotest.(check bool) "out-of-range symbol: same message" true
    (Dialect_msg.encode d out_of_range == out_of_range);
  let identity = Dialect.identity 4 in
  let cmd = Msg.Seq [ Msg.Sym 0; Msg.Pair (Msg.Sym 3, Msg.Int 2) ] in
  Alcotest.(check bool) "identity dialect: same message" true
    (Dialect_msg.decode identity cmd == cmd);
  let encoded = Dialect_msg.encode d cmd in
  Alcotest.(check string) "changed symbols are rebuilt" "[#1;(#0,2)]"
    (Msg.to_string encoded);
  (match (cmd, encoded) with
  | Msg.Seq [ _; Msg.Pair (_, i) ], Msg.Seq [ _; Msg.Pair (_, i') ] ->
      Alcotest.(check bool) "unchanged leaves are shared" true (i == i')
  | _ -> Alcotest.fail "unexpected shape")

(* --- in-place state stays per instance ---------------------------------- *)

(* Two input streams: [a.(i)] feeds instance A's i-th step, [b.(i)]
   instance B's.  Running A and B interleaved must give the outputs of
   running each alone. *)
let check_interleaved what ~eq ~spawn ~step a b =
  let alone xs =
    let st = spawn () in
    Array.map (step st) xs
  in
  let sa = spawn () and sb = spawn () in
  let both =
    Array.map2
      (fun x y ->
        let rx = step sa x in
        (rx, step sb y))
      a b
  in
  Alcotest.(check bool) (what ^ ": A interleaved = A alone") true
    (Array.for_all2 eq (alone a) (Array.map fst both));
  Alcotest.(check bool) (what ^ ": B interleaved = B alone") true
    (Array.for_all2 eq (alone b) (Array.map snd both))

let act_equal (x : Io.User.act) (y : Io.User.act) =
  Msg.equal x.Io.User.to_server y.Io.User.to_server
  && Msg.equal x.Io.User.to_world y.Io.User.to_world
  && x.Io.User.halt = y.Io.User.halt

let server_act_equal (x : Io.Server.act) (y : Io.Server.act) =
  Msg.equal x.Io.Server.to_user y.Io.Server.to_user
  && Msg.equal x.Io.Server.to_world y.Io.Server.to_world

(* A user instance stepped with its own generator, so two instances
   never share draws. *)
let user_runner strategy seed =
  let spawn () = (Strategy.Instance.create strategy, Rng.make seed) in
  let step (inst, rng) obs = Strategy.Instance.step rng inst obs in
  (spawn, step)

let user_obs from_world i =
  { Io.User.from_server = Msg.Silence; from_world; round = i + 1 }

(* World broadcasts a printing user sees: mostly a blank, partial or
   dirty page, rarely (1 in 40) the document printed, so the sensing
   window sees both verdicts. *)
let printing_stream seed n =
  let rng = Rng.make seed in
  let doc = [ 4; 2 ] in
  Array.init n (fun i ->
      let page =
        match Rng.int rng 40 with
        | 0 -> doc
        | 1 | 2 | 3 -> [ Rng.int rng 5 ]
        | k -> if k mod 2 = 0 then [] else [ 4 ]
      in
      user_obs (Codec.pair_of_ints doc page) i)

(* Plant readings, in and out of Control's bound of 10; half the time
   the reading repeats, so runs of a frozen world trip the wedge
   detector. *)
let plant_stream seed n =
  let rng = Rng.make seed in
  let plant = ref 0 in
  Array.init n (fun i ->
      if Rng.bool rng then plant := Rng.int rng 31 - 15;
      user_obs (Msg.Int !plant) i)

let printing_universal () =
  Printing.universal_user ~alphabet:4 (Dialect.enumerate_rotations ~size:4)

(* Every option of [compact] that keeps state: tolerant sensing (a
   stateful sensor), retries and the wedge detector. *)
let control_universal () =
  Universal.compact ~grace:4 ~retries:1 ~wedge_after:5
    ~enum:(Control.user_class ~alphabet:4 (Dialect.enumerate_rotations ~size:4))
    ~sensing:(Sensing.tolerant ~window:4 ~threshold:2 (Control.sensing ()))
    ()

let test_universal_finite_interleaved () =
  let spawn, step = user_runner (printing_universal ()) 5 in
  check_interleaved "Universal.finite" ~eq:act_equal ~spawn ~step
    (printing_stream 1 300) (printing_stream 2 300)

let test_universal_compact_interleaved () =
  let spawn, step = user_runner (control_universal ()) 5 in
  check_interleaved "Universal.compact" ~eq:act_equal ~spawn ~step
    (plant_stream 1 400) (plant_stream 2 400)

let events stream =
  Array.map
    (fun (obs : Io.User.obs) ->
      {
        View.round = obs.Io.User.round;
        from_server = obs.Io.User.from_server;
        from_world = obs.Io.User.from_world;
        to_server = Msg.Silence;
        to_world = Msg.Silence;
        halted = false;
      })
    stream

let check_sensor what t a b =
  check_interleaved what ~eq:( = ) ~spawn:(fun () -> Sensing.start t)
    ~step:(fun st e -> Sensing.verdict (Sensing.observe st e))
    (events a) (events b)

let test_sensing_interleaved () =
  check_sensor "Sensing.of_recent" Printing.sensing (printing_stream 3 200)
    (printing_stream 4 200);
  check_sensor "Sensing.tolerant"
    (Sensing.tolerant ~window:5 ~threshold:2 (Control.sensing ()))
    (plant_stream 3 200) (plant_stream 4 200)

let test_referee_interleaved () =
  let referee = Referee.finite_exists "page-matched" Printing.page_matched in
  let views seed = Array.map (fun (o : Io.User.obs) -> o.Io.User.from_world) (printing_stream seed 60) in
  let a = views 5 and b = views 6 in
  (* Start each judge on a view that does not match, so the verdict
     sequence depends on the steps. *)
  let v0 = Codec.pair_of_ints [ 4; 2 ] [] in
  check_interleaved "Referee.finite_exists" ~eq:( = )
    ~spawn:(fun () -> ref (fst (Referee.start referee v0)))
    ~step:(fun j v ->
      let j', verdict = Referee.step !j v in
      j := j';
      verdict)
    a b

(* After [k] rounds, [restart] must give back what [init] gave: the
   next [n] acts equal a fresh instance's first [n]. *)
let check_restart what ~eq strategy stream ~k =
  let module I = Strategy.Instance in
  let fresh = I.create strategy in
  let rng = Rng.make 11 in
  let expected = Array.map (fun obs -> I.step rng fresh obs) stream in
  let used = I.create strategy in
  let rng = Rng.make 12 in
  Array.iter (fun obs -> ignore (I.step rng used obs)) (Array.sub stream 0 k);
  I.restart used;
  let rng = Rng.make 11 in
  let got = Array.map (fun obs -> I.step rng used obs) stream in
  Alcotest.(check bool)
    (Printf.sprintf "%s: restart after %d rounds = fresh" what k)
    true
    (Array.for_all2 eq expected got)

let server_stream seed n =
  let rng = Rng.make seed in
  Array.init n (fun _ ->
      {
        Io.Server.from_user =
          (match Rng.int rng 3 with
          | 0 -> Msg.Pair (Msg.Sym Printing.print_cmd, Msg.Int (Rng.int rng 5))
          | 1 -> Msg.Sym Printing.clear_cmd
          | _ -> Msg.Silence);
        from_world = Msg.Silence;
      })

let test_restart () =
  List.iter
    (fun k ->
      check_restart "Universal.finite" ~eq:act_equal (printing_universal ())
        (printing_stream 7 120) ~k;
      check_restart "Universal.compact" ~eq:act_equal (control_universal ())
        (plant_stream 7 200) ~k)
    [ 1; 9; 40 ];
  let printer = Printing.printer ~alphabet:4 in
  List.iter
    (fun (what, fault) ->
      List.iter
        (fun k ->
          check_restart what ~eq:server_act_equal (Fault.apply fault printer)
            (server_stream 8 80) ~k)
        [ 3; 17 ])
    [
      ("Fault.crash_restart", Fault.crash_restart ~every:5);
      ("Fault.burst", Fault.burst ~p_enter:0.3 ~p_exit:0.3 ~drop_prob:0.5);
      ("Chaos.crash_storm", Chaos.crash_storm ~every:4 ~lo:2 ~hi:30);
      ("Chaos.burst_window", Chaos.burst_window ~prob:0.5 ~lo:2 ~hi:30);
    ]

(* --- the round frame's words, layer by layer ------------------------- *)

(* Minor words per call of [f] over 1,000 calls, after 1,000 warm-up
   calls, net of the measurement's own float. *)
let words_per_call f =
  let run () =
    for _ = 1 to 1000 do
      f ()
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  run ();
  let w2 = Gc.minor_words () in
  ((w2 -. w1) -. (w1 -. w0)) /. 1000.

(* Each part of an untraced Control round, driven alone with inputs
   built beforehand: the world's step and view, the server under a
   non-identity and under the identity dialect, the compact universal
   user once settled, and the referee's live judge.  What the Summary
   stepper adds on top is its three obs records (4 + 3 + 3 words);
   "untraced step allocation" in test_telemetry pins the whole round. *)
let test_round_frame_words () =
  let alphabet = 4 in
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  let d = Enum.get_exn dialects 2 in
  let goal = Control.goal ~alphabet () in
  let rng = Rng.make 11 in
  let i = ref 0 in
  let next a =
    incr i;
    a.(!i land 1)
  in
  let world = World.Instance.create (List.hd goal.Goal.worlds) in
  let world_obs =
    Array.map
      (fun c -> { Io.World.from_user = Msg.Silence; from_server = Msg.Sym c })
      [| Control.left_cmd; Control.right_cmd |]
  in
  let server = Strategy.Instance.create (Control.server ~alphabet d) in
  let identity_server =
    Strategy.Instance.create (Control.server ~alphabet (Enum.get_exn dialects 0))
  in
  let server_obs =
    Array.map
      (fun c ->
        {
          Io.Server.from_user = Dialect_msg.encode d (Msg.Sym c);
          from_world = Msg.Silence;
        })
      [| Control.left_cmd; Control.right_cmd |]
  in
  let plain_server_obs =
    Array.map
      (fun c -> { Io.Server.from_user = Msg.Sym c; from_world = Msg.Silence })
      [| Control.left_cmd; Control.right_cmd |]
  in
  let user =
    Strategy.Instance.create (Control.universal_user ~alphabet dialects)
  in
  let user_obs = Array.map (fun p -> user_obs (Msg.Int p) 0) [| 3; -2 |] in
  let live = Outcome.Live.create goal (Msg.Int 0) in
  let views = [| Msg.Int 3; Msg.Int 30 |] in
  let parts =
    [
      ("world step", 0., fun () -> ignore (World.Instance.step rng world (next world_obs)));
      ("world view", 0., fun () -> ignore (World.Instance.view world));
      ( "dialect-wrapped server step",
        3.,
        fun () -> ignore (Strategy.Instance.step rng server (next server_obs)) );
      ( "identity-dialect server step",
        0.,
        fun () ->
          ignore
            (Strategy.Instance.step rng identity_server (next plain_server_obs))
      );
      ( "Universal.compact step",
        7.,
        fun () -> ignore (Strategy.Instance.step rng user (next user_obs)) );
      ("Outcome.Live.step", 0., fun () -> Outcome.Live.step live ~round:1 (next views));
    ]
  in
  List.iter
    (fun (what, pinned, f) ->
      Alcotest.(check (float 0.)) (what ^ ": words per step") pinned
        (words_per_call f))
    parts

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "alloc"
    [
      ( "maze plans",
        [
          Alcotest.test_case "E03/E04 and E18 scenarios" `Quick test_plans_scenarios;
          Alcotest.test_case "cells off the table" `Quick test_plan_off_grid;
        ]
        @ qc [ prop_plans_bfs ] );
      ( "decode-free",
        [
          Alcotest.test_case "predicate cases" `Quick test_predicate_cases;
          Alcotest.test_case "dialect sharing cases" `Quick test_dialect_sharing_cases;
        ]
        @ qc
            [
              prop_page_matched;
              prop_arrived;
              prop_dialect_roundtrip;
              prop_dialect_sharing;
            ] );
      ( "in-place state",
        [
          Alcotest.test_case "Universal.finite interleaved" `Quick
            test_universal_finite_interleaved;
          Alcotest.test_case "Universal.compact interleaved" `Quick
            test_universal_compact_interleaved;
          Alcotest.test_case "sensing interleaved" `Quick test_sensing_interleaved;
          Alcotest.test_case "referee interleaved" `Quick test_referee_interleaved;
          Alcotest.test_case "restart = fresh instance" `Quick test_restart;
        ] );
      ( "round frame",
        [ Alcotest.test_case "words per layer" `Quick test_round_frame_words ] );
    ]
