(* Tests for lib/par and the parallel entry points built on it:
   pool internals (work stealing, exception propagation, reuse),
   Trial.run_par's bit-identical contract (qcheck, field for field),
   the domain-local trace-sink guard, merged parallel traces against
   Trace's invariants, and the Levin racer's winner agreement with the
   sequential universal construction. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_harness
module Pool = Goalcom_par.Pool

(* --- pool internals ------------------------------------------------ *)

let test_pool_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let squares = Pool.map_array pool (fun i -> i * i) xs in
      Alcotest.(check (array int)) "task-order results"
        (Array.map (fun i -> i * i) xs)
        squares)

let test_pool_skewed () =
  (* Wildly uneven task costs: the early chunks hold all the slow
     tasks, so idle participants must steal to finish in time.  The
     assertion is on order, which completion order must never leak
     into. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Pool.map_list pool
          (fun i ->
            if i < 4 then Unix.sleepf 0.02;
            i)
          (List.init 32 Fun.id)
      in
      Alcotest.(check (list int)) "order despite skew" (List.init 32 Fun.id)
        results)

exception Boom of int

let test_pool_exception () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.check_raises "task exception re-raised" (Boom 13) (fun () ->
          ignore
            (Pool.run pool
               (Array.init 24 (fun i () ->
                    if i = 13 then raise (Boom 13) else i))));
      (* A failed batch must not poison the pool. *)
      let after = Pool.map_list pool (fun i -> i + 1) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "pool reusable after failure" [ 2; 3; 4 ]
        after)

let test_pool_sequential_width () =
  (* jobs = 1 is the exact sequential path: no domains, index order. *)
  let trace = ref [] in
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "width" 1 (Pool.jobs pool);
      let results =
        Pool.run pool
          (Array.init 8 (fun i () ->
               trace := i :: !trace;
               i))
      in
      Alcotest.(check (array int)) "results" (Array.init 8 Fun.id) results);
  Alcotest.(check (list int)) "index execution order" (List.init 8 Fun.id)
    (List.rev !trace)

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:2 in
  Alcotest.(check int) "jobs" 2 (Pool.jobs pool);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  let raised =
    try
      ignore (Pool.run pool [| (fun () -> ()) |]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "run after shutdown rejected" true raised

let test_pool_validation () =
  let invalid f = try f () |> ignore; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "create ~jobs:0" true
    (invalid (fun () -> Pool.create ~jobs:0));
  Alcotest.(check bool) "set_default_jobs 0" true
    (invalid (fun () -> Pool.set_default_jobs 0))

let test_default_jobs () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 3;
      Alcotest.(check int) "set wins" 3 (Pool.default_jobs ()))

(* --- Trial.run_par ------------------------------------------------- *)

(* The toy goal from the Trial tests: flaky succeeds with probability
   1/2 per run, so both successes and failures (and the RNG) are
   exercised. *)
let world =
  World.make ~name:"w"
    ~init:(fun () -> false)
    ~step:(fun _rng got (obs : Io.World.obs) ->
      let got = got || obs.from_user = Msg.Int 1 in
      (got, Io.World.say_user (Msg.Text (if got then "done" else "waiting"))))
    ~view:(fun got -> Msg.Text (if got then "done" else "waiting"))

let goal =
  Goal.make ~name:"toy" ~worlds:[ world ]
    ~referee:(Helpers.finite_pred "done" (fun views -> List.mem (Msg.Text "done") views))

let flaky =
  Strategy.make ~name:"flaky"
    ~init:(fun () -> `Undecided)
    ~step:(fun rng state (obs : Io.User.obs) ->
      if obs.from_world = Msg.Text "done" then (state, Io.User.halt_act)
      else begin
        match state with
        | `Undecided ->
            if Rng.bool rng then (`Win, Io.User.say_world (Msg.Int 1))
            else (`Lose, Io.User.silent)
        | `Win -> (`Win, Io.User.say_world (Msg.Int 1))
        | `Lose -> (`Lose, Io.User.silent)
      end)

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let config = Exec.config ~horizon:30 ()

let prop_run_par_matches_run =
  QCheck.Test.make ~count:20
    ~name:"Trial.run_par ~jobs:k = Trial.run, field for field (k in 1,2,4,8)"
    QCheck.(pair (1 -- 10) (int_bound 10_000))
    (fun (trials, seed) ->
      let reference =
        Trial.run ~config ~trials ~seed ~goal ~user:flaky ~server:idle_server ()
      in
      List.for_all
        (fun jobs ->
          Trial.equal reference
            (Trial.run_par ~config ~jobs ~trials ~seed ~goal ~user:flaky
               ~server:idle_server ()))
        [ 1; 2; 4; 8 ])

(* The replayed stream of a parallel batch folds to the same overhead
   ledger as the sequential batch's stream. *)
let test_run_par_span_ledger () =
  let traced run =
    let recorder = Goalcom_obs.Recorder.create () in
    let result = run (Goalcom_obs.Recorder.sink recorder) in
    (result, Goalcom_obs.Span.ledger_of_events (Goalcom_obs.Recorder.events recorder))
  in
  let seq, seq_ledger =
    traced (fun sink ->
        Trial.run ~config ~sink ~trials:6 ~seed:5 ~goal ~user:flaky
          ~server:idle_server ())
  in
  let par, par_ledger =
    traced (fun sink ->
        Trial.run_par ~config ~sink ~jobs:4 ~trials:6 ~seed:5 ~goal ~user:flaky
          ~server:idle_server ())
  in
  Alcotest.(check bool) "results equal" true (Trial.equal seq par);
  Alcotest.(check int) "one run per trial" 6 seq_ledger.Goalcom_obs.Span.runs;
  Alcotest.(check bool) "ledgers equal" true (seq_ledger = par_ledger)

let test_run_par_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun seed ->
          let seq =
            Trial.run ~config ~trials:7 ~seed ~goal ~user:flaky
              ~server:idle_server ()
          in
          let par =
            Trial.run_par ~config ~pool ~trials:7 ~seed ~goal ~user:flaky
              ~server:idle_server ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d across a reused pool" seed)
            true (Trial.equal seq par))
        [ 11; 12; 13 ])

(* --- the domain-local sink guard ----------------------------------- *)

let test_sink_guard () =
  (* While a multi-domain batch is in flight, a domain that is not a
     batch participant must not install an ambient sink (the events it
     would capture belong to per-trial recorders).  Participants and
     idle-time installs stay legal. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let started = Atomic.make false in
      let release = Atomic.make false in
      let verdict = Atomic.make `Pending in
      let foreign =
        Domain.spawn (fun () ->
            while not (Atomic.get started) do
              Domain.cpu_relax ()
            done;
            let outcome =
              try
                Trace.set_sink (Some Trace.null);
                `No_raise
              with
              | Invalid_argument _ -> `Raised
              | _ -> `Other
            in
            Atomic.set verdict outcome;
            Atomic.set release true)
      in
      ignore
        (Pool.run pool
           (Array.init 2 (fun _ () ->
                Atomic.set started true;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done)));
      Domain.join foreign;
      Alcotest.(check bool) "foreign install rejected mid-batch" true
        (Atomic.get verdict = `Raised));
  (* Once the batch has drained, installs work again. *)
  Trace.set_sink (Some Trace.null);
  Trace.set_sink None

(* --- merged parallel traces ---------------------------------------- *)

let printing_alphabet = 4
let printing_dialects = Dialect.enumerate_rotations ~size:printing_alphabet
let printing_goal = Printing.goal ~docs:[ [ 3; 1; 4 ] ] ~alphabet:printing_alphabet ()

let printing_server =
  Printing.server ~alphabet:printing_alphabet (Enum.get_exn printing_dialects 2)

let test_parallel_trace_golden () =
  let module Obs = Goalcom_obs in
  let config = Exec.config ~horizon:500 () in
  let record run =
    let r = Obs.Recorder.create () in
    run ~sink:(Obs.Recorder.sink r);
    Obs.Recorder.events r
  in
  let user () = Printing.universal_user ~alphabet:printing_alphabet printing_dialects in
  let seq =
    record (fun ~sink ->
        ignore
          (Trial.run ~config ~sink ~trials:6 ~seed:3 ~goal:printing_goal
             ~user:(user ()) ~server:printing_server ()))
  in
  let par =
    record (fun ~sink ->
        ignore
          (Trial.run_par ~config ~sink ~jobs:4 ~trials:6 ~seed:3
             ~goal:printing_goal ~user:(user ()) ~server:printing_server ()))
  in
  Alcotest.(check bool) "trace non-empty" true (seq <> []);
  (match Obs.Trace_diff.events seq par with
  | None -> ()
  | Some d ->
      Alcotest.failf "parallel trace diverges from sequential:\n%s"
        (Obs.Trace_diff.to_string ~left_label:"sequential"
           ~right_label:"parallel" d));
  (match Trace.check Trace.standard par with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace breaks invariants: %s" e);
  Alcotest.(check int) "one run per trial" 6
    (List.length (Trace.split_runs par))

(* --- the Levin racer ----------------------------------------------- *)

(* A 1-cell-wide corridor: a wrong-rotation dialect cannot move the
   agent off the start cell (only one rotation maps the BFS-planned
   direction to a traversable one), so exactly one candidate ever
   senses positive — which makes the sequential winner provably equal
   to the racer's minimal-positive-slot winner. *)
let corridor =
  Maze.scenario
    ~blocked:[ (0, 1); (1, 1); (2, 1); (3, 1); (0, 2); (1, 2) ]
    ~width:5 ~height:3 ~start:(0, 0) ~target:(2, 2) ()

let maze_alphabet = 6
let maze_dialects = Dialect.enumerate_rotations ~size:maze_alphabet
let corridor_goal = Maze.goal ~scenarios:[ corridor ] ~alphabet:maze_alphabet ()

let corridor_enum =
  Maze.user_class ~alphabet:maze_alphabet ~scenario:corridor maze_dialects

let race_schedule () = Levin.round_robin ~budget:32 ~width:maze_alphabet ()

let sequential_winner ~server ~seed =
  let stats = Universal.new_stats () in
  let user =
    Maze.universal_user ~schedule:(race_schedule ()) ~stats
      ~alphabet:maze_alphabet ~scenario:corridor maze_dialects
  in
  ignore
    (Exec.run
       ~config:(Exec.config ~horizon:400 ())
       ~goal:corridor_goal ~user ~server (Rng.make seed));
  stats.Universal.current_index

let test_race_matches_sequential () =
  List.iter
    (fun dialect_idx ->
      let server =
        Maze.server ~alphabet:maze_alphabet
          (Enum.get_exn maze_dialects dialect_idx)
      in
      List.iter
        (fun seed ->
          let expected = sequential_winner ~server ~seed in
          List.iter
            (fun jobs ->
              match
                Universal.finite_par ~schedule:(race_schedule ())
                  ~max_slots:maze_alphabet ~jobs ~enum:corridor_enum
                  ~sensing:Maze.sensing ~goal:corridor_goal ~server ~seed ()
              with
              | None ->
                  Alcotest.failf "server %d seed %d jobs %d: no winner"
                    dialect_idx seed jobs
              | Some r ->
                  Alcotest.(check int)
                    (Printf.sprintf "server %d seed %d jobs %d" dialect_idx
                       seed jobs)
                    expected r.Universal.winner_index)
            [ 1; 2; 4 ])
        [ 1; 7 ])
    [ 0; 1; 2; 3; 4; 5 ]

let test_race_jobs_independent () =
  (* Under the default geometric Levin schedule the winner (and its
     whole history) must still be independent of the domain count. *)
  let server = Maze.server ~alphabet:maze_alphabet (Enum.get_exn maze_dialects 2) in
  let race jobs =
    Universal.finite_par ~jobs ~enum:corridor_enum ~sensing:Maze.sensing
      ~goal:corridor_goal ~server ~seed:5 ()
  in
  match race 1 with
  | None -> Alcotest.fail "no winner at jobs 1"
  | Some base ->
      List.iter
        (fun jobs ->
          match race jobs with
          | None -> Alcotest.failf "no winner at jobs %d" jobs
          | Some r ->
              Alcotest.(check (list int))
                (Printf.sprintf "winner fields at jobs %d" jobs)
                [
                  base.Universal.winner_slot; base.Universal.winner_index;
                  base.Universal.winner_budget; base.Universal.winner_rounds;
                  History.length base.Universal.history;
                ]
                [
                  r.Universal.winner_slot; r.Universal.winner_index;
                  r.Universal.winner_budget; r.Universal.winner_rounds;
                  History.length r.Universal.history;
                ])
        [ 2; 4 ]

let test_race_no_winner () =
  (* A 2-round budget cannot walk the corridor, so no probe senses
     positive and the race reports None — at any width. *)
  let server = Maze.server ~alphabet:maze_alphabet (Enum.get_exn maze_dialects 1) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "budget-starved race at jobs %d" jobs)
        true
        (Universal.finite_par
           ~schedule:(Levin.round_robin ~budget:2 ~width:maze_alphabet ())
           ~max_slots:maze_alphabet ~jobs ~enum:corridor_enum
           ~sensing:Maze.sensing ~goal:corridor_goal ~server ~seed:1 ()
        = None))
    [ 1; 4 ]

let test_race_validation () =
  let invalid f = try f () |> ignore; false with Invalid_argument _ -> true in
  let server = Maze.server ~alphabet:maze_alphabet (Enum.get_exn maze_dialects 1) in
  Alcotest.(check bool) "max_slots 0" true
    (invalid (fun () ->
         Universal.finite_par ~max_slots:0 ~enum:corridor_enum
           ~sensing:Maze.sensing ~goal:corridor_goal ~server ~seed:1 ()));
  Alcotest.(check bool) "jobs 0" true
    (invalid (fun () ->
         Universal.finite_par ~jobs:0 ~enum:corridor_enum ~sensing:Maze.sensing
           ~goal:corridor_goal ~server ~seed:1 ()))

(* --- Sweep --------------------------------------------------------- *)

let test_sweep_map () =
  let xs = List.init 20 Fun.id in
  let f i = i * 7 in
  Alcotest.(check (list int)) "parallel = sequential" (List.map f xs)
    (Sweep.map ~jobs:4 f xs);
  Alcotest.(check (list (pair int int))) "product row-major"
    [ (1, 10); (1, 20); (2, 10); (2, 20) ]
    (Sweep.product [ 1; 2 ] [ 10; 20 ])

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "order" `Quick test_pool_order;
          Alcotest.test_case "skewed costs steal" `Quick test_pool_skewed;
          Alcotest.test_case "exceptions" `Quick test_pool_exception;
          Alcotest.test_case "jobs=1 sequential" `Quick test_pool_sequential_width;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
        ] );
      ( "trial",
        QCheck_alcotest.to_alcotest prop_run_par_matches_run
        :: [
             Alcotest.test_case "span ledger = run's" `Quick
               test_run_par_span_ledger;
             Alcotest.test_case "pool reuse" `Quick test_run_par_pool_reuse;
           ] );
      ( "trace",
        [
          Alcotest.test_case "foreign sink guard" `Quick test_sink_guard;
          Alcotest.test_case "parallel trace golden" `Quick
            test_parallel_trace_golden;
        ] );
      ( "race",
        [
          Alcotest.test_case "winner = sequential" `Quick
            test_race_matches_sequential;
          Alcotest.test_case "jobs independent" `Quick test_race_jobs_independent;
          Alcotest.test_case "no winner" `Quick test_race_no_winner;
          Alcotest.test_case "validation" `Quick test_race_validation;
        ] );
      ("sweep", [ Alcotest.test_case "map/product" `Quick test_sweep_map ]);
    ]
