(* Tests for the experiment harness: trial runner semantics and the
   experiment registry. *)

open Goalcom
open Goalcom_prelude
open Goalcom_harness

(* A deterministic toy goal for Trial tests. *)
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

let winner =
  Strategy.make ~name:"winner"
    ~init:(fun () -> false)
    ~step:(fun _rng sent (obs : Io.User.obs) ->
      if obs.from_world = Msg.Text "done" then (sent, Io.User.halt_act)
      else (true, Io.User.say_world (Msg.Int 1)))

let loser =
  Strategy.stateless ~name:"loser" (fun (_ : Io.User.obs) -> Io.User.silent)

let flaky =
  (* Succeeds with probability 1/2 per run. *)
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

let test_trial_all_succeed () =
  let r = Trial.run ~config ~trials:5 ~seed:1 ~goal ~user:winner ~server:idle_server () in
  Alcotest.(check int) "successes" 5 r.Trial.successes;
  Alcotest.(check (float 1e-9)) "rate" 1.0 r.Trial.success_rate;
  Alcotest.(check int) "rounds recorded" 5 (List.length r.Trial.rounds_to_success);
  Alcotest.(check bool) "mean sane" true (r.Trial.mean_rounds > 0.)

let test_trial_all_fail () =
  let r = Trial.run ~config ~trials:4 ~seed:2 ~goal ~user:loser ~server:idle_server () in
  Alcotest.(check int) "successes" 0 r.Trial.successes;
  Alcotest.(check bool) "mean is nan" true (Float.is_nan r.Trial.mean_rounds)

let test_trial_flaky_rate () =
  let r =
    Trial.run ~config ~trials:60 ~seed:3 ~goal ~user:flaky ~server:idle_server ()
  in
  Alcotest.(check bool) "rate near 1/2" true
    (Float.abs (r.Trial.success_rate -. 0.5) < 0.2)

let test_trial_deterministic () =
  let r1 = Trial.run ~config ~trials:10 ~seed:4 ~goal ~user:flaky ~server:idle_server () in
  let r2 = Trial.run ~config ~trials:10 ~seed:4 ~goal ~user:flaky ~server:idle_server () in
  Alcotest.(check int) "same successes" r1.Trial.successes r2.Trial.successes

let test_trial_success_rate () =
  let rate =
    Trial.success_rate ~config ~trials:5 ~seed:8 ~goal ~user:winner
      ~server:idle_server ()
  in
  Alcotest.(check (float 1e-9)) "always succeeds" 1.0 rate

(* Per-run counts come from folding the batch's event stream with
   Span: one run per trial, each halted, with rounds and user traffic
   charged — and recording the stream does not perturb the trials. *)
let test_trial_span () =
  let module Span = Goalcom_obs.Span in
  let recorder = Goalcom_obs.Recorder.create () in
  let r =
    Trial.run ~config ~sink:(Goalcom_obs.Recorder.sink recorder) ~trials:3
      ~seed:5 ~goal ~user:winner ~server:idle_server ()
  in
  let runs = Span.of_events (Goalcom_obs.Recorder.events recorder) in
  Alcotest.(check int) "one run per trial" 3 (List.length runs);
  Alcotest.(check bool) "halt per trial" true
    (List.for_all (fun run -> run.Span.halted) runs);
  Alcotest.(check bool) "rounds counted" true
    (List.for_all (fun run -> run.Span.rounds > 0) runs);
  let ledger = Span.ledger runs in
  Alcotest.(check int) "ledger halted runs" 3 ledger.Span.halted_runs;
  Alcotest.(check bool) "user spoke" true
    (List.exists (fun c -> c.Span.cand_user_msgs > 0) ledger.Span.candidates);
  let plain =
    Trial.run ~config ~trials:3 ~seed:5 ~goal ~user:winner ~server:idle_server ()
  in
  Alcotest.(check int) "the sink doesn't perturb the run" plain.Trial.successes
    r.Trial.successes

let test_trial_validation () =
  Alcotest.check_raises "trials"
    (Invalid_argument "Trial.run: trials must be positive (got 0)")
    (fun () ->
      ignore (Trial.run ~config ~trials:0 ~seed:1 ~goal ~user:winner ~server:idle_server ()));
  Alcotest.check_raises "run_par trials"
    (Invalid_argument "Trial.run_par: trials must be positive (got -3)")
    (fun () ->
      ignore
        (Trial.run_par ~config ~trials:(-3) ~seed:1 ~goal ~user:winner
           ~server:idle_server ()));
  Alcotest.check_raises "run_par jobs"
    (Invalid_argument "Trial.run_par: jobs must be positive (got 0)")
    (fun () ->
      ignore
        (Trial.run_par ~config ~jobs:0 ~trials:2 ~seed:1 ~goal ~user:winner
           ~server:idle_server ()))

let test_registry_complete () =
  Alcotest.(check int) "nineteen experiments" 19 (List.length Experiment.all);
  List.iteri
    (fun i (e : Experiment.t) ->
      Alcotest.(check string) "ordered ids" (Printf.sprintf "e%d" (i + 1)) e.id)
    Experiment.all

let test_registry_find () =
  (match Experiment.find "E3" with
  | Some e -> Alcotest.(check string) "case-insensitive" "e3" e.Experiment.id
  | None -> Alcotest.fail "e3 missing");
  Alcotest.(check bool) "unknown" true (Experiment.find "e99" = None)

let test_registry_kinds () =
  let kinds = List.map (fun (e : Experiment.t) -> e.kind) Experiment.all in
  Alcotest.(check int) "eleven tables" 11
    (List.length (List.filter (fun k -> k = Experiment.Table) kinds));
  Alcotest.(check int) "eight figures" 8
    (List.length (List.filter (fun k -> k = Experiment.Figure) kinds));
  Alcotest.(check string) "to_string" "figure"
    (Experiment.kind_to_string Experiment.Figure)

let test_run_e8_shape () =
  (* E8 is cheap; check its table shape and monotone universal column. *)
  match Experiment.find "e8" with
  | None -> Alcotest.fail "e8 missing"
  | Some e ->
      let table = e.Experiment.run ~seed:1 in
      Alcotest.(check int) "five rows" 5 (List.length table.Table.rows);
      let universal_col =
        List.map (fun row -> float_of_string (List.nth row 2)) table.Table.rows
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a <= b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "universal cost increases with N" true
        (increasing universal_col)

let test_run_e6_shape () =
  match Experiment.find "e6" with
  | None -> Alcotest.fail "e6 missing"
  | Some e ->
      let table = e.Experiment.run ~seed:1 in
      let col i row = int_of_string (List.nth row i) in
      let last = Listx.last table.Table.rows in
      let second_to_last =
        List.nth table.Table.rows (List.length table.Table.rows - 2)
      in
      Alcotest.(check int) "universal flat tail" (col 1 second_to_last)
        (col 1 last);
      Alcotest.(check bool) "uncontrolled grows" true
        (col 4 last > col 4 second_to_last)

let () =
  Alcotest.run "harness"
    [
      ( "trial",
        [
          Alcotest.test_case "all succeed" `Quick test_trial_all_succeed;
          Alcotest.test_case "all fail" `Quick test_trial_all_fail;
          Alcotest.test_case "flaky rate" `Quick test_trial_flaky_rate;
          Alcotest.test_case "deterministic" `Quick test_trial_deterministic;
          Alcotest.test_case "success rate" `Quick test_trial_success_rate;
          Alcotest.test_case "span over the sink" `Quick test_trial_span;
          Alcotest.test_case "validation" `Quick test_trial_validation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "kinds" `Quick test_registry_kinds;
          Alcotest.test_case "e8 shape" `Quick test_run_e8_shape;
          Alcotest.test_case "e6 shape" `Quick test_run_e6_shape;
        ] );
    ]
