(* Tests for the forgiving-goal checker and the switch_after
   combinator. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals

let alphabet = 4
let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i

(* switch_after *)

let const_sender n =
  Strategy.stateless
    ~name:(Printf.sprintf "send-%d" n)
    (fun (_ : Io.User.obs) -> Io.User.say_world (Msg.Int n))

let test_switch_after_behaviour () =
  let u = Strategy.switch_after 2 (const_sender 1) (const_sender 9) in
  let inst = Strategy.Instance.create u in
  let rng = Rng.make 1 in
  let obs = { Io.User.from_server = Msg.Silence; from_world = Msg.Silence; round = 1 } in
  let outs =
    List.map
      (fun _ -> (Strategy.Instance.step rng inst obs).Io.User.to_world)
      (Listx.range 0 4)
  in
  Alcotest.(check bool) "first two from first" true
    (Listx.take 2 outs = [ Msg.Int 1; Msg.Int 1 ]);
  Alcotest.(check bool) "rest from second" true
    (Listx.drop 2 outs = [ Msg.Int 9; Msg.Int 9 ])

let test_switch_after_zero () =
  let u = Strategy.switch_after 0 (const_sender 1) (const_sender 9) in
  let inst = Strategy.Instance.create u in
  let act =
    Strategy.Instance.step (Rng.make 2) inst
      { Io.User.from_server = Msg.Silence; from_world = Msg.Silence; round = 1 }
  in
  Alcotest.(check bool) "immediate" true (act.Io.User.to_world = Msg.Int 9)

let test_switch_after_validation () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Strategy.switch_after: negative k") (fun () ->
      ignore (Strategy.switch_after (-1) (const_sender 1) (const_sender 2)))

(* Forgiving checker on the printing goal: random vandalism followed by
   the informed user must still succeed — printing is forgiving. *)

let test_printing_is_forgiving () =
  let goal = Printing.goal ~docs:[ [ 1; 2; 3 ] ] ~alphabet () in
  let report =
    Forgiving.check
      ~config:(Exec.config ~horizon:400 ())
      ~goal
      ~vandal:(Goalcom_baselines.Baselines.random_actions ~alphabet ~halt_prob:0. ())
      ~rescuer:(Printing.informed_user ~alphabet (dialect 0))
      (Printing.server ~alphabet (dialect 0))
      (Rng.make 3)
  in
  Alcotest.(check bool) "holds" true report.Forgiving.holds;
  Alcotest.(check bool) "cases" true (report.Forgiving.checked >= 12)

let test_checker_catches_unforgiving_goal () =
  (* An unforgiving goal: the world latches a "ruined" flag on the
     first wrong symbol — no rescuer can help after vandalism. *)
  let world =
    World.make ~name:"fragile"
      ~init:(fun () -> `Fresh)
      ~step:(fun _rng state (obs : Io.World.obs) ->
        let state =
          match (state, obs.from_user) with
          | `Fresh, Msg.Int 7 -> `Done
          | `Fresh, m when not (Msg.is_silence m) -> `Ruined
          | s, _ -> s
        in
        (state, Io.World.silent))
      ~view:(fun state ->
        Msg.Text
          (match state with `Fresh -> "fresh" | `Done -> "done" | `Ruined -> "ruined"))
  in
  let goal =
    Goal.make ~name:"fragile" ~worlds:[ world ]
      ~referee:(Helpers.finite_pred "done" (fun views -> List.mem (Msg.Text "done") views))
  in
  let rescuer =
    Strategy.make ~name:"send7-halt"
      ~init:(fun () -> 0)
      ~step:(fun _rng n (_ : Io.User.obs) ->
        if n > 3 then (n, Io.User.halt_act)
        else (n + 1, Io.User.say_world (Msg.Int 7)))
  in
  let vandal =
    Strategy.stateless ~name:"vandal" (fun (_ : Io.User.obs) ->
        Io.User.say_world (Msg.Int 0))
  in
  let server =
    Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)
  in
  let report =
    Forgiving.check
      ~config:(Exec.config ~horizon:60 ())
      ~prefix_lengths:[ 0; 3 ] ~goal ~vandal ~rescuer server (Rng.make 4)
  in
  (* Prefix 0 succeeds, prefix 3 is ruined: the checker must flag it. *)
  Alcotest.(check bool) "violated" false report.Forgiving.holds;
  Alcotest.(check bool) "has counterexamples" true
    (report.Forgiving.counterexamples <> [])

let test_report_pp () =
  let goal = Printing.goal ~docs:[ [ 1 ] ] ~alphabet () in
  let report =
    Forgiving.check
      ~config:(Exec.config ~horizon:100 ())
      ~prefix_lengths:[ 0 ] ~trials:1 ~goal
      ~vandal:(Goalcom_baselines.Baselines.random_actions ~alphabet ())
      ~rescuer:(Printing.informed_user ~alphabet (dialect 0))
      (Printing.server ~alphabet (dialect 0))
      (Rng.make 5)
  in
  let s = Format.asprintf "%a" Forgiving.pp_report report in
  Alcotest.(check bool) "mentions goal" true (String.length s > 10)

let () =
  Alcotest.run "forgiving"
    [
      ( "forgiving",
        [
          Alcotest.test_case "switch_after behaviour" `Quick test_switch_after_behaviour;
          Alcotest.test_case "switch_after zero" `Quick test_switch_after_zero;
          Alcotest.test_case "switch_after validation" `Quick test_switch_after_validation;
          Alcotest.test_case "printing is forgiving" `Quick test_printing_is_forgiving;
          Alcotest.test_case "catches unforgiving goal" `Quick test_checker_catches_unforgiving_goal;
          Alcotest.test_case "report pp" `Quick test_report_pp;
        ] );
    ]
