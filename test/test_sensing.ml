(* Unit tests for sensing: verdict streams, corruption helpers,
   halt-on-positive wrapping, and the safety/viability validators on a
   toy goal where ground truth is known. *)

open Goalcom
open Goalcom_prelude

(* Toy goal: the world wants to hear Int 7 from the user; broadcasts
   status.  Server relays Int messages from the user to the world, so
   both direct and relayed strategies exist. *)
let world =
  World.make ~name:"w7"
    ~init:(fun () -> false)
    ~step:(fun _rng got (obs : Io.World.obs) ->
      let got = got || obs.from_user = Msg.Int 7 || obs.from_server = Msg.Int 7 in
      (got, Io.World.say_user (Msg.Text (if got then "done" else "waiting"))))
    ~view:(fun got -> Msg.Text (if got then "done" else "waiting"))

let goal =
  Goal.make ~name:"hear7" ~worlds:[ world ]
    ~referee:(Helpers.finite_pred "heard" (fun views -> List.mem (Msg.Text "done") views))

let relay_server =
  Strategy.stateless ~name:"relay" (fun (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Int n -> Io.Server.say_world (Msg.Int n)
      | _ -> Io.Server.silent)

let sender n =
  Strategy.make
    ~name:(Printf.sprintf "send-%d" n)
    ~init:(fun () -> ())
    ~step:(fun _rng () (_ : Io.User.obs) -> ((), Io.User.say_server (Msg.Int n)))

let good_sensing =
  Helpers.of_view_predicate ~name:"world-done" (fun view ->
      List.exists
        (fun e -> e.View.from_world = Msg.Text "done")
        (Helpers.View_list.events_rev view))

let run user =
  Exec.run ~config:(Exec.config ~horizon:30 ()) ~goal ~user ~server:relay_server
    (Rng.make 1)

let test_verdicts_stream () =
  let h = run (sender 7) in
  let verdicts = Sensing.verdicts good_sensing h in
  Alcotest.(check int) "one per round" (History.length h) (List.length verdicts);
  (* Early rounds negative, later rounds positive, monotone. *)
  Alcotest.(check bool) "starts negative" true
    (snd (List.hd verdicts) = Sensing.Negative);
  Alcotest.(check bool) "ends positive" true
    (snd (Listx.last verdicts) = Sensing.Positive);
  let became_positive = ref false in
  List.iter
    (fun (_, v) ->
      if v = Sensing.Positive then became_positive := true
      else
        Alcotest.(check bool) "monotone" false !became_positive)
    verdicts

let test_negatives_after () =
  let h = run (sender 0) in
  Alcotest.(check int) "all negative after 0" (History.length h)
    (Sensing.negatives_after good_sensing h 0);
  Alcotest.(check int) "none after the end" 0
    (Sensing.negatives_after good_sensing h (History.length h))

let test_constant_and_predicate () =
  let v = Helpers.View_list.empty in
  Alcotest.(check bool) "const pos" true
    (Helpers.sense (Sensing.constant Sensing.Positive) v = Sensing.Positive);
  Alcotest.(check bool) "const neg" true
    (Helpers.sense (Sensing.constant Sensing.Negative) v = Sensing.Negative)

let test_corrupt_unviable () =
  let broken = Sensing.corrupt_unviable good_sensing in
  let h = run (sender 7) in
  Alcotest.(check bool) "never positive" true
    (List.for_all (fun (_, v) -> v = Sensing.Negative) (Sensing.verdicts broken h))

let test_corrupt_unsafe () =
  let rng = Rng.make 2 in
  let broken = Sensing.corrupt_unsafe ~flip_to_positive:1.0 rng good_sensing in
  let h = run (sender 0) in
  (* With flip probability 1 every indication is positive. *)
  Alcotest.(check bool) "always positive" true
    (List.for_all (fun (_, v) -> v = Sensing.Positive) (Sensing.verdicts broken h))

let test_halt_on_positive () =
  let wrapped = Sensing.halt_on_positive good_sensing (sender 7) in
  let outcome, history =
    Exec.run_outcome ~config:(Exec.config ~horizon:30 ()) ~goal ~user:wrapped
      ~server:relay_server (Rng.make 3)
  in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved;
  Alcotest.(check bool) "halted" true (History.halted history);
  (* Send at r1, server relays r2, world hears r3 and broadcasts, user
     sees "done" at r4, sensing sees the completed round at r5. *)
  Alcotest.(check bool) "halts promptly" true
    (match History.halt_round history with Some r -> r <= 6 | None -> false)

let test_halt_on_positive_never_fires () =
  let wrapped = Sensing.halt_on_positive good_sensing (sender 0) in
  let outcome, _ =
    Exec.run_outcome ~config:(Exec.config ~horizon:30 ()) ~goal ~user:wrapped
      ~server:relay_server (Rng.make 4)
  in
  Alcotest.(check bool) "not halted" false outcome.Outcome.halted

let test_check_safety_finite_holds () =
  let report =
    Sensing.check_safety_finite
      ~config:(Exec.config ~horizon:30 ())
      ~goal
      ~users:[ sender 7; sender 0 ]
      ~servers:[ relay_server ] good_sensing (Rng.make 5)
  in
  Alcotest.(check bool) "holds" true report.Sensing.holds;
  Alcotest.(check bool) "checked some" true (report.Sensing.checked > 0)

let test_check_safety_finite_catches_unsafe () =
  let rng = Rng.make 6 in
  let unsafe = Sensing.corrupt_unsafe ~flip_to_positive:1.0 rng good_sensing in
  let report =
    Sensing.check_safety_finite
      ~config:(Exec.config ~horizon:30 ())
      ~goal
      ~users:[ sender 0 ]
      ~servers:[ relay_server ] unsafe (Rng.make 7)
  in
  Alcotest.(check bool) "violated" false report.Sensing.holds;
  Alcotest.(check bool) "has counterexample" true
    (report.Sensing.counterexamples <> [])

let test_check_viability_finite () =
  let report =
    Sensing.check_viability_finite
      ~config:(Exec.config ~horizon:30 ())
      ~goal
      ~user_for:(fun _ -> sender 7)
      ~servers:[ relay_server ] good_sensing (Rng.make 8)
  in
  Alcotest.(check bool) "holds" true report.Sensing.holds;
  let bad =
    Sensing.check_viability_finite
      ~config:(Exec.config ~horizon:30 ())
      ~goal
      ~user_for:(fun _ -> sender 0)
      ~servers:[ relay_server ] good_sensing (Rng.make 9)
  in
  Alcotest.(check bool) "violated with useless user" false bad.Sensing.holds

let test_report_pp () =
  let report =
    Sensing.check_viability_finite
      ~config:(Exec.config ~horizon:10 ())
      ~goal
      ~user_for:(fun _ -> sender 0)
      ~servers:[ relay_server ] good_sensing (Rng.make 10)
  in
  let s = Format.asprintf "%a" Sensing.pp_report report in
  Alcotest.(check bool) "mentions verdict" true (String.length s > 10)

let () =
  Alcotest.run "sensing"
    [
      ( "sensing",
        [
          Alcotest.test_case "verdict stream" `Quick test_verdicts_stream;
          Alcotest.test_case "negatives_after" `Quick test_negatives_after;
          Alcotest.test_case "constants" `Quick test_constant_and_predicate;
          Alcotest.test_case "corrupt unviable" `Quick test_corrupt_unviable;
          Alcotest.test_case "corrupt unsafe" `Quick test_corrupt_unsafe;
          Alcotest.test_case "halt on positive" `Quick test_halt_on_positive;
          Alcotest.test_case "halt never fires" `Quick test_halt_on_positive_never_fires;
          Alcotest.test_case "safety holds" `Quick test_check_safety_finite_holds;
          Alcotest.test_case "safety catches unsafe" `Quick test_check_safety_finite_catches_unsafe;
          Alcotest.test_case "viability" `Quick test_check_viability_finite;
          Alcotest.test_case "report pp" `Quick test_report_pp;
        ] );
    ]
