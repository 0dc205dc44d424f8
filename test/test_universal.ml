(* Unit tests for the universal constructions (Theorem 1) and the Levin
   schedule, on toy goals where the right strategy index is known. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata

(* Levin schedule *)

let test_levin_schedule_prefix () =
  let slots = List.of_seq (Seq.take 6 (Levin.schedule ())) in
  let as_pairs = List.map (fun s -> (s.Levin.index, s.Levin.budget)) slots in
  (* Phases: k=0: (0,1); k=1: (0,2),(1,1); k=2: (0,4),(1,2),(2,1). *)
  Alcotest.(check (list (pair int int)))
    "prefix"
    [ (0, 1); (0, 2); (1, 1); (0, 4); (1, 2); (2, 1) ]
    as_pairs

let test_levin_budget_growth () =
  (* Candidate i eventually receives arbitrarily large budgets. *)
  let slots = List.of_seq (Seq.take 100 (Levin.schedule ())) in
  let best i =
    List.fold_left
      (fun acc s -> if s.Levin.index = i then max acc s.Levin.budget else acc)
      0 slots
  in
  Alcotest.(check bool) "candidate 0 grows" true (best 0 >= 256);
  Alcotest.(check bool) "candidate 3 grows" true (best 3 >= 32)

let test_levin_work_before () =
  (* Work before candidate 0 first gets budget 4: slots (0,1),(0,2),(1,1)
     precede (0,4): total 4. *)
  Alcotest.(check int) "work" 4 (Levin.work_before ~index:0 ~budget:4 ());
  Alcotest.(check int) "immediate" 0 (Levin.work_before ~index:0 ~budget:1 ())

let test_levin_round_robin () =
  let slots = List.of_seq (Seq.take 5 (Levin.round_robin ~budget:3 ~width:2 ())) in
  Alcotest.(check (list (pair int int)))
    "cycle"
    [ (0, 3); (1, 3); (0, 3); (1, 3); (0, 3) ]
    (List.map (fun s -> (s.Levin.index, s.Levin.budget)) slots)

let test_levin_validation () =
  Alcotest.check_raises "base" (Invalid_argument "Levin.schedule: base must be positive")
    (fun () ->
      let (_ : Levin.slot Seq.t) = Levin.schedule ~base:0 () in
      ());
  Alcotest.check_raises "width"
    (Invalid_argument "Levin.round_robin: width must be positive") (fun () ->
      let (_ : Levin.slot Seq.t) = Levin.round_robin ~width:0 () in
      ())

(* Toy finite goal: the world wants to hear a magic number k (the server
   index); user strategy i sends i.  Universal must find the right one. *)

let magic_world k =
  World.make ~name:(Printf.sprintf "magic-%d" k)
    ~init:(fun () -> false)
    ~step:(fun _rng got (obs : Io.World.obs) ->
      let got = got || obs.from_user = Msg.Int k in
      (got, Io.World.say_user (Msg.Text (if got then "done" else "no"))))
    ~view:(fun got -> Msg.Text (if got then "done" else "no"))

let magic_goal k =
  Goal.make
    ~name:(Printf.sprintf "magic-%d" k)
    ~worlds:[ magic_world k ]
    ~referee:(Helpers.finite_pred "heard" (fun views -> List.mem (Msg.Text "done") views))

let sender i =
  Strategy.make
    ~name:(Printf.sprintf "send-%d" i)
    ~init:(fun () -> ())
    ~step:(fun _rng () (_ : Io.User.obs) -> ((), Io.User.say_world (Msg.Int i)))

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let senders n = Enum.tabulate ~name:"senders" n sender

let done_sensing =
  Helpers.of_view_predicate ~name:"done" (fun view ->
      List.exists
        (fun e -> e.View.from_world = Msg.Text "done")
        (Helpers.View_list.events_rev view))

(* Universal.finite *)

let test_finite_universal_finds_every_target () =
  List.iter
    (fun k ->
      let stats = Universal.new_stats () in
      let user =
        Universal.finite ~stats ~enum:(senders 8) ~sensing:done_sensing ()
      in
      let outcome, _ =
        Exec.run_outcome
          ~config:(Exec.config ~horizon:2000 ())
          ~goal:(magic_goal k) ~user ~server:idle_server (Rng.make (20 + k))
      in
      Alcotest.(check bool) (Printf.sprintf "target %d" k) true
        outcome.Outcome.achieved)
    [ 0; 3; 7 ]

let test_finite_universal_halts_and_is_quickest_on_0 () =
  let user = Universal.finite ~enum:(senders 8) ~sensing:done_sensing () in
  let outcome, history =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:2000 ())
      ~goal:(magic_goal 0) ~user ~server:idle_server (Rng.make 30)
  in
  Alcotest.(check bool) "halted" true outcome.Outcome.halted;
  Alcotest.(check bool) "fast for target 0" true (History.length history < 20)

let test_finite_universal_cost_grows_with_index () =
  let cost k =
    let user = Universal.finite ~enum:(senders 16) ~sensing:done_sensing () in
    let _, history =
      Exec.run_outcome
        ~config:(Exec.config ~horizon:50000 ())
        ~goal:(magic_goal k) ~user ~server:idle_server (Rng.make (40 + k))
    in
    History.length history
  in
  Alcotest.(check bool) "later target costs more" true (cost 12 > cost 1)

let test_finite_universal_custom_schedule () =
  let schedule = Levin.round_robin ~budget:6 ~width:8 () in
  let user =
    Universal.finite ~schedule ~enum:(senders 8) ~sensing:done_sensing ()
  in
  let outcome, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:2000 ())
      ~goal:(magic_goal 5) ~user ~server:idle_server (Rng.make 50)
  in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved

let test_finite_universal_stats () =
  let stats = Universal.new_stats () in
  let user = Universal.finite ~stats ~enum:(senders 8) ~sensing:done_sensing () in
  let _ =
    Exec.run
      ~config:(Exec.config ~horizon:2000 ())
      ~goal:(magic_goal 5) ~user ~server:idle_server (Rng.make 60)
  in
  Alcotest.(check bool) "sessions counted" true (stats.Universal.sessions > 1)

let test_finite_universal_empty_enum () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Universal.finite: empty strategy enumeration") (fun () ->
      ignore
        (Universal.finite
           ~enum:(Enum.of_list ~name:"none" ([] : Strategy.user list))
           ~sensing:done_sensing ()))

(* Toy compact goal: the world counts consecutive rounds it heard the
   magic number recently; prefix acceptable iff the user has been saying
   k for the last few rounds (after a burn-in). *)

let compact_world k =
  World.make
    ~name:(Printf.sprintf "compact-magic-%d" k)
    ~init:(fun () -> 0)
    ~step:(fun _rng streak (obs : Io.World.obs) ->
      let streak = if obs.from_user = Msg.Int k then min 1000 (streak + 1) else 0 in
      (streak, Io.World.say_user (Msg.Int streak)))
    ~view:(fun streak -> Msg.Int streak)

let compact_goal k =
  Goal.make
    ~name:(Printf.sprintf "compact-magic-%d" k)
    ~worlds:[ compact_world k ]
    ~referee:
      (Helpers.compact_pred "streak-alive" (fun views_rev ->
           match views_rev with
           | Msg.Int streak :: rest -> streak > 0 || List.length rest < 5
           | _ -> true))

let streak_sensing =
  Helpers.of_view_predicate ~name:"streak-alive" (fun view ->
      match Helpers.View_list.latest view with
      | Some { View.from_world = Msg.Int streak; _ } -> streak > 0
      | Some _ -> false
      | None -> true)

let test_compact_universal_settles () =
  List.iter
    (fun k ->
      let stats = Universal.new_stats () in
      let user =
        Universal.compact ~grace:2 ~stats ~enum:(senders 6)
          ~sensing:streak_sensing ()
      in
      let outcome, _ =
        Exec.run_outcome
          ~config:(Exec.config ~horizon:1500 ())
          ~goal:(compact_goal k) ~user ~server:idle_server (Rng.make (70 + k))
      in
      Alcotest.(check bool)
        (Printf.sprintf "settles on %d (stats idx %d)" k stats.Universal.current_index)
        true outcome.Outcome.achieved;
      Alcotest.(check int)
        (Printf.sprintf "settled index is %d" k)
        k
        (stats.Universal.current_index mod 6))
    [ 0; 2; 5 ]

let test_compact_universal_switches_on_negative () =
  let stats = Universal.new_stats () in
  let user =
    Universal.compact ~grace:1 ~stats ~enum:(senders 6) ~sensing:streak_sensing ()
  in
  let _ =
    Exec.run
      ~config:(Exec.config ~horizon:500 ())
      ~goal:(compact_goal 4) ~user ~server:idle_server (Rng.make 80)
  in
  Alcotest.(check bool) "switched at least 4 times" true
    (stats.Universal.switches >= 4)

let test_compact_universal_never_halts () =
  let user =
    Universal.compact ~enum:(senders 3) ~sensing:streak_sensing ()
  in
  let history =
    Exec.run
      ~config:(Exec.config ~horizon:200 ())
      ~goal:(compact_goal 1) ~user ~server:idle_server (Rng.make 90)
  in
  Alcotest.(check bool) "no halt" false (History.halted history)

let test_compact_universal_wraps_finite_class () =
  (* Target index 5 with grace 1 forces at least one full pass; the
     enumeration must wrap rather than run out. *)
  let stats = Universal.new_stats () in
  let user =
    Universal.compact ~grace:1 ~stats ~enum:(senders 3) ~sensing:streak_sensing ()
  in
  let outcome, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:800 ())
      ~goal:(compact_goal 2) ~user ~server:idle_server (Rng.make 91)
  in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved

let test_compact_universal_unviable_sensing_fails () =
  (* With always-negative sensing the universal user cycles forever. *)
  let user =
    Universal.compact ~grace:1 ~enum:(senders 6)
      ~sensing:(Sensing.constant Sensing.Negative) ()
  in
  let outcome, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:600 ())
      ~goal:(compact_goal 3) ~user ~server:idle_server (Rng.make 92)
  in
  Alcotest.(check bool) "fails" false outcome.Outcome.achieved

let () =
  Alcotest.run "universal"
    [
      ( "levin",
        [
          Alcotest.test_case "schedule prefix" `Quick test_levin_schedule_prefix;
          Alcotest.test_case "budget growth" `Quick test_levin_budget_growth;
          Alcotest.test_case "work before" `Quick test_levin_work_before;
          Alcotest.test_case "round robin" `Quick test_levin_round_robin;
          Alcotest.test_case "validation" `Quick test_levin_validation;
        ] );
      ( "finite",
        [
          Alcotest.test_case "finds every target" `Quick test_finite_universal_finds_every_target;
          Alcotest.test_case "halts quickly on 0" `Quick test_finite_universal_halts_and_is_quickest_on_0;
          Alcotest.test_case "cost grows with index" `Quick test_finite_universal_cost_grows_with_index;
          Alcotest.test_case "custom schedule" `Quick test_finite_universal_custom_schedule;
          Alcotest.test_case "stats" `Quick test_finite_universal_stats;
          Alcotest.test_case "empty enum" `Quick test_finite_universal_empty_enum;
        ] );
      ( "compact",
        [
          Alcotest.test_case "settles on target" `Quick test_compact_universal_settles;
          Alcotest.test_case "switches on negative" `Quick test_compact_universal_switches_on_negative;
          Alcotest.test_case "never halts" `Quick test_compact_universal_never_halts;
          Alcotest.test_case "wraps finite class" `Quick test_compact_universal_wraps_finite_class;
          Alcotest.test_case "unviable sensing fails" `Quick test_compact_universal_unviable_sensing_fails;
        ] );
    ]
