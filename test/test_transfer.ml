(* Tests for the transfer goal, including the feedback-accelerated
   universal user. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals

let alphabet = 5
let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i
let payload = [ 9; 8; 7; 6; 5 ]
let goal = Transfer.goal ~payloads:[ payload ] ~alphabet ()

let run ~user ~server ?(horizon = 2000) seed =
  Exec.run_outcome ~config:(Exec.config ~horizon ()) ~goal ~user ~server
    (Rng.make seed)

let test_informed_delivers () =
  List.iter
    (fun i ->
      let user = Transfer.informed_user ~alphabet (dialect i) in
      let server = Transfer.server ~alphabet (dialect i) in
      let outcome, _ = run ~user ~server (10 + i) in
      Alcotest.(check bool)
        (Printf.sprintf "dialect %d" i)
        true outcome.Outcome.achieved)
    (Listx.range 0 alphabet)

let test_mismatch_fails_with_errors () =
  let user = Transfer.informed_user ~alphabet (dialect 2) in
  let server = Transfer.server ~alphabet (dialect 0) in
  let outcome, history = run ~user ~server ~horizon:200 20 in
  Alcotest.(check bool) "not achieved" false outcome.Outcome.achieved;
  let errs =
    Listx.count
      (fun (r : History.Round.t) -> r.server_to_user = Msg.Text "err")
      (Helpers.history_rounds history)
  in
  Alcotest.(check bool) "server complained" true (errs > 0)

let test_relay_framing () =
  (* Exercise the raw relay: correct framing delivers exactly once. *)
  let rng = Rng.make 30 in
  let inst = Strategy.Instance.create (Transfer.relay ~alphabet) in
  let feed m =
    Strategy.Instance.step rng inst
      { Io.Server.from_user = m; from_world = Msg.Silence }
  in
  let a1 = feed (Msg.Sym Transfer.begin_cmd) in
  Alcotest.(check bool) "ok" true (a1.Io.Server.to_user = Msg.Text "ok");
  ignore (feed (Msg.Pair (Msg.Sym Transfer.data_cmd, Msg.Int 1)));
  ignore (feed (Msg.Pair (Msg.Sym Transfer.data_cmd, Msg.Int 2)));
  let a2 = feed (Msg.Sym Transfer.end_cmd) in
  Alcotest.(check bool) "done" true (a2.Io.Server.to_user = Msg.Text "done");
  Alcotest.(check (option (list int)))
    "delivered" (Some [ 1; 2 ])
    (Codec.ints_opt a2.Io.Server.to_world);
  (* Out-of-protocol message in Idle state errors. *)
  let a3 = feed (Msg.Sym Transfer.end_cmd) in
  Alcotest.(check bool) "err" true (a3.Io.Server.to_user = Msg.Text "err")

let test_universal_levin () =
  List.iter
    (fun i ->
      let user = Transfer.universal_user ~alphabet dialects in
      let server = Transfer.server ~alphabet (dialect i) in
      let outcome, _ = run ~user ~server ~horizon:4000 (40 + i) in
      Alcotest.(check bool)
        (Printf.sprintf "levin universal vs %d" i)
        true outcome.Outcome.achieved)
    (Listx.range 0 alphabet)

let test_universal_fast () =
  List.iter
    (fun i ->
      let user = Transfer.universal_user_fast ~alphabet dialects in
      let server = Transfer.server ~alphabet (dialect i) in
      let outcome, _ = run ~user ~server ~horizon:4000 (50 + i) in
      Alcotest.(check bool)
        (Printf.sprintf "fast universal vs %d" i)
        true outcome.Outcome.achieved)
    (Listx.range 0 alphabet)

let test_fast_beats_levin_on_late_dialect () =
  (* With the matching dialect late in the class and a long payload,
     error feedback pays off. *)
  let long_payload = Listx.range 0 30 in
  let goal = Transfer.goal ~payloads:[ long_payload ] ~alphabet () in
  let server = Transfer.server ~alphabet (dialect (alphabet - 1)) in
  let cost user seed =
    let outcome, history =
      Exec.run_outcome
        ~config:(Exec.config ~horizon:20000 ())
        ~goal ~user ~server (Rng.make seed)
    in
    Alcotest.(check bool) "achieved" true outcome.Outcome.achieved;
    History.length history
  in
  let fast = cost (Transfer.universal_user_fast ~alphabet dialects) 60 in
  let levin = cost (Transfer.universal_user ~alphabet dialects) 61 in
  Alcotest.(check bool)
    (Printf.sprintf "fast (%d) < levin (%d)" fast levin)
    true (fast < levin)

let test_goal_sensing_safe () =
  let users = Enum.to_list (Transfer.user_class ~alphabet dialects) in
  let servers = Enum.to_list (Transfer.server_class ~alphabet dialects) in
  let report =
    Sensing.check_safety_finite
      ~config:(Exec.config ~horizon:300 ())
      ~goal ~users ~servers Transfer.goal_sensing (Rng.make 70)
  in
  Alcotest.(check bool) "safety" true report.Sensing.holds

let test_validation () =
  Alcotest.check_raises "empty payload"
    (Invalid_argument "Transfer: empty payload") (fun () ->
      ignore (Transfer.world_of_payload []));
  Alcotest.check_raises "alphabet"
    (Invalid_argument "Transfer: alphabet must have at least 4 symbols")
    (fun () -> ignore (Transfer.relay ~alphabet:3))

let () =
  Alcotest.run "transfer"
    [
      ( "transfer",
        [
          Alcotest.test_case "informed delivers" `Quick test_informed_delivers;
          Alcotest.test_case "mismatch errors" `Quick test_mismatch_fails_with_errors;
          Alcotest.test_case "relay framing" `Quick test_relay_framing;
          Alcotest.test_case "universal (levin)" `Quick test_universal_levin;
          Alcotest.test_case "universal (fast)" `Quick test_universal_fast;
          Alcotest.test_case "fast beats levin" `Quick test_fast_beats_levin_on_late_dialect;
          Alcotest.test_case "goal sensing safe" `Quick test_goal_sensing_safe;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
