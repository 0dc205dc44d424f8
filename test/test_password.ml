(* Tests for the password goal: universality holds, but the enumeration
   overhead is unavoidable. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals

let goal = Password.goal ()

let run ~user ~server ?(horizon = 3000) seed =
  Exec.run_outcome ~config:(Exec.config ~horizon ()) ~goal ~user ~server
    (Rng.make seed)

let test_informed_unlocks_fast () =
  let server = Password.server_with_password 13 in
  let user = Password.informed_user 13 in
  let outcome, history = run ~user ~server 1 in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved;
  Alcotest.(check bool) "fast" true (History.length history <= 10)

let test_wrong_guess_never_unlocks () =
  let server = Password.server_with_password 13 in
  let user = Password.informed_user 14 in
  let outcome, _ = run ~user ~server 2 in
  Alcotest.(check bool) "not achieved" false outcome.Outcome.achieved

let test_no_feedback_on_wrong_guess () =
  (* The lock is silent until the right guess: wrong guesses produce no
     user-visible signal whatsoever. *)
  let server = Password.server_with_password 5 in
  let user = Password.informed_user 4 in
  let _, history = run ~user ~server ~horizon:50 3 in
  List.iter
    (fun (r : History.Round.t) ->
      Alcotest.(check bool) "server stays silent" true
        (Msg.is_silence r.server_to_user && Msg.is_silence r.server_to_world))
    (Helpers.history_rounds history)

let test_sweeper_unlocks_everything () =
  let space = 32 in
  List.iter
    (fun w ->
      let server = Password.server_with_password w in
      let user = Password.sweeper ~space in
      let outcome, history = run ~user ~server (100 + w) in
      Alcotest.(check bool) (Printf.sprintf "password %d" w) true
        outcome.Outcome.achieved;
      (* Cost grows with the position of the secret. *)
      Alcotest.(check bool) "cost >= w" true (History.length history >= w))
    [ 0; 7; 15; 31 ]

let test_universal_unlocks () =
  let space = 8 in
  List.iter
    (fun w ->
      let server = Password.server_with_password w in
      let user = Password.universal_user ~space () in
      let outcome, _ = run ~user ~server ~horizon:4000 (200 + w) in
      Alcotest.(check bool) (Printf.sprintf "password %d" w) true
        outcome.Outcome.achieved)
    [ 0; 3; 7 ]

let test_overhead_grows_with_space () =
  (* The mean unlock cost of the sweeping universal strategy grows
     linearly in the secret's position — the lower-bound phenomenon. *)
  let space = 64 in
  let cost w =
    let server = Password.server_with_password w in
    let user = Password.sweeper ~space in
    let _, history = run ~user ~server (300 + w) in
    History.length history
  in
  Alcotest.(check bool) "monotone overhead" true (cost 60 > cost 30);
  Alcotest.(check bool) "monotone overhead" true (cost 30 > cost 5)

let test_every_lock_is_helpful () =
  let space = 6 in
  let user_class = Password.user_class ~space in
  List.iter
    (fun w ->
      let verdict =
        Helpful.check
          ~config:(Exec.config ~horizon:200 ())
          ~goal ~user_class
          ~server:(Password.server_with_password w)
          (Rng.make (400 + w))
      in
      Alcotest.(check bool) (Printf.sprintf "lock %d helpful" w) true
        verdict.Helpful.helpful;
      Alcotest.(check (option int))
        (Printf.sprintf "witness is guesser %d" w)
        (Some w) verdict.Helpful.witness)
    (Listx.range 0 space)

let test_sensing_safe_and_viable () =
  let space = 5 in
  let servers = Enum.to_list (Password.server_class ~space) in
  let users = Enum.to_list (Password.user_class ~space) in
  let config = Exec.config ~horizon:100 () in
  let safety =
    Sensing.check_safety_finite ~config ~goal ~users ~servers Password.sensing
      (Rng.make 5)
  in
  Alcotest.(check bool) "safety" true safety.Sensing.holds;
  let user_for server =
    match
      Listx.find_index
        (fun s -> Strategy.name s = Strategy.name server)
        servers
    with
    | Some w -> Password.informed_user w
    | None -> Alcotest.fail "unknown server"
  in
  let viability =
    Sensing.check_viability_finite ~config ~goal ~user_for ~servers
      Password.sensing (Rng.make 6)
  in
  Alcotest.(check bool) "viability" true viability.Sensing.holds

let test_validation () =
  Alcotest.check_raises "negative password"
    (Invalid_argument "Password.server_with_password: negative") (fun () ->
      ignore (Password.server_with_password (-1)));
  Alcotest.check_raises "empty space"
    (Invalid_argument "Password.user_class: empty space") (fun () ->
      ignore (Password.user_class ~space:0))

let () =
  Alcotest.run "password"
    [
      ( "password",
        [
          Alcotest.test_case "informed unlocks fast" `Quick test_informed_unlocks_fast;
          Alcotest.test_case "wrong guess fails" `Quick test_wrong_guess_never_unlocks;
          Alcotest.test_case "no feedback on wrong guess" `Quick test_no_feedback_on_wrong_guess;
          Alcotest.test_case "sweeper unlocks everything" `Quick test_sweeper_unlocks_everything;
          Alcotest.test_case "universal unlocks" `Quick test_universal_unlocks;
          Alcotest.test_case "overhead grows with space" `Quick test_overhead_grows_with_space;
          Alcotest.test_case "every lock is helpful" `Quick test_every_lock_is_helpful;
          Alcotest.test_case "sensing safe+viable" `Quick test_sensing_safe_and_viable;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
