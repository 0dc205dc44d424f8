(* Tests for the Mealy-machine ↔ strategy bridge: Theorem 1 running
   over a raw Gödel numbering of finite-state machines, rather than a
   hand-parameterised strategy family.

   Toy goal: each round the world announces a bit; the user must answer
   with that bit XOR a secret b (the world's "convention").  The world
   broadcasts Int 2 forever once it has seen 6 consecutive correct
   answers.  The machine class over input alphabet {announced 0,
   announced 1, done} and output alphabet {0,1} contains the two
   conventions as 1-state machines; the universal user finds the right
   one without being told b. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata

let streak_needed = 6

(* The world compares the user's reply (arriving two rounds after the
   announcement it answers) against announcement XOR b; it tracks the
   round parity itself, so the comparison is exact, not heuristic. *)
let xor_world b =
  World.make
    ~name:(Printf.sprintf "xor-world(b=%d)" b)
    ~init:(fun () -> (0, 0, false))
    ~step:(fun _rng (round, streak, done_) (obs : Io.World.obs) ->
      let round = round + 1 in
      let expected = (round + b) mod 2 in
      let streak =
        match obs.from_user with
        | Msg.Sym s when s = expected -> streak + 1
        | Msg.Sym _ -> 0
        | _ -> streak (* silence doesn't reset: the user may be idle *)
      in
      let done_ = done_ || streak >= streak_needed in
      let announce = if done_ then 2 else round mod 2 in
      ((round, streak, done_), Io.World.say_user (Msg.Int announce)))
    ~view:(fun (_, _, done_) -> Msg.Int (if done_ then 2 else 0))

let xor_goal b =
  Goal.make
    ~name:(Printf.sprintf "xor(b=%d)" b)
    ~worlds:[ xor_world b ]
    ~referee:(Helpers.finite_pred "converged" (fun views -> List.mem (Msg.Int 2) views))

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let read = Machine_user.read_world_int ~cap:3
let write = Machine_user.write_world_sym

let sensing =
  Helpers.of_view_predicate ~name:"done" (fun view ->
      match Helpers.View_list.latest view with
      | Some { View.from_world = Msg.Int 2; _ } -> true
      | Some _ | None -> false)

(* The 1-state machine implementing convention b: reply (announce+b) mod 2.
   The third input column (done) is irrelevant. *)
let convention_machine b =
  Mealy.make ~states:1 ~inputs:3 ~outputs:2
    ~next:[| [| 0; 0; 0 |] |]
    ~out:[| [| b mod 2; (1 + b) mod 2; 0 |] |]

let run ~user ~b ?(horizon = 4000) seed =
  Exec.run_outcome
    ~config:(Exec.config ~horizon ())
    ~goal:(xor_goal b) ~user ~server:idle_server (Rng.make seed)

let test_oracle_machines () =
  List.iter
    (fun b ->
      let user =
        Machine_user.user_of_mealy ~read ~write (convention_machine b)
      in
      (* Machines never halt on their own; wrap with halt-on-positive. *)
      let user = Sensing.halt_on_positive sensing user in
      let outcome, history = run ~user ~b (10 + b) in
      Alcotest.(check bool) (Printf.sprintf "b=%d achieved" b) true
        outcome.Outcome.achieved;
      Alcotest.(check bool) "fast" true (History.length history < 30))
    [ 0; 1 ]

let test_wrong_convention_fails () =
  let user =
    Sensing.halt_on_positive sensing
      (Machine_user.user_of_mealy ~read ~write (convention_machine 1))
  in
  let outcome, _ = run ~user ~b:0 20 in
  Alcotest.(check bool) "not achieved" false outcome.Outcome.achieved

let machine_class ~max_states =
  Machine_user.user_class ~read ~write
    (Mealy.enumerate_up_to ~max_states ~inputs:3 ~outputs:2)

let test_universal_over_one_state_machines () =
  List.iter
    (fun b ->
      let user =
        Universal.finite ~enum:(machine_class ~max_states:1) ~sensing ()
      in
      let outcome, _ = run ~user ~b (30 + b) in
      Alcotest.(check bool)
        (Printf.sprintf "universal finds convention %d" b)
        true outcome.Outcome.achieved)
    [ 0; 1 ]

let test_universal_over_two_state_machines () =
  (* 8 + 4096 machines in the class; the working 1-state machines come
     first, so the Levin search still converges quickly. *)
  let cls = machine_class ~max_states:2 in
  Alcotest.(check (option int)) "class size" (Some (8 + 4096))
    (Enum.cardinality cls);
  let user = Universal.finite ~enum:cls ~sensing () in
  let outcome, _ = run ~user ~b:1 40 in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved

let test_class_naming_and_indexing () =
  let cls = machine_class ~max_states:1 in
  let first = Enum.get_exn cls 0 in
  Alcotest.(check bool) "named by code" true
    (String.length (Strategy.name first) > 0);
  Alcotest.(check (option int)) "eight 1-state machines" (Some 8)
    (Enum.cardinality cls)

let test_reader_cap () =
  let obs w =
    { Io.User.from_server = Msg.Silence; from_world = w; round = 1 }
  in
  Alcotest.(check int) "caps high" 2
    (Machine_user.read_world_int ~cap:3 (obs (Msg.Int 99)));
  Alcotest.(check int) "floors low" 0
    (Machine_user.read_world_int ~cap:3 (obs (Msg.Int (-5))));
  Alcotest.(check int) "silence reads 0" 0
    (Machine_user.read_world_int ~cap:3 (obs Msg.Silence))

let test_bad_reader_raises () =
  let bad_read (_ : Io.User.obs) = 7 in
  let user =
    Machine_user.user_of_mealy ~read:bad_read ~write (convention_machine 0)
  in
  let inst = Strategy.Instance.create user in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Machine_user: reader produced 7, input alphabet is 3")
    (fun () ->
      ignore
        (Strategy.Instance.step (Rng.make 1) inst
           { Io.User.from_server = Msg.Silence; from_world = Msg.Silence; round = 1 }))

let test_server_of_mealy () =
  (* A server machine that echoes the user's symbol to the world. *)
  let echo = Mealy.identity ~size:2 in
  let read (obs : Io.Server.obs) =
    match obs.Io.Server.from_user with Msg.Sym s when s < 2 -> s | _ -> 0
  in
  let write s = Io.Server.say_world (Msg.Sym s) in
  let server = Machine_user.server_of_mealy ~read ~write echo in
  let inst = Strategy.Instance.create server in
  let act =
    Strategy.Instance.step (Rng.make 1) inst
      { Io.Server.from_user = Msg.Sym 1; from_world = Msg.Silence }
  in
  Alcotest.(check bool) "echoed" true (act.Io.Server.to_world = Msg.Sym 1)

let () =
  Alcotest.run "machine_user"
    [
      ( "machine_user",
        [
          Alcotest.test_case "oracle machines" `Quick test_oracle_machines;
          Alcotest.test_case "wrong convention fails" `Quick test_wrong_convention_fails;
          Alcotest.test_case "universal over 1-state class" `Quick test_universal_over_one_state_machines;
          Alcotest.test_case "universal over 2-state class" `Quick test_universal_over_two_state_machines;
          Alcotest.test_case "class naming/indexing" `Quick test_class_naming_and_indexing;
          Alcotest.test_case "reader cap" `Quick test_reader_cap;
          Alcotest.test_case "bad reader raises" `Quick test_bad_reader_raises;
          Alcotest.test_case "server of mealy" `Quick test_server_of_mealy;
        ] );
    ]
