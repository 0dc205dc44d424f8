(* Tests for the symmetric-setting reduction: two user-role peers, each
   treating the other as its server, with the world refereeing both. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_servers

let greet_cmd = 0
let alphabet = 4

(* The mutual-greeting goal: the world wants to receive a greeting from
   BOTH peers.  Peers greet the world only after being greeted by their
   counterpart in their own dialect — so a pair only succeeds if one of
   them speaks first AND the dialects line up. *)
let world =
  World.make ~name:"salon"
    ~init:(fun () -> (false, false))
    ~step:(fun _rng (a, b) (obs : Io.World.obs) ->
      let a = a || obs.from_user = Msg.Text "greetings" in
      let b = b || obs.from_server = Msg.Text "greetings" in
      ( (a, b),
        Io.World.broadcast
          (Msg.Pair
             ( Msg.Text (if a then "a-done" else "a-waiting"),
               Msg.Text (if b then "b-done" else "b-waiting") )) ))
    ~view:(fun (a, b) ->
      Msg.Pair
        ( Msg.Text (if a then "a-done" else "a-waiting"),
          Msg.Text (if b then "b-done" else "b-waiting") ))

let both_done view =
  view = Msg.Pair (Msg.Text "a-done", Msg.Text "b-done")

let goal =
  Goal.make ~name:"mutual-greeting" ~worlds:[ world ]
    ~referee:(Helpers.finite_pred "both-greeted" (fun views -> List.exists both_done views))

(* An initiator peer speaking dialect d: greets the counterpart, and
   greets the world once greeted back; halts when the world reports
   both sides done. *)
let initiator d =
  let hello = Dialect_msg.encode d (Msg.Sym greet_cmd) in
  Strategy.make
    ~name:(Printf.sprintf "initiator@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> `Greeting)
    ~step:(fun _rng state (obs : Io.User.obs) ->
      if both_done obs.from_world then (state, Io.User.halt_act)
      else if Dialect_msg.decode d obs.from_server = Msg.Sym greet_cmd then
        (`Replied, { Io.User.to_server = hello; to_world = Msg.Text "greetings"; halt = false })
      else (`Greeting, Io.User.say_server hello))

(* A responder peer: never speaks first, but answers a well-formed
   greeting (in its dialect) and then greets the world. *)
let responder d =
  let hello = Dialect_msg.encode d (Msg.Sym greet_cmd) in
  Strategy.stateless
    ~name:(Printf.sprintf "responder@%s" (Format.asprintf "%a" Dialect.pp d))
    (fun (obs : Io.User.obs) ->
      if Dialect_msg.decode d obs.from_server = Msg.Sym greet_cmd then
        { Io.User.to_server = hello; to_world = Msg.Text "greetings"; halt = false }
      else Io.User.silent)

let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i

let run ~peer_a ~peer_b ?(horizon = 2000) seed =
  Symmetric.run_peers
    ~config:(Exec.config ~horizon ())
    ~goal ~peer_a ~peer_b (Rng.make seed)

let test_matching_peers_succeed () =
  List.iter
    (fun i ->
      let outcome, history =
        run ~peer_a:(initiator (dialect i)) ~peer_b:(responder (dialect i)) (10 + i)
      in
      Alcotest.(check bool)
        (Printf.sprintf "dialect %d" i)
        true outcome.Outcome.achieved;
      Alcotest.(check bool) "fast" true (History.length history < 20))
    (Listx.range 0 alphabet)

let test_mismatched_peers_fail () =
  let outcome, _ =
    run ~peer_a:(initiator (dialect 0)) ~peer_b:(responder (dialect 2)) 20
  in
  Alcotest.(check bool) "fail" false outcome.Outcome.achieved

let test_two_responders_deadlock () =
  (* Nobody speaks first: the reduction preserves the deadlock. *)
  let outcome, _ =
    run ~peer_a:(responder (dialect 0)) ~peer_b:(responder (dialect 0)) 30
  in
  Alcotest.(check bool) "deadlock" false outcome.Outcome.achieved

let test_universal_peer_adapts () =
  (* Peer A runs the finite universal construction over initiator
     dialects; peer B is a fixed responder with an unknown dialect. *)
  let sensing =
    Helpers.of_view_predicate ~name:"both-done" (fun view ->
        match Helpers.View_list.latest view with
        | Some e -> both_done e.View.from_world
        | None -> false)
  in
  List.iter
    (fun i ->
      let enum =
        Enum.map ~name:"initiators" (fun d -> initiator d) dialects
      in
      let universal = Universal.finite ~enum ~sensing () in
      let outcome, _ =
        run ~peer_a:universal ~peer_b:(responder (dialect i)) (40 + i)
      in
      Alcotest.(check bool)
        (Printf.sprintf "universal adapts to responder %d" i)
        true outcome.Outcome.achieved)
    (Listx.range 0 alphabet)

let test_as_server_round_counter () =
  (* The adapter threads its own round counter. *)
  let spy_rounds = ref [] in
  let spy =
    Strategy.stateless ~name:"spy" (fun (obs : Io.User.obs) ->
        spy_rounds := obs.Io.User.round :: !spy_rounds;
        Io.User.silent)
  in
  let server = Symmetric.as_server spy in
  let inst = Strategy.Instance.create server in
  let rng = Rng.make 1 in
  for _ = 1 to 3 do
    ignore
      (Strategy.Instance.step rng inst
         { Io.Server.from_user = Msg.Silence; from_world = Msg.Silence })
  done;
  Alcotest.(check (list int)) "rounds 1..3" [ 3; 2; 1 ] !spy_rounds

let () =
  Alcotest.run "symmetric"
    [
      ( "symmetric",
        [
          Alcotest.test_case "matching peers succeed" `Quick test_matching_peers_succeed;
          Alcotest.test_case "mismatched peers fail" `Quick test_mismatched_peers_fail;
          Alcotest.test_case "responders deadlock" `Quick test_two_responders_deadlock;
          Alcotest.test_case "universal peer adapts" `Quick test_universal_peer_adapts;
          Alcotest.test_case "adapter round counter" `Quick test_as_server_round_counter;
        ] );
    ]
