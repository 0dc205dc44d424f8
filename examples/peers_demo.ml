(* The symmetric setting (the paper's footnote): two user-role peers,
   each treating the other as its server.  A universal initiator adapts
   to a fixed responder whose greeting dialect it does not know.

   Run with:  dune exec examples/peers_demo.exe *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_servers

let greet_cmd = 0
let alphabet = 5

let world =
  World.make ~name:"salon"
    ~init:(fun () -> (false, false))
    ~step:(fun _rng (a, b) (obs : Io.World.obs) ->
      let a = a || obs.from_user = Msg.Text "greetings" in
      let b = b || obs.from_server = Msg.Text "greetings" in
      ( (a, b),
        Io.World.broadcast
          (Msg.Int (match (a, b) with true, true -> 2 | false, false -> 0 | _ -> 1)) ))
    ~view:(fun (a, b) -> Msg.Int (match (a, b) with true, true -> 2 | false, false -> 0 | _ -> 1))

let goal =
  Goal.make ~name:"mutual-greeting" ~worlds:[ world ]
    ~referee:(Referee.finite_exists "both-greeted" (Msg.equal (Msg.Int 2)))

let initiator d =
  let hello = Dialect_msg.encode d (Msg.Sym greet_cmd) in
  Strategy.make
    ~name:(Printf.sprintf "initiator@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> ())
    ~step:(fun _rng () (obs : Io.User.obs) ->
      if obs.from_world = Msg.Int 2 then ((), Io.User.halt_act)
      else if Dialect_msg.decode d obs.from_server = Msg.Sym greet_cmd then
        ((), { Io.User.to_server = hello; to_world = Msg.Text "greetings"; halt = false })
      else ((), Io.User.say_server hello))

let responder d =
  let hello = Dialect_msg.encode d (Msg.Sym greet_cmd) in
  Strategy.stateless
    ~name:(Printf.sprintf "responder@%s" (Format.asprintf "%a" Dialect.pp d))
    (fun (obs : Io.User.obs) ->
      if Dialect_msg.decode d obs.from_server = Msg.Sym greet_cmd then
        { Io.User.to_server = hello; to_world = Msg.Text "greetings"; halt = false }
      else Io.User.silent)

let sensing =
  Sensing.of_latest ~name:"both-done" ~empty:false (fun e ->
      Msg.equal e.View.from_world (Msg.Int 2))

let () =
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  Format.printf
    "two peers must exchange greetings; the responder's dialect is unknown.@.@.";
  List.iter
    (fun i ->
      let enum = Enum.map ~name:"initiators" initiator dialects in
      let universal = Universal.finite ~enum ~sensing () in
      let outcome, history =
        Symmetric.run_peers
          ~config:(Exec.config ~horizon:2000 ())
          ~goal ~peer_a:universal
          ~peer_b:(responder (Enum.get_exn dialects i))
          (Rng.make (7 + i))
      in
      Format.printf
        "responder dialect %d: greeted=%b in %3d rounds@." i
        outcome.Outcome.achieved (History.length history))
    (Listx.range 0 alphabet);
  Format.printf
    "@.the reduction: peer B simply runs in the engine's server slot@.";
  Format.printf "(Symmetric.as_server), exactly as the paper's footnote suggests.@."
