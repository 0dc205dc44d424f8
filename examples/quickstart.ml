(* Quickstart: define a goal from scratch, give the user sensing, and
   watch the universal construction of Theorem 1 find the right
   strategy without being told which server it is talking to.

   The toy goal: the world wants to hear the magic word "open sesame"
   from the user's server-side helper — but the class of servers
   contains helpers keyed to different magic numbers, and the user does
   not know which helper it got.

   Run with:  dune exec examples/quickstart.exe *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata

(* 1. The world: it reports whether the magic number has been spoken to
   it, and broadcasts that status to the user.  The referee reads the
   world-state views — the goal is achieved once the status is "open". *)
let world magic =
  World.make ~name:"cave"
    ~init:(fun () -> false)
    ~step:(fun _rng opened (obs : Io.World.obs) ->
      let opened = opened || obs.Io.World.from_server = Msg.Int magic in
      (opened, Io.World.say_user (Msg.Text (if opened then "open" else "shut"))))
    ~view:(fun opened -> Msg.Text (if opened then "open" else "shut"))

let goal magic =
  Goal.make ~name:"open-the-cave"
    ~worlds:[ world magic ]
    ~referee:
      (Referee.finite_exists "cave-opened" (Msg.equal (Msg.Text "open")))

(* 2. The server class: picky helper k relays the magic number to the
   world, but only when poked with its own key [Int k].  The
   "incompatibility" is that the user does not know which helper it is
   paired with. *)
let picky_helper k =
  Strategy.stateless
    ~name:(Printf.sprintf "picky-helper-%d" k)
    (fun (obs : Io.Server.obs) ->
      if obs.Io.Server.from_user = Msg.Int k then Io.Server.say_world (Msg.Int k)
      else Io.Server.silent)

(* 3. The user class: poker k pokes the server with key k and halts
   once the world reports the cave open. *)
let poker k =
  Strategy.stateless
    ~name:(Printf.sprintf "poker-%d" k)
    (fun (obs : Io.User.obs) ->
      if obs.Io.User.from_world = Msg.Text "open" then Io.User.halt_act
      else Io.User.say_server (Msg.Int k))

(* 4. Sensing: the world's broadcast is feedback the user can see. *)
let sensing =
  Sensing.of_latest ~name:"cave-open" ~empty:false (fun e ->
      Msg.equal e.View.from_world (Msg.Text "open"))

let () =
  let magic = 4 in
  let class_size = 8 in
  let user_class = Enum.tabulate ~name:"pokers" class_size poker in
  (* The universal user of Theorem 1 (finite-goal construction). *)
  let stats = Universal.new_stats () in
  let universal = Universal.finite ~stats ~enum:user_class ~sensing () in
  let outcome, history =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:2000 ())
      ~goal:(goal magic)
      ~user:universal
      ~server:(picky_helper magic)
      (Rng.make 42)
  in
  Format.printf "goal achieved : %b@." outcome.Outcome.achieved;
  Format.printf "rounds used   : %d@." (History.length history);
  Format.printf "sessions run  : %d@." stats.Universal.sessions;
  Format.printf "magic number  : %d (found by enumeration)@." magic;
  (* Compare with a fixed-protocol user that guessed wrong. *)
  let fixed_outcome, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:2000 ())
      ~goal:(goal magic) ~user:(poker 0)
      ~server:(picky_helper magic)
      (Rng.make 43)
  in
  Format.printf "fixed user (poker-0) achieved : %b@."
    fixed_outcome.Outcome.achieved
