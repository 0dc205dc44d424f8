(* Delegation of computation (the Juba–Sudan scenario inside the
   general model): the world poses a planted-satisfiable 3-CNF; the
   user relays it to a DPLL-solving server it shares no command
   language with, verifies the claimed assignment, and forwards it to
   the world.  A lying solver is caught by the same verification.

   Run with:  dune exec examples/delegation_demo.exe *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_servers
open Goalcom_goals

let alphabet = 4

let () =
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  let goal = Delegation.goal ~alphabet () in
  let config = Exec.config ~horizon:6_000 () in
  Format.printf "delegating SAT search (8 vars, 20 clauses) to dialected solvers@.@.";
  List.iter
    (fun i ->
      let server = Delegation.server ~alphabet (Enum.get_exn dialects i) in
      let user = Delegation.universal_user ~alphabet dialects in
      let outcome, history =
        Exec.run_outcome ~config ~goal ~user ~server (Rng.make (10 + i))
      in
      Format.printf "solver @@ dialect %d: achieved=%b in %3d rounds@." i
        outcome.Outcome.achieved (History.length history))
    (Listx.range 0 alphabet);
  (* The liar: answers are corrupted so they fail verification. *)
  let liar = Transform.with_dialect (Enum.get_exn dialects 0) (Delegation.liar ~alphabet) in
  let user = Delegation.universal_user ~alphabet dialects in
  let outcome, history = Exec.run_outcome ~config ~goal ~user ~server:liar (Rng.make 99) in
  Format.printf
    "@.lying solver    : achieved=%b (%d corrupted answers caught by verification)@."
    outcome.Outcome.achieved
    (Delegation.bad_answers history);
  (* Peek at one transcript: the formula and the verified answer. *)
  let server = Delegation.server ~alphabet (Enum.get_exn dialects 1) in
  let user = Delegation.informed_user ~alphabet (Enum.get_exn dialects 1) in
  let history = Exec.run ~config ~goal ~user ~server (Rng.make 7) in
  (* The first round at which [pick] answers. *)
  let first pick =
    History.fold_rounds history ~init:None ~f:(fun found r ->
        match found with Some _ -> found | None -> pick r)
  in
  let formula =
    first (fun (r : History.Round.t) ->
        match r.world_view with
        | Msg.Pair (Msg.Text _, cnf) -> Some cnf
        | _ -> None)
  in
  (match formula with
  | Some cnf -> Format.printf "@.sample formula posed by the world:@.  %s@." (Msg.to_string cnf)
  | None -> ());
  let answer =
    first (fun (r : History.Round.t) ->
        match r.user_to_world with Msg.Seq _ as m -> Some m | _ -> None)
  in
  match answer with
  | Some m -> Format.printf "assignment relayed by the user:@.  %s@." (Msg.to_string m)
  | None -> ()
