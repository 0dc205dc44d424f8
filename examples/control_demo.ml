(* A compact (infinite-execution) goal: keep a drifting plant within
   bounds through an actuator whose command dialect is unknown.  The
   compact universal construction switches strategies on negative
   sensing until the violations stop — "only finitely many
   unacceptable prefixes".

   Run with:  dune exec examples/control_demo.exe *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals

let alphabet = 4
let horizon = 2000

let trace label user server seed =
  let goal = Control.goal ~alphabet () in
  let history =
    Exec.run ~config:(Exec.config ~horizon ()) ~goal ~user ~server (Rng.make seed)
  in
  let outcome = Outcome.judge goal history in
  let positions =
    List.rev
      (History.fold_rounds history ~init:[] ~f:(fun acc (r : History.Round.t) ->
           match Msg.int_opt r.world_view with Some p -> p :: acc | None -> acc))
  in
  let spark =
    (* A coarse text rendering of |plant| over time, sampled every 100
       rounds: '.' in range, '#' out of range. *)
    String.concat ""
      (List.filteri (fun i _ -> i mod 100 = 0) positions
      |> List.map (fun p -> if abs p <= 10 then "." else "#"))
  in
  Format.printf "%-14s violations=%4d last=%-5s achieved=%-5b |plant| %s@." label
    outcome.Outcome.violations
    (match outcome.Outcome.last_violation with
    | Some r -> string_of_int r
    | None -> "-")
    outcome.Outcome.achieved spark

let () =
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  let server = Control.server ~alphabet (Enum.get_exn dialects 2) in
  Format.printf "plant bound ±10, actuator dialect = rotation 2, horizon %d@.@." horizon;
  trace "universal" (Control.universal_user ~alphabet dialects) server 1;
  trace "oracle" (Control.informed_user ~alphabet (Enum.get_exn dialects 2)) server 2;
  trace "wrong-fixed" (Control.informed_user ~alphabet (Enum.get_exn dialects 0)) server 3;
  trace "uncontrolled"
    (Strategy.stateless ~name:"idle" (fun (_ : Io.User.obs) -> Io.User.silent))
    server 4;
  Format.printf
    "@.reading: each character is 100 rounds; '.' = plant in range, '#' = out of range.@.";
  Format.printf
    "the universal user's '#'s stop once it settles on the right dialect.@."
