(* Unit tests for the core model: messages, strategies and instances,
   histories and views, referees, outcomes and the execution engine. *)

open Goalcom
open Goalcom_prelude
module View_list = Helpers.View_list

(* Msg *)

let test_msg_equal_compare () =
  Alcotest.(check bool) "equal" true
    (Msg.equal (Msg.Pair (Msg.Int 1, Msg.Sym 2)) (Msg.Pair (Msg.Int 1, Msg.Sym 2)));
  Alcotest.(check bool) "not equal" false (Msg.equal (Msg.Int 1) (Msg.Int 2));
  Alcotest.(check bool) "silence" true (Msg.is_silence Msg.Silence);
  Alcotest.(check bool) "ordered" true (Msg.compare (Msg.Int 1) (Msg.Int 2) < 0)

let test_msg_pp () =
  Alcotest.(check string) "sym" "#3" (Msg.to_string (Msg.Sym 3));
  Alcotest.(check string) "pair" "(1,_)" (Msg.to_string (Msg.Pair (Msg.Int 1, Msg.Silence)));
  Alcotest.(check string) "seq" "[1;2]" (Msg.to_string (Msg.Seq [ Msg.Int 1; Msg.Int 2 ]))

let test_msg_accessors () =
  Alcotest.(check (option int)) "sym" (Some 4) (Msg.sym_opt (Msg.Sym 4));
  Alcotest.(check (option int)) "not sym" None (Msg.sym_opt (Msg.Int 4));
  Alcotest.(check (option string)) "text" (Some "x") (Msg.text_opt (Msg.Text "x"))

let test_msg_string_roundtrip () =
  let s = "hello world" in
  Alcotest.(check (option string)) "roundtrip" (Some s)
    (Msg.string_of_seq (Msg.seq_of_string s));
  Alcotest.(check (option string)) "reject" None
    (Msg.string_of_seq (Msg.Seq [ Msg.Text "no" ]))

(* Strategy / Instance *)

let counter_user =
  Strategy.make ~name:"counter"
    ~init:(fun () -> 0)
    ~step:(fun _rng n (_ : Io.User.obs) ->
      (n + 1, Io.User.say_world (Msg.Int n)))

let test_instance_steps_and_restart () =
  let rng = Rng.make 1 in
  let inst = Strategy.Instance.create counter_user in
  let obs round =
    { Io.User.from_server = Msg.Silence; from_world = Msg.Silence; round }
  in
  let a1 = Strategy.Instance.step rng inst (obs 1) in
  let a2 = Strategy.Instance.step rng inst (obs 2) in
  Alcotest.(check bool) "first" true (a1.Io.User.to_world = Msg.Int 0);
  Alcotest.(check bool) "second" true (a2.Io.User.to_world = Msg.Int 1);
  Alcotest.(check int) "rounds" 2 (Strategy.Instance.rounds inst);
  Strategy.Instance.restart inst;
  Alcotest.(check int) "rounds reset" 0 (Strategy.Instance.rounds inst);
  let a3 = Strategy.Instance.step rng inst (obs 3) in
  Alcotest.(check bool) "restarted" true (a3.Io.User.to_world = Msg.Int 0)

let test_fresh_instances_independent () =
  (* init is a thunk: two instances never share state. *)
  let rng = Rng.make 2 in
  let i1 = Strategy.Instance.create counter_user in
  let i2 = Strategy.Instance.create counter_user in
  let obs = { Io.User.from_server = Msg.Silence; from_world = Msg.Silence; round = 1 } in
  ignore (Strategy.Instance.step rng i1 obs);
  ignore (Strategy.Instance.step rng i1 obs);
  let a = Strategy.Instance.step rng i2 obs in
  Alcotest.(check bool) "independent" true (a.Io.User.to_world = Msg.Int 0)

let test_strategy_rename_map () =
  let u = Strategy.rename "renamed" counter_user in
  Alcotest.(check string) "rename" "renamed" (Strategy.name u);
  let doubled =
    Strategy.map_act
      (fun (a : Io.User.act) ->
        match a.to_world with
        | Msg.Int n -> { a with Io.User.to_world = Msg.Int (2 * n) }
        | _ -> a)
      counter_user
  in
  let rng = Rng.make 3 in
  let inst = Strategy.Instance.create doubled in
  let obs = { Io.User.from_server = Msg.Silence; from_world = Msg.Silence; round = 1 } in
  ignore (Strategy.Instance.step rng inst obs);
  let a = Strategy.Instance.step rng inst obs in
  Alcotest.(check bool) "mapped" true (a.Io.User.to_world = Msg.Int 2)

(* A tiny echo goal used to exercise the engine end to end: the world
   wants to hear Int 7 directly from the user. *)
let echo_world =
  World.make ~name:"echo-world"
    ~init:(fun () -> false)
    ~step:(fun _rng got (obs : Io.World.obs) ->
      let got = got || obs.from_user = Msg.Int 7 in
      (got, Io.World.say_user (Msg.Text (if got then "done" else "waiting"))))
    ~view:(fun got -> Msg.Text (if got then "done" else "waiting"))

let echo_goal =
  Goal.make ~name:"echo"
    ~worlds:[ echo_world ]
    ~referee:
      (Helpers.finite_pred "heard-7" (fun views -> List.mem (Msg.Text "done") views))

let send7_and_halt =
  Strategy.make ~name:"send7"
    ~init:(fun () -> `Sending)
    ~step:(fun _rng state (obs : Io.User.obs) ->
      match state with
      | `Sending -> (`Waiting, Io.User.say_world (Msg.Int 7))
      | `Waiting ->
          if obs.from_world = Msg.Text "done" then (`Waiting, Io.User.halt_act)
          else (`Waiting, Io.User.silent))

let idle_server =
  Strategy.stateless ~name:"idle-server" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let test_exec_achieves_echo () =
  let outcome, history =
    Exec.run_outcome ~goal:echo_goal ~user:send7_and_halt ~server:idle_server
      (Rng.make 4)
  in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved;
  Alcotest.(check bool) "halted" true outcome.Outcome.halted;
  (* Round 1: user sends 7.  Round 2: world hears it.  Round 3: user sees
     "done" and halts.  Plus drain. *)
  Alcotest.(check (option int)) "halt round" (Some 3) (History.halt_round history);
  Alcotest.(check int) "drain preserved" 5 (History.length history)

let test_exec_horizon_truncates () =
  let never_halt =
    Strategy.stateless ~name:"mute" (fun (_ : Io.User.obs) -> Io.User.silent)
  in
  let outcome, history =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:17 ())
      ~goal:echo_goal ~user:never_halt ~server:idle_server (Rng.make 5)
  in
  Alcotest.(check int) "horizon" 17 (History.length history);
  Alcotest.(check bool) "failed" false outcome.Outcome.achieved

let test_exec_message_timing () =
  (* A message sent by the user in round r is observed by the server in
     round r+1, and the server's reply in round r+2. *)
  let ping =
    Strategy.make ~name:"ping"
      ~init:(fun () -> true)
      ~step:(fun _rng first (_ : Io.User.obs) ->
        if first then (false, Io.User.say_server (Msg.Int 1))
        else (false, Io.User.silent))
  in
  let echo_server =
    Strategy.stateless ~name:"echo-server" (fun (obs : Io.Server.obs) ->
        match obs.from_user with
        | Msg.Silence -> Io.Server.silent
        | m -> Io.Server.say_user m)
  in
  let history =
    Exec.run
      ~config:(Exec.config ~horizon:5 ())
      ~goal:echo_goal ~user:ping ~server:echo_server (Rng.make 6)
  in
  let round n = List.nth (Helpers.history_rounds history) (n - 1) in
  Alcotest.(check bool) "user sends in r1" true
    ((round 1).History.Round.user_to_server = Msg.Int 1);
  Alcotest.(check bool) "server silent in r1" true
    ((round 1).History.Round.server_to_user = Msg.Silence);
  Alcotest.(check bool) "server echoes in r2" true
    ((round 2).History.Round.server_to_user = Msg.Int 1)

let test_exec_determinism () =
  let run () =
    Exec.run ~goal:echo_goal ~user:send7_and_halt ~server:idle_server
      (Rng.make 7)
  in
  Alcotest.(check int) "same length" (History.length (run ()))
    (History.length (run ()));
  Alcotest.(check bool) "same views" true
    (History.world_views (run ()) = History.world_views (run ()))

(* History / View *)

let make_history () =
  Exec.run ~goal:echo_goal ~user:send7_and_halt ~server:idle_server (Rng.make 9)

let test_history_accessors () =
  let h = make_history () in
  Alcotest.(check int) "views = rounds + 1"
    (History.length h + 1)
    (List.length (History.world_views h));
  Alcotest.(check bool) "halted" true (History.halted h);
  Alcotest.(check bool) "views_rev reverses" true
    (History.world_views_rev h = List.rev (History.world_views h));
  let p = History.prefix 2 h in
  Alcotest.(check int) "prefix" 2 (History.length p);
  Alcotest.(check int) "oversized prefix is the whole history"
    (History.length h)
    (History.length (History.prefix (History.length h + 5) h));
  Alcotest.check_raises "negative prefix"
    (Invalid_argument "History.prefix: negative n (-1)") (fun () ->
      ignore (History.prefix (-1) h))

let test_history_validation () =
  Alcotest.check_raises "bad index"
    (Invalid_argument "History.make: round 1 has index 3") (fun () ->
      let r =
        {
          History.Round.index = 3;
          user_to_server = Msg.Silence;
          user_to_world = Msg.Silence;
          server_to_user = Msg.Silence;
          server_to_world = Msg.Silence;
          world_to_user = Msg.Silence;
          world_to_server = Msg.Silence;
          world_view = Msg.Silence;
          user_halted = false;
        }
      in
      ignore (History.make ~initial_world_view:Msg.Silence [ r ]))

let test_view_projection () =
  let h = make_history () in
  let v = View_list.of_history h in
  Alcotest.(check int) "one event per round" (History.length h) (View_list.length v);
  let events = View_list.events v in
  let first = List.hd events in
  Alcotest.(check int) "round numbering" 1 first.View.round;
  (* The user received silence in round 1 (nothing was in flight). *)
  Alcotest.(check bool) "round-1 obs silent" true
    (Msg.is_silence first.View.from_world && Msg.is_silence first.View.from_server);
  (* The user's round-1 send is its Int 7 to the world. *)
  Alcotest.(check bool) "round-1 send" true (first.View.to_world = Msg.Int 7);
  (* Event r carries the messages emitted in round r-1. *)
  let second = List.nth events 1 in
  Alcotest.(check bool) "lagged delivery" true
    (second.View.from_world = Msg.Text "waiting")

let test_view_prefixes_consistent () =
  let h = make_history () in
  let prefixes = View_list.prefixes h in
  Alcotest.(check int) "count" (History.length h) (List.length prefixes);
  List.iteri
    (fun i v -> Alcotest.(check int) "length" (i + 1) (View_list.length v))
    prefixes;
  let full = View_list.of_history h in
  Alcotest.(check bool) "last prefix = full view" true
    (View_list.events (Listx.last prefixes) = View_list.events full)

let test_view_last_n () =
  let h = make_history () in
  let v = View_list.of_history h in
  let last2 = View_list.last_n 2 v in
  Alcotest.(check int) "two" 2 (List.length last2);
  Alcotest.(check bool) "chronological" true
    ((List.hd last2).View.round < (List.nth last2 1).View.round)

(* Referee / Outcome *)

let test_referee_finite () =
  let r = Helpers.finite_pred "has-3" (fun views -> List.mem (Msg.Int 3) views) in
  Alcotest.(check bool) "finite" true (Referee.is_finite r);
  Alcotest.(check string) "name" "has-3" (Referee.name r)

let test_referee_compact_violations () =
  (* Compact referee: prefix acceptable iff current view is >= 0. *)
  let r =
    Helpers.compact_pred "non-negative" (fun views_rev ->
        match views_rev with Msg.Int n :: _ -> n >= 0 | _ -> true)
  in
  let rounds =
    List.mapi
      (fun i v ->
        {
          History.Round.index = i + 1;
          user_to_server = Msg.Silence;
          user_to_world = Msg.Silence;
          server_to_user = Msg.Silence;
          server_to_world = Msg.Silence;
          world_to_user = Msg.Silence;
          world_to_server = Msg.Silence;
          world_view = Msg.Int v;
          user_halted = false;
        })
      [ 1; -1; 2; -5; 3 ]
  in
  let h = History.make ~initial_world_view:(Msg.Int 0) rounds in
  Alcotest.(check (list int)) "violation rounds" [ 2; 4 ] (Referee.violations r h)

let test_outcome_compact_tail_window () =
  let referee =
    Helpers.compact_pred "non-negative" (fun views_rev ->
        match views_rev with Msg.Int n :: _ -> n >= 0 | _ -> true)
  in
  let world_of_values values =
    World.make ~name:"scripted"
      ~init:(fun () -> values)
      ~step:(fun _rng vs (_ : Io.World.obs) ->
        match vs with
        | [] -> ([], Io.World.silent)
        | _ :: rest -> (rest, Io.World.silent))
      ~view:(fun vs -> Msg.Int (match vs with v :: _ -> v | [] -> 0))
  in
  (* Violations early only: achieved.  Violations in tail: failed. *)
  let goal_of values =
    Goal.make ~name:"scripted" ~worlds:[ world_of_values values ] ~referee
  in
  let mute = Strategy.stateless ~name:"mute" (fun (_ : Io.User.obs) -> Io.User.silent) in
  let run goal =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:10 ())
      ~tail_window:3 ~goal ~user:mute ~server:idle_server (Rng.make 10)
  in
  (* The world view in round r is the value at index r; index 0 is the
     initial view (not judged). *)
  let early, _ = run (goal_of [ -1; -1; -1; 1; 1; 1; 1; 1; 1; 1; 1 ]) in
  Alcotest.(check bool) "early violations ok" true early.Outcome.achieved;
  Alcotest.(check int) "counted" 2 early.Outcome.violations;
  let late, _ = run (goal_of [ 1; 1; 1; 1; 1; 1; 1; 1; 1; -1; 1 ]) in
  Alcotest.(check bool) "late violation fails" false late.Outcome.achieved

let test_goal_worlds () =
  let g =
    Goal.make ~name:"multi"
      ~worlds:[ echo_world; echo_world; echo_world ]
      ~referee:(Helpers.finite_pred "t" (fun _ -> true))
  in
  Alcotest.(check int) "num worlds" 3 (Goal.num_worlds g);
  Alcotest.(check string) "choice cycles" (World.name (Goal.world ~choice:4 g))
    (World.name (Goal.world ~choice:1 g));
  Alcotest.check_raises "empty" (Invalid_argument "Goal.make: no worlds")
    (fun () ->
      ignore
        (Goal.make ~name:"x" ~worlds:[] ~referee:(Helpers.finite_pred "t" (fun _ -> true))))

let test_exec_config_validation () =
  Alcotest.check_raises "horizon"
    (Invalid_argument "Exec.config: horizon must be positive") (fun () ->
      ignore (Exec.config ~horizon:0 ()))

let () =
  Alcotest.run "core"
    [
      ( "msg",
        [
          Alcotest.test_case "equal/compare" `Quick test_msg_equal_compare;
          Alcotest.test_case "pp" `Quick test_msg_pp;
          Alcotest.test_case "accessors" `Quick test_msg_accessors;
          Alcotest.test_case "string roundtrip" `Quick test_msg_string_roundtrip;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "instance steps/restart" `Quick test_instance_steps_and_restart;
          Alcotest.test_case "instances independent" `Quick test_fresh_instances_independent;
          Alcotest.test_case "rename/map" `Quick test_strategy_rename_map;
        ] );
      ( "exec",
        [
          Alcotest.test_case "achieves echo goal" `Quick test_exec_achieves_echo;
          Alcotest.test_case "horizon truncates" `Quick test_exec_horizon_truncates;
          Alcotest.test_case "message timing" `Quick test_exec_message_timing;
          Alcotest.test_case "determinism" `Quick test_exec_determinism;
          Alcotest.test_case "config validation" `Quick test_exec_config_validation;
        ] );
      ( "history",
        [
          Alcotest.test_case "accessors" `Quick test_history_accessors;
          Alcotest.test_case "validation" `Quick test_history_validation;
        ] );
      ( "view",
        [
          Alcotest.test_case "projection" `Quick test_view_projection;
          Alcotest.test_case "prefixes" `Quick test_view_prefixes_consistent;
          Alcotest.test_case "last_n" `Quick test_view_last_n;
        ] );
      ( "referee",
        [
          Alcotest.test_case "finite" `Quick test_referee_finite;
          Alcotest.test_case "compact violations" `Quick test_referee_compact_violations;
          Alcotest.test_case "outcome tail window" `Quick test_outcome_compact_tail_window;
          Alcotest.test_case "goal worlds" `Quick test_goal_worlds;
        ] );
    ]
