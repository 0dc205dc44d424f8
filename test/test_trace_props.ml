(* Trace-invariant property suite: randomised runs (with and without
   fault stacks) whose recorded traces must satisfy the structural
   invariants of Trace, plus determinism and no-perturbation laws for
   the tracing machinery itself. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_faults

let qcount = 40
let alphabet = 4
let dialects = Dialect.enumerate_rotations ~size:alphabet

(* Randomised fault stacks, as in test_faults. *)
let spec_frag_gen =
  QCheck.Gen.(
    oneof
      [
        return "nop";
        map (Printf.sprintf "delay:%d") (int_bound 2);
        map (fun d -> Printf.sprintf "drop:0.%d" d) (int_bound 3);
        return "dup";
        map (fun d -> Printf.sprintf "corrupt:0.%d" d) (int_bound 3);
        map (Printf.sprintf "reorder:%d") (int_bound 2);
        return "burst:0.2,0.3,0.8";
        map (fun k -> Printf.sprintf "crash:%d" (10 + k)) (int_bound 40);
        return "intermittent:10,3";
        map (Printf.sprintf "adversary:%d") (int_bound 15);
      ])

let stack_spec_gen =
  QCheck.Gen.(map (String.concat "+") (list_size (1 -- 3) spec_frag_gen))

let stack_spec_arb = QCheck.make stack_spec_gen ~print:(fun s -> s)

let doc = [ 3; 1 ]
let printing_goal = Printing.goal ~docs:[ doc ] ~alphabet ()

let faulted_printing_trace ~spec ~seed ~horizon =
  let server =
    Fault.apply
      (match Fault.stack_of_string ~alphabet spec with
      | Ok f -> f
      | Error e -> invalid_arg e)
      (Printing.server ~alphabet (Enum.get_exn dialects (seed mod alphabet)))
  in
  let user = Printing.universal_user ~alphabet dialects in
  Goalcom_obs.Recorder.record (fun () ->
      Exec.run
        ~config:(Exec.config ~horizon ())
        ~goal:printing_goal ~user ~server (Rng.make seed))

let holds invariants events =
  match Trace.check invariants events with
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_report msg

let prop_rounds_increase =
  QCheck.Test.make ~count:qcount ~name:"Trace: round numbers strictly increase"
    QCheck.(pair stack_spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let _, events = faulted_printing_trace ~spec ~seed ~horizon:250 in
      holds [ Trace.rounds_increase ] events)

let prop_no_emission_after_drain =
  QCheck.Test.make ~count:qcount
    ~name:"Trace: no emission after the user halts (beyond drain)"
    QCheck.(pair stack_spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let _, events = faulted_printing_trace ~spec ~seed ~horizon:250 in
      holds [ Trace.no_emission_after_drain ] events)

(* Switch events come from the compact construction; drive it with the
   magic-number toy so the enumeration demonstrably scans and settles. *)

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

let sender i =
  Strategy.make
    ~name:(Printf.sprintf "send-%d" i)
    ~init:(fun () -> ())
    ~step:(fun _rng () (_ : Io.User.obs) -> ((), Io.User.say_world (Msg.Int i)))

let senders n = Enum.tabulate ~name:"senders" n sender

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let streak_sensing =
  Helpers.of_view_predicate ~name:"streak" (fun view ->
      match Helpers.View_list.latest view with
      | Some e -> e.View.from_world <> Msg.Int 0
      | None -> false)

let compact_trace ~k ~n ~grace ~retries ~seed =
  let user =
    Universal.compact ~grace ~retries ~enum:(senders n)
      ~sensing:streak_sensing ()
  in
  Goalcom_obs.Recorder.record (fun () ->
      Exec.run
        ~config:(Exec.config ~horizon:150 ())
        ~goal:(compact_goal k) ~user ~server:idle_server (Rng.make seed))

let compact_params =
  QCheck.make
    ~print:(fun (k, n, grace, retries, seed) ->
      Printf.sprintf "k=%d n=%d grace=%d retries=%d seed=%d" k n grace retries
        seed)
    QCheck.Gen.(
      let* n = 2 -- 6 in
      let* k = 0 -- (n - 1) in
      let* grace = 1 -- 3 in
      let* retries = 0 -- 2 in
      let* seed = int_bound 100_000 in
      return (k, n, grace, retries, seed))

let prop_switch_follows_negative =
  QCheck.Test.make ~count:qcount
    ~name:"Trace: every switch is preceded by a negative verdict"
    compact_params
    (fun (k, n, grace, retries, seed) ->
      let _, events = compact_trace ~k ~n ~grace ~retries ~seed in
      (* The run must actually exercise switching for the property to
         mean anything; with k > 0 the enumeration starts wrong. *)
      let switches =
        List.exists (function Trace.Switch _ -> true | _ -> false) events
      in
      QCheck.assume (k = 0 || switches);
      holds [ Trace.switch_follows_negative ] events)

let prop_trace_deterministic =
  QCheck.Test.make ~count:qcount
    ~name:"Trace: same seed, same fault stack => bit-identical trace"
    QCheck.(pair stack_spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let _, a = faulted_printing_trace ~spec ~seed ~horizon:200 in
      let _, b = faulted_printing_trace ~spec ~seed ~horizon:200 in
      Goalcom_obs.Jsonl.to_lines a = Goalcom_obs.Jsonl.to_lines b)

let prop_tracing_does_not_perturb =
  (* The sink must be write-only: the history of a traced run is the
     history of the untraced run, fault stacks included. *)
  QCheck.Test.make ~count:qcount
    ~name:"Trace: recording does not change the execution"
    QCheck.(pair stack_spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let run () =
        let server =
          Fault.apply
            (match Fault.stack_of_string ~alphabet spec with
            | Ok f -> f
            | Error e -> invalid_arg e)
            (Printing.server ~alphabet
               (Enum.get_exn dialects (seed mod alphabet)))
        in
        Exec.run
          ~config:(Exec.config ~horizon:200 ())
          ~goal:printing_goal
          ~user:(Printing.universal_user ~alphabet dialects)
          ~server (Rng.make seed)
      in
      let untraced = run () in
      let traced, _ = Goalcom_obs.Recorder.record run in
      Helpers.history_rounds untraced = Helpers.history_rounds traced)

let prop_history_replay_matches_live =
  (* History.trace_events reconstructs exactly the engine-level
     subsequence of the live trace (everything except Run_start and the
     strategy/fault events). *)
  QCheck.Test.make ~count:qcount
    ~name:"Trace: post-hoc history replay matches the live engine events"
    QCheck.(pair stack_spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let history, events = faulted_printing_trace ~spec ~seed ~horizon:200 in
      let live_engine =
        List.filter
          (function
            | Trace.Round_start _ | Trace.Emit _ | Trace.Halt _
            | Trace.Run_end _ ->
                true
            | _ -> false)
          events
      in
      History.trace_events history = live_engine)

(* Directed unit checks: the invariant checker must actually reject. *)

let test_check_rejects_bad_rounds () =
  let bad =
    [ Trace.Round_start { round = 1 }; Trace.Round_start { round = 1 } ]
  in
  match Trace.check Trace.standard bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-increasing rounds accepted"

let test_check_rejects_late_emission () =
  let bad =
    [
      Trace.Run_start
        {
          goal = "g";
          user = "u";
          server = "s";
          horizon = 10;
          drain = 1;
          world_choice = 0;
        };
      Trace.Halt { round = 2 };
      Trace.Emit
        { round = 4; src = Trace.User; dst = Trace.Server; msg = Msg.Int 0 };
    ]
  in
  match Trace.check [ Trace.no_emission_after_drain ] bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "post-drain emission accepted"

let test_check_rejects_unjustified_switch () =
  let bad =
    [
      Trace.Sense
        { round = 3; sensor = "s"; positive = true; clock = 1; patience = 1 };
      Trace.Switch { round = 3; from_index = 0; to_index = 1; attempt = 0 };
    ]
  in
  match Trace.check [ Trace.switch_follows_negative ] bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "switch after positive verdict accepted"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_rounds_increase;
    QCheck_alcotest.to_alcotest prop_no_emission_after_drain;
    QCheck_alcotest.to_alcotest prop_switch_follows_negative;
    QCheck_alcotest.to_alcotest prop_trace_deterministic;
    QCheck_alcotest.to_alcotest prop_tracing_does_not_perturb;
    QCheck_alcotest.to_alcotest prop_history_replay_matches_live;
    Alcotest.test_case "check rejects bad rounds" `Quick
      test_check_rejects_bad_rounds;
    Alcotest.test_case "check rejects late emission" `Quick
      test_check_rejects_late_emission;
    Alcotest.test_case "check rejects unjustified switch" `Quick
      test_check_rejects_unjustified_switch;
  ]

let () = Alcotest.run "trace-props" [ ("trace", suite) ]
