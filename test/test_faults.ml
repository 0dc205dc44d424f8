(* Tests for the fault-injection layer and the crash-tolerance
   machinery it motivates: the Fault combinators, qcheck properties
   (safety under faults, determinism, identity faults), checkpointed
   enumeration resume, the wedge detector, retry backoff, tolerant
   sensing, and the E16 invariants. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_faults
module View_list = Helpers.View_list

let alphabet = 4
let dialects = Dialect.enumerate_rotations ~size:alphabet

let fault_of spec =
  match Fault.stack_of_string ~alphabet spec with
  | Ok f -> f
  | Error e -> Alcotest.fail e

(* Driving a server strategy directly, one message per round. *)

let echo_server =
  Strategy.stateless ~name:"echo" (fun (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Silence -> Io.Server.silent
      | m -> Io.Server.say_user m)

let drive ?(seed = 1) server msgs =
  let rng = Rng.make seed in
  let inst = Strategy.Instance.create server in
  List.map
    (fun m ->
      (Strategy.Instance.step rng inst
         { Io.Server.from_user = m; from_world = Msg.Silence })
        .Io.Server.to_user)
    msgs

(* Combinator unit tests *)

let counter_server =
  (* Replies [Int n] where n counts the rounds served so far — state
     that a crash visibly wipes. *)
  Strategy.make ~name:"counter"
    ~init:(fun () -> 0)
    ~step:(fun _rng n (_ : Io.Server.obs) ->
      (n + 1, Io.Server.say_user (Msg.Int (n + 1))))

let test_crash_restart_resets_state () =
  let faulted = Fault.apply (fault_of "crash:3") counter_server in
  let outs = drive faulted (List.init 7 (fun _ -> Msg.Int 0)) in
  Alcotest.(check bool)
    "counter wiped every 3 rounds" true
    (outs
    = [ Msg.Int 1; Msg.Int 2; Msg.Int 3; Msg.Int 1; Msg.Int 2; Msg.Int 3;
        Msg.Int 1 ])

let test_intermittent_outage_is_silent () =
  let faulted = Fault.apply (fault_of "intermittent:2,2") echo_server in
  let outs = drive faulted (List.init 6 (fun i -> Msg.Int i)) in
  Alcotest.(check bool)
    "on 2 / off 2 schedule" true
    (outs
    = [ Msg.Int 0; Msg.Int 1; Msg.Silence; Msg.Silence; Msg.Int 4; Msg.Int 5 ])

let test_adversary_budget_exhausts () =
  let faulted = Fault.apply (fault_of "adversary:2") echo_server in
  let outs = drive faulted (List.init 5 (fun i -> Msg.Int i)) in
  (* The first two inbound messages are starved (echo hears silence);
     once the budget is spent the link is transparent. *)
  Alcotest.(check bool)
    "clean after budget" true
    (List.filteri (fun i _ -> i >= 2) outs = [ Msg.Int 2; Msg.Int 3; Msg.Int 4 ]);
  Alcotest.(check bool)
    "starved within budget" true
    (List.nth outs 0 = Msg.Silence && List.nth outs 1 = Msg.Silence)

let test_reorder_conserves_messages () =
  let faulted = Fault.apply (fault_of "reorder:3") echo_server in
  let sent = List.init 8 (fun i -> Msg.Int i) in
  let outs =
    drive faulted (sent @ List.init 8 (fun _ -> Msg.Silence))
  in
  let delivered = List.filter (fun m -> m <> Msg.Silence) outs in
  Alcotest.(check int) "nothing lost or invented" 8 (List.length delivered);
  Alcotest.(check bool)
    "same multiset" true
    (List.sort compare delivered = List.sort compare sent)

let test_corrupt_flips_to_valid_symbol () =
  let faulted = Fault.apply (Fault.corrupt ~alphabet ~prob:1.0) echo_server in
  let outs = drive faulted (List.init 20 (fun _ -> Msg.Sym 2)) in
  List.iter
    (function
      | Msg.Sym s ->
          Alcotest.(check bool) "valid symbol" true (s >= 0 && s < alphabet)
      | Msg.Silence -> ()
      | m -> Alcotest.failf "unexpected message %s" (Format.asprintf "%a" Msg.pp m))
    outs;
  (* Corruption happens on both directions, so a double flip can land
     back on 2; what cannot happen is every output being 2. *)
  Alcotest.(check bool)
    "some symbol changed" true
    (List.exists (fun m -> m <> Msg.Sym 2 && m <> Msg.Silence) outs)

let test_compose_order_and_name () =
  let f = Fault.compose (Fault.delay ~rounds:1) Fault.duplicate in
  Alcotest.(check string) "name" "delay(1)+dup" (Fault.name f);
  Alcotest.(check string) "nop unit" "delay(1)"
    (Fault.name (Fault.compose (Fault.delay ~rounds:1) Fault.nop));
  Alcotest.(check string) "stack of none" "nop" (Fault.name (Fault.stack []))

let test_spec_parser () =
  (match Fault.of_string ~alphabet "burst:0.1,0.2,0.9" with
  | Ok f -> Alcotest.(check string) "burst name" "burst(0.10,0.20,0.90)" (Fault.name f)
  | Error e -> Alcotest.fail e);
  (match Fault.stack_of_string ~alphabet "corrupt:0.05+crash:60" with
  | Ok f -> Alcotest.(check string) "stack name" "corrupt(0.05)+crash(60)" (Fault.name f)
  | Error e -> Alcotest.fail e);
  (match Fault.of_string ~alphabet "bogus:1" with
  | Ok _ -> Alcotest.fail "bogus spec accepted"
  | Error _ -> ());
  List.iter
    (fun spec ->
      match Fault.of_string ~alphabet spec with
      | Ok _ -> Alcotest.failf "out-of-range prob accepted: %S" spec
      | Error _ -> ())
    [ "drop:1.5"; "drop:nan"; "loss:nan"; "corrupt:nan"; "burst:0.1,nan,0.9" ]

(* Fuzzed specs: random bytes, grammar-alphabet noise and edited valid
   stacks.  The parser answers Ok/Error (or raises Invalid_argument),
   never another exception, within a second; an accepted stack's name
   carries no NaN or infinite parameter. *)
let prop_stack_of_string_total =
  let valid =
    [
      "nop"; "delay:3"; "drop:0.1"; "loss:0.25"; "dup"; "corrupt:0.05";
      "reorder:2"; "burst:0.1,0.2,0.9"; "crash:60"; "intermittent:5,3";
      "adversary:4"; "corrupt:0.05+crash:60"; "crash:60+loss:0.1+dup";
    ]
  in
  let finite_name f =
    let name = String.lowercase_ascii (Fault.name f) in
    not (Helpers.contains name "nan" || Helpers.contains name "inf")
  in
  QCheck.Test.make ~count:2000 ~name:"Fault.stack_of_string: fuzzed specs fail cleanly"
    (QCheck.make ~print:String.escaped (Helpers.spec_fuzz_gen ~valid))
    (Helpers.parser_total ~accepted:finite_name (Fault.stack_of_string ~alphabet))

(* Malformed specs must come back with an error a user can act on: the
   offending token, and — for unknown names — the full vocabulary. *)
let test_spec_errors () =
  let err spec =
    match Fault.stack_of_string ~alphabet spec with
    | Ok _ -> Alcotest.failf "malformed spec %S accepted" spec
    | Error e -> e
  in
  let check_contains spec needle =
    let e = err spec in
    if not (Helpers.contains e needle) then
      Alcotest.failf "error for %S does not mention %s: %s" spec needle e
  in
  (* Unknown names: the token itself plus every valid fault name. *)
  check_contains "bogus:1" "unknown fault \"bogus\"";
  List.iter
    (fun name -> check_contains "bogus:1" name)
    [
      "nop"; "delay:K"; "drop:P"; "dup"; "corrupt:P"; "reorder:K";
      "burst:PENTER,PEXIT,PDROP"; "crash:K"; "intermittent:ON,OFF";
      "adversary:B";
    ];
  check_contains "dealy:3" "unknown fault \"dealy\"";
  (* Wrong arity quotes the expected shape of the named fault. *)
  check_contains "delay" "\"delay\" wants the form delay:K";
  check_contains "delay:1,2" "\"delay\" wants the form delay:K";
  check_contains "burst:0.1,0.2" "\"burst\" wants the form burst:PENTER,PEXIT,PDROP";
  check_contains "nop:1" "\"nop\" wants the form nop";
  check_contains "intermittent:5" "\"intermittent\" wants the form intermittent:ON,OFF";
  (* Unparsable arguments and out-of-range values name the offender. *)
  check_contains "delay:x" "delay:K wants an integer";
  check_contains "drop:zz" "drop:P wants a float";
  check_contains "crash:60+drop:zz" "drop:zz";
  (* The component inside a stack is quoted, not the whole stack. *)
  check_contains "crash:60+bogus:1" "bad fault spec \"bogus:1\""

(* [loss:P] is the network-link spelling of [drop:P] (lib/net link
   specs); it must parse to the same wrapper and reject malformed
   probabilities with its own grammar name. *)
let test_loss_alias () =
  (match Fault.of_string ~alphabet "loss:0.25" with
  | Ok f -> Alcotest.(check string) "loss = drop" "drop(0.25)" (Fault.name f)
  | Error e -> Alcotest.fail e);
  (match Fault.stack_of_string ~alphabet "crash:60+loss:0.1+dup" with
  | Ok f ->
      Alcotest.(check string) "loss in a stack" "crash(60)+drop(0.10)+dup"
        (Fault.name f)
  | Error e -> Alcotest.fail e);
  let err spec =
    match Fault.of_string ~alphabet spec with
    | Ok _ -> Alcotest.failf "malformed spec %S accepted" spec
    | Error e -> e
  in
  let check_contains spec needle =
    let e = err spec in
    if not (Helpers.contains e needle) then
      Alcotest.failf "error for %S does not mention %s: %s" spec needle e
  in
  check_contains "loss:zz" "loss:P wants a float";
  check_contains "loss" "\"loss\" wants the form loss:P";
  check_contains "loss:0.1,0.2" "\"loss\" wants the form loss:P";
  check_contains "loss:1.5" "prob";
  check_contains "loss:-0.1" "prob";
  (* The alias is advertised in the unknown-name vocabulary. *)
  check_contains "bogus:1" "loss:P"

(* qcheck properties *)

let qcount = 120

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

let faulted_printing_run ~spec ~dialect_idx ~seed ~horizon =
  let server =
    Fault.apply
      (match Fault.stack_of_string ~alphabet spec with
      | Ok f -> f
      | Error e -> invalid_arg e)
      (Printing.server ~alphabet (Enum.get_exn dialects dialect_idx))
  in
  let user = Printing.universal_user ~alphabet dialects in
  Exec.run
    ~config:(Exec.config ~horizon ())
    ~goal:printing_goal ~user ~server (Rng.make seed)

let prop_sensing_safe_under_faults =
  (* Whatever the fault stack does to the server, a positive sensing
     verdict must certify real achievement: the referee accepts the
     history prefix the verdict was computed from. *)
  QCheck.Test.make ~count:qcount ~name:"Fault: sensing never lies under faults"
    QCheck.(pair stack_spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let history =
        faulted_printing_run ~spec ~dialect_idx:(seed mod alphabet) ~seed
          ~horizon:400
      in
      List.for_all
        (fun (round, verdict) ->
          verdict = Sensing.Negative
          || Referee.decide_finite printing_goal.Goal.referee
               (History.prefix round history))
        (Sensing.verdicts Printing.sensing history))

let prop_fault_runs_deterministic =
  QCheck.Test.make ~count:qcount ~name:"Fault: same seed, same history"
    QCheck.(pair stack_spec_arb (int_bound 100_000))
    (fun (spec, seed) ->
      let run () =
        faulted_printing_run ~spec ~dialect_idx:(seed mod alphabet) ~seed
          ~horizon:200
      in
      Helpers.history_rounds (run ()) = Helpers.history_rounds (run ()))

let identity_specs =
  [ "nop"; "delay:0"; "drop:0.0"; "corrupt:0.0"; "reorder:0"; "intermittent:9,0" ]

let prop_identity_faults_are_noops =
  QCheck.Test.make ~count:qcount ~name:"Fault: zero-strength faults are identity"
    QCheck.(pair (int_bound (List.length identity_specs - 1)) (int_bound 100_000))
    (fun (which, seed) ->
      let spec = List.nth identity_specs which in
      let bare =
        faulted_printing_run ~spec:"nop" ~dialect_idx:(seed mod alphabet) ~seed
          ~horizon:200
      in
      let wrapped =
        faulted_printing_run ~spec ~dialect_idx:(seed mod alphabet) ~seed
          ~horizon:200
      in
      Helpers.history_rounds bare = Helpers.history_rounds wrapped)

(* Checkpointed enumeration: crash-tolerant universal users *)

(* The magic-number toy goals from test_universal, small enough to
   steer the enumeration precisely. *)

let magic_world k =
  World.make
    ~name:(Printf.sprintf "magic-%d" k)
    ~init:(fun () -> false)
    ~step:(fun _rng got (obs : Io.World.obs) ->
      let got = got || obs.from_user = Msg.Int k in
      (got, Io.World.say_user (Msg.Text (if got then "done" else "no"))))
    ~view:(fun got -> Msg.Text (if got then "done" else "no"))

let magic_goal k =
  Goal.make
    ~name:(Printf.sprintf "magic-%d" k)
    ~worlds:[ magic_world k ]
    ~referee:(Helpers.finite_pred "heard" (fun views -> List.mem (Msg.Text "done") views))

let sender i =
  Strategy.make
    ~name:(Printf.sprintf "send-%d" i)
    ~init:(fun () -> ())
    ~step:(fun _rng () (_ : Io.User.obs) -> ((), Io.User.say_world (Msg.Int i)))

let senders n = Enum.tabulate ~name:"senders" n sender

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let done_sensing =
  Helpers.of_view_predicate ~name:"done" (fun view ->
      List.exists
        (fun e -> e.View.from_world = Msg.Text "done")
        (View_list.events_rev view))

let test_finite_checkpoint_resumes_schedule () =
  let cp = Universal.new_checkpoint () in
  let user () =
    Universal.finite ~checkpoint:cp ~enum:(senders 8) ~sensing:done_sensing ()
  in
  (* First incarnation dies (horizon) long before reaching sender 7. *)
  let outcome1, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:40 ())
      ~goal:(magic_goal 7) ~user:(user ()) ~server:idle_server (Rng.make 1)
  in
  Alcotest.(check bool) "first life too short" false outcome1.Outcome.achieved;
  Alcotest.(check bool) "progress checkpointed" true (cp.Universal.saved_slots > 0);
  (* The second incarnation resumes mid-schedule and finishes sooner
     than a from-scratch run would. *)
  let outcome2, resumed_history =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:2000 ())
      ~goal:(magic_goal 7) ~user:(user ()) ~server:idle_server (Rng.make 2)
  in
  Alcotest.(check bool) "resumed life succeeds" true outcome2.Outcome.achieved;
  let _, scratch_history =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:2000 ())
      ~goal:(magic_goal 7)
      ~user:(Universal.finite ~enum:(senders 8) ~sensing:done_sensing ())
      ~server:idle_server (Rng.make 2)
  in
  Alcotest.(check bool) "resume skips completed sessions" true
    (History.length resumed_history < History.length scratch_history)

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

let streak_sensing =
  Helpers.of_view_predicate ~name:"streak-alive" (fun view ->
      match View_list.latest view with
      | Some { View.from_world = Msg.Int streak; _ } -> streak > 0
      | Some _ -> false
      | None -> true)

let test_compact_checkpoint_resumes_index () =
  let cp = Universal.new_checkpoint () in
  let user stats =
    Universal.compact ~grace:1 ~checkpoint:cp ~stats ~enum:(senders 6)
      ~sensing:streak_sensing ()
  in
  let stats1 = Universal.new_stats () in
  let _ =
    Exec.run
      ~config:(Exec.config ~horizon:8 ())
      ~goal:(compact_goal 4) ~user:(user stats1) ~server:idle_server
      (Rng.make 1)
  in
  let resumed_from = cp.Universal.saved_index in
  Alcotest.(check bool) "progress checkpointed" true (resumed_from > 0);
  let stats2 = Universal.new_stats () in
  let outcome, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:1500 ())
      ~goal:(compact_goal 4) ~user:(user stats2) ~server:idle_server
      (Rng.make 2)
  in
  Alcotest.(check bool) "resumed run settles" true outcome.Outcome.achieved;
  (* switches = settled index - resume index proves the second life
     started the enumeration at the checkpoint, not at 0. *)
  Alcotest.(check int) "enumeration resumed at the checkpoint"
    (stats2.Universal.current_index - resumed_from)
    stats2.Universal.switches

(* Wedge detector *)

let test_wedge_detector_breaks_stalls () =
  (* With a huge grace and no wedge detector the user spins on the
     first wrong sender; the wedge detector notices the frozen world
     view and forces re-enumeration. *)
  let run ?wedge_after () =
    let stats = Universal.new_stats () in
    let user =
      Universal.compact ~grace:500 ?wedge_after ~stats ~enum:(senders 6)
        ~sensing:streak_sensing ()
    in
    let outcome, _ =
      Exec.run_outcome
        ~config:(Exec.config ~horizon:120 ())
        ~goal:(compact_goal 4) ~user ~server:idle_server (Rng.make 3)
    in
    (outcome.Outcome.achieved, stats.Universal.switches)
  in
  let stuck_achieved, stuck_switches = run () in
  Alcotest.(check bool) "no wedge detector: stuck" false stuck_achieved;
  Alcotest.(check int) "no wedge detector: no switches" 0 stuck_switches;
  let achieved, switches = run ~wedge_after:3 () in
  Alcotest.(check bool) "wedge detector: achieves" true achieved;
  Alcotest.(check bool) "wedge detector: re-enumerates" true (switches >= 4)

(* Retry with exponential backoff *)

let test_retries_slow_the_enumeration () =
  let switches ~retries =
    let stats = Universal.new_stats () in
    let user =
      Universal.compact ~grace:1 ~retries ~stats ~enum:(senders 6)
        ~sensing:streak_sensing ()
    in
    let _ =
      Exec.run
        ~config:(Exec.config ~horizon:40 ())
        ~goal:(compact_goal 5) ~user ~server:idle_server (Rng.make 4)
    in
    stats.Universal.switches
  in
  let eager = switches ~retries:0 in
  let patient = switches ~retries:2 in
  Alcotest.(check bool) "baseline switches" true (eager > 0);
  (* Each index is retried with doubled patience (1+2+4 rounds) before
     the enumeration advances, so far fewer indices are abandoned. *)
  Alcotest.(check bool)
    (Printf.sprintf "retries spend longer per index (%d < %d)" patient eager)
    true
    (patient < eager)

let test_retries_still_converge () =
  let user =
    Universal.compact ~grace:1 ~retries:2 ~enum:(senders 6)
      ~sensing:streak_sensing ()
  in
  let outcome, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:1500 ())
      ~goal:(compact_goal 4) ~user ~server:idle_server (Rng.make 5)
  in
  Alcotest.(check bool) "achieves despite backoff" true outcome.Outcome.achieved

(* Tolerant sensing *)

let event ~round from_world =
  {
    View.round;
    from_server = Msg.Silence;
    from_world;
    to_server = Msg.Silence;
    to_world = Msg.Silence;
    halted = false;
  }

let view_of_worlds ws =
  List.fold_left
    (fun (v, r) w -> (View_list.extend v (event ~round:r w), r + 1))
    (View_list.empty, 1) ws
  |> fst

let bad_latest =
  Helpers.of_view_predicate ~name:"latest-ok" (fun view ->
      match View_list.latest view with
      | Some { View.from_world = Msg.Int 0; _ } -> false
      | _ -> true)

let pp_verdict ppf = function
  | Sensing.Positive -> Format.pp_print_string ppf "Positive"
  | Sensing.Negative -> Format.pp_print_string ppf "Negative"

let verdict_t = Alcotest.testable pp_verdict ( = )

let test_tolerant_filters_transients () =
  let tol = Sensing.tolerant ~window:3 ~threshold:2 bad_latest in
  (* One bad round in the window: filtered. *)
  let blip = view_of_worlds [ Msg.Int 1; Msg.Int 1; Msg.Int 0 ] in
  Alcotest.check verdict_t "raw verdict negative" Sensing.Negative
    (Helpers.sense bad_latest blip);
  Alcotest.check verdict_t "single blip tolerated" Sensing.Positive
    (Helpers.sense tol blip);
  (* Two bad rounds in the window: reported. *)
  let streaky = view_of_worlds [ Msg.Int 1; Msg.Int 0; Msg.Int 0 ] in
  Alcotest.check verdict_t "persistent failure reported" Sensing.Negative
    (Helpers.sense tol streaky)

let test_tolerant_1_of_1_is_identity () =
  let tol = Sensing.tolerant ~window:1 ~threshold:1 bad_latest in
  List.iter
    (fun ws ->
      let v = view_of_worlds ws in
      Alcotest.check verdict_t "agrees with base"
        (Helpers.sense bad_latest v) (Helpers.sense tol v))
    [ [ Msg.Int 0 ]; [ Msg.Int 1 ]; [ Msg.Int 0; Msg.Int 1 ]; [ Msg.Int 1; Msg.Int 0 ] ]

let test_tolerant_validation () =
  Alcotest.check_raises "window"
    (Invalid_argument "Sensing.tolerant: window must be positive") (fun () ->
      ignore (Sensing.tolerant ~window:0 ~threshold:1 bad_latest));
  Alcotest.check_raises "threshold"
    (Invalid_argument "Sensing.tolerant: threshold must be in 1..window")
    (fun () -> ignore (Sensing.tolerant ~window:2 ~threshold:3 bad_latest))

(* E16 invariants (acceptance criteria of the fault matrix) *)

let test_e16_invariants () =
  let rows = Goalcom_harness.E16_fault_matrix.rows ~seed:1 in
  Alcotest.(check bool) "matrix is populated" true (List.length rows >= 16);
  List.iter
    (fun (r : Goalcom_harness.E16_fault_matrix.row) ->
      let label = Printf.sprintf "%s/%s" r.goal_name r.spec in
      Alcotest.(check int) (label ^ ": no unsafe halts") 0 r.unsafe_halts;
      if r.recoverable then
        Alcotest.(check bool)
          (Printf.sprintf "%s: universal (%.2f) >= oracle (%.2f)" label
             r.universal_rate r.oracle_rate)
          true
          (r.universal_rate >= r.oracle_rate -. 1e-9)
      else
        Alcotest.(check bool)
          (label ^ ": fatal stack defeats everyone") true
          (r.universal_rate = 0. && r.oracle_rate = 0. && r.fixed_rate = 0.))
    rows

let suite =
  [
    ("crash_restart resets server state", `Quick, test_crash_restart_resets_state);
    ("intermittent outage is silent", `Quick, test_intermittent_outage_is_silent);
    ("adversary budget exhausts", `Quick, test_adversary_budget_exhausts);
    ("reorder conserves messages", `Quick, test_reorder_conserves_messages);
    ("corrupt stays in the alphabet", `Quick, test_corrupt_flips_to_valid_symbol);
    ("compose order and naming", `Quick, test_compose_order_and_name);
    ("spec parser", `Quick, test_spec_parser);
    ("spec parse errors", `Quick, test_spec_errors);
    ("loss alias", `Quick, test_loss_alias);
    ("finite checkpoint resumes schedule", `Quick, test_finite_checkpoint_resumes_schedule);
    ("compact checkpoint resumes index", `Quick, test_compact_checkpoint_resumes_index);
    ("wedge detector breaks stalls", `Quick, test_wedge_detector_breaks_stalls);
    ("retries slow the enumeration", `Quick, test_retries_slow_the_enumeration);
    ("retries still converge", `Quick, test_retries_still_converge);
    ("tolerant sensing filters transients", `Quick, test_tolerant_filters_transients);
    ("tolerant 1-of-1 is the base sensing", `Quick, test_tolerant_1_of_1_is_identity);
    ("tolerant validation", `Quick, test_tolerant_validation);
    ("E16 invariants", `Slow, test_e16_invariants);
    QCheck_alcotest.to_alcotest prop_sensing_safe_under_faults;
    QCheck_alcotest.to_alcotest prop_fault_runs_deterministic;
    QCheck_alcotest.to_alcotest prop_identity_faults_are_noops;
    QCheck_alcotest.to_alcotest prop_stack_of_string_total;
  ]

let () = Alcotest.run "faults" [ ("faults", suite) ]
