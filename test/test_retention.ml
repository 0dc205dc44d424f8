(* Stepper retention: a [Summary] stepper judges each round live and
   keeps no History, a [Full] stepper keeps every round.  The
   differential property pins the live judge against the post-hoc one
   ([Outcome.judge] on the Full history, plus the achieved-view rescan
   the session engine used to run, kept here as the oracle); the
   flat-memory test pins what Summary retention is for. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_harness
module Engine = Goalcom_session.Engine
module Chaos = Goalcom_session.Chaos
module Fault = Goalcom_faults.Fault
module Recorder = Goalcom_obs.Recorder

(* --- the oracle -------------------------------------------------------- *)

(* The achieved goal state: the earliest world view at which the
   goal's referee accepts the prefix.  For the monotone finite
   referees this is the view that achieved the goal — stable across
   restarts and scheduling, unlike the final view (worlds keep
   evolving after achievement: pages clear, agents wander).  Falls
   back to the last view when no prefix verdict is [`Ok] (compact
   referees judged at truncation). *)
let achieved_view (goal : Goal.t) history =
  let init = History.initial_world_view history in
  let len = History.length history in
  (* Walk the same view sequence the list-based code walked: the
     initial view again at position 0, then one view per round,
     indexed straight out of the history's chunks. *)
  let view_at j =
    if j = 0 then init
    else (History.round_exn history (j - 1)).History.Round.world_view
  in
  match Referee.start goal.Goal.referee init with
  | _, `Ok -> init
  | judge, `Violation ->
      let rec go judge j =
        if j > len then view_at len
        else begin
          let judge, verdict = Referee.step judge (view_at j) in
          if verdict = `Ok then view_at j else go judge (j + 1)
        end
      in
      go judge 0

(* --- cases ------------------------------------------------------------- *)

let storm_chaos =
  E18_chaos_matrix.chaos_of
    "kill@2,4%5=0;crash:25@1..800%3=1;burst:0.25@1..150%7=2"

let e18_sessions = 30
let e18 = E18_chaos_matrix.specs ~sessions:e18_sessions ()
let control_alphabet = 4
let control_dialects = Dialect.enumerate_rotations ~size:control_alphabet

(* [Workloads.control_spec]'s shape in servebench, at any horizon. *)
let control_spec i ~horizon : Engine.spec =
  {
    sname = Printf.sprintf "s%d/control" i;
    server_class = "control";
    goal = Control.goal ~alphabet:control_alphabet ();
    make_user =
      (fun ~checkpoint:_ ->
        Control.universal_user ~alphabet:control_alphabet control_dialects);
    server =
      Control.server ~alphabet:control_alphabet
        (Enum.get_exn control_dialects (i mod control_alphabet));
    exec_config = Exec.config ~horizon ();
  }

(* The same goals behind the list-predicate referee constructors. *)
let legacy_finite (g : Goal.t) =
  Goal.make ~name:g.name ~worlds:g.worlds
    ~referee:
      (Helpers.finite_pred
         (Referee.name g.referee ^ "/list")
         (Referee.decider g.referee))

let legacy_compact (g : Goal.t) =
  let bound = Control.default_params.bound in
  Goal.make ~name:g.name ~worlds:g.worlds
    ~referee:
      (Helpers.compact_pred "plant-in-range/list" (function
        | Msg.Int plant :: _ -> abs plant <= bound
        | _ -> false))

type case =
  | E18 of { i : int; storm : bool; seed : int }
  | Control of { i : int; horizon : int; seed : int }
  | Legacy_finite of { i : int; seed : int }
  | Legacy_compact of { i : int; horizon : int; seed : int }

let print_case = function
  | E18 { i; storm; seed } ->
      Printf.sprintf "e18 session %d%s seed %d" i
        (if storm then " (storm)" else "")
        seed
  | Control { i; horizon; seed } ->
      Printf.sprintf "control %d horizon %d seed %d" i horizon seed
  | Legacy_finite { i; seed } ->
      Printf.sprintf "legacy finite (e18 session %d) seed %d" i seed
  | Legacy_compact { i; horizon; seed } ->
      Printf.sprintf "legacy compact control %d horizon %d seed %d" i horizon
        seed

let case_gen =
  QCheck.Gen.(
    let seed = int_bound 10_000 in
    let e18_id = int_bound (e18_sessions - 1) in
    (* horizons under 5 have a tail window of 1 *)
    let horizon = oneof [ int_range 1 5; int_range 1 300 ] in
    frequency
      [
        (4, map3 (fun i storm seed -> E18 { i; storm; seed }) e18_id bool seed);
        ( 3,
          map3
            (fun i horizon seed -> Control { i; horizon; seed })
            (int_bound 3) horizon seed );
        (1, map2 (fun i seed -> Legacy_finite { i; seed }) e18_id seed);
        ( 1,
          map3
            (fun i horizon seed -> Legacy_compact { i; horizon; seed })
            (int_bound 3) horizon seed );
      ])

(* A fresh user (and checkpoint) per call, so two runs of one case are
   independent and identical. *)
let materialise case =
  let of_spec (s : Engine.spec) ~goal ~server ~seed =
    ( goal,
      s.make_user ~checkpoint:(Universal.new_checkpoint ()),
      server,
      s.exec_config,
      seed )
  in
  match case with
  | E18 { i; storm; seed } ->
      let s = e18.(i) in
      let server =
        if storm then Fault.apply (Chaos.stack_for storm_chaos ~id:i) s.server
        else s.server
      in
      of_spec s ~goal:s.goal ~server ~seed
  | Control { i; horizon; seed } ->
      let s = control_spec i ~horizon in
      of_spec s ~goal:s.goal ~server:s.server ~seed
  | Legacy_finite { i; seed } ->
      let s = e18.(i) in
      of_spec s ~goal:(legacy_finite s.goal) ~server:s.server ~seed
  | Legacy_compact { i; horizon; seed } ->
      let s = control_spec i ~horizon in
      of_spec s ~goal:(legacy_compact s.goal) ~server:s.server ~seed

(* What the session engine does with a finished run's violations. *)
let emit_violations (o : Outcome.t) =
  if Trace.enabled () then
    List.iter (fun round -> Trace.emit (Trace.Violation { round })) o.violation_rounds

let post_hoc case =
  let goal, user, server, config, seed = materialise case in
  let st =
    Exec.Stepper.create ~config ~retention:Exec.Stepper.Full ~goal ~user
      ~server (Rng.make seed)
  in
  let history = Exec.Stepper.run_to_end st in
  let o = Outcome.judge goal history in
  emit_violations o;
  (Referee.is_finite goal.referee, o, achieved_view goal history)

let live case =
  let goal, user, server, config, seed = materialise case in
  let st =
    Exec.Stepper.create ~config ~retention:Exec.Stepper.Summary ~goal ~user
      ~server (Rng.make seed)
  in
  while Exec.Stepper.step st do
    ()
  done;
  let o, view = Exec.Stepper.summary st in
  emit_violations o;
  (o, view)

let show_outcome o = Format.asprintf "%a" Outcome.pp o

let check_same what (expected : Outcome.t) (got : Outcome.t) =
  if expected <> got then
    QCheck.Test.fail_reportf "%s outcome: post-hoc %s [%s], live %s [%s]" what
      (show_outcome expected)
      (String.concat ";" (List.map string_of_int expected.violation_rounds))
      (show_outcome got)
      (String.concat ";" (List.map string_of_int got.violation_rounds))

let check_view what expected got =
  if not (Msg.equal expected got) then
    QCheck.Test.fail_reportf "%s achieved view: oracle %s, live %s" what
      (Msg.to_string expected) (Msg.to_string got)

let prop_summary_matches_post_hoc =
  QCheck.Test.make ~count:150 ~name:"summary = post-hoc judge"
    (QCheck.make ~print:print_case case_gen)
    (fun case ->
      (* Traced: the outcomes agree field for field, and so do the
         traces, Violation events included. *)
      let (_, o_full, v_full), ev_full = Recorder.record (fun () -> post_hoc case) in
      let (o_live, v_live), ev_live = Recorder.record (fun () -> live case) in
      check_same "traced" o_full o_live;
      check_view "traced" v_full v_live;
      if ev_full <> ev_live then
        QCheck.Test.fail_reportf "traces differ (%d vs %d events)"
          (List.length ev_full) (List.length ev_live);
      (* Untraced: a compact goal's violation rounds are not kept. *)
      let finite, o_full, v_full = post_hoc case in
      let o_live, v_live = live case in
      let expected =
        if finite then o_full else { o_full with Outcome.violation_rounds = [] }
      in
      check_same "untraced" expected o_live;
      check_view "untraced" v_full v_live;
      true)

(* --- the live judge on arbitrary histories ------------------------------ *)

(* World views drawn from four ints, so each referee below sees
   violations anywhere in a run — at the edge of the tail window
   included — and the finite ones accept at any round or never. *)
let history_gen =
  QCheck.Gen.(
    int_bound 40 >>= fun n ->
    int_bound (n + 1) >>= fun halt_at ->
    list_repeat n (int_bound 3) >>= fun views ->
    int_bound 3 >|= fun v0 ->
    History.make ~initial_world_view:(Msg.Int v0)
      (List.mapi
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
             user_halted = i + 1 > halt_at;
           })
         views))

let is_int k = function Msg.Int n -> n = k | _ -> false

let referees =
  [|
    Referee.compact_incremental "not-3"
      ~init:(fun _ -> ((), `Ok))
      ~step:(fun () v -> ((), Referee.verdict_of_bool (not (is_int 3 v))));
    (* running sum of the views, unacceptable when it is 3 mod 4 *)
    Referee.compact_incremental "sum"
      ~init:(fun _ -> (0, `Ok))
      ~step:(fun sum v ->
        let sum = sum + match v with Msg.Int n -> n | _ -> 0 in
        (sum, Referee.verdict_of_bool (sum mod 4 <> 3)));
    Helpers.compact_pred "not-3/list" (function v :: _ -> not (is_int 3 v) | [] -> true);
    Referee.finite_exists "saw-0" (is_int 0);
    Helpers.finite_pred "saw-0/list" (List.exists (is_int 0));
  |]

let prop_live_judge_matches_judge =
  QCheck.Test.make ~count:300 ~name:"live judge = judge on histories"
    (QCheck.make
       ~print:(fun (h, k) ->
         Printf.sprintf "%s: %s" (Referee.name referees.(k))
           (Format.asprintf "%a" History.pp h))
       QCheck.Gen.(pair history_gen (int_bound (Array.length referees - 1))))
    (fun (h, k) ->
      let goal =
        Goal.make ~name:"g" ~worlds:[ Control.world () ] ~referee:referees.(k)
      in
      let live =
        (* created under a sink, so violation rounds are kept *)
        Trace.with_sink Trace.null (fun () ->
            Outcome.Live.create goal (History.initial_world_view h))
      in
      History.iter_rounds h ~f:(fun r ->
          Outcome.Live.step live ~round:r.History.Round.index r.world_view);
      check_same "live"
        (Outcome.judge goal h)
        (Outcome.Live.finish live ~rounds:(History.length h)
           ~halted:(History.halted h) ~halt_round:(History.halt_round h));
      check_view "live" (achieved_view goal h) (Outcome.Live.achieved_view live);
      true)

(* --- memory ------------------------------------------------------------ *)

let control_stepper retention =
  let s = control_spec 1 ~horizon:16_000 in
  Exec.Stepper.create ~config:s.exec_config ~retention ~goal:s.goal
    ~user:(s.make_user ~checkpoint:(Universal.new_checkpoint ()))
    ~server:s.server (Rng.make 1)

(* Words reachable from the stepper after rounds 1000 and 16000. *)
let footprint retention =
  let st = control_stepper retention in
  let words_at n =
    while Exec.Stepper.rounds_executed st < n do
      ignore (Exec.Stepper.step st : bool)
    done;
    Obj.reachable_words (Obj.repr st)
  in
  let at_1k = words_at 1_000 in
  let at_16k = words_at 16_000 in
  (at_1k, at_16k)

let test_summary_heap_flat () =
  let s1k, s16k = footprint Exec.Stepper.Summary in
  if s16k > s1k + 64 then
    Alcotest.failf "Summary stepper grew from %d words (round 1000) to %d (round 16000)"
      s1k s16k;
  let f1k, f16k = footprint Exec.Stepper.Full in
  if f16k <= 10 * f1k then
    Alcotest.failf "Full stepper only grew from %d words to %d" f1k f16k

let test_summary_has_no_history () =
  let st = control_stepper Exec.Stepper.Summary in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "summary of a live run" true
    (raises (fun () -> Exec.Stepper.summary st));
  while Exec.Stepper.step st do
    ()
  done;
  Alcotest.(check bool) "history of a Summary run" true
    (raises (fun () -> Exec.Stepper.history st));
  let o, _ = Exec.Stepper.summary st in
  Alcotest.(check int) "rounds" 16_000 o.Outcome.rounds;
  let full = control_stepper Exec.Stepper.Full in
  ignore (Exec.Stepper.run_to_end full : History.t);
  Alcotest.(check bool) "summary of a Full run" true
    (raises (fun () -> Exec.Stepper.summary full))

(* --- bounded judge and sensor state ------------------------------------ *)

(* A served session lives as long as its horizon, so what a referee's
   judge or a sensor keeps must not grow with the rounds it has seen.
   Each state is measured twice: after a random stream of 100 events,
   and after 9,900 other random events followed by the same 100.  A
   state that holds only bounded memory of the recent past is then the
   same size in both; one that keeps what it saw is not. *)

let random_msg rng =
  let ints n = List.init (Rng.int rng n) (fun _ -> Rng.int rng 8) in
  match Rng.int rng 9 with
  | 0 -> Msg.Silence
  | 1 -> Msg.Sym (Rng.int rng 8)
  | 2 -> Msg.Int (Rng.int rng 41 - 20)
  | 3 -> Msg.Text (Rng.pick rng [ "a"; "ok"; "done"; "err"; "open"; "task" ])
  | 4 -> Msg.Pair (Msg.Sym (Rng.int rng 8), Msg.Int (Rng.int rng 10))
  | 5 -> Codec.ints (ints 5)
  | 6 -> Codec.pair_of_ints (ints 4) (ints 4)
  | 7 -> Msg.Pair (Msg.Text "task", Codec.ints (ints 4))
  | _ -> Msg.Pair (Msg.Sym (Rng.int rng 8), Codec.ints (ints 5))

let random_event rng round =
  {
    View.round;
    from_server = random_msg rng;
    from_world = random_msg rng;
    to_server = random_msg rng;
    to_world = random_msg rng;
    halted = false;
  }

let short_n = 100
let long_n = 10_000

(* [f k rng] is the k-th item (1-based) of a stream: the short stream is
   items 9,901..10,000 drawn from one seed, the long one prepends items
   1..9,900 drawn from another. *)
let streams f =
  let draw seed first n =
    let rng = Rng.make seed in
    List.init n (fun i -> f (first + i) rng)
  in
  let tail = draw 17 (long_n - short_n + 1) short_n in
  (tail, draw 29 1 (long_n - short_n) @ tail)

let sensor_words sensor events =
  let st = List.fold_left Sensing.observe (Sensing.start sensor) events in
  ignore (Sensing.verdict st);
  Obj.reachable_words (Obj.repr st)

let judge_words referee views =
  let j, _ = Referee.start referee (Msg.Int 0) in
  List.iter (fun v -> ignore (Referee.advance j v)) views;
  Obj.reachable_words (Obj.repr j)

let net_scenario = Goalcom_net.Topo.diamond ~payload_alphabet:4 ~payload:2
let forward_scenario = Goalcom_net.Forward.scenario ~payload_alphabet:4 [ 2; 0; 3; 1 ]
let maze_scenario = Maze.scenario ~width:8 ~height:8 ~start:(0, 0) ~target:(5, 4) ()

let sensors () =
  [
    Control.sensing ();
    Counting.sensing;
    Delegation.sensing;
    Maze.sensing;
    Password.sensing;
    Prediction.sensing;
    Printing.sensing;
    Transfer.goal_sensing;
    Transfer.error_sensing;
    Goalcom_net.Forward.sensing;
    Goalcom_net.Mac.sensing;
    Goalcom_net.Topo.sensing;
    Multi_session.sensing;
    Sensing.tolerant ~window:8 ~threshold:3 (Control.sensing ());
    Sensing.tolerant ~window:4 ~threshold:2 Printing.sensing;
  ]

let goals () =
  let alphabet = 4 in
  [
    Control.goal ~alphabet ();
    Counting.goal ~alphabet ();
    Delegation.goal ~alphabet ();
    Maze.goal ~scenarios:[ maze_scenario ] ~alphabet ();
    Password.goal ();
    Prediction.goal ~alphabet ();
    Printing.goal ~alphabet ();
    Transfer.goal ~alphabet ();
    Goalcom_net.Forward.goal ~scenarios:[ forward_scenario ] ~alphabet ();
    Goalcom_net.Mac.goal ~payload_alphabet:4 [ 1; 2; 3 ];
    Goalcom_net.Topo.goal ~scenarios:[ net_scenario ] ~alphabet ();
    Multi_session.goal ~session_length:30 (Printing.goal ~alphabet ());
  ]

let test_sensor_state_bounded () =
  let short, long = streams (fun round rng -> random_event rng round) in
  List.iter
    (fun (sensor : Sensing.t) ->
      Alcotest.(check int)
        (sensor.name ^ ": words after 100 = after 10,000 events")
        (sensor_words sensor short) (sensor_words sensor long))
    (sensors ())

(* Random events never carry a formula, so the case above measures
   Delegation's sensor before its formula; this one puts the formula in
   the first event instead. *)
let test_delegation_bounded_after_formula () =
  let cnf = Goalcom_sat.Cnf.make ~num_vars:3 [ [ 1; -2 ]; [ 2; 3 ] ] in
  let formula = Msg.Pair (Msg.Text "task", Codec.cnf cnf) in
  let short, long = streams (fun round rng -> random_event rng round) in
  let with_formula = function
    | e :: rest -> { e with View.from_world = formula } :: rest
    | [] -> []
  in
  let short = with_formula short and long = with_formula long in
  Alcotest.(check int) "words after 100 = after 10,000 events"
    (sensor_words Delegation.sensing short)
    (sensor_words Delegation.sensing long)

let test_judge_state_bounded () =
  let short, long = streams (fun _ rng -> random_msg rng) in
  List.iter
    (fun (goal : Goal.t) ->
      Alcotest.(check int)
        (Goal.name goal ^ ": words after 100 = after 10,000 views")
        (judge_words goal.referee short) (judge_words goal.referee long))
    (goals ())


(* --- a sensor keeps fields, never the event ---------------------------- *)

(* The universal users feed their sensor one event each, refilled every
   round (view.mli).  Each sensor is fed a stream twice: as fresh
   events, and through one event, filled before each [observe] and
   overwritten with junk after it.  A sensor that kept the event would
   read junk or a later round where it expects an earlier one, and its
   verdicts would differ. *)

let junk = Msg.Text "junk"

let verdicts_fed ~reuse sensor events =
  let st = Sensing.start sensor in
  let ev = View.empty () in
  List.map
    (fun (e : View.event) ->
      if not reuse then Sensing.verdict (Sensing.observe st e)
      else begin
        ev.round <- e.round;
        ev.from_server <- e.from_server;
        ev.from_world <- e.from_world;
        ev.to_server <- e.to_server;
        ev.to_world <- e.to_world;
        ev.halted <- e.halted;
        let v = Sensing.verdict (Sensing.observe st ev) in
        ev.round <- -1;
        ev.from_server <- junk;
        ev.from_world <- junk;
        ev.to_server <- junk;
        ev.to_world <- junk;
        v
      end)
    events

(* A random stream, and for Delegation's window a stream whose formula
   shows only after a satisfying answer was relayed. *)
let ownership_streams () =
  let rng = Rng.make 41 in
  let random = List.init 2_000 (fun i -> random_event rng (i + 1)) in
  let cnf = Goalcom_sat.Cnf.make ~num_vars:3 [ [ 1; -2 ]; [ 2; 3 ] ] in
  let formula = Msg.Pair (Msg.Text "task", Codec.cnf cnf) in
  let answer = Codec.assignment [ true; true; false ] in
  let late_formula =
    List.mapi
      (fun i (e : View.event) ->
        if i = 3 then { e with View.to_world = answer }
        else if i >= 6 then { e with View.from_world = formula }
        else e)
      (List.filteri (fun i _ -> i < 40) random)
  in
  [ ("random", random); ("formula after the answer", late_formula) ]

let test_sensors_keep_no_event () =
  let late = List.assoc "formula after the answer" (ownership_streams ()) in
  Alcotest.(check bool) "delegation: the answer before the formula counts" true
    (List.mem Sensing.Positive (verdicts_fed ~reuse:false Delegation.sensing late));
  List.iter
    (fun (stream, events) ->
      List.iter
        (fun (sensor : Sensing.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s stream: one reused event = fresh events"
               sensor.name stream)
            true
            (verdicts_fed ~reuse:false sensor events
            = verdicts_fed ~reuse:true sensor events))
        (sensors ()))
    (ownership_streams ())

let () =
  Alcotest.run "retention"
    [
      ( "live judge",
        List.map QCheck_alcotest.to_alcotest
          [ prop_summary_matches_post_hoc; prop_live_judge_matches_judge ] );
      ( "summary stepper",
        [
          Alcotest.test_case "heap flat in the horizon" `Quick
            test_summary_heap_flat;
          Alcotest.test_case "no history" `Quick test_summary_has_no_history;
        ] );
      ( "bounded state",
        [
          Alcotest.test_case "sensors" `Quick test_sensor_state_bounded;
          Alcotest.test_case "delegation after its formula" `Quick
            test_delegation_bounded_after_formula;
          Alcotest.test_case "judges" `Quick test_judge_state_bounded;
        ] );
      ( "event ownership",
        [
          Alcotest.test_case "sensors keep no event" `Quick
            test_sensors_keep_no_event;
        ] );
    ]
