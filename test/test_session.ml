(* Tests for the supervised concurrent session engine: restart
   policies, circuit breakers, admission control, chaos-schedule
   parsing, engine determinism across jobs counts, the trace replay's
   encoded and decoded paths agreeing, and the qcheck
   crash-restart equivalence property (a supervised session interrupted
   by kills reaches the same goal state as an uninterrupted run). *)

open Goalcom
open Goalcom_prelude
open Goalcom_session
open Goalcom_harness

(* The container running CI may report a single core; the engine clamps
   its pool width to the hardware, so without this override the
   jobs=2/4 determinism pins would silently all run single-domain. *)
let () = Unix.putenv "GOALCOM_HW_JOBS" "4"

(* --- Policy ----------------------------------------------------------- *)

let test_policy_gives_up () =
  let p = Policy.make ~max_restarts:2 () in
  Alcotest.(check bool) "1st failure retries" false (Policy.gives_up p ~failures:1);
  Alcotest.(check bool) "2nd failure retries" false (Policy.gives_up p ~failures:2);
  Alcotest.(check bool) "3rd failure gives up" true (Policy.gives_up p ~failures:3)

let test_policy_backoff_growth () =
  (* jitter 0: the schedule is the bare capped exponential. *)
  let p =
    Policy.make ~backoff_base:1 ~backoff_factor:2.0 ~backoff_max:16 ~jitter:0.0 ()
  in
  let rng = Rng.make 1 in
  let waits = List.map (fun a -> Policy.backoff p rng ~attempt:a) [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list int)) "capped exponential" [ 1; 2; 4; 8; 16; 16; 16 ] waits

let test_policy_backoff_jitter_deterministic () =
  let p = Policy.make ~jitter:0.5 () in
  let schedule seed =
    let rng = Rng.make seed in
    List.map (fun a -> Policy.backoff p rng ~attempt:a) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "same seed, same jitter" (schedule 7) (schedule 7);
  List.iter
    (fun w -> Alcotest.(check bool) "wait >= 1" true (w >= 1))
    (schedule 11)

(* --- Breaker ---------------------------------------------------------- *)

let test_breaker_lifecycle () =
  let b = Breaker.make ~threshold:2 ~cooldown:3 () in
  let allow tick = fst (Breaker.allow b ~tick) in
  Alcotest.(check bool) "closed allows" true (allow 1);
  Alcotest.(check bool) "no trip yet" true (Breaker.record_failure b ~tick:1 = None);
  Alcotest.(check bool) "trips at threshold" true
    (Breaker.record_failure b ~tick:2 = Some Breaker.Tripped);
  Alcotest.(check bool) "open blocks" false (allow 3);
  Alcotest.(check bool) "open blocks until cooldown" false (allow 4);
  (* cooldown elapsed: one half-open probe is let through *)
  let ok, change = Breaker.allow b ~tick:5 in
  Alcotest.(check bool) "half-open probes" true ok;
  Alcotest.(check bool) "probing change" true (change = Some Breaker.Probing);
  Alcotest.(check bool) "only one probe" false (allow 5);
  Alcotest.(check bool) "probe success recloses" true
    (Breaker.record_success b = Some Breaker.Reclosed);
  Alcotest.(check bool) "closed again" true (allow 6);
  Alcotest.(check int) "one trip counted" 1 (Breaker.trips b)

let test_breaker_probe_failure_reopens () =
  let b = Breaker.make ~threshold:1 ~cooldown:2 () in
  ignore (Breaker.record_failure b ~tick:1);
  let ok, _ = Breaker.allow b ~tick:3 in
  Alcotest.(check bool) "probe allowed" true ok;
  Alcotest.(check bool) "probe failure retrips" true
    (Breaker.record_failure b ~tick:3 = Some Breaker.Tripped);
  Alcotest.(check bool) "open again" false (fst (Breaker.allow b ~tick:4));
  Alcotest.(check int) "two trips" 2 (Breaker.trips b)

let test_breaker_success_resets_consecutive () =
  let b = Breaker.make ~threshold:2 ~cooldown:2 () in
  ignore (Breaker.record_failure b ~tick:1);
  ignore (Breaker.record_success b);
  Alcotest.(check bool) "success broke the streak" true
    (Breaker.record_failure b ~tick:2 = None);
  Alcotest.(check int) "never tripped" 0 (Breaker.trips b)

let test_breaker_disabled () =
  let b = Breaker.make ~threshold:0 ~cooldown:1 () in
  for tick = 1 to 5 do
    ignore (Breaker.record_failure b ~tick)
  done;
  Alcotest.(check bool) "threshold 0 never trips" true (fst (Breaker.allow b ~tick:6));
  Alcotest.(check int) "no trips" 0 (Breaker.trips b)

(* --- Admission -------------------------------------------------------- *)

(* Promote everything promotable, recording the admission order. *)
let promote_all ?(terminal = fun _ -> false) ?(blocked = fun _ -> false) a =
  let order = ref [] in
  Admission.promote a ~terminal ~try_start:(fun id ->
      if blocked id then false
      else begin
        Admission.claim a;
        order := id :: !order;
        true
      end);
  List.rev !order

let test_admission_slots_and_queue () =
  let a = Admission.make ~max_live:2 ~queue_capacity:2 () in
  Alcotest.(check bool) "has capacity" true (Admission.has_capacity a);
  Admission.claim a;
  Admission.claim a;
  Alcotest.(check bool) "full" false (Admission.has_capacity a);
  Alcotest.(check bool) "enqueue 10" true (Admission.enqueue a ~cname:"x" 10);
  Alcotest.(check bool) "enqueue 11" true (Admission.enqueue a ~cname:"x" 11);
  Alcotest.(check bool) "queue full sheds" false (Admission.enqueue a ~cname:"x" 12);
  Alcotest.(check int) "one shed" 1 (Admission.shed_count a);
  Alcotest.(check int) "two queued" 2 (Admission.queued a);
  Admission.release a;
  Alcotest.(check bool) "slot freed" true (Admission.has_capacity a);
  (* one free slot: promote serves exactly the FIFO head *)
  Alcotest.(check (list int)) "fifo order" [ 10 ] (promote_all a);
  Alcotest.(check int) "one left queued" 1 (Admission.queued a)

let test_admission_validation () =
  Alcotest.check_raises "max_live 0"
    (Invalid_argument "Admission.make: max_live must be >= 1") (fun () ->
      ignore (Admission.make ~max_live:0 ~queue_capacity:1 ()));
  Alcotest.check_raises "weight 0"
    (Invalid_argument "Admission.make: class a weight must be >= 1") (fun () ->
      ignore (Admission.make ~classes:[ ("a", 0) ] ~max_live:1 ~queue_capacity:1 ()));
  Alcotest.check_raises "duplicate class"
    (Invalid_argument "Admission.make: duplicate class a") (fun () ->
      ignore
        (Admission.make ~classes:[ ("a", 1); ("a", 2) ] ~max_live:1
           ~queue_capacity:1 ()));
  let a = Admission.make ~max_live:1 ~queue_capacity:0 () in
  Admission.claim a;
  Alcotest.check_raises "claim past capacity"
    (Invalid_argument "Admission.claim: live set full") (fun () ->
      Admission.claim a)

let test_admission_wdrr_weights () =
  (* weight 2 : 1 — service interleaves 2 from [a] per 1 from [b] *)
  let a =
    Admission.make ~classes:[ ("a", 2); ("b", 1) ] ~max_live:6
      ~queue_capacity:16 ()
  in
  List.iter (fun id -> ignore (Admission.enqueue a ~cname:"a" id)) [ 0; 1; 2; 3 ];
  List.iter (fun id -> ignore (Admission.enqueue a ~cname:"b" id)) [ 10; 11; 12 ];
  Alcotest.(check int) "a backlog" 4 (Admission.queued_in a "a");
  Alcotest.(check (list int)) "weighted interleave" [ 0; 1; 10; 2; 3; 11 ]
    (promote_all a);
  Alcotest.(check int) "b keeps its tail" 1 (Admission.queued_in a "b")

let test_admission_blocked_class_no_starvation () =
  (* class [a]'s breaker is open: [b] (and the default class) must keep
     being served — the head-of-line blocking the old single FIFO
     exhibited stays confined to [a]. *)
  let a =
    Admission.make ~classes:[ ("a", 1); ("b", 1) ] ~max_live:8
      ~queue_capacity:16 ()
  in
  List.iter (fun id -> ignore (Admission.enqueue a ~cname:"a" id)) [ 0; 1 ];
  List.iter (fun id -> ignore (Admission.enqueue a ~cname:"b" id)) [ 10; 11 ];
  List.iter (fun id -> ignore (Admission.enqueue a ~cname:"other" id)) [ 20 ];
  let order = promote_all ~blocked:(fun id -> id < 10) a in
  Alcotest.(check (list int)) "b and default served" [ 10; 20; 11 ] order;
  Alcotest.(check int) "a still queued" 2 (Admission.queued_in a "a")

let test_admission_drains_leading_terminals () =
  (* Regression: the old engine popped one dead head per tick, and only
     when a slot was free.  One promote call must drop every leading
     terminal id from every class even with zero capacity. *)
  let a = Admission.make ~max_live:1 ~queue_capacity:8 () in
  Admission.claim a;
  List.iter (fun id -> ignore (Admission.enqueue a ~cname:"x" id)) [ 1; 2; 3 ];
  let tried = ref 0 in
  Admission.promote a
    ~terminal:(fun id -> id < 3)
    ~try_start:(fun _ ->
      incr tried;
      false);
  Alcotest.(check int) "no capacity: nothing tried" 0 !tried;
  Alcotest.(check int) "dead heads gone in one pass" 1 (Admission.queued a)

(* --- Arrival ---------------------------------------------------------- *)

let arrival_of spec =
  match Arrival.of_string spec with
  | Ok a -> a
  | Error e -> Alcotest.fail e

(* Fuzzed specs: random bytes, grammar-alphabet noise and edited valid
   specs.  The parser answers Ok/Error (or raises Invalid_argument),
   never another exception, within a second; what it accepts is a
   process [Arrival.draw] can run: finite, non-negative rates and a
   switch probability in [0,1]. *)
let prop_arrival_of_string_total =
  let valid =
    [ "bang"; "all"; "0"; "7"; "constant:3"; "poisson:2.5"; "mmpp:1,8:0.2"; "mmpp:1,2,3" ]
  in
  let rate r = Float.is_finite r && r >= 0. in
  let accepted = function
    | Arrival.Bang -> true
    | Arrival.Constant k -> k > 0
    | Arrival.Poisson r -> rate r
    | Arrival.Mmpp { rates; switch } ->
        Array.length rates >= 2 && Array.for_all rate rates && switch >= 0.
        && switch <= 1.
  in
  QCheck.Test.make ~count:2000 ~name:"Arrival.of_string: fuzzed specs fail cleanly"
    (QCheck.make ~print:String.escaped (Helpers.spec_fuzz_gen ~valid))
    (Helpers.parser_total ~accepted Arrival.of_string)

let test_arrival_parse () =
  Alcotest.(check bool) "bang" true (arrival_of "bang" = Arrival.Bang);
  Alcotest.(check bool) "0 is bang" true (arrival_of "0" = Arrival.Bang);
  Alcotest.(check bool) "bare int" true (arrival_of "7" = Arrival.Constant 7);
  Alcotest.(check bool) "constant:N" true
    (arrival_of "constant:3" = Arrival.Constant 3);
  Alcotest.(check bool) "poisson" true (arrival_of "poisson:2.5" = Arrival.Poisson 2.5);
  (match arrival_of "mmpp:1,8:0.2" with
  | Arrival.Mmpp { rates; switch } ->
      Alcotest.(check bool) "mmpp rates" true (rates = [| 1.; 8. |]);
      Alcotest.(check bool) "mmpp switch" true (switch = 0.2)
  | _ -> Alcotest.fail "mmpp did not parse");
  List.iter
    (fun bad ->
      match Arrival.of_string bad with
      | Ok _ -> Alcotest.failf "%S parsed" bad
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error names the module" bad)
            true
            (String.length e > 0))
    [ "-3"; "poisson:-1"; "poisson:x"; "mmpp:1"; "mmpp:1,2:7"; "sometimes" ];
  (* to_string round-trips through of_string *)
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Arrival.to_string a ^ " round-trips")
        true
        (arrival_of (Arrival.to_string a) = a))
    [
      Arrival.Bang;
      Arrival.Constant 5;
      Arrival.Poisson 3.25;
      Arrival.Mmpp { rates = [| 0.5; 12. |]; switch = 0.125 };
    ]

let test_arrival_draws () =
  let draw_seq a ~seed ~ticks ~remaining =
    let rng = Rng.make seed in
    let st = Arrival.start a in
    List.init ticks (fun i -> Arrival.draw a st ~rng ~tick:(i + 1) ~remaining)
  in
  Alcotest.(check (list int)) "bang fires once"
    [ 10; 0; 0 ]
    (draw_seq Arrival.Bang ~seed:1 ~ticks:3 ~remaining:10);
  Alcotest.(check (list int)) "constant"
    [ 3; 3; 3 ]
    (draw_seq (Arrival.Constant 3) ~seed:1 ~ticks:3 ~remaining:5);
  Alcotest.(check (list int)) "constant clamps to remaining"
    [ 2; 2 ]
    (draw_seq (Arrival.Constant 3) ~seed:1 ~ticks:2 ~remaining:2);
  let p1 = draw_seq (Arrival.Poisson 4.) ~seed:42 ~ticks:50 ~remaining:1000 in
  let p2 = draw_seq (Arrival.Poisson 4.) ~seed:42 ~ticks:50 ~remaining:1000 in
  Alcotest.(check (list int)) "poisson deterministic" p1 p2;
  let mean = float_of_int (List.fold_left ( + ) 0 p1) /. 50. in
  Alcotest.(check bool) "poisson mean plausible" true (mean > 2. && mean < 6.);
  let m1 =
    draw_seq (Arrival.Mmpp { rates = [| 0.5; 20. |]; switch = 0.3 }) ~seed:7
      ~ticks:60 ~remaining:1000
  in
  let m2 =
    draw_seq (Arrival.Mmpp { rates = [| 0.5; 20. |]; switch = 0.3 }) ~seed:7
      ~ticks:60 ~remaining:1000
  in
  Alcotest.(check (list int)) "mmpp deterministic" m1 m2;
  Alcotest.(check bool) "mmpp visits both regimes" true
    (List.exists (fun n -> n > 8) m1 && List.exists (fun n -> n <= 2) m1)

(* --- Chaos ------------------------------------------------------------ *)

let contains = Helpers.contains

let chaos_of spec =
  match Chaos.of_string ~alphabet:4 spec with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let test_chaos_parse_and_target () =
  let c = chaos_of "kill@2,5%3=1;crash:10@1..50;burst:0.5@1..20%2=0" in
  Alcotest.(check int) "three directives" 3 (List.length (Chaos.directives c));
  Alcotest.(check bool) "kills its target" true (Chaos.kills_at c ~tick:2 ~id:4);
  Alcotest.(check bool) "and at the later tick" true (Chaos.kills_at c ~tick:5 ~id:7);
  Alcotest.(check bool) "not off-tick" false (Chaos.kills_at c ~tick:3 ~id:4);
  Alcotest.(check bool) "not off-target" false (Chaos.kills_at c ~tick:2 ~id:3);
  (* storm stacks compose per target: id 0 gets crash+burst, id 1 crash only *)
  let name id = Goalcom_faults.Fault.name (Chaos.stack_for c ~id) in
  Alcotest.(check bool) "id 0 gets burst" true (contains (name 0) "burstwin");
  Alcotest.(check bool) "id 1 does not" false (contains (name 1) "burstwin")

let test_chaos_parse_errors () =
  let err spec =
    match Chaos.of_string ~alphabet:4 spec with
    | Ok _ -> Alcotest.failf "%S parsed" spec
    | Error e -> e
  in
  Alcotest.(check bool) "unknown directive named" true
    (contains (err "explode@3") "unknown chaos directive \"explode\"");
  Alcotest.(check bool) "grammar listed" true (contains (err "explode@3") "kill@T1,T2");
  Alcotest.(check bool) "bad window" true
    (contains (err "crash:5@9..2") "window wants 1 <= LO <= HI");
  Alcotest.(check bool) "bad target" true
    (contains (err "kill@2%5=9") "0 <= R < M");
  Alcotest.(check bool) "bad probability" true
    (contains (err "burst:1.5@1..10") "P in [0,1]");
  Alcotest.(check bool) "bad embedded fault stack" true
    (contains (err "fault:bogus:1") "unknown fault")

(* Fuzzed schedules: random bytes, grammar-alphabet noise and edited
   valid specs.  The parser answers Ok/Error (or raises
   Invalid_argument), never another exception, within a second; an
   accepted schedule kills only at positive ticks, targets a valid
   residue class, and carries no NaN or infinite storm parameter. *)
let prop_chaos_of_string_total =
  let valid =
    [
      "kill@2,5%3=1"; "crash:10@1..50"; "burst:0.5@1..20%2=0"; "blackout@3..9";
      "fault:corrupt:0.05+delay:1"; "kill@4;crash:5@1..9%4=3"; "";
    ]
  in
  let target_ok { Chaos.modulus; remainder } =
    modulus >= 1 && 0 <= remainder && remainder < modulus
  in
  let directive_ok = function
    | Chaos.Kill { ticks; target } ->
        ticks <> [] && List.for_all (fun t -> t >= 1) ticks && target_ok target
    | Chaos.Storm { fault; target } ->
        let name = String.lowercase_ascii (Goalcom_faults.Fault.name fault) in
        (not (contains name "nan" || contains name "inf")) && target_ok target
  in
  QCheck.Test.make ~count:2000 ~name:"Chaos.of_string: fuzzed specs fail cleanly"
    (QCheck.make ~print:String.escaped (Helpers.spec_fuzz_gen ~valid))
    (Helpers.parser_total
       ~accepted:(fun c -> List.for_all directive_ok (Chaos.directives c))
       (Chaos.of_string ~alphabet:4))

(* --class-weights specs: a repeated class is an error, not the
   [Admission.make] exception it used to reach. *)
let test_classes_of_string () =
  let ok spec want =
    match Admission.classes_of_string spec with
    | Ok c -> Alcotest.(check (list (pair string int))) spec want c
    | Error e -> Alcotest.failf "%S: %s" spec e
  in
  ok "" [];
  ok "  " [];
  ok "printing=3,maze-corridor=1" [ ("printing", 3); ("maze-corridor", 1) ];
  ok " printing = 2 " [ ("printing", 2) ];
  List.iter
    (fun bad ->
      match Admission.classes_of_string bad with
      | Ok _ -> Alcotest.failf "%S parsed" bad
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error names the module" bad)
            true
            (String.starts_with ~prefix:"Admission." e))
    [ "printing=1,printing=2"; "a=1, a =3"; "printing"; "printing=0"; "=2";
      "printing=x"; "printing=1,"; "printing=-1" ]

(* Whatever the parser accepts, [Admission.make] accepts: weights at
   least 1, names non-empty and distinct. *)
let prop_classes_of_string_total =
  let valid =
    [ "printing=3,maze-corridor=1"; "printing=1"; "a=2,b=3,default=1"; "x=10" ]
  in
  let accepted classes =
    List.for_all (fun (c, w) -> c <> "" && w >= 1) classes
    &&
    match Admission.make ~classes ~max_live:1 ~queue_capacity:0 () with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  QCheck.Test.make ~count:2000 ~name:"class weights: fuzzed specs fail cleanly"
    (QCheck.make ~print:String.escaped (Helpers.spec_fuzz_gen ~valid))
    (Helpers.parser_total ~accepted Admission.classes_of_string)

(* --- Engine ----------------------------------------------------------- *)

(* Tiny standard mix (printing / corridor / open maze) from the E18
   harness, small enough for unit tests. *)
let mix n = E18_chaos_matrix.specs ~sessions:n ()

let test_engine_all_complete () =
  let r = Engine.run ~specs:(mix 12) ~seed:3 () in
  Alcotest.(check int) "all done" 12 r.Engine.completed;
  Alcotest.(check int) "no shed" 0 r.Engine.shed;
  Alcotest.(check int) "no restarts" 0 r.Engine.restarts;
  Array.iter
    (function
      | Engine.Done _ -> ()
      | _ -> Alcotest.fail "non-Done outcome in a calm run")
    r.Engine.outcomes

let test_engine_sheds_overflow () =
  let config = Engine.config ~max_live:1 ~queue_capacity:1 () in
  let r = Engine.run ~config ~specs:(mix 4) ~seed:3 () in
  Alcotest.(check int) "two shed" 2 r.Engine.shed;
  Alcotest.(check int) "two done" 2 r.Engine.completed;
  Alcotest.(check bool) "sheds are terminal" true
    (Array.to_list r.Engine.outcomes
    |> List.filter (fun o -> o = Engine.Shed)
    |> List.length = 2)

let test_engine_adversary_gives_up () =
  let chaos = chaos_of "fault:adversary:999999" in
  let config =
    Engine.config ~round_budget:200 ~breaker_threshold:2
      ~policy:(Policy.make ~max_restarts:1 ~jitter:0.0 ())
      ()
  in
  let r = Engine.run ~chaos ~config ~specs:(mix 3) ~seed:3 () in
  Alcotest.(check int) "all give up" 3 r.Engine.gave_up;
  Alcotest.(check bool) "restarts happened" true (r.Engine.restarts > 0);
  Alcotest.(check bool) "breaker tripped" true (r.Engine.trips > 0)

let test_engine_deadline () =
  let chaos = chaos_of "fault:adversary:999999" in
  let config =
    Engine.config ~deadline:3 ~round_budget:1_000_000
      ~policy:(Policy.make ~max_restarts:1000 ())
      ()
  in
  let r = Engine.run ~chaos ~config ~specs:(mix 2) ~seed:3 () in
  Alcotest.(check int) "deadlines fire" 2 r.Engine.deadlines

let chaos_spec_small = "kill@2%2=0;crash:20@1..200%3=1"

let run_small ~jobs ~seed =
  let chaos = chaos_of chaos_spec_small in
  let config = Engine.config ~quantum:16 ~max_live:8 () in
  Engine.run ~chaos ~config ~jobs ~specs:(mix 20) ~seed ()

let test_engine_deterministic_across_jobs () =
  let record jobs =
    let buf = ref [] in
    let r =
      Trace.with_sink (fun ev -> buf := ev :: !buf) (fun () -> run_small ~jobs ~seed:5)
    in
    (r.Engine.digest, List.rev !buf)
  in
  let d1, t1 = record 1 in
  List.iter
    (fun jobs ->
      let d, t = record jobs in
      Alcotest.(check string) (Printf.sprintf "digest jobs=%d" jobs) d1 d;
      Alcotest.(check bool) (Printf.sprintf "merged trace jobs=%d" jobs) true (t = t1))
    [ 2; 4 ];
  match Trace.check Trace.standard t1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "merged trace invariant: %s" msg

let test_engine_deterministic_across_repeats () =
  let r1 = run_small ~jobs:2 ~seed:9 in
  let r2 = run_small ~jobs:2 ~seed:9 in
  Alcotest.(check string) "digest" r1.Engine.digest r2.Engine.digest;
  Alcotest.(check bool) "outcomes" true (r1.Engine.outcomes = r2.Engine.outcomes)

(* Fair-share classes + an open-loop arrival process: the determinism
   contract must survive the WDRR scheduler and the Poisson sampler's
   RNG stream, across jobs counts, repeats and chaos. *)
let run_fairshare ?(chaos = "") ~jobs ~seed () =
  let config =
    Engine.config ~quantum:16 ~max_live:4 ~queue_capacity:64
      ~arrivals:(Arrival.Poisson 2.5)
      ~classes:[ ("printing", 3); ("maze-corridor", 1) ]
      ()
  in
  let run () =
    if chaos = "" then Engine.run ~config ~jobs ~specs:(mix 18) ~seed ()
    else Engine.run ~chaos:(chaos_of chaos) ~config ~jobs ~specs:(mix 18) ~seed ()
  in
  run ()

let test_engine_fairshare_deterministic () =
  List.iter
    (fun chaos ->
      let d1 = (run_fairshare ~chaos ~jobs:1 ~seed:13 ()).Engine.digest in
      List.iter
        (fun jobs ->
          let r = run_fairshare ~chaos ~jobs ~seed:13 () in
          Alcotest.(check string)
            (Printf.sprintf "digest chaos=%S jobs=%d" chaos jobs)
            d1 r.Engine.digest)
        [ 2; 4 ];
      let r = run_fairshare ~chaos ~jobs:2 ~seed:13 () in
      Alcotest.(check string)
        (Printf.sprintf "repeat chaos=%S" chaos)
        d1 r.Engine.digest)
    [ ""; chaos_spec_small ]

(* The engine replays its per-session trace arenas into the ambient
   sink.  A ring's own [domain_sink] offers the encoded fast path, so
   each event's bytes are copied in verbatim and the arenas of sessions
   the ring cannot retain are released and replayed as one [discard];
   a wrapper closure around the same ring offers nothing, so every
   event is decoded and re-encoded; a Recorder receives decoded events.
   All three must capture the same stream: the two rings slot for
   slot, byte for byte, with equal [length] and [evicted], at every
   capacity from one slot to more than the run emits, and also when
   the ring already held events before the run.  Tracing must not move
   the outcome digest. *)
let test_engine_trace_paths_agree () =
  let module Ring = Goalcom_obs.Ring in
  let run ~jobs () =
    run_fairshare ~chaos:chaos_spec_small ~jobs ~seed:13 ()
  in
  let last k l = List.filteri (fun i _ -> i >= List.length l - k) l in
  List.iter
    (fun jobs ->
      let untraced = (run ~jobs ()).Engine.digest in
      let recorded, events = Goalcom_obs.Recorder.record (run ~jobs) in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d: recorded digest" jobs)
        untraced recorded.Engine.digest;
      let all = List.length events in
      (* Events that are not the engine's, to pre-fill a ring with. *)
      let earlier =
        List.init 7 (fun k ->
            Trace.Supervise { tick = -k; session = -1; action = "prefill"; detail = "" })
      in
      let agree ?(prefill = []) capacity =
        let at what =
          Printf.sprintf "jobs=%d capacity=%d%s: %s" jobs capacity
            (if prefill = [] then "" else " pre-filled")
            what
        in
        let capture ~fast =
          let r = Ring.create ~capacity in
          let sink = if fast then Ring.domain_sink r else fun ev -> Ring.sink r ev in
          let report =
            Trace.with_sink sink (fun () ->
                List.iter sink prefill;
                Alcotest.(check bool) (at "fast path offered") fast
                  (Option.is_some (Trace.encoded ()));
                run ~jobs ())
          in
          Alcotest.(check string) (at "ring digest") untraced report.Engine.digest;
          r
        in
        let fast = capture ~fast:true and slow = capture ~fast:false in
        let stream = prefill @ events in
        let pushed = List.length stream in
        Alcotest.(check (list string)) (at "slots") (Ring.slots slow) (Ring.slots fast);
        Alcotest.(check int) (at "length") (Ring.length slow) (Ring.length fast);
        Alcotest.(check int) (at "length = min") (min capacity pushed) (Ring.length fast);
        Alcotest.(check int) (at "evicted") (Ring.evicted slow) (Ring.evicted fast);
        Alcotest.(check int) (at "evicted = overflow")
          (max 0 (pushed - capacity)) (Ring.evicted fast);
        Alcotest.(check bool) (at "fast ring = recorder tail") true
          (Ring.events fast = last capacity stream)
      in
      List.iter (fun c -> agree c) [ 1; 97; all - 1; all; all + 1 ];
      List.iter (fun c -> agree ~prefill:earlier c) [ 1; 97; all; all + 7 ])
    [ 1; 2; 4 ]

let test_engine_fairshare_completes () =
  let r = run_fairshare ~jobs:2 ~seed:31 () in
  Alcotest.(check int) "all done" 18 r.Engine.completed;
  Alcotest.(check int) "no shed" 0 r.Engine.shed

(* An [arrivals_per_tick] integer still means what it meant. *)
let test_engine_arrivals_compat () =
  let digest_of config =
    (Engine.run ~config ~jobs:1 ~specs:(mix 8) ~seed:17 ()).Engine.digest
  in
  Alcotest.(check string) "0 = bang"
    (digest_of (Engine.config ~arrivals_per_tick:0 ()))
    (digest_of (Engine.config ~arrivals:Arrival.Bang ()));
  Alcotest.(check string) "k = constant k"
    (digest_of (Engine.config ~arrivals_per_tick:2 ()))
    (digest_of (Engine.config ~arrivals:(Arrival.Constant 2) ()))

(* --- qcheck: crash-restart equivalence (satellite) --------------------

   A supervised session interrupted by chaos kills (a
   helpfulness-preserving fault schedule: the server is untouched, only
   incarnations die) reaches the same goal state — digest-identical
   final world view — as the uninterrupted run, for jobs 1, 2 and 4.
   Restart costs differ; the achieved state must not. *)

let final_state (r : Engine.report) =
  match r.Engine.outcomes.(0) with
  | Engine.Done { state; _ } -> Some state
  | _ -> None

let prop_crash_restart_reaches_same_state =
  QCheck.Test.make ~count:12 ~name:"Engine: killed+restarted = uninterrupted (jobs 1/2/4)"
    QCheck.(pair (int_bound 2) (pair (1 -- 4) (1 -- 4)))
    (fun (family, (k1, k2)) ->
      (* one session of the chosen family: mix order is printing,
         corridor, open-room *)
      let specs = [| E18_chaos_matrix.specs ~sessions:3 () |].(0).(family) in
      let specs = [| specs |] in
      let config =
        Engine.config ~quantum:8
          ~policy:(Policy.make ~max_restarts:50 ~backoff_max:2 ())
          ()
      in
      let baseline = Engine.run ~config ~specs ~seed:21 () in
      let chaos =
        chaos_of (Printf.sprintf "kill@%d,%d" (1 + k1) (1 + k1 + k2))
      in
      match final_state baseline with
      | None -> QCheck.Test.fail_report "baseline did not complete"
      | Some state ->
          List.for_all
            (fun jobs ->
              final_state (Engine.run ~chaos ~config ~jobs ~specs ~seed:21 ())
              = Some state)
            [ 1; 2; 4 ])

let suite =
  [
    ("policy gives up", `Quick, test_policy_gives_up);
    ("policy backoff growth", `Quick, test_policy_backoff_growth);
    ("policy jitter deterministic", `Quick, test_policy_backoff_jitter_deterministic);
    ("breaker lifecycle", `Quick, test_breaker_lifecycle);
    ("breaker probe failure reopens", `Quick, test_breaker_probe_failure_reopens);
    ("breaker success resets streak", `Quick, test_breaker_success_resets_consecutive);
    ("breaker disabled", `Quick, test_breaker_disabled);
    ("admission slots and queue", `Quick, test_admission_slots_and_queue);
    ("admission validation", `Quick, test_admission_validation);
    ("admission wdrr weights", `Quick, test_admission_wdrr_weights);
    ("admission blocked class no starvation", `Quick, test_admission_blocked_class_no_starvation);
    ("admission drains leading terminals", `Quick, test_admission_drains_leading_terminals);
    ("arrival parse", `Quick, test_arrival_parse);
    ("arrival draws", `Quick, test_arrival_draws);
    ("chaos parse and targets", `Quick, test_chaos_parse_and_target);
    ("chaos parse errors", `Quick, test_chaos_parse_errors);
    ("engine calm run completes", `Quick, test_engine_all_complete);
    ("engine sheds overflow", `Quick, test_engine_sheds_overflow);
    ("engine adversary gives up", `Quick, test_engine_adversary_gives_up);
    ("engine deadline", `Quick, test_engine_deadline);
    ("engine deterministic across jobs", `Quick, test_engine_deterministic_across_jobs);
    ("engine deterministic across repeats", `Quick, test_engine_deterministic_across_repeats);
    ("engine fair-share deterministic", `Quick, test_engine_fairshare_deterministic);
    ("engine fair-share completes", `Quick, test_engine_fairshare_completes);
    ("engine arrivals compat", `Quick, test_engine_arrivals_compat);
    ("engine trace paths agree", `Quick, test_engine_trace_paths_agree);
    QCheck_alcotest.to_alcotest prop_crash_restart_reaches_same_state;
    QCheck_alcotest.to_alcotest prop_arrival_of_string_total;
    QCheck_alcotest.to_alcotest prop_chaos_of_string_total;
    ("class weights parse", `Quick, test_classes_of_string);
    QCheck_alcotest.to_alcotest prop_classes_of_string_total;
  ]

let () = Alcotest.run "session" [ ("session", suite) ]
