(* Benchmark driver.

   1. Regenerate every experiment table/figure — the paper has no
      evaluation section, so these tables ARE the evaluation; see
      EXPERIMENTS.md for the claim-by-claim mapping.
   2. Bechamel micro-benchmarks: one Test.make per experiment (timing
      the experiment's workload kernel — a single representative
      execution) plus engine micro-benchmarks; the fault-layer timings
      go to BENCH_faults.json.
   3. Six gated parts, one [part] record each (see [parts] at the end):
      trace (tracing overhead on the compact control kernel), par
      (parallel scaling and determinism), sense (incremental judging
      and sensing at growing horizons), session (the supervised engine
      under chaos), compile (the enumeration ladder's decode cache) and
      net (the network goal family).  A part's [measure] prints its
      tables and returns its metric list, and that list is all of
      BENCH_<name>.json: exactly the metrics the gate judges.
      Informational figures (speedups, rates) are printed, never
      recorded.

   Every BENCH file has one shape, written by [write_bench] through
   Json.to_string and File.write_atomic:
     {"name": part, "host": {"domains", "ocaml", "profile"},
      "metrics": [{"name": .., "value": ..}, ..]}

   `--check` re-measures every part CI-sized and judges it with
   Bench_gate.check: the committed metrics minus the part's hard gates
   at the part's tolerances, the hard gates at zero tolerance.  It
   writes the verdict to BENCH_check.json and exits 1 on a regression,
   2 on an unreadable baseline or a gate no fresh metric answers.
   BENCH_ONLY=<part> measures one part and rewrites its file;
   `--jobs N` sets the ambient pool width. *)

open Bechamel
open Toolkit
open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_harness

let seed = 1

let () =
  (* --jobs N (before anything runs; bench is not a cmdliner binary). *)
  Array.iteri
    (fun i a ->
      if a = "--jobs" && i + 1 < Array.length Sys.argv then
        match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n > 0 -> Goalcom_par.Pool.set_default_jobs n
        | _ -> ())
    Sys.argv


module Gate = Goalcom_obs.Bench_gate
module Json = Goalcom_obs.Json

(* The one BENCH writer.  "host" is provenance for a human reader; the
   gate reads only "metrics". *)
let write_bench name metrics =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let host =
    [
      ("domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("profile", Json.String Build_info.profile);
    ]
  in
  File.write_atomic path
    (Json.to_string (Gate.to_json ~name ~host metrics) ^ "\n");
  Printf.printf "wrote %s (%d metrics)\n%!" path (List.length metrics)

let banner title =
  print_endline "\n==================================================";
  print_endline (" " ^ title);
  print_endline "=================================================="

(* Part 1: experiment tables *)

let print_experiments () =
  banner "Experiment tables (one per paper claim)";
  List.iter
    (fun (e : Experiment.t) ->
      Printf.printf "\n# %s (%s) — %s\n# claim: %s\n%!" e.id
        (Experiment.kind_to_string e.kind)
        e.title e.claim;
      Table.print (e.run ~seed))
    Experiment.all

(* Part 2: bechamel kernels *)

let alphabet = 6
let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i

let run_once ~horizon ~goal ~user ~server k =
  ignore
    (Exec.run ~config:(Exec.config ~horizon ()) ~goal ~user ~server
       (Rng.make (seed + k)))

let e1_kernel =
  let goal = Printing.goal ~docs:[ [ 3; 1; 4 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect 2) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 1

let e2_kernel =
  let goal = Printing.goal ~docs:[ [ 5; 2 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect (alphabet - 1)) in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 2

let maze_scenario = Maze.scenario ~width:8 ~height:8 ~start:(0, 0) ~target:(5, 4) ()

let e3_kernel =
  let goal = Maze.goal ~scenarios:[ maze_scenario ] ~alphabet () in
  let server = Maze.server ~alphabet (dialect 3) in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Maze.universal_user ~alphabet ~scenario:maze_scenario dialects)
      ~server 3

let e4_kernel = fun () -> ignore (Levin.work_before ~index:10 ~budget:64 ())

let e5_kernel =
  let goal = Printing.goal ~docs:[ [ 7; 3; 9 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect 1) in
  let user = Printing.universal_user ~alphabet dialects in
  let history =
    Exec.run ~config:(Exec.config ~horizon:1000 ()) ~goal ~user ~server
      (Rng.make seed)
  in
  fun () -> ignore (Sensing.verdicts Printing.sensing history)

let e6_kernel =
  let ctl_alphabet = 4 in
  let ctl_dialects = Dialect.enumerate_rotations ~size:ctl_alphabet in
  let goal = Control.goal ~alphabet:ctl_alphabet () in
  let server = Control.server ~alphabet:ctl_alphabet (Enum.get_exn ctl_dialects 2) in
  fun () ->
    run_once ~horizon:1500 ~goal
      ~user:(Control.universal_user ~alphabet:ctl_alphabet ctl_dialects)
      ~server 6

let e7_kernel =
  let dlg_alphabet = 4 in
  let dlg_dialects = Dialect.enumerate_rotations ~size:dlg_alphabet in
  let goal = Delegation.goal ~alphabet:dlg_alphabet () in
  let server = Delegation.server ~alphabet:dlg_alphabet (Enum.get_exn dlg_dialects 2) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Delegation.universal_user ~alphabet:dlg_alphabet dlg_dialects)
      ~server 7

let e8_kernel =
  let goal = Password.goal () in
  let server = Password.server_with_password 40 in
  fun () ->
    run_once ~horizon:600 ~goal ~user:(Password.sweeper ~space:64) ~server 8

let e9_kernel =
  let goal = Printing.goal ~docs:[ [ 6; 6; 6 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect 2) in
  fun () ->
    ignore
      (Helpful.check
         ~config:(Exec.config ~horizon:2000 ())
         ~trials:1 ~goal
         ~user_class:(Printing.user_class ~alphabet dialects)
         ~server (Rng.make seed))

let e10_kernel =
  let goal = Transfer.goal ~payloads:[ Listx.range 1 17 ] ~alphabet () in
  let server = Transfer.server ~alphabet (dialect (alphabet - 1)) in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Transfer.universal_user_fast ~alphabet dialects)
      ~server 10

let e11_kernel =
  let ms_alphabet = 4 in
  let ms_dialects = Dialect.enumerate_rotations ~size:ms_alphabet in
  let base = Printing.goal ~docs:[ [ 2; 5 ] ] ~alphabet:ms_alphabet () in
  let goal = Multi_session.goal ~session_length:30 base in
  let server = Printing.server ~alphabet:ms_alphabet (Enum.get_exn ms_dialects 2) in
  fun () ->
    run_once ~horizon:600 ~goal
      ~user:
        (Universal.compact ~grace:1
           ~enum:
             (Multi_session.wrap_class
                (Printing.user_class ~alphabet:ms_alphabet ms_dialects))
           ~sensing:Multi_session.sensing ())
      ~server 11

let e12_kernel =
  let goal = Printing.goal ~docs:[ [ 4; 2; 6 ] ] ~alphabet () in
  let server =
    Goalcom_servers.Channel.delayed ~rounds:2
      (Printing.server ~alphabet (dialect 2))
  in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 12

let e13_kernel =
  let p = { Prediction.num_attributes = 6 } in
  let pr_alphabet = 3 in
  let pr_dialects = Dialect.enumerate_rotations ~size:pr_alphabet in
  let goal = Prediction.goal ~params:p ~alphabet:pr_alphabet () in
  let server = Prediction.server ~alphabet:pr_alphabet (Enum.get_exn pr_dialects 1) in
  fun () ->
    run_once ~horizon:800 ~goal
      ~user:(Prediction.universal_user ~params:p ~alphabet:pr_alphabet pr_dialects)
      ~server 13

let e15_kernel =
  let cp = { Counting.num_vars = 5; num_clauses = 8; clause_len = 3 } in
  let ct_alphabet = 4 in
  let ct_dialects = Dialect.enumerate_rotations ~size:ct_alphabet in
  let goal = Counting.goal ~params:cp ~alphabet:ct_alphabet () in
  let server = Counting.server ~alphabet:ct_alphabet (Enum.get_exn ct_dialects 2) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Counting.universal_user ~params:cp ~alphabet:ct_alphabet ct_dialects)
      ~server 15

let e14_kernel =
  let ctl_alphabet = 4 in
  let ctl_dialects = Dialect.enumerate_rotations ~size:ctl_alphabet in
  let goal = Control.goal ~alphabet:ctl_alphabet () in
  let server =
    Control.server ~alphabet:ctl_alphabet
      (Enum.get_exn ctl_dialects (ctl_alphabet - 1))
  in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:
        (Universal.compact ~grace:2 ~growth:`Doubling
           ~enum:(Control.user_class ~alphabet:ctl_alphabet ctl_dialects)
           ~sensing:(Control.sensing ()) ())
      ~server 14

let fault_stack spec =
  match Goalcom_faults.Fault.stack_of_string ~alphabet spec with
  | Ok f -> Goalcom_faults.Fault.apply f
  | Error e -> invalid_arg e

let e16_kernel =
  let goal = Printing.goal ~docs:[ [ 4; 2 ] ] ~alphabet () in
  let server =
    fault_stack "corrupt:0.05+crash:60" (Printing.server ~alphabet (dialect 2))
  in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 16

(* Fault-layer micro-benchmarks: the same printing run through a single
   fault, isolating each combinator's per-round overhead. *)

let fault_kernel spec k =
  let goal = Printing.goal ~docs:[ [ 4; 2 ] ] ~alphabet () in
  let server = fault_stack spec (Printing.server ~alphabet (dialect 2)) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server k

let fault_corrupt_kernel = fault_kernel "corrupt:0.20" 17
let fault_reorder_kernel = fault_kernel "reorder:2" 18
let fault_crash_kernel = fault_kernel "crash:40" 19
let fault_adversary_kernel = fault_kernel "adversary:12" 20

(* Engine micro-benchmarks. *)

let micro_exec_round =
  let world =
    World.make ~name:"noop"
      ~init:(fun () -> ())
      ~step:(fun _rng () _ -> ((), Io.World.silent))
      ~view:(fun () -> Msg.Silence)
  in
  let goal =
    Goal.make ~name:"noop" ~worlds:[ world ]
      ~referee:(Referee.finite_exists "t" (fun _ -> true))
  in
  let user = Strategy.stateless ~name:"mute" (fun (_ : Io.User.obs) -> Io.User.silent) in
  let server = Strategy.stateless ~name:"mute" (fun (_ : Io.Server.obs) -> Io.Server.silent) in
  fun () -> run_once ~horizon:1000 ~goal ~user ~server 11

let micro_mealy_decode =
  fun () ->
  for code = 0 to 255 do
    ignore (Mealy.decode ~states:2 ~inputs:2 ~outputs:2 code)
  done

let micro_dpll =
  let rng = Rng.make seed in
  let instances =
    List.map
      (fun _ -> fst (Goalcom_sat.Gen.planted rng ~num_vars:10 ~num_clauses:30 ~clause_len:3))
      (Listx.range 0 8)
  in
  fun () -> List.iter (fun cnf -> ignore (Goalcom_sat.Dpll.solve cnf)) instances

let micro_dist_sample =
  let d = Dist.of_weighted [ (0, 0.1); (1, 0.2); (2, 0.3); (3, 0.4) ] in
  let rng = Rng.make seed in
  fun () ->
    for _ = 1 to 1000 do
      ignore (Dist.sample rng d)
    done

let tests =
  Test.make_grouped ~name:"goalcom"
    [
      Test.make ~name:"e1_universality" (Staged.stage e1_kernel);
      Test.make ~name:"e2_overhead_curve" (Staged.stage e2_kernel);
      Test.make ~name:"e3_levin" (Staged.stage e3_kernel);
      Test.make ~name:"e4_levin_overhead" (Staged.stage e4_kernel);
      Test.make ~name:"e5_sensing_ablation" (Staged.stage e5_kernel);
      Test.make ~name:"e6_compact_convergence" (Staged.stage e6_kernel);
      Test.make ~name:"e7_delegation" (Staged.stage e7_kernel);
      Test.make ~name:"e8_lower_bound" (Staged.stage e8_kernel);
      Test.make ~name:"e9_helpfulness" (Staged.stage e9_kernel);
      Test.make ~name:"e10_amortisation" (Staged.stage e10_kernel);
      Test.make ~name:"e11_multi_session" (Staged.stage e11_kernel);
      Test.make ~name:"e12_channel_robustness" (Staged.stage e12_kernel);
      Test.make ~name:"e13_online_learning" (Staged.stage e13_kernel);
      Test.make ~name:"e14_grace_ablation" (Staged.stage e14_kernel);
      Test.make ~name:"e15_interactive_proof" (Staged.stage e15_kernel);
      Test.make ~name:"e16_fault_matrix" (Staged.stage e16_kernel);
      Test.make ~name:"fault_corrupt" (Staged.stage fault_corrupt_kernel);
      Test.make ~name:"fault_reorder" (Staged.stage fault_reorder_kernel);
      Test.make ~name:"fault_crash" (Staged.stage fault_crash_kernel);
      Test.make ~name:"fault_adversary" (Staged.stage fault_adversary_kernel);
      Test.make ~name:"micro_exec_1000_rounds" (Staged.stage micro_exec_round);
      Test.make ~name:"micro_mealy_decode_256" (Staged.stage micro_mealy_decode);
      Test.make ~name:"micro_dpll_8x(10v,30c)" (Staged.stage micro_dpll);
      Test.make ~name:"micro_dist_sample_1000" (Staged.stage micro_dist_sample);
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let print_bench () =
  banner "Bechamel timings (monotonic clock, ns per run)";
  let results = benchmark () in
  let clock_results = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> Printf.sprintf "%.0f" est
        | _ -> "-"
      in
      rows := [ name; estimate ] :: !rows)
    clock_results;
  let rows = List.sort compare !rows in
  Table.print
    (Table.make ~title:"bechamel (ns/run)" ~columns:[ "benchmark"; "time (ns)" ]
       rows);
  rows

(* The fault-layer timings, exported for tracking across revisions.
   Bechamel names are "goalcom/<kernel>"; keep the fault-layer ones. *)
let write_fault_json rows =
  let is_fault name =
    let base = Filename.basename name in
    String.starts_with ~prefix:"e16" base
    || String.starts_with ~prefix:"fault_" base
  in
  write_bench "faults"
    (List.filter_map
       (function
         | [ name; est ] when is_fault name ->
             Option.map
               (fun value -> { Gate.name = name ^ "/ns_per_run"; value })
               (float_of_string_opt est)
         | _ -> None)
       rows)

(* The trace part: tracing overhead on the compact control kernel
   -> BENCH_trace.json.

   The tentpole claim of lib/obs is that the no-sink path is free: every
   emission site is a load-and-branch, no event is allocated.  A binary
   cannot contain both the instrumented and the pre-instrumentation
   engine, so the baseline is a guard-free replica of Exec.run's loop
   (below) driving the exact same strategies; the replica is checked
   against Exec.run for bit-identical histories before timing.  On top
   of the no-sink point we time the attached-sink variants: Trace.null
   (pure dispatch cost), the binary ring buffer, and JSONL rendering
   into a Buffer. *)

let replica_run ~config ~goal ~user ~server rng =
  let user_rng = Rng.split rng in
  let server_rng = Rng.split rng in
  let world_rng = Rng.split rng in
  let user_inst = Strategy.Instance.create user in
  let server_inst = Strategy.Instance.create server in
  let world_inst =
    World.Instance.create (Goal.world ~choice:config.Exec.world_choice goal)
  in
  let initial_world_view = World.Instance.view world_inst in
  let rec loop round halted drain_left prev_acts rounds_rev =
    let (u2s, u2w), (s2u, s2w), (w2u, w2s) = prev_acts in
    if round > config.Exec.horizon || (halted && drain_left <= 0) then
      History.make ~initial_world_view (List.rev rounds_rev)
    else begin
      let user_act : Io.User.act =
        if halted then Io.User.halt_act
        else
          Strategy.Instance.step user_rng user_inst
            { Io.User.from_server = s2u; from_world = w2u; round }
      in
      let server_act : Io.Server.act =
        Strategy.Instance.step server_rng server_inst
          { Io.Server.from_user = u2s; from_world = w2s }
      in
      let world_act : Io.World.act =
        World.Instance.step world_rng world_inst
          { Io.World.from_user = u2w; from_server = s2w }
      in
      let halted' = halted || user_act.halt in
      let round_record =
        {
          History.Round.index = round;
          user_to_server = user_act.to_server;
          user_to_world = user_act.to_world;
          server_to_user = server_act.to_user;
          server_to_world = server_act.to_world;
          world_to_user = world_act.to_user;
          world_to_server = world_act.to_server;
          world_view = World.Instance.view world_inst;
          user_halted = halted';
        }
      in
      let drain_left' = if halted then drain_left - 1 else config.Exec.drain in
      loop (round + 1) halted' drain_left'
        ( (user_act.to_server, user_act.to_world),
          (server_act.to_user, server_act.to_world),
          (world_act.to_user, world_act.to_server) )
        (round_record :: rounds_rev)
    end
  in
  let silence2 = (Msg.Silence, Msg.Silence) in
  loop 1 false config.Exec.drain (silence2, silence2, silence2) []

(* The overhead kernel must spend long enough inside the round loop
   that per-round costs dominate run-to-run code-layout noise (several
   microseconds per run either way).  The E1 printing kernel used to
   qualify, but the incremental sensing/judging engine made it halt-
   bound (~59 rounds, ~20us/run) and the replica comparison degenerated
   into measuring loop-layout drift.  The compact control goal never
   halts, so every run executes the full 2000-round horizon. *)
let trace_kernel_setup () =
  let ctl_alphabet = 4 in
  let ctl_dialects = Dialect.enumerate_rotations ~size:ctl_alphabet in
  let goal = Control.goal ~alphabet:ctl_alphabet () in
  let server = Control.server ~alphabet:ctl_alphabet (Enum.get_exn ctl_dialects 2) in
  let user = Control.universal_user ~alphabet:ctl_alphabet ctl_dialects in
  let config = Exec.config ~horizon:2000 () in
  (config, goal, user, server)

let minimum l = List.fold_left min infinity l

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

(* Measure every sink variant paired against the untraced replica.
   [rounds] is the number of paired measurement rounds, [budget] the
   target wall-clock (seconds) per arm per round; `--check` shrinks
   both for a CI-sized smoke run.  Returns the baseline ms/run and
   [(variant, (median ratio, best baseline s/run, best variant s/run))]
   per sink variant. *)
let measure_trace_overhead ~rounds ~budget () =
  let config, goal, user, server = trace_kernel_setup () in
  (* Replica fidelity: same seed, same history, or the baseline is not
     measuring the same work. *)
  let fidelity =
    let replica = replica_run ~config ~goal ~user ~server (Rng.make seed) in
    let exec = Exec.run ~config ~goal ~user ~server (Rng.make seed) in
    History.length replica = History.length exec
    && fst
         (History.fold_rounds replica ~init:(true, 0) ~f:(fun (same, i) r ->
              (same && r = History.round_exn exec i, i + 1)))
  in
  if not fidelity then
    failwith "trace overhead: replica loop diverged from Exec.run";
  let buf = Buffer.create 65536 in
  (* Sized to hold a full 2000-round run (~18k events) without
     evicting, so the measured cost is encode+store, not wrap
     bookkeeping (which is cheaper: same store, no Buffer growth). *)
  let ring = Goalcom_obs.Ring.create ~capacity:32768 in
  let variants =
    [
      ( "untraced replica",
        fun k ->
          ignore (replica_run ~config ~goal ~user ~server (Rng.make (seed + k)))
      );
      ( "no sink",
        fun k ->
          ignore (Exec.run ~config ~goal ~user ~server (Rng.make (seed + k))) );
      ( "null sink",
        fun k ->
          ignore
            (Exec.run ~sink:Trace.null ~config ~goal ~user ~server
               (Rng.make (seed + k))) );
      ( "ring sink (binary)",
        fun k ->
          Goalcom_obs.Ring.clear ring;
          ignore
            (Exec.run
               ~sink:(Goalcom_obs.Ring.domain_sink ring)
               ~config ~goal ~user ~server
               (Rng.make (seed + k))) );
      ( "jsonl sink (buffer)",
        fun k ->
          Buffer.clear buf;
          ignore
            (Exec.run
               ~sink:(Goalcom_obs.Jsonl.buffer_sink buf)
               ~config ~goal ~user ~server
               (Rng.make (seed + k))) );
    ]
  in
  (* Each variant is measured PAIRED against the baseline at single-run
     granularity: baseline and variant alternate run by run (with the
     order itself alternating, so neither arm always inherits the
     other's cache state), each round yields one variant/baseline ratio
     from sums taken microseconds apart — frequency scaling, thermal
     drift and scheduler noise hit both arms equally and cancel in the
     ratio.  The reported overhead is the median ratio over rounds. *)
  let baseline = snd (List.hd variants) in
  List.iter (fun (_, f) -> for k = 0 to 4 do f k done) variants;
  let calibrate f =
    let t0 = Unix.gettimeofday () in
    for k = 0 to 9 do
      f k
    done;
    (Unix.gettimeofday () -. t0) /. 10.
  in
  let per_run = calibrate baseline in
  let n = max 10 (int_of_float (budget /. max 1e-6 per_run)) in
  let measure_paired f =
    let ratios = ref [] in
    let best_base = ref infinity and best_var = ref infinity in
    for _ = 1 to rounds do
      (* Settle the heap so one arm's garbage is not charged to the
         other arm's runs. *)
      Gc.full_major ();
      let tb = ref 0. and tv = ref 0. in
      for k = 1 to n do
        if k land 1 = 0 then begin
          let t0 = Unix.gettimeofday () in
          baseline k;
          let t1 = Unix.gettimeofday () in
          f k;
          let t2 = Unix.gettimeofday () in
          tb := !tb +. (t1 -. t0);
          tv := !tv +. (t2 -. t1)
        end
        else begin
          let t0 = Unix.gettimeofday () in
          f k;
          let t1 = Unix.gettimeofday () in
          baseline k;
          let t2 = Unix.gettimeofday () in
          tv := !tv +. (t1 -. t0);
          tb := !tb +. (t2 -. t1)
        end
      done;
      ratios := (!tv /. !tb) :: !ratios;
      best_base := min !best_base (!tb /. float_of_int n);
      best_var := min !best_var (!tv /. float_of_int n)
    done;
    (median !ratios, !best_base, !best_var)
  in
  let measured =
    List.map (fun (name, f) -> (name, measure_paired f)) (List.tl variants)
  in
  let base_ms =
    1e3 *. minimum (List.map (fun (_, (_, b, _)) -> b) measured)
  in
  (n, base_ms, measured)

let pct r = 100. *. (r -. 1.)

(* The measurement flattened to the gate's vocabulary: this list is
   all of BENCH_trace.json. *)
let trace_metrics ~base_ms measured =
  let nosink_pct =
    match measured with (_, (r, _, _)) :: _ -> pct r | [] -> 0.
  in
  { Gate.name = "no_sink_overhead_pct"; value = nosink_pct }
  :: { name = "untraced replica/ms_per_run"; value = base_ms }
  :: List.concat_map
       (fun (name, (ratio, _, v)) ->
         [
           { Gate.name = name ^ "/ms_per_run"; value = v *. 1e3 };
           { name = name ^ "/overhead_pct"; value = pct ratio };
         ])
       measured

(* Hard acceptance thresholds for the always-on capture path, judged
   at zero tolerance: a fresh value above the threshold fails the gate
   no matter what the committed file says.  The ring bound is the PR-8
   acceptance bar for leaving capture enabled in production; the
   null-sink bound pins the fixed cost of merely having a sink
   installed; the no-sink bound pins the disabled path.  Measured
   (release profile, -inline 200): ring ~41%, null ~13%, no sink ~1.5%
   — the slack above each is headroom for host noise, not an
   invitation. *)
let trace_gates =
  [
    { Gate.name = "ring sink (binary)/overhead_pct"; value = 50. };
    { name = "null sink/overhead_pct"; value = 22. };
    { name = "no_sink_overhead_pct"; value = 5. };
  ]

let env_positive name parse ~zero default =
  match Option.bind (Sys.getenv_opt name) parse with
  | Some v when v > zero -> v
  | _ -> default

(* BENCH_CHECK_ROUNDS / BENCH_CHECK_BUDGET shrink or grow the CI-sized
   measurement. *)
let measure_trace ~check =
  banner "Tracing overhead (compact control kernel)";
  let rounds, budget =
    if check then
      ( env_positive "BENCH_CHECK_ROUNDS" int_of_string_opt ~zero:0 7,
        env_positive "BENCH_CHECK_BUDGET" float_of_string_opt ~zero:0. 0.02 )
    else (15, 0.05)
  in
  let events_per_run =
    let config, goal, user, server = trace_kernel_setup () in
    let count = ref 0 in
    ignore
      (Exec.run
         ~sink:(fun _ -> incr count)
         ~config ~goal ~user ~server (Rng.make seed));
    !count
  in
  Printf.printf "kernel emits %d events per run\n%!" events_per_run;
  let n, base_ms, measured = measure_trace_overhead ~rounds ~budget () in
  let rows =
    ("untraced replica", [ Printf.sprintf "%.3f" base_ms; "baseline" ])
    :: List.map
         (fun (name, (ratio, _, v)) ->
           ( name,
             [
               Printf.sprintf "%.3f" (v *. 1e3);
               Printf.sprintf "%+.2f%%" (pct ratio);
             ] ))
         measured
  in
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf
            "tracing overhead, control kernel (median of %d rounds x %d paired runs)"
            rounds n)
       ~columns:[ "variant"; "ms/run"; "vs baseline" ]
       (List.map (fun (name, cells) -> name :: cells) rows));
  let metrics = trace_metrics ~base_ms measured in
  Printf.printf "\nno-sink tracing overhead: %+.2f%% (acceptance: < 2%%)\n"
    (List.hd metrics).value;
  metrics

(* The par part: parallel scaling & determinism -> BENCH_par.json.

   The E17 workloads re-measured at fixed job counts.  Two kinds of
   numbers come out:
   - determinism: every jobs>1 digest must equal the jobs=1 digest.
     This is exported as par_mismatch_pct (0 or 100) and gated with
     zero tolerance — a single mismatch fails `--check`.
   - scaling: wall-clock per jobs count.  Absolute times do not
     transfer across hosts; but maze/remote is latency-bound (each
     round pays a simulated server round-trip), so its jobs-k/jobs-1
     ratio is host-independent and IS gated: jobs4_vs_jobs1_pct holding
     under ~51% is precisely the ">= 2x at four domains" acceptance
     bar.  The CPU-bound workloads' ratios track the host's core count,
     so only their timings are recorded, at the loose default. *)

let par_jobs = [ 1; 2; 4 ]
let par_gated_workload = "maze/remote"

(* `--check` re-measures only the gated workload. *)
let measure_par ~check =
  List.filter_map
    (fun (name, workload) ->
      if check && name <> par_gated_workload then None
      else
        Some
          ( name,
            List.map
              (fun jobs -> (jobs, E17_scaling.time (workload ~seed ~jobs)))
              par_jobs ))
    E17_scaling.workloads

(* "label@jobs" for every run whose digest differs from its label's
   jobs=1 digest; [] is the pass verdict.  Shared by the par, session
   and net parts. *)
let mismatches ~digest runs =
  List.concat_map
    (fun (label, by_jobs) ->
      match by_jobs with
      | (_, base) :: rest ->
          List.filter_map
            (fun (jobs, m) ->
              if String.equal (digest m) (digest base) then None
              else Some (Printf.sprintf "%s@%d" label jobs))
            rest
      | [] -> [])
    runs

let par_mismatches =
  mismatches ~digest:(fun (m : E17_scaling.measurement) -> m.digest)

let par_seconds runs jobs =
  match List.assoc_opt jobs runs with
  | Some (m : E17_scaling.measurement) -> m.E17_scaling.seconds
  | None -> nan

(* The measurement flattened to the gate's vocabulary: this list is
   all of BENCH_par.json. *)
let par_metrics runs_by_workload =
  let open Gate in
  let mismatch_pct =
    if par_mismatches runs_by_workload = [] then 0. else 100.
  in
  { name = "par_mismatch_pct"; value = mismatch_pct }
  :: List.concat_map
       (fun (name, runs) ->
         let t1 = par_seconds runs 1 in
         List.concat_map
           (fun jobs ->
             let t = par_seconds runs jobs in
             { name = Printf.sprintf "%s/jobs%d_ms" name jobs;
               value = t *. 1e3 }
             ::
             (if jobs > 1 && name = par_gated_workload then
                [ { name = Printf.sprintf "%s/jobs%d_vs_jobs1_pct" name jobs;
                    value = 100. *. t /. t1 } ]
              else []))
           par_jobs)
       runs_by_workload

(* Tolerances for the BENCH_par gate: determinism is exact, the
   latency-workload scaling ratio is loose (100% relative — failing
   only when the 4-domain run stops being ~2x faster than sequential),
   absolute ms keep the cross-host default. *)
let par_tol name =
  if name = "par_mismatch_pct" then 0.
  else if Filename.check_suffix name "_vs_jobs1_pct" then 100.
  else Gate.default_tol_pct name

let par_slack name =
  if name = "par_mismatch_pct" then 0. else Gate.default_slack name

let measure_par_part ~check =
  banner "Parallel scaling & determinism (E17 workloads)";
  let runs_by_workload = measure_par ~check in
  let mismatches = par_mismatches runs_by_workload in
  let rows =
    List.concat_map
      (fun (name, runs) ->
        let t1 = par_seconds runs 1 in
        List.map
          (fun (jobs, (m : E17_scaling.measurement)) ->
            [
              name;
              string_of_int jobs;
              Printf.sprintf "%.1f" (m.E17_scaling.seconds *. 1e3);
              Printf.sprintf "%.2fx" (t1 /. m.E17_scaling.seconds);
              (if List.mem (Printf.sprintf "%s@%d" name jobs) mismatches then
                 "NO"
               else "yes");
            ])
          runs)
      runs_by_workload
  in
  Table.print
    (Table.make ~title:"parallel scaling (wall clock)"
       ~columns:[ "workload"; "jobs"; "wall ms"; "speedup"; "= jobs 1" ]
       rows);
  let speedup_x4 =
    match List.assoc_opt par_gated_workload runs_by_workload with
    | Some runs -> par_seconds runs 1 /. par_seconds runs 4
    | None -> nan
  in
  Printf.printf
    "\n%s speedup at 4 domains: %.2fx (acceptance: >= 2x); mismatches: %s\n"
    par_gated_workload speedup_x4
    (if mismatches = [] then "none" else String.concat ", " mismatches);
  par_metrics runs_by_workload

(* The sense part: incremental judging & sensing kernels
   -> BENCH_sense.json.

   The incremental-evaluation refactor's claim is algorithmic — judging
   and sensing are a single O(n) pass instead of the legacy O(n^2)
   prefix re-evaluation — so the gated numbers are RATIOS, which
   transfer across hosts:
   - judge16k_incr_vs_legacy_pct: incremental [Referee.violations]
     as a percentage of the legacy prefix-predicate path
     ([sense_judge_legacy], a replica of the quadratic list-predicate
     judge) at horizon 16k.  Holding under 10% is the ">= 10x
     wall-clock win" acceptance bar.
   - *_scaling_16k_over_1k: wall clock at horizon 16k over horizon 1k
     for the incremental judge and the tolerant sensing kernel.  A
     linear pass gives ~16x; anything quadratic gives ~256x.  Gated at
     <= 25x.
   Absolute ms are recorded with the loose cross-host tolerance. *)

let sense_horizons = [ 1_000; 4_000; 16_000 ]
let sense_bound = 10

(* The synthetic plant wanders inside [-bound, bound] and strays out on
   a sparse set of rounds, so the judge kernels have violations to
   collect and the sensors see both verdicts. *)
let sense_plant r =
  if r mod 97 = 0 then sense_bound + 1 + (r mod 5)
  else (r * 7 mod ((2 * sense_bound) + 1)) - sense_bound

let sense_history n =
  let round r =
    let plant = Msg.Int (sense_plant r) in
    {
      History.Round.index = r;
      user_to_server = Msg.Sym (r land 3);
      user_to_world = Msg.Silence;
      server_to_user = Msg.Int (r land 7);
      server_to_world = Msg.Silence;
      world_to_user = plant;
      world_to_server = Msg.Silence;
      world_view = plant;
      user_halted = false;
    }
  in
  History.make ~initial_world_view:(Msg.Int 0) (List.init n (fun i -> round (i + 1)))

let sense_in_range = function
  | Msg.Int p -> abs p <= sense_bound
  | _ -> false

(* The legacy judge, replicated here as the baseline: a predicate over
   most-recent-first world views, re-evaluated on a freshly built list
   for every prefix — the pre-refactor cost model for compact judging,
   O(n^2). *)
let sense_judge_legacy hist =
  let acceptable = function v :: _ -> sense_in_range v | [] -> true in
  let n = History.length hist in
  let rounds = Array.init n (History.round_exn hist) in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let views = ref [ History.initial_world_view hist ] in
    for k = 0 to i do
      views := rounds.(k).History.Round.world_view :: !views
    done;
    if not (acceptable !views) then
      acc := rounds.(i).History.Round.index :: !acc
  done;
  !acc

let sense_referee_incr =
  Referee.compact_incremental "plant-in-range/incr"
    ~init:(fun _v0 -> ((), `Ok))
    ~step:(fun () v -> ((), if sense_in_range v then `Ok else `Violation))

let sense_sensor =
  Sensing.of_recent ~name:"plant-in-range/recent" ~window:16 (fun e ->
      sense_in_range e.View.from_world)

let sense_tolerant = Sensing.tolerant ~window:8 ~threshold:6 sense_sensor

let sense_kernels =
  [
    ("judge-legacy", fun hist -> ignore (sense_judge_legacy hist));
    ( "judge-incremental",
      fun hist -> ignore (Referee.violations sense_referee_incr hist) );
    ("sense-verdicts", fun hist -> ignore (Sensing.verdicts sense_sensor hist));
    (* negatives_after folds the tolerant state over the whole history
       without building the O(n) verdict list, so this times the
       per-round sensing cost itself — the thing the ring buffer made
       O(1) — not result-list construction. *)
    ( "tolerant-w8",
      fun hist -> ignore (Sensing.negatives_after sense_tolerant hist 0) );
  ]

(* [(kernel, [(horizon, best seconds per pass)])] — one warm pass, then
   the minimum over [repeats] timed samples per (kernel, horizon).

   Each sample times a BATCH of passes covering the same total round
   count at every horizon (so a 1k sample runs 16x more passes than a
   16k sample).  A single 1k pass is ~tens of microseconds — timer
   granularity — and a single 16k pass may or may not absorb a GC
   slice, which showed up as 2x run-to-run noise on the scaling ratio.
   Batching fixes both: samples are well above timer resolution, and GC
   work amortises in proportion to allocation — the same per round at
   either horizon — so it cancels out of the 16k/1k ratio instead of
   landing on whichever sample drew the collection. *)
let sense_batch_rounds = 4 * 16_000

let measure_sense ~repeats () =
  let hists = List.map (fun h -> (h, sense_history h)) sense_horizons in
  (* Both judge paths must agree, or the speedup compares different
     answers; checked once at the smallest horizon. *)
  let h0 = snd (List.hd hists) in
  if
    Referee.violations sense_referee_incr h0
    <> sense_judge_legacy h0
  then failwith "sense bench: judge kernels disagree";
  List.map
    (fun (name, kernel) ->
      ( name,
        List.map
          (fun (h, hist) ->
            (* The legacy judge is quadratic — one pass per sample is
               already ~500ms at 16k and far above timer noise. *)
            let passes =
              if name = "judge-legacy" then 1
              else max 1 (sense_batch_rounds / h)
            in
            kernel hist;
            let best = ref infinity in
            for _ = 1 to repeats do
              Gc.full_major ();
              let t0 = Unix.gettimeofday () in
              for _ = 1 to passes do
                kernel hist
              done;
              let dt = Unix.gettimeofday () -. t0 in
              best := min !best (dt /. float_of_int passes)
            done;
            (h, !best))
          hists ))
    sense_kernels

let sense_ms runs name h = 1e3 *. List.assoc h (List.assoc name runs)
let sense_scaling runs name = sense_ms runs name 16_000 /. sense_ms runs name 1_000

let sense_incr_vs_legacy_pct runs =
  100. *. sense_ms runs "judge-incremental" 16_000
  /. sense_ms runs "judge-legacy" 16_000

(* The measurement flattened to the gate's vocabulary: this list is
   all of BENCH_sense.json. *)
let sense_metrics runs =
  let open Gate in
  { name = "judge16k_incr_vs_legacy_pct"; value = sense_incr_vs_legacy_pct runs }
  :: { name = "judge_scaling_16k_over_1k";
       value = sense_scaling runs "judge-incremental" }
  :: { name = "tolerant_scaling_16k_over_1k";
       value = sense_scaling runs "tolerant-w8" }
  :: List.concat_map
       (fun (name, times) ->
         List.map
           (fun (h, t) ->
             { name = Printf.sprintf "%s/h%dk_ms" name (h / 1000);
               value = t *. 1e3 })
           times)
       runs

(* Hard acceptance thresholds, phrased as a Bench_gate baseline with
   zero tolerance: a fresh value above the threshold is a regression
   regardless of what the committed file says.  [sense-verdicts]' ratio
   is only printed — its pass allocates the per-round verdict list, so
   at 16k it is memory-bound and its ratio tracks the host's cache
   hierarchy more than the algorithm. *)
let sense_gates =
  let open Gate in
  [
    { name = "judge16k_incr_vs_legacy_pct"; value = 10. };
    { name = "judge_scaling_16k_over_1k"; value = 25. };
    { name = "tolerant_scaling_16k_over_1k"; value = 25. };
  ]

let measure_sense_part ~check =
  banner "Incremental judging & sensing kernels";
  let repeats = if check then 4 else 5 in
  let runs = measure_sense ~repeats () in
  let rows =
    List.map
      (fun (name, _) ->
        name
        :: List.map
             (fun h -> Printf.sprintf "%.3f" (sense_ms runs name h))
             sense_horizons
        @ [ Printf.sprintf "%.1fx" (sense_scaling runs name) ])
      runs
  in
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf
            "judge/sensing kernels, ms per full-history pass (best of %d)"
            repeats)
       ~columns:[ "kernel"; "1k ms"; "4k ms"; "16k ms"; "16k/1k" ]
       rows);
  Printf.printf
    "\nincremental vs legacy prefix judge at 16k: %.0fx (acceptance: >= 10x)\n"
    (sense_ms runs "judge-legacy" 16_000
    /. sense_ms runs "judge-incremental" 16_000);
  Printf.printf
    "tolerant(w=8) scaling 16k/1k: %.1fx (acceptance: <= 25x; linear ~ 16x)\n"
    (sense_scaling runs "tolerant-w8");
  sense_metrics runs

(* The session part: supervised session engine -> BENCH_session.json.

   The session engine's contract is behavioural before it is fast:
   under a fixed seed and chaos schedule, every count it reports —
   completions, sheds, restarts, breaker trips, rounds percentiles —
   is a deterministic function of the configuration, identical on
   every host and at every jobs count.  So the gate pins those counts
   with ZERO tolerance against the committed file, plus
   session_mismatch_pct (every jobs>1 digest vs the jobs=1 digest,
   exported as 0 or 100) exactly as the par part does for parallel
   trials.
   Wall clock per condition is recorded at each jobs count with the
   loose cross-host tolerance.

   Two conditions exercise the two failure planes over the full E18
   session mix:
   - storm: scheduled kills + crash storms + burst loss, everything
     admitted (effectively unbounded queue), the round budget acting
     as the wedge detector.  Stresses supervision: restarts, backoff,
     breakers.
   - overload: no chaos, tight queue.  Stresses admission: most of
     the population is shed at a full queue and the rest drain
     through the [max_live] slots.

   BENCH_SESSION_SESSIONS overrides the population for local
   iteration; `--check` re-runs at the same scale, so gate only
   against a file produced at the default. *)

module Session_engine = Goalcom_session.Engine

let session_sessions =
  match
    Option.bind (Sys.getenv_opt "BENCH_SESSION_SESSIONS") int_of_string_opt
  with
  | Some v when v > 0 -> v
  | _ -> 10_000

let session_jobs = [ 1; 4 ]

let session_conditions =
  [
    { E18_chaos_matrix.cname = "storm";
      chaos_spec = "kill@2,4%5=0;crash:25@1..800%3=1;burst:0.25@1..150%7=2";
      econfig =
        Session_engine.config ~quantum:32 ~max_live:256
          ~queue_capacity:1_000_000 ~round_budget:2_000 ~max_ticks:200_000 ()
    };
    { E18_chaos_matrix.cname = "overload";
      chaos_spec = "";
      econfig =
        Session_engine.config ~quantum:32 ~max_live:256 ~queue_capacity:2_048
          ~max_ticks:200_000 ()
    };
  ]

(* [(cname, [(jobs, (report, seconds, minor_words))])].  Minor-heap
   words are only meaningful at jobs 1 (the exact sequential path — at
   higher widths the counter misses what worker domains allocate), and
   there they are deterministic: the allocation gate reads the jobs=1
   figure. *)
let measure_session () =
  List.map
    (fun (c : E18_chaos_matrix.condition) ->
      ( c.E18_chaos_matrix.cname,
        List.map
          (fun jobs ->
            let t0 = Unix.gettimeofday () in
            let mw0 = Gc.minor_words () in
            let report =
              E18_chaos_matrix.run_condition ~jobs ~sessions:session_sessions
                ~seed c
            in
            let mw = Gc.minor_words () -. mw0 in
            (jobs, (report, Unix.gettimeofday () -. t0, mw)))
          session_jobs ))
    session_conditions

let session_mismatches =
  mismatches ~digest:(fun ((r : Session_engine.report), _, _) -> r.digest)

(* The behavioural counts of one report.  [failed] rather than
   [completed] because the gate's judge is one-sided (a fresh value
   exceeding baseline is the regression): more failures must fail,
   more completions must not. *)
let session_counts (r : Session_engine.report) =
  let open Session_engine in
  [
    ("failed", float_of_int (session_sessions - r.completed));
    ("shed", float_of_int r.shed);
    ("restarts", float_of_int r.restarts);
    ("trips", float_of_int r.trips);
    ("gave_up", float_of_int r.gave_up);
    ("unfinished", float_of_int r.unfinished);
    ("total_rounds", float_of_int r.total_rounds);
    ("p50_rounds", r.p50_rounds);
    ("p99_rounds", r.p99_rounds);
    ("p999_rounds", r.p999_rounds);
  ]

(* Throughput of one measured run.  Printed only: the gate judges its
   reciprocal [jobsN_ms] (the judge is lower-is-better, and the two are
   the same number), so a faster host's higher throughput is never
   misread as a regression. *)
let sessions_per_sec t = float_of_int session_sessions /. t

(* Allocation per session-round, from the jobs=1 run. *)
let session_minor_words_per_round by_jobs =
  let (r : Session_engine.report), _, mw = List.assoc 1 by_jobs in
  if r.Session_engine.total_rounds = 0 then 0.
  else mw /. float_of_int r.Session_engine.total_rounds

(* Parallel speedup as a percentage: jobs=4 wall clock over jobs=1
   (< 100 means jobs 4 is faster).  The storm figure is hard-gated
   below 100 — the whole point of domain-sharded quanta. *)
let session_speedup_pct by_jobs =
  let _, t1, _ = List.assoc 1 by_jobs in
  let _, t4, _ = List.assoc 4 by_jobs in
  100. *. t4 /. t1

(* The measurement flattened to the gate's vocabulary: this list is
   all of BENCH_session.json. *)
let session_metrics runs =
  let open Gate in
  let mismatch_pct = if session_mismatches runs = [] then 0. else 100. in
  { name = "session_mismatch_pct"; value = mismatch_pct }
  :: List.concat_map
       (fun (cname, by_jobs) ->
         let (r : Session_engine.report), _, _ = List.assoc 1 by_jobs in
         List.map
           (fun (field, v) ->
             { name = Printf.sprintf "%s/%s" cname field; value = v })
           (session_counts r)
         @ List.map
             (fun (jobs, (_, t, _)) ->
               { name = Printf.sprintf "%s/jobs%d_ms" cname jobs;
                 value = t *. 1e3 })
             by_jobs
         @ [
             { name = Printf.sprintf "%s/minor_words_per_round" cname;
               value = session_minor_words_per_round by_jobs };
             { name = Printf.sprintf "%s/jobs4_vs_jobs1_pct" cname;
               value = session_speedup_pct by_jobs };
           ])
       runs

(* The absolute ceiling the storm speedup is held to regardless of the
   committed baseline: jobs 4 must beat jobs 1 (judged with zero
   tolerance, like the trace gates). *)
let storm_speedup = "storm/jobs4_vs_jobs1_pct"
let session_gates = [ { Gate.name = storm_speedup; value = 100. } ]

(* The engine clamps its pool width to the hardware, so on a
   single-thread host jobs 4 runs the jobs 1 path and the storm ratio
   is parity plus noise: its ceiling is judged only where parallelism
   can show. *)
let unjudged_here name =
  name = storm_speedup && Goalcom_par.Pool.hardware_jobs () <= 1

(* Determinism makes every count exact, so only the wall-clock
   timings, the speedup ratio and the allocation figure carry
   tolerance: timings get the loose cross-host default, the ratio the
   _pct default (its absolute ceiling is the hard gate above), and
   minor-words — deterministic on a host, but sensitive to stdlib /
   compiler versions — a tight 15%. *)
let session_tol name =
  if name = "session_mismatch_pct" then 0.
  else if Filename.check_suffix name "_ms" then Gate.default_tol_pct name
  else if Filename.check_suffix name "jobs4_vs_jobs1_pct" then
    Gate.default_tol_pct name
  else if Filename.check_suffix name "minor_words_per_round" then 15.
  else 0.

let session_slack name =
  if Filename.check_suffix name "_ms" then Gate.default_slack name
  else if Filename.check_suffix name "jobs4_vs_jobs1_pct" then 10.
  else 0.

let measure_session_part ~check =
  banner "Supervised session engine (chaos conditions)";
  if check && unjudged_here storm_speedup then
    Printf.printf "one hardware thread: jobs 4 runs as jobs 1, so %s is not \
                   judged\n" storm_speedup;
  let runs = measure_session () in
  let mismatches = session_mismatches runs in
  let rows =
    List.concat_map
      (fun (cname, by_jobs) ->
        List.map
          (fun (jobs, ((r : Session_engine.report), t, _)) ->
            let open Session_engine in
            [
              cname;
              string_of_int jobs;
              Printf.sprintf "%.0f" (t *. 1e3);
              Printf.sprintf "%.0f" (sessions_per_sec t);
              (if jobs = 1 then
                 Printf.sprintf "%.0f" (session_minor_words_per_round by_jobs)
               else "-");
              string_of_int r.completed;
              string_of_int r.shed;
              string_of_int r.restarts;
              string_of_int r.trips;
              string_of_int r.gave_up;
              Printf.sprintf "%.0f" r.p50_rounds;
              Printf.sprintf "%.0f" r.p99_rounds;
              Printf.sprintf "%.0f" r.p999_rounds;
              String.sub r.digest 0 12;
            ])
          by_jobs)
      runs
  in
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf "session engine, %d sessions per condition"
            session_sessions)
       ~columns:
         [ "condition"; "jobs"; "wall ms"; "sess/s"; "mw/rd"; "done"; "shed";
           "restarts"; "trips"; "give-ups"; "p50 rds"; "p99 rds";
           "p999 rds"; "digest" ]
       rows);
  Printf.printf "\ndigest mismatches across jobs counts: %s\n"
    (if mismatches = [] then "none" else String.concat ", " mismatches);
  session_metrics runs

(* The compile part: the decode cache -> BENCH_compile.json.

   The claim is a constant-factor one: the Levin schedule revisits the
   same candidates — phase k re-decodes candidates 0..k-1 in every
   later phase, so a ladder prefix touches few distinct indices many
   times — and wrapping the machine-user class in Enum.cached makes
   those revisits free.  The metric names keep their historical
   "compiled"/"uncompiled" wording: "uncompiled" is the plain
   Machine_user.user_class (a fresh decode per slot), "compiled" the
   same class behind Enum.cached ~capacity:512.  Both step the same
   Mealy.t.  As in the sense part, the gated numbers are RATIOS, which
   transfer across hosts:
   - compile_compiled_vs_uncompiled_pct: wall clock of the cached
     ladder walk as a percentage of the uncached walk over the same
     schedule prefix.  Gated <= 33.4% (a >= 3x candidate steps/sec
     bar).
   - compile_cache_miss_pct: LRU misses as a percentage of accesses
     over the prefix.  Deterministic (misses = distinct indices
     visited), gated <= 10%.
   Absolute ms are recorded with the loose cross-host tolerance; the
   speedup and steps/sec are only printed. *)

(* 8-state machines over the 6-symbol channel alphabet: 48 transition
   cells, so a decode (and the encode hiding in the default
   machine-user name) costs real work relative to a capped slot. *)
let compile_machines = Mealy.enumerate ~states:8 ~inputs:6 ~outputs:6
let compile_read = Machine_user.read_world_int ~cap:6
let compile_write = Machine_user.write_world_sym
let compile_slots = 512
let compile_budget_cap = 16

(* The first [compile_slots] Levin slots with budgets capped so the
   walk is decode-bound the way a real ladder's early phases are (an
   uncapped 512-slot prefix reaches budgets of 2^31). *)
let compile_schedule () =
  Seq.take compile_slots
    (Seq.map
       (fun (s : Levin.slot) -> { s with Levin.budget = min s.budget compile_budget_cap })
       (Levin.schedule ()))

let compile_obs r =
  { Io.User.from_server = Msg.Silence; from_world = Msg.Int (r land 7); round = r }

(* Walk the ladder prefix: per slot, resolve the candidate through the
   enumeration (the decode or cache-hit under test) and run it for the
   slot's budget.  Returns total candidate steps. *)
let compile_walk enum =
  let rng = Rng.make 42 in
  let card =
    match Enum.cardinality enum with Some c -> c | None -> max_int
  in
  let steps = ref 0 in
  Seq.iter
    (fun { Levin.index; budget } ->
      let user = Enum.get_exn enum (index mod card) in
      let inst = Strategy.Instance.create user in
      for r = 1 to budget do
        ignore (Strategy.Instance.step rng inst (compile_obs r));
        incr steps
      done)
    (compile_schedule ());
  !steps

let compile_uncompiled_enum () =
  Machine_user.user_class ~read:compile_read ~write:compile_write
    compile_machines

let compile_compiled_enum () =
  Enum.cached ~capacity:512 (compile_uncompiled_enum ())

(* [(variant, (steps, best seconds per walk))], plus the cache counters
   of one cold cached walk.  Each cached sample starts a fresh
   cache — a run's ladder starts cold, and the hit rate is then a
   deterministic function of the schedule prefix. *)
let measure_compile ~repeats () =
  let time_best f =
    ignore (f ());
    let best = ref infinity and steps = ref 0 in
    for _ = 1 to repeats do
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      steps := f ();
      let dt = Unix.gettimeofday () -. t0 in
      best := min !best dt
    done;
    (!steps, !best)
  in
  let uncompiled =
    let enum = compile_uncompiled_enum () in
    time_best (fun () -> compile_walk enum)
  in
  let compiled =
    time_best (fun () -> compile_walk (fst (compile_compiled_enum ())))
  in
  let enum, lru = compile_compiled_enum () in
  ignore (compile_walk enum);
  ( [ ("uncompiled", uncompiled); ("compiled", compiled) ],
    (Goalcom_automata.Lru.hits lru, Goalcom_automata.Lru.misses lru) )

(* The measurement flattened to the gate's vocabulary: this list is
   all of BENCH_compile.json. *)
let compile_metrics (runs, (hits, misses)) =
  let open Gate in
  let _, un_s = List.assoc "uncompiled" runs in
  let _, co_s = List.assoc "compiled" runs in
  let accesses = max 1 (hits + misses) in
  [
    { name = "compile_compiled_vs_uncompiled_pct";
      value = 100. *. co_s /. un_s };
    { name = "compile_cache_miss_pct";
      value = 100. *. float_of_int misses /. float_of_int accesses };
    { name = "uncompiled/walk_ms"; value = un_s *. 1e3 };
    { name = "compiled/walk_ms"; value = co_s *. 1e3 };
  ]

(* Hard acceptance thresholds, as in the sense part: fresh above the
   threshold is a regression regardless of the committed file.  The
   speedup and steps/sec rates are the same measurements inverted, so
   they are only printed. *)
let compile_gates =
  let open Gate in
  [
    { name = "compile_compiled_vs_uncompiled_pct"; value = 33.4 };
    { name = "compile_cache_miss_pct"; value = 10. };
  ]

let measure_compile_part ~check =
  banner "Decode cache (Levin ladder)";
  let ((runs, (hits, misses)) as measured) =
    measure_compile ~repeats:(if check then 3 else 5) ()
  in
  let rows =
    List.map
      (fun (variant, (steps, t)) ->
        [
          variant;
          string_of_int compile_slots;
          string_of_int steps;
          Printf.sprintf "%.2f" (t *. 1e3);
          Printf.sprintf "%.0f" (float_of_int steps /. t /. 1e3);
        ])
      runs
  in
  Table.print
    (Table.make ~title:"cached (compiled) vs fresh-decode (uncompiled) walk"
       ~columns:[ "variant"; "slots"; "steps"; "ms/walk"; "ksteps/s" ]
       rows);
  let metrics = compile_metrics measured in
  let get n = (List.find (fun (m : Gate.metric) -> m.name = n) metrics).value in
  Printf.printf
    "speedup %.1fx (acceptance: >= 3x), cache %d hits / %d misses (%.1f%% \
     miss; acceptance: <= 10%%)\n"
    (get "uncompiled/walk_ms" /. get "compiled/walk_ms")
    hits misses (get "compile_cache_miss_pct");
  metrics

(* The net part: the network goal family -> BENCH_net.json.

   lib/net's claims are behavioural and deterministic, so the gate
   pins them exactly, as the session part does for the session engine:

   - delivery rounds: how many rounds the informed and the universal
     user need to route each canned topology (single deterministic
     runs — exact counts, zero tolerance);
   - forwarding under faults: delivery failures and mean rounds of the
     stop-and-wait ARQ over clean / lossy+duplicating links within the
     E19 round budget (fixed trials and seed — exact, zero tolerance);
   - contention: the shared-medium multiple-access populations at 2/4/8
     users — slots to drain, collisions, idles, incompletions (exact),
     plus net_mismatch_pct comparing every jobs>1 engine digest against
     jobs=1 (0 or 100, zero tolerance: the group-arbiter determinism
     claim).

   Wall clock per users x jobs cell is recorded with the loose
   cross-host tolerance.  Counts are one-sided lower-is-better, which
   is why the file records failures/incomplete rather than
   successes/completed. *)

module Net = Goalcom_net

let net_alphabet = E19_net_matrix.alphabet
let net_payload_alphabet = 4
let net_dialects = Dialect.enumerate_rotations ~size:net_alphabet
let net_dialect i = Enum.get_exn net_dialects (i mod net_alphabet)
let net_forward_trials = 40
let net_forward_budget = 400
let net_mac_users = [ 2; 4; 8 ]
let net_mac_jobs = [ 1; 2; 4 ]

(* Failed deliveries encode as a sentinel that exceeds any real round
   count, so a regression to non-delivery always trips the (one-sided,
   lower-is-better) zero-tolerance rounds gate. *)
let net_undelivered = 1_000_000

let measure_net_topo () =
  List.map
    (fun (name, scenario) ->
      let goal = Net.Topo.goal ~scenarios:[ scenario ] ~alphabet:net_alphabet () in
      let server = Net.Topo.server ~alphabet:net_alphabet (net_dialect 3) in
      let rounds ~horizon user =
        let outcome, history =
          Exec.run_outcome
            ~config:(Exec.config ~horizon ())
            ~goal ~user ~server (Rng.make seed)
        in
        if outcome.Outcome.achieved then History.length history
        else net_undelivered
      in
      ( name,
        rounds ~horizon:net_forward_budget
          (Net.Topo.informed_user ~alphabet:net_alphabet ~scenario
             (net_dialect 3)),
        rounds ~horizon:8_000
          (Net.Topo.universal_user ~alphabet:net_alphabet ~scenario
             net_dialects) ))
    (E19_net_matrix.topo_cases ())

let net_forward_conditions =
  [ ("clean", ""); ("loss15dup", "loss:0.15+dup"); ("loss35dup", "loss:0.35+dup") ]

(* [(condition, failures, mean_rounds)] over the fixed trial count. *)
let measure_net_forward () =
  let scenario =
    Net.Forward.scenario ~payload_alphabet:net_payload_alphabet [ 2; 0; 3; 1 ]
  in
  let goal = Net.Forward.goal ~scenarios:[ scenario ] ~alphabet:net_alphabet () in
  let user = Net.Forward.informed_user ~alphabet:net_alphabet (net_dialect 0) in
  List.map
    (fun (name, spec) ->
      let fault =
        match Goalcom_faults.Fault.stack_of_string ~alphabet:net_alphabet spec with
        | Ok f -> f
        | Error e -> invalid_arg ("bench net: " ^ e)
      in
      let server =
        Goalcom_faults.Fault.apply fault
          (Net.Forward.server ~alphabet:net_alphabet
             ~payload_alphabet:net_payload_alphabet (net_dialect 0))
      in
      let r =
        Trial.run
          ~config:(Exec.config ~horizon:net_forward_budget ())
          ~trials:net_forward_trials ~seed ~goal ~user ~server ()
      in
      ( name,
        net_forward_trials - r.Trial.successes,
        if Float.is_nan r.Trial.mean_rounds then float_of_int net_undelivered
        else r.Trial.mean_rounds ))
    net_forward_conditions

(* [(users, [(jobs, (mac_run, seconds))])] *)
let measure_net_mac () =
  List.map
    (fun users ->
      ( users,
        List.map
          (fun jobs ->
            let t0 = Unix.gettimeofday () in
            let r = E19_net_matrix.run_mac ~jobs ~users ~seed () in
            (jobs, (r, Unix.gettimeofday () -. t0)))
          net_mac_jobs ))
    net_mac_users

let measure_net () = (measure_net_topo (), measure_net_forward (), measure_net_mac ())

let net_mismatches mac =
  mismatches
    ~digest:(fun ((r : E19_net_matrix.mac_run), _) -> r.report.digest)
    (List.map (fun (users, runs) -> (Printf.sprintf "%d-users" users, runs)) mac)

(* The measurement flattened to the gate's vocabulary: this list is
   all of BENCH_net.json. *)
let net_metrics (topo, fwd, mac) =
  let open Gate in
  let mismatch_pct = if net_mismatches mac = [] then 0. else 100. in
  { name = "net_mismatch_pct"; value = mismatch_pct }
  :: (List.concat_map
        (fun (name, informed, universal) ->
          [
            { name = Printf.sprintf "topo_%s/informed_rounds" name;
              value = float_of_int informed };
            { name = Printf.sprintf "topo_%s/universal_rounds" name;
              value = float_of_int universal };
          ])
        topo
     @ List.concat_map
         (fun (name, failures, mean_rounds) ->
           [
             { name = Printf.sprintf "fwd_%s/failures" name;
               value = float_of_int failures };
             { name = Printf.sprintf "fwd_%s/mean_rounds" name;
               value = mean_rounds };
           ])
         fwd
     @ List.concat_map
         (fun (users, by_jobs) ->
           let (r1 : E19_net_matrix.mac_run), _ = List.assoc 1 by_jobs in
           let open E19_net_matrix in
           [
             { name = Printf.sprintf "mac%d/slots" users;
               value = float_of_int r1.slots };
             { name = Printf.sprintf "mac%d/collisions" users;
               value = float_of_int r1.collisions };
             { name = Printf.sprintf "mac%d/idles" users;
               value = float_of_int r1.idles };
             { name = Printf.sprintf "mac%d/incomplete" users;
               value =
                 float_of_int (users - r1.report.Session_engine.completed) };
           ]
           @ List.map
               (fun (jobs, (_, t)) ->
                 { name = Printf.sprintf "mac%d/jobs%d_ms" users jobs;
                   value = t *. 1e3 })
               by_jobs)
         mac)

(* Determinism makes every count exact, so only the wall-clock timings
   get the cross-host default tolerance; mean_rounds keeps the absolute
   slack that covered its once two-decimal committed value. *)
let net_tol name =
  if Filename.check_suffix name "_ms" then Gate.default_tol_pct name else 0.

let net_slack name =
  if Filename.check_suffix name "_ms" then Gate.default_slack name
  else if Filename.check_suffix name "mean_rounds" then 0.01
  else 0.

let measure_net_part ~check:_ =
  banner "Network goal family (lib/net)";
  let ((topo, fwd, mac) as measured) = measure_net () in
  let mismatches = net_mismatches mac in
  Table.print
    (Table.make ~title:"topology routing: rounds to deliver (dialect-3 switch)"
       ~columns:[ "case"; "informed"; "universal" ]
       (List.map
          (fun (n, i, u) -> [ n; string_of_int i; string_of_int u ])
          topo));
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf "ARQ forwarding: %d trials, %d-round budget"
            net_forward_trials net_forward_budget)
       ~columns:[ "condition"; "failures"; "mean rounds" ]
       (List.map
          (fun (n, f, m) -> [ n; string_of_int f; Printf.sprintf "%.0f" m ])
          fwd));
  Table.print
    (Table.make ~title:"multiple access: one shared medium per population"
       ~columns:
         [ "users"; "jobs"; "wall ms"; "slots"; "delivered"; "collisions";
           "idles"; "done"; "digest" ]
       (List.concat_map
          (fun (users, by_jobs) ->
            List.map
              (fun (jobs, ((r : E19_net_matrix.mac_run), t)) ->
                let open E19_net_matrix in
                [
                  string_of_int users;
                  string_of_int jobs;
                  Printf.sprintf "%.0f" (t *. 1e3);
                  string_of_int r.slots;
                  string_of_int r.successes;
                  string_of_int r.collisions;
                  string_of_int r.idles;
                  Printf.sprintf "%d/%d" r.report.Session_engine.completed
                    users;
                  String.sub r.report.Session_engine.digest 0 12;
                ])
              by_jobs)
          mac));
  Printf.printf "\ndigest mismatches across jobs counts: %s\n"
    (if mismatches = [] then "none" else String.concat ", " mismatches);
  net_metrics measured

(* The gated parts.  [measure ~check] prints the part's tables and
   returns its metrics (a CI-sized run under [check]); [gates] are hard
   thresholds judged at zero tolerance; [tol_pct] and [slack] judge the
   rest of the committed file. *)
type part = {
  name : string;
  measure : check:bool -> Gate.metric list;
  gates : Gate.metric list;
  tol_pct : string -> float;
  slack : string -> float;
}

let parts =
  let part ?(gates = []) ?(tol_pct = Gate.default_tol_pct)
      ?(slack = Gate.default_slack) name measure =
    { name; measure; gates; tol_pct; slack }
  in
  [
    part "trace" measure_trace ~gates:trace_gates;
    part "par" measure_par_part ~tol_pct:par_tol ~slack:par_slack;
    part "sense" measure_sense_part ~gates:sense_gates;
    part "session" measure_session_part ~gates:session_gates
      ~tol_pct:session_tol ~slack:session_slack;
    part "compile" measure_compile_part ~gates:compile_gates;
    part "net" measure_net_part ~tol_pct:net_tol ~slack:net_slack;
  ]

let run p = write_bench p.name (p.measure ~check:false)

(* --check: the perf-regression gate.  Each part is re-measured and
   judged against its committed BENCH file by Bench_gate.check; the
   verdict goes to BENCH_check.json. *)
let check () =
  let fail msg =
    Printf.eprintf "bench --check: %s\n" msg;
    exit 2
  in
  let comparisons =
    List.concat_map
      (fun p ->
        let path = Printf.sprintf "BENCH_%s.json" p.name in
        let baseline =
          match Gate.load_file path with Ok m -> m | Error e -> fail e
        in
        let fresh = p.measure ~check:true in
        match
          Gate.check ~tol_pct:p.tol_pct ~slack:p.slack ~gates:p.gates
            ~baseline ~fresh ()
        with
        | Error e -> fail (path ^ ": " ^ e)
        | Ok cs ->
            List.filter
              (fun (c : Gate.comparison) -> not (unjudged_here c.metric))
              cs)
      parts
  in
  Table.print (Gate.table comparisons);
  let verdict = Gate.verdict_json comparisons in
  File.write_atomic "BENCH_check.json" (verdict ^ "\n");
  print_endline verdict;
  match Gate.regressions comparisons with
  | [] ->
      Printf.printf "bench --check: PASS (%d metrics, parts %s)\n"
        (List.length comparisons)
        (String.concat ", " (List.map (fun p -> p.name) parts))
  | regs ->
      Printf.printf "bench --check: FAIL (%d of %d metrics regressed)\n"
        (List.length regs) (List.length comparisons);
      exit 1

let () =
  if Array.exists (( = ) "--check") Sys.argv then check ()
  else
    match Sys.getenv_opt "BENCH_ONLY" with
    | None ->
        print_experiments ();
        write_fault_json (print_bench ());
        List.iter run parts
    | Some name -> (
        match List.find_opt (fun p -> p.name = name) parts with
        | Some p -> run p
        | None ->
            Printf.eprintf "bench: unknown BENCH_ONLY=%S (valid: %s)\n" name
              (String.concat ", " (List.map (fun p -> p.name) parts));
            exit 2)
