(* goalcom — CLI for the goal-oriented-communication library.

   Subcommands:
     list                      enumerate the experiment registry
     run <id> [--seed] [--csv] run one experiment ([--trace FILE] writes
                               a JSONL execution trace; [--jobs N] sets
                               the domain count for parallel entry points)
     all [--seed] [--jobs N]   run every experiment (fanning the registry
                               across N domains; results are identical)
     demo <goal> [options]     run one goal with a chosen user and report
                               ([--trace] streams events and metrics)
     check <goal>              validate sensing safety/viability and
                               helpfulness for a goal's server class
     serve [options]           multiplex a session population through the
                               supervised engine (admission, restarts,
                               breakers) with no chaos
     chaos run|matrix          deterministic chaos harness: fault/kill
                               schedules over the engine, determinism
                               checks, the E18 matrix
     warm record|show          warm-start stores: record winning
                               candidate indices from a cold run;
                               serve/chaos --warm probes them first
     top                       live fleet stats: in-place rollup table over
                               a running serve (--stats FILE) or an
                               internal population
     trace-golden <dir>        regenerate the golden trace files
     trace stats|attribution|sessions|diff|export
                               analytics over recorded JSONL traces *)

open Cmdliner
open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_harness

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Domain count for the parallel entry points (overrides \
                 $(b,GOALCOM_JOBS); the default is 1, fully sequential).  \
                 Every experiment is bit-identical for every value — only \
                 the wall-clock changes.")

let apply_jobs jobs = Option.iter Goalcom_par.Pool.set_default_jobs jobs

(* list *)

let list_cmd =
  let run () =
    let rows =
      List.map
        (fun (e : Experiment.t) ->
          [ e.id; Experiment.kind_to_string e.kind; e.title ])
        Experiment.all
    in
    Table.print
      (Table.make ~title:"experiments" ~columns:[ "id"; "kind"; "title" ] rows)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiment registry.")
    Term.(const run $ const ())

(* run *)

let run_cmd =
  let id_arg =
    (* The docv range tracks the registry, not a hand-written constant. *)
    let ids_doc =
      match Experiment.all with
      | [] -> "Experiment id."
      | es ->
          Printf.sprintf "Experiment id (%s..%s)." (List.hd es).Experiment.id
            (Listx.last es).Experiment.id
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:ids_doc)
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a JSONL execution trace of every run the \
                   experiment performs to $(docv).")
  in
  let run id seed csv trace jobs =
    apply_jobs jobs;
    match Experiment.find id with
    | None ->
        Printf.eprintf "unknown experiment %S; try `goalcom list`\n" id;
        exit 1
    | Some e ->
        Printf.printf "# %s — %s\n# claim: %s\n%!" e.Experiment.id
          e.Experiment.title e.Experiment.claim;
        let render () =
          let table = e.Experiment.run ~seed in
          if csv then print_string (Table.to_csv table) else Table.print table
        in
        (match trace with
        | None -> render ()
        | Some path ->
            Goalcom_obs.Jsonl.with_file path (fun sink ->
                Trace.with_sink sink render))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment.")
    Term.(const run $ id_arg $ seed_arg $ csv_arg $ trace_arg $ jobs_arg)

(* all *)

let all_cmd =
  let run seed jobs =
    apply_jobs jobs;
    (* Compute the whole registry through the pool (sequentially when
       jobs is 1), then print in registry order. *)
    let tables = Experiment.run_par ~seed Experiment.all in
    List.iter2
      (fun (e : Experiment.t) table ->
        Printf.printf "# %s — %s\n%!" e.id e.title;
        Table.print table)
      Experiment.all tables
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment.")
    Term.(const run $ seed_arg $ jobs_arg)

(* demo *)

let goals =
  [
    ("printing", `Printing); ("maze", `Maze); ("control", `Control);
    ("password", `Password); ("delegation", `Delegation); ("transfer", `Transfer);
    ("prediction", `Prediction); ("counting", `Counting);
  ]

let goal_conv = Arg.enum goals

(* The GOAL positional of demo, check and transcript: its help lists
   the names [goal_conv] accepts, so the two cannot drift apart. *)
let goal_arg what =
  Arg.(required & pos 0 (some goal_conv) None
       & info [] ~docv:"GOAL"
           ~doc:(Printf.sprintf "%s $(docv) must be %s." what
                   (doc_alts_enum goals)))

let user_conv =
  Arg.enum
    [
      ("universal", `Universal); ("oracle", `Oracle); ("fixed", `Fixed);
      ("random", `Random);
    ]

let demo_cmd =
  let goal_arg = goal_arg "Goal to run." in
  let user_arg =
    Arg.(value & opt user_conv `Universal
         & info [ "user" ] ~docv:"USER" ~doc:"universal | oracle | fixed | random.")
  in
  let dialect_arg =
    Arg.(value & opt int 1
         & info [ "dialect" ] ~docv:"K"
             ~doc:"Index of the server's dialect (or the password).")
  in
  let horizon_arg =
    Arg.(value & opt int 8000 & info [ "horizon" ] ~docv:"N" ~doc:"Round budget.")
  in
  let fault_arg =
    Arg.(value & opt_all string []
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:"Wrap the server in a fault stack (repeatable; outermost \
                   first).  Specs: nop, delay:K, drop:P, dup, corrupt:P, \
                   reorder:K, burst:PE,PX,PD, crash:K, intermittent:ON,OFF, \
                   adversary:B; join with + for one flag, e.g. \
                   corrupt:0.05+crash:60.")
  in
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Stream the execution trace to stdout (compact form) and \
                   print the run's attribution and overhead ledger after it.")
  in
  let run goal_kind user_kind dialect_idx horizon fault_specs trace seed =
    let alphabet = 6 in
    let dialects = Dialect.enumerate_rotations ~size:alphabet in
    let dialect i = Enum.get_exn dialects (i mod alphabet) in
    let scenario = Maze.scenario ~width:8 ~height:8 ~start:(0, 0) ~target:(5, 4) () in
    let space = 16 in
    let goal, server, user_class, universal, oracle =
      match goal_kind with
      | `Printing ->
          ( Printing.goal ~alphabet (),
            Printing.server ~alphabet (dialect dialect_idx),
            Printing.user_class ~alphabet dialects,
            (fun () -> Printing.universal_user ~alphabet dialects),
            fun () -> Printing.informed_user ~alphabet (dialect dialect_idx) )
      | `Maze ->
          ( Maze.goal ~scenarios:[ scenario ] ~alphabet (),
            Maze.server ~alphabet (dialect dialect_idx),
            Maze.user_class ~alphabet ~scenario dialects,
            (fun () -> Maze.universal_user ~alphabet ~scenario dialects),
            fun () -> Maze.informed_user ~alphabet ~scenario (dialect dialect_idx) )
      | `Control ->
          ( Control.goal ~alphabet (),
            Control.server ~alphabet (dialect dialect_idx),
            Control.user_class ~alphabet dialects,
            (fun () -> Control.universal_user ~alphabet dialects),
            fun () -> Control.informed_user ~alphabet (dialect dialect_idx) )
      | `Password ->
          ( Password.goal (),
            Password.server_with_password (dialect_idx mod space),
            Password.user_class ~space,
            (fun () -> Password.universal_user ~space ()),
            fun () -> Password.informed_user (dialect_idx mod space) )
      | `Delegation ->
          ( Delegation.goal ~alphabet (),
            Delegation.server ~alphabet (dialect dialect_idx),
            Delegation.user_class ~alphabet dialects,
            (fun () -> Delegation.universal_user ~alphabet dialects),
            fun () -> Delegation.informed_user ~alphabet (dialect dialect_idx) )
      | `Transfer ->
          ( Transfer.goal ~alphabet (),
            Transfer.server ~alphabet (dialect dialect_idx),
            Transfer.user_class ~alphabet dialects,
            (fun () -> Transfer.universal_user_fast ~alphabet dialects),
            fun () -> Transfer.informed_user ~alphabet (dialect dialect_idx) )
      | `Prediction ->
          ( Prediction.goal ~alphabet (),
            Prediction.server ~alphabet (dialect dialect_idx),
            Prediction.user_class ~alphabet dialects,
            (fun () -> Prediction.universal_user ~alphabet dialects),
            fun () -> Prediction.teacher_user ~alphabet (dialect dialect_idx) )
      | `Counting ->
          ( Counting.goal ~alphabet (),
            Counting.server ~alphabet (dialect dialect_idx),
            Counting.user_class ~alphabet dialects,
            (fun () -> Counting.universal_user ~alphabet dialects),
            fun () -> Counting.verifier_user ~alphabet (dialect dialect_idx) )
    in
    let user =
      match user_kind with
      | `Universal -> universal ()
      | `Oracle -> oracle ()
      | `Fixed -> Goalcom_baselines.Baselines.fixed user_class
      | `Random -> Goalcom_baselines.Baselines.random_actions ~alphabet ()
    in
    let fault =
      let module Fault = Goalcom_faults.Fault in
      List.fold_left
        (fun acc spec ->
          match Fault.stack_of_string ~alphabet spec with
          | Ok f -> Fault.compose acc f
          | Error e ->
              Printf.eprintf "%s\n" e;
              exit 1)
        Fault.nop fault_specs
    in
    let server = Goalcom_faults.Fault.apply fault server in
    let recorder =
      if trace then Some (Goalcom_obs.Recorder.create ()) else None
    in
    let sink =
      Option.map
        (fun r ->
          Trace.tee
            (Goalcom_obs.Pretty.sink Format.std_formatter)
            (Goalcom_obs.Recorder.sink r))
        recorder
    in
    let outcome, history =
      Exec.run_outcome ?sink
        ~config:(Exec.config ~horizon ())
        ~goal ~user ~server (Rng.make seed)
    in
    Format.printf "goal    : %s@." (Goal.name goal);
    Format.printf "user    : %s@." (Strategy.name user);
    Format.printf "server  : %s@." (Strategy.name server);
    Format.printf "outcome : %a@." Outcome.pp outcome;
    Format.printf "rounds  : %d@." (History.length history);
    Option.iter
      (fun r ->
        let runs = Goalcom_obs.Span.of_events (Goalcom_obs.Recorder.events r) in
        Table.print (Goalcom_obs.Span.runs_table runs);
        Table.print (Goalcom_obs.Span.ledger_table (Goalcom_obs.Span.ledger runs)))
      recorder
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run one goal once and report the outcome.")
    Term.(const run $ goal_arg $ user_arg $ dialect_arg $ horizon_arg
          $ fault_arg $ trace_flag $ seed_arg)

(* check *)

let check_cmd =
  let goal_arg = goal_arg "Goal whose sensing/helpfulness to validate." in
  let run goal_kind seed =
    let alphabet = 4 in
    let dialects = Dialect.enumerate_rotations ~size:alphabet in
    let report r = Format.printf "%a@." Sensing.pp_report r in
    let rng = Rng.make seed in
    (match goal_kind with
    | `Printing ->
        let goal = Printing.goal ~alphabet () in
        let users = Enum.to_list (Printing.user_class ~alphabet dialects) in
        let servers = Enum.to_list (Printing.server_class ~alphabet dialects) in
        report
          (Sensing.check_safety_finite ~goal ~users ~servers Printing.sensing rng)
    | `Maze ->
        let scenario = Maze.scenario ~width:6 ~height:6 ~start:(0, 0) ~target:(4, 3) () in
        let goal = Maze.goal ~scenarios:[ scenario ] ~alphabet () in
        let users = Enum.to_list (Maze.user_class ~alphabet ~scenario dialects) in
        let servers = Enum.to_list (Maze.server_class ~alphabet dialects) in
        report (Sensing.check_safety_finite ~goal ~users ~servers Maze.sensing rng)
    | `Control ->
        let goal = Control.goal ~alphabet () in
        let users = Enum.to_list (Control.user_class ~alphabet dialects) in
        let servers = Enum.to_list (Control.server_class ~alphabet dialects) in
        report
          (Sensing.check_safety_compact
             ~config:(Exec.config ~horizon:1500 ())
             ~goal ~users ~servers (Control.sensing ()) rng)
    | `Password ->
        let goal = Password.goal () in
        let users = Enum.to_list (Password.user_class ~space:8) in
        let servers = Enum.to_list (Password.server_class ~space:8) in
        report
          (Sensing.check_safety_finite
             ~config:(Exec.config ~horizon:200 ())
             ~goal ~users ~servers Password.sensing rng)
    | `Delegation ->
        let goal = Delegation.goal ~alphabet () in
        let users = Enum.to_list (Delegation.user_class ~alphabet dialects) in
        let servers = Enum.to_list (Delegation.server_class ~alphabet dialects) in
        report
          (Sensing.check_safety_finite
             ~config:(Exec.config ~horizon:500 ())
             ~goal ~users ~servers Delegation.sensing rng)
    | `Transfer ->
        let goal = Transfer.goal ~alphabet () in
        let users = Enum.to_list (Transfer.user_class ~alphabet dialects) in
        let servers = Enum.to_list (Transfer.server_class ~alphabet dialects) in
        report
          (Sensing.check_safety_finite
             ~config:(Exec.config ~horizon:500 ())
             ~goal ~users ~servers Transfer.goal_sensing rng)
    | `Prediction ->
        let goal = Prediction.goal ~alphabet () in
        let users = Enum.to_list (Prediction.user_class ~alphabet dialects) in
        let servers = Enum.to_list (Prediction.server_class ~alphabet dialects) in
        report
          (Sensing.check_safety_compact
             ~config:(Exec.config ~horizon:800 ())
             ~goal ~users ~servers Prediction.sensing rng)
    | `Counting ->
        let goal = Counting.goal ~alphabet () in
        let users = Enum.to_list (Counting.user_class ~alphabet dialects) in
        let servers = Enum.to_list (Counting.server_class ~alphabet dialects) in
        report
          (Sensing.check_safety_finite
             ~config:(Exec.config ~horizon:300 ())
             ~goal ~users ~servers Counting.sensing rng));
    ()
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate sensing properties for a goal.")
    Term.(const run $ goal_arg $ seed_arg)

(* transcript *)

let transcript_cmd =
  let goal_arg = goal_arg "Goal to run and dump." in
  let dialect_arg =
    Arg.(value & opt int 1 & info [ "dialect" ] ~docv:"K" ~doc:"Server dialect index.")
  in
  let rounds_arg =
    Arg.(value & opt int 25 & info [ "rounds" ] ~docv:"N" ~doc:"Rounds to print.")
  in
  let run goal_kind dialect_idx rounds seed =
    let alphabet = 6 in
    let dialects = Dialect.enumerate_rotations ~size:alphabet in
    let dialect i = Enum.get_exn dialects (i mod alphabet) in
    let goal, user, server =
      match goal_kind with
      | `Printing ->
          ( Printing.goal ~alphabet (),
            Printing.informed_user ~alphabet (dialect dialect_idx),
            Printing.server ~alphabet (dialect dialect_idx) )
      | `Maze ->
          let scenario =
            Maze.scenario ~width:8 ~height:8 ~start:(0, 0) ~target:(5, 4) ()
          in
          ( Maze.goal ~scenarios:[ scenario ] ~alphabet (),
            Maze.informed_user ~alphabet ~scenario (dialect dialect_idx),
            Maze.server ~alphabet (dialect dialect_idx) )
      | `Control ->
          ( Control.goal ~alphabet (),
            Control.informed_user ~alphabet (dialect dialect_idx),
            Control.server ~alphabet (dialect dialect_idx) )
      | `Password ->
          ( Password.goal (),
            Password.informed_user (dialect_idx mod 16),
            Password.server_with_password (dialect_idx mod 16) )
      | `Delegation ->
          ( Delegation.goal ~alphabet (),
            Delegation.informed_user ~alphabet (dialect dialect_idx),
            Delegation.server ~alphabet (dialect dialect_idx) )
      | `Transfer ->
          ( Transfer.goal ~alphabet (),
            Transfer.informed_user ~alphabet (dialect dialect_idx),
            Transfer.server ~alphabet (dialect dialect_idx) )
      | `Prediction ->
          ( Prediction.goal ~alphabet (),
            Prediction.teacher_user ~alphabet (dialect dialect_idx),
            Prediction.server ~alphabet (dialect dialect_idx) )
      | `Counting ->
          ( Counting.goal ~alphabet (),
            Counting.verifier_user ~alphabet (dialect dialect_idx),
            Counting.server ~alphabet (dialect dialect_idx) )
    in
    let history =
      Exec.run
        ~config:(Exec.config ~horizon:(max rounds 1) ())
        ~goal ~user ~server (Rng.make seed)
    in
    Format.printf "%a@." History.pp (History.prefix rounds history)
  in
  Cmd.v
    (Cmd.info "transcript"
       ~doc:"Run an informed user on a goal and print the round-by-round history.")
    Term.(const run $ goal_arg $ dialect_arg $ rounds_arg $ seed_arg)

(* serve / chaos — the supervised concurrent session engine *)

module Session = Goalcom_session

let print_report (r : Session.Engine.report) =
  let open Session.Engine in
  let n = Array.length r.outcomes in
  let pct k = 100.0 *. float_of_int k /. float_of_int (max 1 n) in
  Printf.printf "sessions       %d\n" n;
  Printf.printf "ticks          %d\n" r.ticks;
  Printf.printf "completed      %d (%.1f%%)\n" r.completed (pct r.completed);
  Printf.printf "shed           %d (%.1f%%)\n" r.shed (pct r.shed);
  Printf.printf "gave up        %d\n" r.gave_up;
  Printf.printf "deadlines      %d\n" r.deadlines;
  Printf.printf "unfinished     %d\n" r.unfinished;
  Printf.printf "restarts       %d\n" r.restarts;
  Printf.printf "breaker trips  %d\n" r.trips;
  Printf.printf "total rounds   %d\n" r.total_rounds;
  Printf.printf "p50 rounds     %.0f\n" r.p50_rounds;
  Printf.printf "p99 rounds     %.0f\n" r.p99_rounds;
  Printf.printf "p999 rounds    %.0f\n" r.p999_rounds;
  Printf.printf "digest         %s\n" r.digest

(* --stats: a live Rollup fed from the engine's supervision hook —
   fleet-level counters, histograms and sessions/sec with no trace
   retained.  "-" prints Prometheus text exposition to stdout at the
   end; a .prom path writes the same to a file; any other path gets a
   JSON snapshot rewritten atomically every --stats-every ticks (and at
   the end) for `goalcom top` to watch. *)

module Rollup = Goalcom_obs.Rollup

let stats_arg =
  Arg.(value & opt (some string) None
       & info [ "stats" ] ~docv:"FILE"
           ~doc:"Aggregate live per-class session rollups (admitted / \
                 shed / restarts / trips / done, rounds and latency \
                 p50/p99/p999, sessions/sec).  $(docv) '-' prints a \
                 Prometheus text exposition to stdout after the run; a \
                 .prom path writes the same to the file; any other path \
                 gets a JSON snapshot rewritten every $(b,--stats-every) \
                 ticks, which a concurrent `goalcom top --stats` \
                 renders live.")

let stats_every_arg =
  Arg.(value & opt int 50
       & info [ "stats-every" ] ~docv:"T"
           ~doc:"Ticks between snapshot rewrites for a JSON --stats file.")

type stats_live = {
  st_rollup : Rollup.t;
  st_supervise : tick:int -> session:int -> action:string -> detail:string -> unit;
  st_tick : tick:int -> unit;
  st_finish : unit -> unit;
}

let stats_live ~every ~specs path =
  let class_of id = specs.(id).Session.Engine.server_class in
  let st_rollup = Rollup.create ~clock:Unix.gettimeofday ~class_of () in
  let st_supervise ~tick ~session ~action ~detail =
    Rollup.supervise st_rollup ~tick ~session ~action ~detail
  in
  let st_tick ~tick =
    if path <> "-" && (not (Filename.check_suffix path ".prom"))
       && every > 0 && tick mod every = 0
    then File.write_atomic path (Rollup.to_json (Rollup.snapshot st_rollup))
  in
  let st_finish () =
    let snap = Rollup.snapshot st_rollup in
    if path = "-" then print_string (Rollup.to_prometheus snap)
    else begin
      let content =
        if Filename.check_suffix path ".prom" then Rollup.to_prometheus snap
        else Rollup.to_json snap
      in
      File.write_atomic path content;
      Table.print (Rollup.table snap);
      Printf.printf "stats          -> %s\n" path
    end
  in
  { st_rollup; st_supervise; st_tick; st_finish }

(* Thread optional hooks into Engine.run without cluttering each
   call site. *)
let engine_hooks = function
  | None -> (None, None)
  | Some st -> (Some st.st_supervise, Some st.st_tick)

let sessions_arg ~default =
  Arg.(value & opt int default
       & info [ "sessions" ] ~docv:"N"
           ~doc:"Number of sessions in the population (the standard E18 \
                 mix: printing / corridor-maze / open-maze universal \
                 users, round-robin).")

let mix_arg =
  Arg.(value & opt (enum [ ("e18", `E18); ("net", `Net) ]) `E18
       & info [ "mix" ] ~docv:"MIX"
           ~doc:"Session population: $(b,e18) (the standard printing/maze \
                 mix) or $(b,net) (lib/net: shared-medium multiple-access \
                 groups of four — stepped through the engine's group \
                 arbiter, one slot per tick — plus topology-routing and \
                 ARQ-forwarding universal sessions).  The net mix pins \
                 quantum to 1 so a scheduler tick is one medium slot.")

(* The net mix attaches shared-medium groups and needs quantum 1 (one
   tick = one arbitration slot); warm stores record E18 classes only. *)
let population_of_mix ?warm ~sessions = function
  | `E18 -> (E18_chaos_matrix.specs ?warm ~sessions (), [])
  | `Net -> E19_net_matrix.population ~sessions ()

(* Warm-start stores: known winning candidate indices per session
   class, persisted as JSONL (Goalcom_harness.Warm).  Loading a missing
   file is an empty store; a corrupt file degrades to a cold start
   (Warm.hints rejects it with a Trace.Warm event). *)

let warm_arg =
  Arg.(value & opt (some string) None
       & info [ "warm" ] ~docv:"FILE"
           ~doc:"Warm-start store (JSONL).  Known winning candidate \
                 indices for each session class are probed first — one \
                 prepended Levin slot per class — and after the run the \
                 store is rewritten with the winners this run proved.  \
                 A missing file is an empty store; a corrupt one falls \
                 back to a cold start.")

let warm_load path = if Sys.file_exists path then Warm.load path else Ok []

let warm_save path warm report =
  let entries = E18_chaos_matrix.warm_entries ?warm report in
  Warm.save path entries;
  Printf.printf "warm store     %d entries -> %s\n" (List.length entries) path

let max_live_arg =
  Arg.(value & opt int 256
       & info [ "max-live" ] ~docv:"N"
           ~doc:"Concurrently running sessions (admission slots).")

let queue_arg =
  Arg.(value & opt int 1_000_000
       & info [ "queue" ] ~docv:"N"
           ~doc:"Admission queue capacity; arrivals beyond slots + queue \
                 are shed.")

let budget_arg =
  Arg.(value & opt int 0
       & info [ "round-budget" ] ~docv:"R"
           ~doc:"Rounds per incarnation before the supervisor wedge-kills \
                 it (0 disables).")

let arrivals_arg =
  Arg.(value & opt string "bang"
       & info [ "arrivals" ] ~docv:"SPEC"
           ~doc:"Arrival process: bang (the whole population arrives at \
                 tick 1), a bare integer N (N sessions per tick), \
                 poisson:R (open-loop Poisson arrivals at mean rate R \
                 per tick) or mmpp:R1,R2,..[:P] (Markov-modulated \
                 Poisson cycling through the rates with per-tick hop \
                 probability P, default 0.1).  Sampling is seeded and \
                 deterministic.")

let class_weights_arg =
  Arg.(value & opt string ""
       & info [ "class-weights" ] ~docv:"SPEC"
           ~doc:"Fair-share admission classes as \
                 CLASS=WEIGHT[,CLASS=WEIGHT..] over server classes \
                 (e.g. printing=3,maze-corridor=1).  Queued sessions \
                 are served by weighted deficit round-robin, so an \
                 open breaker blocks only its own class; unlisted \
                 classes share a default queue of weight 1.  Empty: \
                 one FIFO queue.")

let parse_arrivals s =
  match Session.Arrival.of_string s with
  | Ok a -> a
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1

let parse_class_weights s =
  match Session.Admission.classes_of_string s with
  | Ok classes -> classes
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1

let serve_cmd =
  let quantum_arg =
    Arg.(value & opt int 32
         & info [ "quantum" ] ~docv:"R"
             ~doc:"Rounds each running session advances per scheduler tick.")
  in
  let deadline_arg =
    Arg.(value & opt int 0
         & info [ "deadline" ] ~docv:"T"
             ~doc:"Ticks from arrival before an unfinished session is \
                   abandoned (0 disables).")
  in
  let run sessions mix max_live queue quantum arrivals class_weights deadline
      budget warm_path stats stats_every seed jobs =
    apply_jobs jobs;
    let quantum = match mix with `Net -> 1 | `E18 -> quantum in
    let arrivals = parse_arrivals arrivals in
    let classes = parse_class_weights class_weights in
    let config =
      Session.Engine.config ~quantum ~max_live ~queue_capacity:queue ~arrivals
        ~classes ~round_budget:budget ~deadline ()
    in
    let warm = Option.map warm_load warm_path in
    let specs, groups = population_of_mix ?warm ~sessions mix in
    let stats =
      Option.map (stats_live ~every:stats_every ~specs) stats
    in
    let on_supervise, on_tick = engine_hooks stats in
    let report =
      Session.Engine.run ~config ~groups ?on_supervise ?on_tick ~specs ~seed
        ()
    in
    print_report report;
    Option.iter (fun st -> st.st_finish ()) stats;
    match mix with
    | `E18 -> Option.iter (fun path -> warm_save path warm report) warm_path
    | `Net ->
        Option.iter
          (fun _ ->
            Printf.printf
              "warm store     unchanged (the net mix records no classes)\n")
          warm_path
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a session population through the supervised concurrent \
             engine (no chaos): admission control, restart supervision, \
             per-class circuit breakers.")
    Term.(const run $ sessions_arg ~default:256 $ mix_arg $ max_live_arg
          $ queue_arg $ quantum_arg $ arrivals_arg $ class_weights_arg
          $ deadline_arg $ budget_arg $ warm_arg $ stats_arg $ stats_every_arg
          $ seed_arg $ jobs_arg)

let chaos_run_cmd =
  let schedule_arg =
    Arg.(value & opt string "kill@2,4%5=0;crash:25@1..800%3=1"
         & info [ "schedule" ] ~docv:"SPEC"
             ~doc:"Chaos schedule: ';'-joined directives kill\\@T1,T2, \
                   crash:K\\@LO..HI, burst:P\\@LO..HI, blackout\\@LO..HI, \
                   fault:STACK, each optionally targeted %M=R (sessions \
                   with id mod M = R).")
  in
  let repeat_arg =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"K"
             ~doc:"Run the schedule $(docv) times and assert digest \
                   determinism across repeats (exit 1 on divergence).")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Record the merged trace, validate the standard trace \
                   invariants, and (with --repeat) assert the merged \
                   trace itself is identical across repeats.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the merged JSONL trace (per-session buffers in \
                   session-id order) to $(docv).")
  in
  let ring_arg =
    Arg.(value & opt (some int) None
         & info [ "ring" ] ~docv:"N"
             ~doc:"Capture the merged trace through the binary ring-buffer \
                   sink retaining the last $(docv) events, instead of an \
                   unbounded in-memory buffer — the always-on production \
                   capture.  --trace then writes the drained tail; the \
                   invariant check of --check is skipped if the ring \
                   evicted events (a truncated prefix is not a run).")
  in
  let run sessions mix schedule max_live queue arrivals class_weights budget
      repeat check trace ring warm_path stats stats_every seed jobs =
    apply_jobs jobs;
    let chaos =
      match Session.Chaos.of_string ~alphabet:6 schedule with
      | Ok c -> c
      | Error e -> Printf.eprintf "%s\n" e; exit 1
    in
    let arrivals = parse_arrivals arrivals in
    let classes = parse_class_weights class_weights in
    let config =
      Session.Engine.config
        ?quantum:(match mix with `Net -> Some 1 | `E18 -> None)
        ~max_live ~queue_capacity:queue ~arrivals ~classes
        ~round_budget:budget ()
    in
    let warm = Option.map warm_load warm_path in
    (* Rebuilt per run: net-mix groups close over mutable media whose
       cumulative slot counters would otherwise leak from one repeat
       into the next run's arbiter report details. *)
    let fresh_population () = population_of_mix ?warm ~sessions mix in
    let specs, _ = fresh_population () in
    let stats = Option.map (stats_live ~every:stats_every ~specs) stats in
    let capture = check || trace <> None || ring <> None in
    let evicted = ref 0 in
    (* The rollup hooks feed only the first run: repeats exist to check
       determinism of the engine, not to double-count sessions. *)
    let once ~hooks () =
      let specs, groups = fresh_population () in
      let on_supervise, on_tick =
        engine_hooks (if hooks then stats else None)
      in
      let go () =
        Session.Engine.run ~chaos ~config ~groups ?on_supervise ?on_tick
          ~specs ~seed ()
      in
      if not capture then (go (), None)
      else
        match ring with
        | Some capacity ->
            let r = Goalcom_obs.Ring.create ~capacity in
            (* The engine replays its merged stream from this domain, so
               the shard-bound sink applies, and its encoded fast path
               takes the engine's arena bytes without decoding them. *)
            let report = Trace.with_sink (Goalcom_obs.Ring.domain_sink r) go in
            evicted := Goalcom_obs.Ring.evicted r;
            (report, Some (Goalcom_obs.Ring.events r))
        | None ->
            let report, events = Goalcom_obs.Recorder.record go in
            (report, Some events)
    in
    let first, events = once ~hooks:true () in
    print_report first;
    Option.iter (fun st -> st.st_finish ()) stats;
    (match mix with
    | `E18 -> Option.iter (fun path -> warm_save path warm first) warm_path
    | `Net ->
        Option.iter
          (fun _ ->
            Printf.printf
              "warm store     unchanged (the net mix records no classes)\n")
          warm_path);
    (match events with
    | None -> ()
    | Some evs ->
        if ring <> None then
          Printf.printf "ring           %d events retained, %d evicted\n"
            (List.length evs) !evicted;
        (match trace with
        | None -> ()
        | Some path ->
            Goalcom_obs.Jsonl.with_file path (fun sink ->
                List.iter sink evs));
        if check then
          if !evicted > 0 then
            Printf.printf
              "trace          invariants skipped (ring evicted %d events)\n"
              !evicted
          else begin
            match Trace.check Trace.standard evs with
            | Ok () ->
                Printf.printf
                  "trace ok       %d events, standard invariants hold\n"
                  (List.length evs)
            | Error msg ->
                Printf.eprintf "trace invariant violated: %s\n" msg;
                exit 1
          end);
    for k = 2 to repeat do
      let r, evs = once ~hooks:false () in
      if r.Session.Engine.digest <> first.Session.Engine.digest then begin
        Printf.eprintf "repeat %d: digest diverged (%s vs %s)\n" k
          r.Session.Engine.digest first.Session.Engine.digest;
        exit 1
      end;
      if check && evs <> events then begin
        Printf.eprintf "repeat %d: merged trace diverged\n" k;
        exit 1
      end;
      Printf.printf "repeat %d       digest identical%s\n" k
        (if check then ", merged trace identical" else "")
    done
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the session population under a chaos schedule and report \
             completion, shedding, restarts and breaker activity.")
    Term.(const run $ sessions_arg ~default:500 $ mix_arg $ schedule_arg
          $ max_live_arg $ queue_arg $ arrivals_arg $ class_weights_arg
          $ budget_arg $ repeat_arg $ check_arg $ trace_arg $ ring_arg
          $ warm_arg $ stats_arg $ stats_every_arg $ seed_arg $ jobs_arg)

let chaos_matrix_cmd =
  let run sessions seed jobs =
    apply_jobs jobs;
    Option.iter
      (fun n -> Unix.putenv "GOALCOM_E18_SESSIONS" (string_of_int n))
      sessions;
    Table.print (E18_chaos_matrix.run ~seed)
  in
  let sessions_opt =
    Arg.(value & opt (some int) None
         & info [ "sessions" ] ~docv:"N"
             ~doc:"Sessions per condition (default 2000, i.e. a \
                   10k-session matrix; equivalent to setting \
                   $(b,GOALCOM_E18_SESSIONS)).")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Run the full E18 chaos matrix (same output as `goalcom run \
             e18`).")
    Term.(const run $ sessions_opt $ seed_arg $ jobs_arg)

let chaos_cmd =
  Cmd.group
    (Cmd.info "chaos"
       ~doc:"Deterministic chaos harness over the supervised session \
             engine: fault schedules, kill schedules, determinism checks.")
    [ chaos_run_cmd; chaos_matrix_cmd ]

(* warm — record / show warm-start stores *)

let warm_record_cmd =
  (* 18 sessions cover every (family, dialect) key once: printing
     cycles 4 dialects on ids 0,3,6,9 and each maze family cycles 6 on
     its residue class. *)
  let run sessions out seed jobs =
    apply_jobs jobs;
    let specs = E18_chaos_matrix.specs ~sessions () in
    let report = Session.Engine.run ~specs ~seed () in
    let entries = E18_chaos_matrix.warm_entries report in
    Warm.save out entries;
    Printf.printf "ran %d cold sessions: %d completed, %d warm entries -> %s\n"
      sessions report.Session.Engine.completed (List.length entries) out
  in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Warm-start store to write (JSONL, overwritten).")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a small cold population of the standard session mix and \
             record every winning candidate index into a warm-start \
             store, so later `serve --warm` / `chaos run --warm` runs \
             probe the winners first.")
    Term.(const run $ sessions_arg ~default:18 $ out_arg $ seed_arg $ jobs_arg)

let warm_show_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Warm-start store to print.")
  in
  let run path =
    match Warm.load path with
    | Error e -> Printf.eprintf "%s\n" e; exit 1
    | Ok entries ->
        Table.print
          (Table.make ~title:path
             ~columns:[ "class"; "enumeration"; "index"; "budget" ]
             (List.map
                (fun (e : Warm.entry) ->
                  [
                    e.Warm.server_class; e.Warm.enum;
                    string_of_int e.Warm.index; string_of_int e.Warm.budget;
                  ])
                entries))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a warm-start store as a table.")
    Term.(const run $ file_arg)

let warm_cmd =
  Cmd.group
    (Cmd.info "warm"
       ~doc:"Warm-start stores: persist known-good winning candidate \
             indices per session class, so repeated runs skip the \
             enumeration ladder.")
    [ warm_record_cmd; warm_show_cmd ]

(* trace-golden *)

let trace_golden_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"Directory to write the <case>.jsonl files into \
                   (the test suite reads test/golden).")
  in
  let run dir =
    List.iter
      (fun (c : Trace_cases.case) ->
        let path = Filename.concat dir (c.Trace_cases.name ^ ".jsonl") in
        let events = c.Trace_cases.events () in
        Goalcom_obs.Jsonl.to_file path events;
        Printf.printf "wrote %s (%d events)\n" path (List.length events))
      Trace_cases.all;
    let stats_path = Filename.concat dir "stats_e18_chaos.json" in
    File.write_atomic stats_path (Trace_cases.rollup_stats () ^ "\n");
    Printf.printf "wrote %s\n" stats_path
  in
  Cmd.v
    (Cmd.info "trace-golden"
       ~doc:"Regenerate the golden trace files the test suite diffs against.")
    Term.(const run $ dir_arg)

(* trace — analytics over recorded JSONL trace files *)

let load_trace path =
  match Goalcom_obs.Jsonl.of_file path with
  | Ok events -> events
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1

module Span = Goalcom_obs.Span

let trace_stats_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"JSONL trace file to summarize.")
  in
  let run path =
    let events = load_trace path in
    let module Obs = Goalcom_obs in
    let runs = Span.of_events events in
    let kinds = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        let k = Obs.Trace_diff.kind_name ev in
        Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
      events;
    Printf.printf "%s: %d events, %d runs\n" path (List.length events)
      (List.length runs);
    let kind_rows =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds []
      |> List.sort (fun (_, a) (_, b) -> compare (b : int) a)
      |> List.map (fun (k, n) -> [ k; string_of_int n ])
    in
    Table.print (Table.make ~title:"events" ~columns:[ "kind"; "count" ] kind_rows);
    Table.print (Span.runs_table runs)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Event counts and per-run summary of a trace file.")
    Term.(const run $ file_arg)

and trace_attribution_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"JSONL trace file to attribute.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of tables.")
  in
  let run path csv =
    let events = load_trace path in
    let runs = Span.of_events events in
    if csv then print_string (Table.to_csv (Span.ledger_table (Span.ledger runs)))
    else begin
      Table.print (Span.runs_table runs);
      Table.print (Span.ledger_table (Span.ledger runs))
    end
  in
  Cmd.v
    (Cmd.info "attribution"
       ~doc:"Charge every round, message, sensing verdict and fault to the \
             enumerated candidate in charge; report the overhead ledger.")
    Term.(const run $ file_arg $ csv_arg)

and trace_diff_cmd =
  let left_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"LEFT" ~doc:"First trace file.")
  in
  let right_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"RIGHT" ~doc:"Second trace file.")
  in
  let run left right =
    let module Td = Goalcom_obs.Trace_diff in
    let llines = Goalcom_obs.Jsonl.read_lines left in
    let rlines = Goalcom_obs.Jsonl.read_lines right in
    match Td.lines llines rlines with
    | None ->
        Printf.printf "traces identical (%d events)\n" (List.length llines)
    | Some d ->
        print_endline
          (Td.to_string ~left_label:(Filename.basename left)
             ~right_label:(Filename.basename right) d);
        exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"First divergence between two trace files (exit 1 if they \
             differ, with an event-kind-aware explanation).")
    Term.(const run $ left_arg $ right_arg)

and trace_export_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"JSONL trace file to export.")
  in
  let format_arg =
    Arg.(value
         & opt (enum [ ("chrome", `Chrome); ("csv", `Csv) ]) `Chrome
         & info [ "format" ] ~docv:"FMT"
             ~doc:"chrome (trace-event JSON for chrome://tracing / Perfetto) \
                   or csv (one row per attributed span).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT"
             ~doc:"Write to $(docv) instead of stdout.")
  in
  let run path format out =
    let events = load_trace path in
    let rendered =
      match format with
      | `Chrome -> Goalcom_obs.Profile.chrome_of_events events
      | `Csv -> Goalcom_obs.Profile.csv_of_events events
    in
    match out with
    | None -> print_string rendered
    | Some out_path ->
        File.write_atomic out_path rendered;
        Printf.printf "wrote %s (%d bytes)\n" out_path (String.length rendered)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Render a trace's attributed spans as a Chrome trace-event \
             profile (round numbers as logical time) or as CSV.")
    Term.(const run $ file_arg $ format_arg $ out_arg)

and trace_sessions_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"JSONL engine trace (from `serve`/`chaos run --trace`).")
  in
  let run path =
    let events = load_trace path in
    match Span.sessions_of_events events with
    | [] ->
        Printf.printf
          "%s: no Supervise events — not an engine trace (try `goalcom \
           trace attribution`)\n"
          path
    | sessions -> Table.print (Span.sessions_table sessions)
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:"Per-session supervise attribution of an engine trace: one row \
             per session with its incarnations, restarts, kills, the \
             enumeration indices each restart resumed at, and the winning \
             candidate.")
    Term.(const run $ file_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Analytics over JSONL execution traces: stats, overhead \
             attribution, per-session supervision, structural diffing, \
             profile export.")
    [
      trace_stats_cmd; trace_attribution_cmd; trace_sessions_cmd;
      trace_diff_cmd; trace_export_cmd;
    ]

(* top — live fleet stats, htop-style *)

let top_cmd =
  let stats_file_arg =
    Arg.(value & opt (some string) None
         & info [ "stats" ] ~docv:"FILE"
             ~doc:"Watch the JSON snapshot file a concurrent `serve --stats \
                   FILE` (or `chaos run --stats FILE`) keeps rewriting, \
                   instead of serving an internal population.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between redraws when watching a --stats file.")
  in
  let refresh_arg =
    Arg.(value & opt int 20
         & info [ "refresh-ticks" ] ~docv:"T"
             ~doc:"Scheduler ticks between redraws when serving the \
                   internal population.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Render a single frame and exit (no ANSI \
                                 clearing; smoke tests and pipelines).")
  in
  let draw ~clear snap =
    if clear then print_string "\027[H\027[2J";
    Table.print (Rollup.table snap);
    flush stdout
  in
  let watch_file path interval once =
    let frame () =
      match Goalcom_obs.Json.of_file path with
      | Error e -> Error e
      | Ok j -> Rollup.snapshot_of_json j
    in
    if once then (
      match frame () with
      | Ok snap -> draw ~clear:false snap
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 1)
    else
      let rec loop () =
        (match frame () with
        | Ok snap -> draw ~clear:true snap
        | Error e ->
            print_string "\027[H\027[2J";
            Printf.printf "goalcom top: waiting for %s (%s)\n%!" path e);
        Unix.sleepf interval;
        loop ()
      in
      loop ()
  in
  let serve_internal sessions refresh once seed jobs =
    apply_jobs jobs;
    let specs = E18_chaos_matrix.specs ~sessions () in
    let class_of id = specs.(id).Session.Engine.server_class in
    let rollup = Rollup.create ~clock:Unix.gettimeofday ~class_of () in
    let on_supervise ~tick ~session ~action ~detail =
      Rollup.supervise rollup ~tick ~session ~action ~detail
    in
    let on_tick ~tick =
      if (not once) && refresh > 0 && tick mod refresh = 0 then
        draw ~clear:true (Rollup.snapshot rollup)
    in
    let report =
      Session.Engine.run
        ~config:(Session.Engine.config ~max_live:64 ())
        ~on_supervise ~on_tick ~specs ~seed ()
    in
    draw ~clear:(not once) (Rollup.snapshot rollup);
    Printf.printf "completed %d/%d, digest %s\n" report.Session.Engine.completed
      (Array.length specs) report.Session.Engine.digest
  in
  let run stats sessions interval refresh once seed jobs =
    match stats with
    | Some path -> watch_file path interval once
    | None -> serve_internal sessions refresh once seed jobs
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live fleet stats, htop-style: an in-place session rollup \
             table (per-class counters, rounds and latency percentiles, \
             sessions/sec).  With --stats FILE it watches a running \
             serve/chaos; without, it serves an internal population and \
             redraws as it runs.")
    Term.(const run $ stats_file_arg $ sessions_arg ~default:120
          $ interval_arg $ refresh_arg $ once_arg $ seed_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "goalcom" ~version:"1.0.0"
      ~doc:"A theory of goal-oriented communication, executable (PODC 2011)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; all_cmd; demo_cmd; check_cmd; transcript_cmd;
            serve_cmd; chaos_cmd; warm_cmd; top_cmd; trace_golden_cmd;
            trace_cmd;
          ]))
