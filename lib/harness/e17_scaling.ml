(* E17 / Figure — multicore scaling of the parallel entry points.

   The paper's Theorem 1 (finite case) invokes Levin's enumeration of
   strategies "in parallel"; lib/par makes that parallelism literal.
   This experiment measures the wall-clock speedup curve 1..N domains
   on three registered workloads and, in the same table, re-asserts the
   determinism contract: every parallel result is checked equal to its
   jobs=1 run.

   Each cell is the median of [runs] timed runs after one untimed
   warm-up (first decodes, lazily built tables, pool start-up), shown
   with the runs' min–max.

   Workload notes:
   - "e1/trials" and "e3/race" are CPU-bound; their speedup tracks the
     number of physical cores (≈1 on a single-core host), so a speedup
     above the host's recommended domain count is marked: it measures
     noise or a warm-up effect, not scaling.
   - "maze/remote" models the regime the theory of goal-oriented
     communication is actually about: the server is a *remote* party,
     so each round pays a communication latency (here simulated with a
     sleep in the server's step).  Trials on separate domains overlap
     those stalls, so the speedup approaches the jobs count even on one
     core — this is the workload the BENCH_par gate holds to >= 2x at
     four domains. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals

let title = "Multicore scaling of parallel trials and Levin racing"

let claim =
  "Theorem 1, finite case, made literal: candidate sessions and \
   independent trials run on separate domains; with a remote (latent) \
   server the stalls overlap and wall-clock falls with the domain count"

(* --- shared corridor maze (also exercised by the racer tests): a
   5-wide snake in which a wrong-rotation dialect cannot move the agent
   off the start cell, so exactly one candidate ever senses positive. *)
let corridor_blocked = [ (0, 1); (1, 1); (2, 1); (3, 1); (0, 2); (1, 2) ]

let corridor =
  Maze.scenario ~blocked:corridor_blocked ~width:5 ~height:3 ~start:(0, 0)
    ~target:(2, 2) ()

let alphabet = 6
let latency_s = 0.002

(* A "remote" server: every step pays one round-trip latency before the
   wrapped server acts.  Randomness and state pass straight through, so
   results are unchanged — only the clock is. *)
let remote (server : Strategy.server) : Strategy.server =
  let module I = Strategy.Instance in
  Strategy.make
    ~name:(Printf.sprintf "remote(%s)" (Strategy.name server))
    ~init:(fun () -> I.create server)
    ~step:(fun rng inst obs ->
      Unix.sleepf latency_s;
      (inst, I.step rng inst obs))

(* Each workload returns a deterministic digest; the table asserts the
   digest equal across jobs counts. *)
type measurement = { seconds : float; digest : string }

let time f =
  let t0 = Unix.gettimeofday () in
  let digest = f () in
  { seconds = Unix.gettimeofday () -. t0; digest }

let runs = 5

(* One untimed warm-up, then [runs] timed runs. *)
let measure workload =
  ignore (workload ());
  List.init runs (fun _ -> time workload)

let trial_digest (r : Trial.result) =
  Printf.sprintf "%d/%d mean=%.3f unsafe=%d" r.Trial.successes r.Trial.trials
    r.Trial.mean_rounds r.Trial.unsafe_halts

let workload_e1_trials ~seed ~jobs () =
  let alphabet = 4 in
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  let goal = Printing.goal ~docs:[ [ 3; 1; 4 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (Enum.get_exn dialects 2) in
  let user = Printing.universal_user ~alphabet dialects in
  let config = Exec.config ~horizon:2_000 () in
  trial_digest
    (Trial.run_par ~config ~jobs ~trials:24 ~seed ~goal ~user ~server ())

let workload_e3_race ~seed ~jobs () =
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  let goal = Maze.goal ~scenarios:[ corridor ] ~alphabet () in
  let enum = Maze.user_class ~alphabet ~scenario:corridor dialects in
  let server = Maze.server ~alphabet (Enum.get_exn dialects 5) in
  let schedule = Levin.round_robin ~budget:64 ~width:alphabet () in
  match
    Universal.finite_par ~schedule ~max_slots:alphabet ~jobs ~enum
      ~sensing:Maze.sensing ~goal ~server ~seed ()
  with
  | None -> "no winner"
  | Some r ->
      Printf.sprintf "winner=%d slot=%d rounds=%d" r.Universal.winner_index
        r.Universal.winner_slot r.Universal.winner_rounds

let workload_maze_remote ~seed ~jobs () =
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  let goal = Maze.goal ~scenarios:[ corridor ] ~alphabet () in
  let dialect = Enum.get_exn dialects 3 in
  let server = remote (Maze.server ~alphabet dialect) in
  let user = Maze.informed_user ~alphabet ~scenario:corridor dialect in
  let config = Exec.config ~horizon:60 () in
  trial_digest
    (Trial.run_par ~config ~jobs ~trials:8 ~seed ~goal ~user ~server ())

let workloads =
  [
    ("e1/trials", workload_e1_trials);
    ("e3/race", workload_e3_race);
    ("maze/remote", workload_maze_remote);
  ]

let cpu_bound = [ "e1/trials"; "e3/race" ]

let jobs_curve () =
  List.sort_uniq compare (1 :: 2 :: 4 :: [ Goalcom_par.Pool.default_jobs () ])

let run ~seed =
  let cores = Domain.recommended_domain_count () in
  let ms t = Printf.sprintf "%.2f" (t *. 1000.) in
  let rows =
    List.concat_map
      (fun (name, workload) ->
        let base = ref None in
        List.map
          (fun jobs ->
            let samples = measure (workload ~seed ~jobs) in
            let times = List.map (fun m -> m.seconds) samples in
            let median = Stats.median times in
            let t1, d1 =
              match !base with
              | None ->
                  let b = (median, (List.hd samples).digest) in
                  base := Some b;
                  b
              | Some b -> b
            in
            let speedup = t1 /. median in
            let flag =
              if List.mem name cpu_bound && speedup > float_of_int cores then
                " *"
              else ""
            in
            [
              name;
              Table.cell_int jobs;
              ms median;
              ms (Stats.minimum times) ^ "-" ^ ms (Stats.maximum times);
              Table.cell_ratio speedup ^ flag;
              (if List.for_all (fun m -> m.digest = d1) samples then "yes"
               else "NO");
            ])
          (jobs_curve ()))
      workloads
  in
  Table.make ~title:"E17 (Figure): wall-clock speedup, 1..N domains"
    ~columns:
      [ "workload"; "jobs"; "median ms"; "min-max ms"; "speedup"; "= jobs 1" ]
    ~notes:
      [
        Printf.sprintf
          "each cell is the median of %d timed runs after one untimed \
           warm-up; timing columns are measured on the host (not \
           deterministic); the '= jobs 1' column asserts every parallel \
           result equals the sequential one"
          runs;
        "e1/trials and e3/race are CPU-bound (speedup tracks physical \
         cores); maze/remote pays a per-round server latency, which \
         separate domains overlap";
        Printf.sprintf
          "host reports %d recommended domain(s); * marks a CPU-bound \
           speedup above that count, which is noise, not scaling"
          cores;
      ]
    rows
