(* E18 — the chaos matrix: goal achievement under supervised concurrency.

   The paper's universal user survives an unreliable server inside one
   run; lib/session scales that claim to a population.  Thousands of
   sessions — printing and maze goals, universal users resuming from
   checkpoints — are multiplexed over the supervised engine while a
   deterministic chaos schedule kills incarnations, crashes and
   blackholes servers, and floods admission.  The matrix reports, per
   chaos condition, how much of the population still reaches its goal,
   what the supervision layer paid (restarts, breaker trips, give-ups,
   shed arrivals), and the p50/p99 rounds-to-goal — and every cell is a
   pure function of (seed, schedule): same digest across repeats and
   across jobs counts. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
module Session = Goalcom_session

let title = "Chaos matrix: goal completion under supervised concurrency"

let claim =
  "universality survives the move from one run to a population: under \
   crash storms, burst loss, blackouts and adversarial budgets, \
   supervised universal sessions restart from checkpoints and still \
   reach their goals, admission sheds overload instead of collapsing, \
   and the whole matrix is bit-identical across repeats and jobs counts"

(* Chaos specs parse faults against the larger of the two alphabets in
   the mix (corrupting symbols modulo 6 keeps printing messages, drawn
   from a 4-symbol dialect, inside the channel alphabet). *)
let alphabet_max = 6

(* --- the session mix -------------------------------------------------- *)

let printing_alphabet = 4
let printing_doc = [ 4; 2 ]
let maze_alphabet = 6

let corridor =
  Maze.scenario
    ~blocked:[ (0, 1); (1, 1); (2, 1); (3, 1); (0, 2); (1, 2) ]
    ~width:5 ~height:3 ~start:(0, 0) ~target:(2, 2) ()

let open_room =
  Maze.scenario ~width:4 ~height:4 ~start:(0, 0) ~target:(3, 3) ()

let printing_horizon =
  let session = (2 * List.length printing_doc) + 14 in
  (8 * Levin.work_before ~index:(printing_alphabet - 1) ~budget:session ())
  + 4_000

let maze_horizon = 6_000

(* The winning candidate depends on the server's dialect, which cycles
   within each family — so warm-start entries key on class + dialect,
   finer than the breaker class the engine supervises on. *)
let warm_class i =
  match i mod 3 with
  | 0 -> Printf.sprintf "printing/d%d" (i / 3 mod printing_alphabet)
  | 1 -> Printf.sprintf "maze-corridor/d%d" (i / 3 mod maze_alphabet)
  | _ -> Printf.sprintf "maze-open/d%d" (i / 3 mod maze_alphabet)

(* Session [i]'s candidate enumeration (what warm hints index into). *)
let users_of i =
  match i mod 3 with
  | 0 ->
      Printing.user_class ~alphabet:printing_alphabet
        (Dialect.enumerate_rotations ~size:printing_alphabet)
  | family ->
      let scenario = if family = 1 then corridor else open_room in
      Maze.user_class ~alphabet:maze_alphabet ~scenario
        (Dialect.enumerate_rotations ~size:maze_alphabet)

let schedule_of ~warm ~enum ~server_class =
  match warm with
  | None -> None
  | Some store -> (
      match Warm.hints ~enum ~server_class store with
      | [] -> None
      | hints -> Some (Levin.hinted ~hints (Levin.schedule ())))

(* What the sessions of one family share: its goal, its dialects and
   its server in each dialect.  All are immutable (a run instantiates
   its own states), so [specs] builds them once per family instead of
   once per session. *)
type shared = {
  goal : Goal.t;
  dialects : Dialect.t Enum.t;
  servers : Strategy.server array;  (* by dialect index *)
}

let shared ~alphabet ~server goal =
  let dialects = Dialect.enumerate_rotations ~size:alphabet in
  {
    goal;
    dialects;
    servers =
      Array.init alphabet (fun k -> server ~alphabet (Enum.get_exn dialects k));
  }

let families () =
  let maze scenario =
    shared ~alphabet:maze_alphabet ~server:Maze.server
      (Maze.goal ~scenarios:[ scenario ] ~alphabet:maze_alphabet ())
  in
  [|
    shared ~alphabet:printing_alphabet ~server:Printing.server
      (Printing.goal ~docs:[ printing_doc ] ~alphabet:printing_alphabet ());
    maze corridor;
    maze open_room;
  |]

(* Session [i] cycles through three goal families (printing, corridor
   maze, open-room maze) and, within a family, through the server
   dialects — so every chaos target pattern (%M=R) cuts across goals
   and dialects alike.  With [warm], a validated hint for the session's
   class+dialect becomes a prepended Levin slot (hints are resolved
   here, once per spec, not per incarnation). *)
let spec_of ?warm families i : Session.Engine.spec =
  let schedule =
    schedule_of ~warm ~enum:(users_of i) ~server_class:(warm_class i)
  in
  let f = families.(i mod 3) in
  let server = f.servers.(i / 3 mod Array.length f.servers) in
  match i mod 3 with
  | 0 ->
      {
        sname = Printf.sprintf "s%d/printing" i;
        server_class = "printing";
        goal = f.goal;
        make_user =
          (fun ~checkpoint ->
            Printing.universal_user ?schedule ~checkpoint
              ~alphabet:printing_alphabet f.dialects);
        server;
        exec_config = Exec.config ~horizon:printing_horizon ();
      }
  | family ->
      let scenario, sname = if family = 1 then (corridor, "corridor") else (open_room, "open") in
      {
        sname = Printf.sprintf "s%d/maze-%s" i sname;
        server_class = "maze-" ^ sname;
        goal = f.goal;
        make_user =
          (fun ~checkpoint ->
            Universal.finite ?schedule ~checkpoint
              ~enum:(Maze.user_class ~alphabet:maze_alphabet ~scenario f.dialects)
              ~sensing:Maze.sensing ());
        server;
        exec_config = Exec.config ~horizon:maze_horizon ();
      }

let specs ?warm ~sessions () =
  let families = families () in
  Array.init sessions (spec_of ?warm families)

(* The budget a warm hint should carry: the winner achieved the goal
   with world progress accumulated across its {e revisited} slots
   (Levin reruns every candidate each phase), so the budget of the slot
   it happened to win in understates what a single contiguous session
   needs from scratch.  Sum the budgets of every slot of the winning
   candidate up to and including the winning one (position
   [saved_slots]; earlier positions are the exhausted slots). *)
let hint_budget ~card sched ~slots ~index =
  let reduce i = match card with Some c when c > 0 -> i mod c | _ -> i in
  let target = reduce index in
  let rec go p s acc =
    if p > slots then acc
    else
      match s () with
      | Seq.Nil -> acc
      | Seq.Cons (slot, tl) ->
          let acc =
            if reduce slot.Levin.index = target then acc + slot.Levin.budget
            else acc
          in
          go (p + 1) tl acc
  in
  max 1 (go 0 sched 0)

(* Harvest warm-start entries from a finished run: every [Done]
   session's checkpoint pins the winning candidate ([saved_index]) and
   how far down the schedule it sat.  Later sessions of the same
   class+dialect supersede earlier ones (same winner, so this is a
   no-op dedup). *)
let warm_entries ?warm (report : Session.Engine.report) =
  let entries = ref (match warm with Some (Ok es) -> es | _ -> []) in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Session.Engine.Done _ ->
          let ck = report.Session.Engine.checkpoints.(i) in
          let enum = users_of i in
          let server_class = warm_class i in
          let sched =
            match schedule_of ~warm ~enum ~server_class with
            | Some s -> s
            | None -> Levin.schedule ()
          in
          let budget =
            hint_budget ~card:(Enum.cardinality enum) sched
              ~slots:ck.Universal.saved_slots ~index:ck.Universal.saved_index
          in
          entries :=
            Warm.record !entries
              {
                Warm.server_class;
                enum = Enum.name enum;
                index = ck.Universal.saved_index;
                budget;
              }
      | _ -> ())
    report.Session.Engine.outcomes;
  !entries

(* --- the matrix ------------------------------------------------------- *)

type condition = {
  cname : string;
  chaos_spec : string;
  econfig : Session.Engine.config;
}

let base_config ?(max_live = 256) ?(queue_capacity = 1_000_000)
    ?(round_budget = 0) ?(deadline = 0) () =
  Session.Engine.config ~quantum:32 ~max_live ~queue_capacity ~round_budget
    ~deadline ~max_ticks:200_000 ()

let conditions () =
  [
    { cname = "baseline"; chaos_spec = ""; econfig = base_config () };
    (* a fifth of the population loses its incarnation at ticks 2 and 4
       (32 and 96 rounds in); a third also has its server state wiped
       every 25 in-window rounds — crash-resume inside the run,
       checkpoint-resume above it. *)
    {
      cname = "crash-storm";
      chaos_spec = "kill@2,4%5=0;crash:25@1..800%3=1";
      econfig = base_config ();
    };
    (* heavy loss on half the population for the first 150 rounds of
       every incarnation, plus a total outage window on a tenth. *)
    {
      cname = "burst-loss";
      chaos_spec = "burst:0.25@1..150%2=0;blackout@1..40%10=3";
      econfig = base_config ();
    };
    (* an unbounded adversary starves a fifth of the population: those
       sessions cannot win, so the round budget wedge-kills each
       incarnation and the restart policy gives up — the supervision
       layer converts a hopeless run into a bounded spend. *)
    {
      cname = "adversary";
      chaos_spec = "fault:adversary:999999%5=2";
      econfig = base_config ~round_budget:1_200 ();
    };
    (* no faults, not enough room: a small live set over a small queue;
       admission sheds the overflow instead of queueing unboundedly. *)
    {
      cname = "overload";
      chaos_spec = "";
      econfig = base_config ~max_live:64 ~queue_capacity:256 ();
    };
  ]

let chaos_of spec =
  match Session.Chaos.of_string ~alphabet:alphabet_max spec with
  | Ok c -> c
  | Error e -> invalid_arg ("E18_chaos_matrix: " ^ e)

let run_condition ?warm ?jobs ~sessions ~seed cond =
  Session.Engine.run ~chaos:(chaos_of cond.chaos_spec) ~config:cond.econfig
    ?jobs ~specs:(specs ?warm ~sessions ()) ~seed ()

(* Sessions per condition: 2000 (a 10k-session matrix) by default;
   GOALCOM_E18_SESSIONS scales the whole matrix down for smoke runs. *)
let sessions_default () =
  match Sys.getenv_opt "GOALCOM_E18_SESSIONS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg "GOALCOM_E18_SESSIONS wants a positive integer")
  | None -> 2_000

let digest_prefix d = String.sub d 0 (min 12 (String.length d))

let run ~seed =
  let sessions = sessions_default () in
  let rows =
    List.mapi
      (fun k cond ->
        let r = run_condition ~sessions ~seed:(seed + (100 * k)) cond in
        let total = Array.length r.Session.Engine.outcomes in
        [
          cond.cname;
          (if cond.chaos_spec = "" then "-" else cond.chaos_spec);
          Table.cell_int total;
          Table.cell_pct (float_of_int r.Session.Engine.completed /. float_of_int total);
          Table.cell_int r.Session.Engine.shed;
          Table.cell_int r.Session.Engine.restarts;
          Table.cell_int r.Session.Engine.trips;
          Table.cell_int r.Session.Engine.gave_up;
          Table.cell_float ~decimals:0 r.Session.Engine.p50_rounds;
          Table.cell_float ~decimals:0 r.Session.Engine.p99_rounds;
          digest_prefix r.Session.Engine.digest;
        ])
      (conditions ())
  in
  Table.make
    ~title:"E18: chaos matrix — supervised sessions under fault schedules"
    ~columns:
      [
        "condition"; "chaos schedule"; "sessions"; "done"; "shed"; "restarts";
        "trips"; "give-ups"; "p50 rds"; "p99 rds"; "digest";
      ]
    ~notes:
      [
        "population: printing / corridor-maze / open-maze universal \
         sessions (round-robin), server dialects cycled within each \
         family; checkpointed enumeration makes restarts resume, not \
         rewind";
        "digest covers every per-session outcome; it is identical across \
         repeats and across --jobs 1/2/4 (the determinism the chaos \
         harness pins)";
        Printf.sprintf
          "sessions per condition = %d (set GOALCOM_E18_SESSIONS to scale \
           the matrix)"
          sessions;
      ]
    rows
