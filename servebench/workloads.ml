(* The benchmark's workloads: populations and engine settings drawn
   from traffic the CLI and CI already run.  See README.md for why
   each was chosen and which layer it stresses. *)

open Goalcom
open Goalcom_automata
open Goalcom_goals
module Engine = Goalcom_session.Engine
module Chaos = Goalcom_session.Chaos
module E18 = Goalcom_harness.E18_chaos_matrix

type population = E18_mix | Control_mix

type t = {
  name : string;
  population : population;
  sessions : int;  (** population size *)
  chaos_spec : string;
  config : Engine.config;
  jobs : int;  (** 0 = one per host domain *)
  ring : int option;  (** capture through a ring sink of this capacity *)
}

let storm_chaos = "kill@2,4%5=0;crash:25@1..800%3=1;burst:0.25@1..150%7=2"

(* The BENCH_session storm condition. *)
let storm_config =
  Engine.config ~quantum:32 ~max_live:256 ~queue_capacity:1_000_000
    ~round_budget:2_000 ~max_ticks:200_000 ()

let storm =
  {
    name = "storm";
    population = E18_mix;
    sessions = 10_000;
    chaos_spec = storm_chaos;
    config = storm_config;
    jobs = 1;
    ring = None;
  }

(* [chaos run --schedule "" --arrivals poisson:80 --queue 2048
   --class-weights printing=3,maze-corridor=1 --ring 65536] *)
let open_ring =
  {
    name = "open_ring";
    population = E18_mix;
    sessions = 10_000;
    chaos_spec = "";
    config =
      Engine.config ~max_live:256 ~queue_capacity:2_048
        ~arrivals:(Goalcom_session.Arrival.Poisson 80.)
        ~classes:[ ("printing", 3); ("maze-corridor", 1) ]
        ();
    jobs = 1;
    ring = Some 65_536;
  }

let long_horizon =
  {
    name = "long_horizon";
    population = Control_mix;
    sessions = 256;
    chaos_spec = "";
    config = Engine.config ~quantum:32 ~max_live:64 ~max_ticks:200_000 ();
    jobs = 1;
    ring = None;
  }

(* A workload at jobs = host domains ([storm_par] for [storm]): the
   same population through lib/par's sharded quantum, so the same
   digest.  The layer run of this variant is where the pool's
   occupancy and the time outside every wrapped call are measured. *)
let par w = { w with name = w.name ^ "_par"; jobs = 0 }

let base = [ storm; open_ring; long_horizon ]
let all = base @ List.map par base

let find name = List.find_opt (fun w -> w.name = name) all

let width w =
  let hw = Goalcom_par.Pool.hardware_jobs () in
  if w.jobs = 0 then hw else max 1 (min w.jobs hw)

(* --- populations ------------------------------------------------------ *)

(* The E18 mix's candidate classes, rebuilt so the layer run can hand
   the universal user a wrapped Sensing.t.  These mirror
   E18_chaos_matrix.spec_of; the layer run's outcome digest must equal
   the plain run's, which pins the mirror. *)
let printing_alphabet = 4
let maze_alphabet = 6

let corridor =
  Maze.scenario
    ~blocked:[ (0, 1); (1, 1); (2, 1); (3, 1); (0, 2); (1, 2) ]
    ~width:5 ~height:3 ~start:(0, 0) ~target:(2, 2) ()

let open_room = Maze.scenario ~width:4 ~height:4 ~start:(0, 0) ~target:(3, 3) ()

let e18_user i ~checkpoint =
  match i mod 3 with
  | 0 ->
      Universal.finite ~checkpoint
        ~enum:
          (Printing.user_class ~alphabet:printing_alphabet
             (Dialect.enumerate_rotations ~size:printing_alphabet))
        ~sensing:(Layers.sensing Printing.sensing) ()
  | family ->
      let scenario = if family = 1 then corridor else open_room in
      Universal.finite ~checkpoint
        ~enum:
          (Maze.user_class ~alphabet:maze_alphabet ~scenario
             (Dialect.enumerate_rotations ~size:maze_alphabet))
        ~sensing:(Layers.sensing Maze.sensing) ()

let layered i (s : Engine.spec) ~user : Engine.spec =
  {
    s with
    goal = Layers.goal s.goal;
    server = Layers.strategy Layers.Servers s.server;
    make_user =
      (fun ~checkpoint -> Layers.strategy Layers.Universal (user i ~checkpoint));
  }

let e18_specs ~layers ~sessions =
  let specs = E18.specs ~sessions () in
  if layers then Array.mapi (fun i s -> layered i s ~user:e18_user) specs
  else specs

(* Compact Control sessions: the universal user cycles through the
   four dialect rotations until the plant stays in range. *)
let control_alphabet = 4
let control_horizon = 16_000
let control_dialects = Dialect.enumerate_rotations ~size:control_alphabet

let control_user ~sensing =
  Universal.compact ~grace:4
    ~enum:(Control.user_class ~alphabet:control_alphabet control_dialects)
    ~sensing ()

let control_spec i : Engine.spec =
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
    exec_config = Exec.config ~horizon:control_horizon ();
  }

let control_specs ~layers ~sessions =
  let specs = Array.init sessions control_spec in
  if layers then
    Array.mapi
      (fun i s ->
        layered i s ~user:(fun _ ~checkpoint:_ ->
            control_user ~sensing:(Layers.sensing (Control.sensing ()))))
      specs
  else specs

type prepared = {
  specs : Engine.spec array;
  chaos : Chaos.t;
  ring : Goalcom_obs.Ring.t option;
}

(* Everything built before Engine.run: the spec population, the parsed
   chaos schedule and the capture ring.  This is what setup_s times. *)
let prepare ~layers w =
  let specs =
    match w.population with
    | E18_mix -> e18_specs ~layers ~sessions:w.sessions
    | Control_mix -> control_specs ~layers ~sessions:w.sessions
  in
  {
    specs;
    chaos = E18.chaos_of w.chaos_spec;
    ring = Option.map (fun capacity -> Goalcom_obs.Ring.create ~capacity) w.ring;
  }
