open Goalcom
open Goalcom_prelude

type result = {
  successes : int;
  trials : int;
  success_rate : float;
  rounds_to_success : float list;
  mean_rounds : float;
  unsafe_halts : int;
}

(* Structural compare rather than (=): mean_rounds is nan when no trial
   succeeded, and nan <> nan while compare nan nan = 0. *)
let equal a b = compare a b = 0

let rounds_of_success (goal : Goal.t) (outcome : Outcome.t) =
  if Goal.is_finite goal then
    match outcome.Outcome.halt_round with
    | Some r -> float_of_int r
    | None -> float_of_int outcome.Outcome.rounds
  else begin
    (* Compact: the run "succeeds from" the round after its last
       violation; 0 violations means it was good from the start. *)
    match outcome.Outcome.last_violation with
    | Some r -> float_of_int r
    | None -> 0.
  end

(* Uniform argument validation for both runners: every rejection names
   the entry point, the parameter and the offending value. *)
let validate ~fn ?jobs ~trials () =
  let reject what v =
    invalid_arg
      (Printf.sprintf "Trial.%s: %s must be positive (got %d)" fn what v)
  in
  if trials <= 0 then reject "trials" trials;
  match jobs with Some j when j <= 0 -> reject "jobs" j | _ -> ()

(* The per-trial configuration both runners must agree on: trial [i]
   exercises world choice [i mod num_worlds]. *)
let trial_config config goal i =
  let base = match config with Some c -> c | None -> Exec.config () in
  Exec.{ base with world_choice = i mod Goal.num_worlds goal }

(* Shared aggregation fold — run and run_par produce bit-identical
   results because both feed outcomes to this accumulator in trial
   order. *)
type acc = {
  mutable acc_successes : int;
  mutable acc_unsafe : int;
  mutable acc_rounds : float list; (* reversed *)
}

let acc_create () = { acc_successes = 0; acc_unsafe = 0; acc_rounds = [] }

let acc_add goal acc (outcome : Outcome.t) =
  if outcome.Outcome.achieved then begin
    acc.acc_successes <- acc.acc_successes + 1;
    acc.acc_rounds <- rounds_of_success goal outcome :: acc.acc_rounds
  end
  else if outcome.Outcome.halted then acc.acc_unsafe <- acc.acc_unsafe + 1

let acc_result ~trials acc =
  let rounds_to_success = List.rev acc.acc_rounds in
  {
    successes = acc.acc_successes;
    trials;
    success_rate = float_of_int acc.acc_successes /. float_of_int trials;
    rounds_to_success;
    mean_rounds =
      (if rounds_to_success = [] then Float.nan
       else Stats.mean rounds_to_success);
    unsafe_halts = acc.acc_unsafe;
  }

let run ?config ?tail_window ?sink ~trials ~seed ~goal ~user ~server () =
  validate ~fn:"run" ~trials ();
  (* The caller's sink is one ambient installation covering every
     trial, so a single stream spans the whole experiment. *)
  let body () =
    let master = Rng.make seed in
    let acc = acc_create () in
    for i = 0 to trials - 1 do
      let trial_rng = Rng.split master in
      let config = trial_config config goal i in
      let outcome, _ =
        Exec.run_outcome ~config ?tail_window ~goal ~user ~server trial_rng
      in
      acc_add goal acc outcome
    done;
    acc_result ~trials acc
  in
  match sink with None -> body () | Some s -> Trace.with_sink s body

let run_par ?config ?tail_window ?sink ?jobs ?pool ~trials ~seed ~goal ~user
    ~server () =
  validate ~fn:"run_par" ?jobs ~trials ();
  (* Sequential [run] lets trials emit to whatever ambient sink the
     caller has installed; pool domains inherit no sink, so lift the
     caller's ambient into an explicit one to keep the semantics. *)
  let sink = match sink with Some _ -> sink | None -> Trace.current () in
  (* Determinism: derive every trial generator from the master *before*
     distributing work, in trial order — the exact split sequence the
     sequential runner consumes (explicit loop: evaluation order of
     Array.init is unspecified). *)
  let master = Rng.make seed in
  let rngs = Array.make trials master in
  for i = 0 to trials - 1 do
    rngs.(i) <- Rng.split master
  done;
  let want_events = Option.is_some sink in
  let task i () =
    let config = trial_config config goal i in
    let recorder =
      if want_events then Some (Goalcom_obs.Recorder.create ()) else None
    in
    let body () =
      Exec.run_outcome ~config ?tail_window ~goal ~user ~server rngs.(i)
    in
    let outcome, _ =
      match recorder with
      | None -> body ()
      | Some r -> Trace.with_sink (Goalcom_obs.Recorder.sink r) body
    in
    (outcome, Option.map Goalcom_obs.Recorder.events recorder)
  in
  let tasks = Array.make trials (task 0) in
  for i = 0 to trials - 1 do
    tasks.(i) <- task i
  done;
  let per_trial =
    match pool with
    | Some p -> Goalcom_par.Pool.run p tasks
    | None ->
        let jobs =
          match jobs with
          | Some j -> j
          | None -> Goalcom_par.Pool.default_jobs ()
        in
        Goalcom_par.Pool.with_pool ~jobs (fun p -> Goalcom_par.Pool.run p tasks)
  in
  (* Merge in trial order: replayed events reach the caller's sink in
     the exact sequence the sequential runner would have emitted. *)
  let acc = acc_create () in
  Array.iter
    (fun (outcome, events) ->
      (match (sink, events) with
      | Some s, Some evs -> List.iter s evs
      | _ -> ());
      acc_add goal acc outcome)
    per_trial;
  acc_result ~trials acc

let success_rate ?config ?tail_window ~trials ~seed ~goal ~user ~server () =
  (run ?config ?tail_window ~trials ~seed ~goal ~user ~server ()).success_rate

let pp ppf r =
  Format.fprintf ppf "%d/%d succeeded (%.0f%%), mean rounds %.1f" r.successes
    r.trials (100. *. r.success_rate) r.mean_rounds
