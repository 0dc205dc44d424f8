open Goalcom_prelude

type verdict = Positive | Negative

(* A live sensing instance: per-round state plus the verdict on the
   prefix absorbed so far.  The state type is existential so sensors
   with different state shapes share one type; [last] is lazy so that
   spawning a sensor with effects in its empty-view verdict (e.g. an
   rng-drawing corruption wrapper) performs them only when the verdict
   is actually read.  [observe] updates it in place. *)
type state =
  | State : {
      mutable s : 's;
      mutable last : verdict Lazy.t;
      step : 's -> View.event -> 's * verdict;
    }
      -> state

type t = { name : string; spawn : unit -> state }

let start t = t.spawn ()

let observe st e =
  (match st with
  | State r ->
      let s, v = r.step r.s e in
      r.s <- s;
      r.last <- Lazy.from_val v);
  st

let verdict (State { last; _ }) = Lazy.force last

let incremental ~name ~init ~step =
  {
    name;
    spawn =
      (fun () ->
        let s, v = init () in
        State { s; last = Lazy.from_val v; step });
  }

(* Most goal sensors only inspect the latest event: O(1) per round. *)
let of_latest ~name ~empty p =
  let empty_v = if empty then Positive else Negative in
  {
    name;
    spawn =
      (fun () ->
        State
          {
            s = ();
            last = Lazy.from_val empty_v;
            step = (fun () e -> if p e then ((), Positive) else ((), Negative));
          });
  }

(* Positive iff some event within the last [window] satisfies [p]:
   state is (events seen, index of the most recent hit), updated in
   place, and each instance preallocates its two (state, verdict)
   results. *)
type recent = { mutable seen : int; mutable last_hit : int (* 0 = none *) }

let of_recent ~name ~window p =
  if window <= 0 then invalid_arg "Sensing.of_recent: window must be positive";
  {
    name;
    spawn =
      (fun () ->
        let r = { seen = 0; last_hit = 0 } in
        let positive = (r, Positive) and negative = (r, Negative) in
        State
          {
            s = r;
            last = Lazy.from_val Negative;
            step =
              (fun r e ->
                r.seen <- r.seen + 1;
                if p e then r.last_hit <- r.seen;
                if r.last_hit > 0 && r.last_hit > r.seen - window then positive
                else negative);
          });
  }

let constant v =
  let name =
    match v with Positive -> "always-positive" | Negative -> "always-negative"
  in
  {
    name;
    spawn =
      (fun () ->
        let r = ((), v) in
        State { s = (); last = Lazy.from_val v; step = (fun () _ -> r) });
  }

let verdicts t history =
  let _, acc =
    View.fold_events history
      ~init:(start t, [])
      ~f:(fun (st, acc) e ->
        let st = observe st e in
        (st, (e.View.round, verdict st) :: acc))
  in
  List.rev acc

let negatives_after t history round =
  let _, n =
    View.fold_events history ~init:(start t, 0) ~f:(fun (st, n) e ->
        let st = observe st e in
        let n =
          if e.View.round > round && verdict st = Negative then n + 1 else n
        in
        (st, n))
  in
  n

(* The verdict at round r is the raw verdict on the view as it stood at
   round r; the tolerant verdict looks at the raw verdicts over the last
   [window] rounds and only reports Negative when at least [threshold]
   of them are Negative.  This keeps compact safety for persistent
   failures (a failing execution eventually makes every recent raw
   verdict Negative, so tolerant negatives also recur forever) while a
   transient fault — one bad round inside a healthy stretch — no longer
   evicts the correct strategy.  Do NOT use this with finite-goal
   halting: making Negative harder makes Positive easier, which is the
   unsafe direction when positives trigger halting.

   Each instance keeps the last [window] raw verdicts in a ring buffer
   alongside a live instance of the base sensor, so each round costs
   one base observation plus O(1) ring maintenance. *)
let tolerant ~window ~threshold t =
  if window <= 0 then invalid_arg "Sensing.tolerant: window must be positive";
  if threshold <= 0 || threshold > window then
    invalid_arg "Sensing.tolerant: threshold must be in 1..window";
  let name = Printf.sprintf "%s/tolerant(%d-of-%d)" t.name threshold window in
  let mask_name = name ^ "/mask" in
  let spawn () =
    (* Ring of the last [window] raw verdicts; [negs] counts the
       Negatives currently in the ring, so the masked/unmasked decision
       is O(1) regardless of how long the execution has run. *)
    let ring = Array.make window Positive in
    let inner = ref (start t) in
    let filled = ref 0 in
    let pos = ref 0 in
    let negs = ref 0 in
    let step () e =
      inner := observe !inner e;
      let raw0 = verdict !inner in
      if !filled = window then begin
        if ring.(!pos) = Negative then decr negs
      end
      else incr filled;
      ring.(!pos) <- raw0;
      if raw0 = Negative then incr negs;
      pos := (!pos + 1) mod window;
      if !negs >= threshold then ((), Negative)
      else begin
        (* A raw negative masked by a healthy recent window is the
           interesting tolerant-sensing event: record it when tracing
           (every unmasked verdict is already visible to the universal
           user's own [Sense] emission). *)
        if raw0 = Negative then
          Trace.emit_sense (Trace.handle ()) ~round:e.View.round
            ~sensor:mask_name ~positive:true ~clock:!negs ~patience:threshold;
        ((), Positive)
      end
    in
    State { s = (); last = Lazy.from_val Positive; step }
  in
  { name; spawn }

(* The empty-view verdict stays lazy, so a corrupted Negative draws from
   [rng] only when that verdict is read; after that, one draw per
   Negative round. *)
let corrupt_unsafe ~flip_to_positive rng t =
  let flip = function
    | Positive -> Positive
    | Negative ->
        if Rng.bernoulli rng flip_to_positive then Positive else Negative
  in
  {
    name = Printf.sprintf "%s/unsafe(%.2f)" t.name flip_to_positive;
    spawn =
      (fun () ->
        let inner = start t in
        State
          {
            s = inner;
            last = lazy (flip (verdict inner));
            step =
              (fun inner e ->
                let inner = observe inner e in
                (inner, flip (verdict inner)));
          });
  }

let corrupt_unviable t =
  {
    name = t.name ^ "/unviable";
    spawn =
      (fun () ->
        State
          {
            s = ();
            last = Lazy.from_val Negative;
            step = (fun () _ -> ((), Negative));
          });
  }

(* Updated in place: one record per instance, built by [init]. *)
type 'inst halting = {
  h_inst : 'inst;
  h_sense : state;
  mutable h_pending : bool;  (* a round awaits sensing: the two below *)
  mutable h_obs : Io.User.obs;
  mutable h_act : Io.User.act;
}

(* A user that runs [inner] but halts as soon as sensing turns positive.
   Sensing state is fed exactly the events {!View.fold_events} yields:
   the event for round r pairs the round-r sends with the messages
   received when acting at round r (i.e. emitted at round r-1);
   sensing therefore sees the rounds completed so far.  One observation
   per round — the engine never re-steps a halted user, so the verdict
   of the live instance is always current. *)
let halt_on_positive sensing inner =
  let module I = Strategy.Instance in
  Strategy.make_inplace
    ~name:(Printf.sprintf "halt-on-%s(%s)" sensing.name (Strategy.name inner))
    ~init:(fun () ->
      {
        h_inst = I.create inner;
        h_sense = start sensing;
        h_pending = false;
        h_obs = Io.User.no_obs;
        h_act = Io.User.silent;
      })
    ~step:(fun rng h (obs : Io.User.obs) ->
      if h.h_pending then
        ignore (observe h.h_sense (View.of_round h.h_obs h.h_act));
      match verdict h.h_sense with
      | Positive ->
          h.h_pending <- false;
          Io.User.halt_act
      | Negative ->
          let act = Io.User.unhalted (I.step rng h.h_inst obs) in
          h.h_pending <- true;
          h.h_obs <- obs;
          h.h_act <- act;
          act)

type report = {
  property : string;
  holds : bool;
  checked : int;
  counterexamples : string list;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s: %s (%d cases checked)%a@]" r.property
    (if r.holds then "HOLDS" else "VIOLATED")
    r.checked
    (fun ppf -> function
      | [] -> ()
      | exs ->
          List.iter (fun e -> Format.fprintf ppf "@,  counterexample: %s" e) exs)
    r.counterexamples

let max_counterexamples = 5

let build_report property checked counterexamples =
  {
    property;
    holds = counterexamples = [];
    checked;
    counterexamples = Listx.take max_counterexamples counterexamples;
  }

let tail_cutoff ?tail_window history =
  let rounds = History.length history in
  let window =
    match tail_window with Some w -> max 1 w | None -> max 1 (rounds / 5)
  in
  rounds - window

(* Each trial is paired with a different non-deterministic world of the
   goal, so the validators quantify (by sampling) over the world choice
   as well. *)
let config_for_trial ?config ~goal trial =
  let base = match config with Some c -> c | None -> Exec.config () in
  Exec.{ base with world_choice = trial mod Goal.num_worlds goal }

(* The validators' one trial loop: each (user, server) case in order,
   run [trials] times (at least once per world of the goal) on its own
   split of [rng]; [judge] names the trial's counterexample, if any. *)
let run_trials ~property ?config ~trials ~goal ~cases t rng judge =
  let trials = max trials (Goal.num_worlds goal) in
  let checked = ref 0 in
  let counterexamples = ref [] in
  List.iter
    (fun (user, server) ->
      for trial = 1 to trials do
        incr checked;
        let trial_rng = Rng.split rng in
        let config = config_for_trial ?config ~goal trial in
        match judge ~config ~user ~server ~trial trial_rng with
        | None -> ()
        | Some ex -> counterexamples := ex :: !counterexamples
      done)
    cases;
  build_report
    (Printf.sprintf "%s of %s for %s" property t.name (Goal.name goal))
    !checked (List.rev !counterexamples)

let all_pairs users servers =
  List.concat_map
    (fun user -> List.map (fun server -> (user, server)) servers)
    users

let designated user_for servers =
  List.map (fun server -> (user_for server, server)) servers

let check_safety_compact ?config ?tail_window ?(trials = 3) ~goal ~users
    ~servers t rng =
  run_trials ~property:"compact safety" ?config ~trials ~goal
    ~cases:(all_pairs users servers) t rng
    (fun ~config ~user ~server ~trial trial_rng ->
      let outcome, history =
        Exec.run_outcome ~config ?tail_window ~goal ~user ~server trial_rng
      in
      let cutoff = tail_cutoff ?tail_window history in
      if outcome.Outcome.achieved || negatives_after t history cutoff > 0 then
        None
      else
        Some
          (Printf.sprintf
             "user=%s server=%s trial=%d: goal failed but no negative \
              indication after round %d"
             (Strategy.name user) (Strategy.name server) trial cutoff))

let check_viability_compact ?config ?tail_window ?(trials = 3) ~goal ~user_for
    ~servers t rng =
  run_trials ~property:"compact viability" ?config ~trials ~goal
    ~cases:(designated user_for servers) t rng
    (fun ~config ~user ~server ~trial trial_rng ->
      let outcome, history =
        Exec.run_outcome ~config ?tail_window ~goal ~user ~server trial_rng
      in
      let cutoff = tail_cutoff ?tail_window history in
      let late_negatives = negatives_after t history cutoff in
      if not outcome.Outcome.achieved then
        Some
          (Printf.sprintf "server=%s trial=%d: designated user %s failed the goal"
             (Strategy.name server) trial (Strategy.name user))
      else if late_negatives > 0 then
        Some
          (Printf.sprintf
             "server=%s trial=%d: %d negative indications after round %d"
             (Strategy.name server) trial late_negatives cutoff)
      else None)

let check_safety_finite ?config ?(trials = 3) ~goal ~users ~servers t rng =
  let users = List.map (fun user -> (user, halt_on_positive t user)) users in
  run_trials ~property:"finite safety" ?config ~trials ~goal
    ~cases:(all_pairs users servers) t rng
    (fun ~config ~user:(user, wrapped) ~server ~trial trial_rng ->
      let outcome, _ =
        Exec.run_outcome ~config ~goal ~user:wrapped ~server trial_rng
      in
      (* If the wrapped user halted, it was on a positive indication;
         safety demands the referee then accepts. *)
      if outcome.Outcome.halted && not outcome.Outcome.achieved then
        Some
          (Printf.sprintf
             "user=%s server=%s trial=%d: halted on a positive indication at \
              round %s but the referee rejects"
             (Strategy.name user) (Strategy.name server) trial
             (match outcome.Outcome.halt_round with
             | Some r -> string_of_int r
             | None -> "?"))
      else None)

let check_viability_finite ?config ?(trials = 3) ~goal ~user_for ~servers t rng
    =
  run_trials ~property:"finite viability" ?config ~trials ~goal
    ~cases:(designated user_for servers) t rng
    (fun ~config ~user ~server ~trial trial_rng ->
      let history = Exec.run ~config ~goal ~user ~server trial_rng in
      if List.exists (fun (_, v) -> v = Positive) (verdicts t history) then None
      else
        Some
          (Printf.sprintf
             "server=%s trial=%d: user %s never received a positive indication"
             (Strategy.name server) trial (Strategy.name user)))
