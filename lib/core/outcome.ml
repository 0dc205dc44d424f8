open Goalcom_prelude

type t = {
  achieved : bool;
  halted : bool;
  halt_round : int option;
  rounds : int;
  violations : int;
  violation_rounds : int list;
  last_violation : int option;
}

(* The truncation rule for compact goals: achieved iff some round ran
   and no violation falls in the last [window] rounds.  Violations are
   ascending, so the last one decides. *)
let tail_clear ?tail_window ~rounds last_violation =
  let window =
    match tail_window with Some w -> max 1 w | None -> max 1 (rounds / 5)
  in
  rounds > 0
  && match last_violation with None -> true | Some r -> r <= rounds - window

let judge ?tail_window (goal : Goal.t) history =
  let rounds = History.length history in
  let halted = History.halted history in
  let halt_round = History.halt_round history in
  (* One incremental fold per judgement: finite referees are decided
     once (violations derived from the decision), compact referees
     collect violation rounds in a single pass. *)
  let violation_rounds, achieved =
    if Referee.is_finite goal.referee then begin
      let accepted = Referee.decide_finite goal.referee history in
      ((if accepted then [] else [ rounds ]), halted && accepted)
    end
    else begin
      let violation_rounds = Referee.violations goal.referee history in
      ( violation_rounds,
        tail_clear ?tail_window ~rounds (Listx.last_opt violation_rounds) )
    end
  in
  let last_violation = Listx.last_opt violation_rounds in
  {
    achieved;
    halted;
    halt_round;
    rounds;
    violations = List.length violation_rounds;
    violation_rounds;
    last_violation;
  }

module Live = struct
  type outcome = t

  (* The referee's running state and what [judge] would read off the
     finished history, kept as the rounds go by: the current verdict,
     the compact violation count and last round, and the achieved
     view ([view] tracks the latest view until [found]). *)
  type t = {
    finite : bool;
    judge : Referee.judge;
    mutable verdict : Referee.verdict;
    mutable violations : int;
    mutable last_violation : int;  (* 0 = none *)
    record : bool;
    mutable violation_rounds : int list;  (* descending; [record] only *)
    mutable view : Msg.t;
    mutable found : bool;
  }

  let create (goal : Goal.t) v0 =
    let judge, verdict = Referee.start goal.referee v0 in
    {
      finite = Referee.is_finite goal.referee;
      judge;
      verdict;
      violations = 0;
      last_violation = 0;
      record = Trace.enabled ();
      violation_rounds = [];
      view = v0;
      found = verdict = `Ok;
    }

  let step t ~round v =
    let verdict = Referee.advance t.judge v in
    t.verdict <- verdict;
    if not t.found then begin
      t.view <- v;
      t.found <- verdict = `Ok
    end;
    if verdict = `Violation && not t.finite then begin
      t.violations <- t.violations + 1;
      t.last_violation <- round;
      if t.record then t.violation_rounds <- round :: t.violation_rounds
    end

  let finish t ~rounds ~halted ~halt_round : outcome =
    if t.finite then begin
      let accepted = t.verdict = `Ok in
      {
        achieved = halted && accepted;
        halted;
        halt_round;
        rounds;
        violations = (if accepted then 0 else 1);
        violation_rounds = (if accepted then [] else [ rounds ]);
        last_violation = (if accepted then None else Some rounds);
      }
    end
    else begin
      let last_violation =
        if t.last_violation = 0 then None else Some t.last_violation
      in
      {
        achieved = tail_clear ~rounds last_violation;
        halted;
        halt_round;
        rounds;
        violations = t.violations;
        violation_rounds = List.rev t.violation_rounds;
        last_violation;
      }
    end

  let achieved_view t = t.view
end

let pp ppf t =
  Format.fprintf ppf
    "@[<h>{achieved=%b; halted=%b; rounds=%d; violations=%d; last_violation=%s}@]"
    t.achieved t.halted t.rounds t.violations
    (match t.last_violation with None -> "-" | Some r -> string_of_int r)
