open Goalcom_prelude
open Goalcom
module Fault = Goalcom_faults.Fault

(* Deterministic chaos schedules.

   A schedule is a `;`-separated list of directives, each optionally
   targeting a subset of sessions by id (`%M=R`: sessions with
   id mod M = R).  Two kinds of directive exist:

   - engine-level kills: `kill@T1,T2` ends the targeted sessions'
     current incarnation at scheduler ticks T1, T2 (the supervisor then
     applies its restart policy) — the session-engine analogue of
     kill -9 on a worker;

   - storms: lib/faults wrappers with their own round counters, active
     only inside a window of *incarnation* rounds, applied to the
     server of every incarnation of the targeted sessions.
     `crash:K@LO..HI` resets the server's state every K rounds while
     the incarnation's round is in [LO,HI]; `burst:P@LO..HI` drops
     non-silent messages in either direction with probability P inside
     the window; `blackout@LO..HI` freezes the server entirely (the
     outage shape of Fault.intermittent, windowed); `fault:SPEC` is a
     static whole-run stack in the lib/faults grammar (`+`-joined, so
     a chaos schedule embeds any existing fault spec).

   Every random draw a storm makes comes from the per-step execution
   RNG, and every kill is indexed by the deterministic scheduler tick,
   so a chaos run is bit-exact replayable from (seed, schedule). *)

type target = { modulus : int; remainder : int }

let everyone = { modulus = 1; remainder = 0 }
let targets tgt id = id mod tgt.modulus = tgt.remainder

type directive =
  | Kill of { ticks : int list; target : target }
  | Storm of { fault : Fault.t; target : target }

type t = { directives : directive list; spec : string }

let to_string t = t.spec
let directives t = t.directives
let none = { directives = []; spec = "" }

let emit_fault fault detail =
  let h = Trace.handle () in
  Trace.emit_fault h ~round:(Trace.handle_round h) ~fault ~detail

(* --- storm combinators ------------------------------------------------ *)

let check_window ~what lo hi =
  if lo < 1 || hi < lo then
    invalid_arg (Printf.sprintf "Chaos.%s: want 1 <= LO <= HI" what)

(* Like Fault.crash_restart, but counting rounds per incarnation and
   resetting only inside the window; the age counter restarts when the
   window opens, so a window of W rounds causes floor(W / every)
   resets. *)
let crash_storm ~every ~lo ~hi =
  if every <= 0 then invalid_arg "Chaos.crash_storm: period must be positive";
  check_window ~what:"crash_storm" lo hi;
  let module I = Strategy.Instance in
  let fname = Printf.sprintf "crashstorm(%d@%d..%d)" every lo hi in
  Fault.make ~name:fname (fun base ->
      Strategy.make
        ~name:(Printf.sprintf "%s(%s)" fname (Strategy.name base))
        ~init:(fun () -> (I.create base, ref 0, ref 0))
        ~step:(fun rng ((inst, age, round) as st) obs ->
          incr round;
          let in_window = !round >= lo && !round <= hi in
          if in_window && !age >= every then begin
            emit_fault fname "restart";
            I.restart inst;
            age := 0
          end;
          if in_window then incr age else age := 0;
          (st, I.step rng inst obs)))

(* Burst loss inside the window: non-silent messages in either
   direction are dropped with probability [prob].  Draws happen only
   for non-silent messages inside the window, from the per-step RNG. *)
let burst_window ~prob ~lo ~hi =
  if not (prob >= 0.0 && prob <= 1.0) then
    invalid_arg "Chaos.burst_window: probability must be in [0,1]";
  check_window ~what:"burst_window" lo hi;
  let module I = Strategy.Instance in
  let fname = Printf.sprintf "burstwin(%.2f@%d..%d)" prob lo hi in
  Fault.make ~name:fname (fun base ->
      Strategy.make
        ~name:(Printf.sprintf "%s(%s)" fname (Strategy.name base))
        ~init:(fun () -> (I.create base, ref 0))
        ~step:(fun rng ((inst, round) as st) obs ->
          incr round;
          let in_window = !round >= lo && !round <= hi in
          let obs =
            if
              in_window
              && (not (Msg.is_silence obs.Io.Server.from_user))
              && Rng.bernoulli rng prob
            then begin
              emit_fault fname "inbound";
              { obs with Io.Server.from_user = Msg.Silence }
            end
            else obs
          in
          let act = I.step rng inst obs in
          let act =
            if
              in_window
              && (not (Msg.is_silence act.Io.Server.to_user))
              && Rng.bernoulli rng prob
            then begin
              emit_fault fname "outbound";
              { act with Io.Server.to_user = Msg.Silence }
            end
            else act
          in
          (st, act)))

(* Total outage inside the window: the server does not observe (state
   frozen, inbound lost) and emits silence — Fault.intermittent's off
   phase, windowed on incarnation rounds. *)
let blackout ~lo ~hi =
  check_window ~what:"blackout" lo hi;
  let module I = Strategy.Instance in
  let fname = Printf.sprintf "blackout(%d..%d)" lo hi in
  Fault.make ~name:fname (fun base ->
      Strategy.make
        ~name:(Printf.sprintf "%s(%s)" fname (Strategy.name base))
        ~init:(fun () -> (I.create base, 0))
        ~step:(fun rng (inst, round) obs ->
          let round = round + 1 in
          if round >= lo && round <= hi then begin
            emit_fault fname "outage";
            ((inst, round), Io.Server.silent)
          end
          else ((inst, round), I.step rng inst obs)))

(* --- schedule queries ------------------------------------------------- *)

let kills_at t ~tick ~id =
  List.exists
    (function
      | Kill { ticks; target } -> targets target id && List.mem tick ticks
      | Storm _ -> false)
    t.directives

(* The composed storm stack for one session, outermost first in spec
   order (Fault.stack applies left-to-right, leftmost closest to the
   user — matching the lib/faults CLI convention). *)
let stack_for t ~id =
  Fault.stack
    (List.filter_map
       (function
         | Storm { fault; target } when targets target id -> Some fault
         | _ -> None)
       t.directives)

(* --- parsing ---------------------------------------------------------- *)

let spec_error spec reason =
  Error (Printf.sprintf "bad chaos directive %S: %s" spec reason)

let grammar =
  "kill@T1,T2,..  crash:K@LO..HI  burst:P@LO..HI  blackout@LO..HI  \
   fault:STACK — each optionally targeted with %M=R (sessions with id \
   mod M = R); directives join with ';'"

let parse_target spec s =
  match String.index_opt s '=' with
  | None -> spec_error spec "target wants the form %M=R"
  | Some i -> (
      let m = String.sub s 0 i in
      let r = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt (String.trim m), int_of_string_opt (String.trim r)) with
      | Some m, Some r when m >= 1 && r >= 0 && r < m ->
          Ok { modulus = m; remainder = r }
      | Some _, Some _ -> spec_error spec "target %M=R wants 0 <= R < M"
      | _ -> spec_error spec "target wants the form %M=R (two integers)")

let parse_window spec s =
  match String.index_opt s '.' with
  | Some i
    when i + 1 < String.length s && s.[i + 1] = '.' ->
      let lo = String.sub s 0 i in
      let hi = String.sub s (i + 2) (String.length s - i - 2) in
      (match (int_of_string_opt (String.trim lo), int_of_string_opt (String.trim hi)) with
      | Some lo, Some hi when lo >= 1 && hi >= lo -> Ok (lo, hi)
      | Some _, Some _ -> spec_error spec "window wants 1 <= LO <= HI"
      | _ -> spec_error spec "window wants the form LO..HI (two integers)")
  | _ -> spec_error spec "window wants the form LO..HI"

let ( let* ) r f = Result.bind r f

let parse_directive ~alphabet spec =
  let body, target =
    match String.index_opt spec '%' with
    | None -> (spec, Ok everyone)
    | Some i ->
        ( String.sub spec 0 i,
          parse_target spec (String.sub spec (i + 1) (String.length spec - i - 1))
        )
  in
  let* target = target in
  let split_at c s =
    match String.index_opt s c with
    | None -> (s, None)
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  (* The directive name ends at ':' or '@', whichever comes first
     (kill and blackout take no ':' argument). *)
  let head =
    let stop = String.length body in
    let stop =
      match String.index_opt body ':' with Some i -> min stop i | None -> stop
    in
    let stop =
      match String.index_opt body '@' with Some i -> min stop i | None -> stop
    in
    String.trim (String.sub body 0 stop)
  in
  let _, rest = split_at ':' body in
  match (head, rest) with
  | "kill", _ -> (
      let head, at = split_at '@' body in
      match (String.trim head, at) with
      | "kill", Some ticks -> (
          let parts = String.split_on_char ',' ticks in
          let parsed = List.map (fun s -> int_of_string_opt (String.trim s)) parts in
          if List.for_all (function Some t -> t >= 1 | None -> false) parsed
          then
            Ok (Kill { ticks = List.filter_map Fun.id parsed; target })
          else spec_error spec "kill@T1,T2,.. wants positive integer ticks")
      | _ -> spec_error spec "kill wants the form kill@T1,T2,..")
  | "blackout", _ -> (
      let head, at = split_at '@' body in
      match (String.trim head, at) with
      | "blackout", Some w ->
          let* lo, hi = parse_window spec w in
          Ok (Storm { fault = blackout ~lo ~hi; target })
      | _ -> spec_error spec "blackout wants the form blackout@LO..HI")
  | "crash", Some rest -> (
      let arg, at = split_at '@' rest in
      match (int_of_string_opt (String.trim arg), at) with
      | Some every, Some w when every >= 1 ->
          let* lo, hi = parse_window spec w in
          Ok (Storm { fault = crash_storm ~every ~lo ~hi; target })
      | _ -> spec_error spec "crash wants the form crash:K@LO..HI")
  | "burst", Some rest -> (
      let arg, at = split_at '@' rest in
      match (float_of_string_opt (String.trim arg), at) with
      | Some prob, Some w when prob >= 0.0 && prob <= 1.0 ->
          let* lo, hi = parse_window spec w in
          Ok (Storm { fault = burst_window ~prob ~lo ~hi; target })
      | _ -> spec_error spec "burst wants the form burst:P@LO..HI with P in [0,1]")
  | "fault", Some stack -> (
      match Fault.stack_of_string ~alphabet stack with
      | Ok fault -> Ok (Storm { fault; target })
      | Error e -> spec_error spec e)
  | head, _ ->
      spec_error spec
        (Printf.sprintf "unknown chaos directive %S; known: %s" head grammar)

let of_string ~alphabet spec =
  let parts =
    List.filter_map
      (fun s ->
        let s = String.trim s in
        if s = "" then None else Some s)
      (String.split_on_char ';' spec)
  in
  let rec go acc = function
    | [] -> Ok { directives = List.rev acc; spec }
    | s :: rest -> (
        match parse_directive ~alphabet s with
        | Ok d -> go (d :: acc) rest
        | Error _ as e -> e)
  in
  go [] parts
