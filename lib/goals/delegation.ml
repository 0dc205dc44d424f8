open Goalcom
open Goalcom_automata
open Goalcom_sat
open Goalcom_servers

let ask_cmd = 0
let answer_cmd = 1
let min_alphabet = 3

let check_alphabet alphabet =
  if alphabet < min_alphabet then
    invalid_arg "Delegation: alphabet must have at least 3 symbols"

type params = { num_vars : int; num_clauses : int; clause_len : int }

let default_params = { num_vars = 8; num_clauses = 20; clause_len = 3 }

let assignment_msg (a : Cnf.assignment) =
  Codec.assignment (List.tl (Array.to_list a))

let solver_with ~name ~alphabet tweak =
  check_alphabet alphabet;
  Strategy.stateless ~name (fun (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Pair (Msg.Sym c, cnf_msg) when c = ask_cmd -> begin
          match Codec.cnf_opt cnf_msg with
          | None -> Io.Server.silent
          | Some cnf -> begin
              match Dpll.solve cnf with
              | Some a ->
                  Io.Server.say_user
                    (Msg.Pair (Msg.Sym answer_cmd, assignment_msg (tweak cnf a)))
              | None ->
                  Io.Server.say_user
                    (Msg.Pair (Msg.Sym answer_cmd, Msg.Text "unsat"))
            end
        end
      | _ -> Io.Server.silent)

let solver ~alphabet = solver_with ~name:"dpll-solver" ~alphabet (fun _ a -> a)

(* The liar corrupts the correct assignment so that it provably fails
   the formula: it flips the first variable whose flip falsifies some
   clause, falling back to the pointwise complement.  (A careless liar
   that flips a fixed variable sometimes tells an accidental truth —
   an assignment that still satisfies — which is a valid answer, not a
   lie.) *)
let break_assignment cnf (a : Cnf.assignment) =
  let falsifies candidate = not (Cnf.eval cnf candidate) in
  let flipped v =
    let b = Array.copy a in
    b.(v) <- not b.(v);
    b
  in
  let rec try_vars v =
    if v >= Array.length a then begin
      let complement = Array.mapi (fun i x -> i > 0 && not x) a in
      if falsifies complement then complement else a
    end
    else begin
      let b = flipped v in
      if falsifies b then b else try_vars (v + 1)
    end
  in
  try_vars 1

let liar ~alphabet = solver_with ~name:"lying-solver" ~alphabet break_assignment

let server ~alphabet d = Transform.with_dialect d (solver ~alphabet)

let server_class ~alphabet dialects =
  Transform.dialect_class ~base:(solver ~alphabet) dialects

type world_state =
  | Fresh
  | Task of { cnf : Cnf.t; solved : bool }

let status_view = function
  | Fresh -> Msg.Text "init"
  | Task { cnf; solved } ->
      Msg.Pair (Msg.Text (if solved then "solved" else "pending"), Codec.cnf cnf)

let world ?(params = default_params) () =
  if params.num_vars <= 0 then invalid_arg "Delegation.world: bad params";
  World.make ~name:"delegation-world"
    ~init:(fun () -> Fresh)
    ~step:(fun rng state (obs : Io.World.obs) ->
      let state =
        match state with
        | Fresh ->
            let cnf, _plant =
              Gen.planted rng ~num_vars:params.num_vars
                ~num_clauses:params.num_clauses ~clause_len:params.clause_len
            in
            Task { cnf; solved = false }
        | Task _ -> state
      in
      let state =
        match state with
        | Task ({ cnf; solved = false } as task) -> begin
            match Codec.assignment_opt ~num_vars:cnf.Cnf.num_vars obs.from_user with
            | Some a when Cnf.eval cnf a -> Task { task with solved = true }
            | _ -> state
          end
        | _ -> state
      in
      (state, Io.World.say_user (status_view state)))
    ~view:status_view

let solved_view = function
  | Msg.Pair (Msg.Text "solved", _) -> true
  | _ -> false

let referee =
  Referee.finite_exists "world-received-satisfying-assignment" solved_view

let goal ?(params = default_params) ~alphabet () =
  check_alphabet alphabet;
  Goal.make
    ~name:(Printf.sprintf "delegation(vars=%d)" params.num_vars)
    ~worlds:[ world ~params () ]
    ~referee

let formula_of_world_msg = function
  | Msg.Pair (Msg.Text _, cnf_msg) -> Codec.cnf_opt cnf_msg
  | _ -> None

(* Any Pair whose payload decodes as an assignment is treated as a
   candidate answer; the command symbol may be dialect-garbled, the
   payload is readable regardless. *)
let answer_of_server_msg ~num_vars = function
  | Msg.Pair (_, payload) -> Codec.assignment_opt ~num_vars payload
  | _ -> None

type phase =
  | Awaiting_task
  | Asked of { cnf : Cnf.t; waited : int }
  | Reporting of { cnf : Cnf.t; answer : Cnf.assignment }

let ask_patience = 6

let informed_user ~alphabet d =
  check_alphabet alphabet;
  let ask cnf =
    Io.User.say_server
      (Dialect_msg.encode d (Msg.Pair (Msg.Sym ask_cmd, Codec.cnf cnf)))
  in
  Strategy.make
    ~name:(Printf.sprintf "delegator@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> Awaiting_task)
    ~step:(fun _rng phase (obs : Io.User.obs) ->
      if solved_view obs.from_world then (phase, Io.User.halt_act)
      else begin
        match phase with
        | Awaiting_task -> begin
            match formula_of_world_msg obs.from_world with
            | Some cnf -> (Asked { cnf; waited = 0 }, ask cnf)
            | None -> (Awaiting_task, Io.User.silent)
          end
        | Asked { cnf; waited } -> begin
            match answer_of_server_msg ~num_vars:cnf.Cnf.num_vars obs.from_server with
            | Some a when Cnf.eval cnf a ->
                (* Verified: relay to the world. *)
                ( Reporting { cnf; answer = a },
                  Io.User.say_world (assignment_msg a) )
            | Some _ ->
                (* Caught a wrong answer: ask again. *)
                (Asked { cnf; waited = 0 }, ask cnf)
            | None ->
                if waited >= ask_patience then (Asked { cnf; waited = 0 }, ask cnf)
                else (Asked { cnf; waited = waited + 1 }, Io.User.silent)
          end
        | Reporting { answer; _ } ->
            (phase, Io.User.say_world (assignment_msg answer))
      end)

let user_class ~alphabet dialects =
  Enum.map
    ~name:(Printf.sprintf "delegators(%s)" (Enum.name dialects))
    (fun d -> informed_user ~alphabet d)
    dialects

(* Positive iff the formula is known and some event relayed a satisfying
   assignment to the world.  The delegation world broadcasts one fixed
   formula for the whole run, so the first formula seen IS the latest
   one; the incremental state is that formula (once decoded), a flag for
   a satisfying relay, and — until the formula arrives — the last
   [candidate_window] non-silent to_world messages, retro-checked the
   moment the formula is decoded (an assignment relayed just before the
   task was readable still counts).  The world shows the formula in
   round 2, so a served run has at most two candidates then; the window
   bounds what a run that never shows one keeps. *)
let candidate_window = 8

let sensing =
  let satisfies cnf m =
    match Codec.assignment_opt ~num_vars:cnf.Cnf.num_vars m with
    | Some a -> Cnf.eval cnf a
    | None -> false
  in
  Sensing.incremental ~name:"verified-answer-relayed"
    ~init:(fun () -> ((None, [], false), Sensing.Negative))
    ~step:(fun (formula, pre, sat) (e : View.event) ->
      let formula, pre, sat =
        match formula with
        | Some cnf -> (formula, pre, sat || satisfies cnf e.View.to_world)
        | None -> begin
            match formula_of_world_msg e.View.from_world with
            | Some cnf ->
                let sat = List.exists (satisfies cnf) (e.View.to_world :: pre) in
                (Some cnf, [], sat)
            | None when Msg.is_silence e.View.to_world -> (None, pre, sat)
            | None ->
                let pre = e.View.to_world :: pre in
                (None, Goalcom_prelude.Listx.take candidate_window pre, sat)
          end
      in
      let v =
        match formula with
        | Some _ when sat -> Sensing.Positive
        | _ -> Sensing.Negative
      in
      ((formula, pre, sat), v))

let bad_answers history =
  let formula =
    History.fold_rounds history ~init:None
      ~f:(fun acc (r : History.Round.t) ->
        match acc with
        | Some _ -> acc
        | None -> (
            match r.world_view with
            | Msg.Pair (Msg.Text _, cnf_msg) -> Codec.cnf_opt cnf_msg
            | _ -> None))
  in
  match formula with
  | None -> 0
  | Some cnf ->
      History.fold_rounds history ~init:0 ~f:(fun n (r : History.Round.t) ->
          match
            answer_of_server_msg ~num_vars:cnf.Cnf.num_vars r.server_to_user
          with
          | Some a -> if Cnf.eval cnf a then n else n + 1
          | None -> n)

let universal_user ?schedule ?checkpoint ?stats ~alphabet dialects =
  Universal.finite ?schedule ?checkpoint ?stats
    ~enum:(user_class ~alphabet dialects)
    ~sensing ()
