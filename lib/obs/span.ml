open Goalcom
open Goalcom_prelude

(* Attribution: fold an event stream into per-candidate-index spans.

   The universal constructions announce their enumeration moves in the
   trace — Switch (compact), Session (Levin/finite), Resume (checkpoint
   restore) — and everything between two such moves is work performed
   by one enumerated candidate strategy.  The fold charges each round,
   message and sensing verdict to the candidate in charge, which makes
   the "essentially necessary" overhead of Theorem 1 a measured
   quantity: the rounds burnt on candidates that did not end up winning
   the run.

   Charging discipline (event order within a round is Round_start,
   Sense, Switch/Session, Emits, Halt):
   - a Sense verdict is charged to the candidate it judged — the one in
     charge when the verdict was emitted, i.e. before any switch it
     triggers;
   - the round itself (and its messages) is charged to the candidate
     that actually acted in it, i.e. after the switches of that round
     settled.  So a switching round costs the incoming candidate a
     round and the outgoing candidate a negative verdict.
   Every Round_start is charged to exactly one span, so per-candidate
   rounds sum to the run total (Run_end.rounds). *)

(* Symbols-on-the-wire weight of a message: atoms count 1, texts their
   length, silence nothing.  This is the per-round channel usage the
   paper's overhead statements are about (number of symbols exchanged),
   not an OCaml heap size. *)
let rec msg_weight = function
  | Msg.Silence -> 0
  | Msg.Sym _ | Msg.Int _ -> 1
  | Msg.Text s -> String.length s
  | Msg.Pair (a, b) -> msg_weight a + msg_weight b
  | Msg.Seq ms -> List.fold_left (fun acc m -> acc + msg_weight m) 0 ms

type span = {
  index : int option;
  first_round : int;
  last_round : int;
  rounds : int;
  sessions : int;
  retries : int;
  user_msgs : int;
  server_msgs : int;
  world_msgs : int;
  wire_symbols : int;
  senses : int;
  negatives : int;
  faults : int;
}

type run = {
  goal : string;
  user : string;
  server : string;
  horizon : int;
  drain : int;
  world_choice : int;
  spans : span list;
  rounds : int;
  halted : bool;
  violations : int;
  winner : int option;
}

let empty_span index =
  {
    index;
    first_round = 0;
    last_round = 0;
    rounds = 0;
    sessions = 0;
    retries = 0;
    user_msgs = 0;
    server_msgs = 0;
    world_msgs = 0;
    wire_symbols = 0;
    senses = 0;
    negatives = 0;
    faults = 0;
  }

(* Merge [a]'s counters into [b] (used when a zero-round placeholder
   span dissolves into the span that follows it). *)
let absorb a b =
  {
    b with
    sessions = b.sessions + a.sessions;
    retries = b.retries + a.retries;
    user_msgs = b.user_msgs + a.user_msgs;
    server_msgs = b.server_msgs + a.server_msgs;
    world_msgs = b.world_msgs + a.world_msgs;
    wire_symbols = b.wire_symbols + a.wire_symbols;
    senses = b.senses + a.senses;
    negatives = b.negatives + a.negatives;
    faults = b.faults + a.faults;
  }

type fold = {
  mutable f_goal : string;
  mutable f_user : string;
  mutable f_server : string;
  mutable f_horizon : int;
  mutable f_drain : int;
  mutable f_world_choice : int;
  mutable f_open : span;
  mutable f_saw_boundary : bool;  (* any Switch/Session/Resume yet? *)
  mutable f_spans_rev : span list;
  mutable f_pending : int;  (* round awaiting charge; 0 = none *)
  mutable f_rounds : int;
  mutable f_halted : bool;
  mutable f_violations : int;
  mutable f_run_end_rounds : int option;
}

let new_fold () =
  {
    f_goal = "?";
    f_user = "?";
    f_server = "?";
    f_horizon = 0;
    f_drain = 0;
    f_world_choice = 0;
    f_open = empty_span None;
    f_saw_boundary = false;
    f_spans_rev = [];
    f_pending = 0;
    f_rounds = 0;
    f_halted = false;
    f_violations = 0;
    f_run_end_rounds = None;
  }

let flush_pending f =
  if f.f_pending > 0 then begin
    let s = f.f_open in
    f.f_open <-
      {
        s with
        first_round = (if s.rounds = 0 then f.f_pending else s.first_round);
        last_round = f.f_pending;
        rounds = s.rounds + 1;
      };
    f.f_rounds <- f.f_rounds + 1;
    f.f_pending <- 0
  end

(* Close the open span and start one for candidate [index].  The round
   in flight, if any, stays pending: it belongs to the new span.  A
   zero-round open span dissolves into its successor — it only ever
   held the bootstrap verdict emitted before the first session. *)
let boundary f ~index ~sessions ~retries =
  let prev = f.f_open in
  let fresh =
    { (empty_span (Some index)) with sessions; retries }
  in
  if prev.rounds = 0 then f.f_open <- absorb prev fresh
  else begin
    f.f_spans_rev <- prev :: f.f_spans_rev;
    f.f_open <- fresh
  end

let observe f (ev : Trace.event) =
  match ev with
  | Trace.Run_start { goal; user; server; horizon; drain; world_choice } ->
      f.f_goal <- goal;
      f.f_user <- user;
      f.f_server <- server;
      f.f_horizon <- horizon;
      f.f_drain <- drain;
      f.f_world_choice <- world_choice
  | Trace.Round_start { round } ->
      flush_pending f;
      f.f_pending <- round
  | Trace.Emit { src; msg; _ } -> begin
      let s = f.f_open in
      let w = msg_weight msg in
      match src with
      | Trace.User ->
          f.f_open <-
            { s with user_msgs = s.user_msgs + 1; wire_symbols = s.wire_symbols + w }
      | Trace.Server ->
          f.f_open <-
            {
              s with
              server_msgs = s.server_msgs + 1;
              wire_symbols = s.wire_symbols + w;
            }
      | Trace.World ->
          f.f_open <-
            {
              s with
              world_msgs = s.world_msgs + 1;
              wire_symbols = s.wire_symbols + w;
            }
    end
  | Trace.Halt _ -> f.f_halted <- true
  | Trace.Sense { positive; _ } ->
      let s = f.f_open in
      f.f_open <-
        {
          s with
          senses = s.senses + 1;
          negatives = (s.negatives + if positive then 0 else 1);
        }
  | Trace.Switch { from_index; to_index; attempt; _ } ->
      (* The compact construction starts silently on some index; its
         identity only becomes visible at the first switch, whose
         [from_index] retroactively names the span in progress. *)
      if (not f.f_saw_boundary) && f.f_open.index = None then
        f.f_open <- { f.f_open with index = Some from_index };
      f.f_saw_boundary <- true;
      boundary f ~index:to_index ~sessions:0
        ~retries:(if from_index = to_index then attempt else 0)
  | Trace.Session { index; _ } ->
      f.f_saw_boundary <- true;
      boundary f ~index ~sessions:1 ~retries:0
  | Trace.Resume { index; _ } ->
      f.f_saw_boundary <- true;
      boundary f ~index ~sessions:0 ~retries:0
  | Trace.Fault _ -> f.f_open <- { f.f_open with faults = f.f_open.faults + 1 }
  | Trace.Violation _ -> f.f_violations <- f.f_violations + 1
  | Trace.Run_end { rounds; halted } ->
      flush_pending f;
      f.f_run_end_rounds <- Some rounds;
      f.f_halted <- f.f_halted || halted
  (* Supervision decisions sit between runs; they carry no strategy
     attribution, so span accounting ignores them. *)
  | Trace.Supervise _ -> ()
  (* Warm-start decisions precede the run; nothing to attribute. *)
  | Trace.Warm _ -> ()

let finish f =
  flush_pending f;
  let spans =
    let s = f.f_open in
    if s.rounds = 0 && s.sessions = 0 && s.retries = 0 && s.senses = 0
       && s.user_msgs = 0 && s.server_msgs = 0 && s.world_msgs = 0
       && s.faults = 0
    then List.rev f.f_spans_rev
    else List.rev (s :: f.f_spans_rev)
  in
  let winner =
    if not f.f_halted then None
    else
      match List.rev spans with last :: _ -> last.index | [] -> None
  in
  {
    goal = f.f_goal;
    user = f.f_user;
    server = f.f_server;
    horizon = f.f_horizon;
    drain = f.f_drain;
    world_choice = f.f_world_choice;
    spans;
    rounds = Option.value f.f_run_end_rounds ~default:f.f_rounds;
    halted = f.f_halted;
    violations = f.f_violations;
    winner;
  }

let run_of_events events =
  let f = new_fold () in
  List.iter (observe f) events;
  finish f

let of_events events = List.map run_of_events (Trace.split_runs events)

(* The per-candidate ledger, aggregated across a batch of runs. *)

type candidate = {
  cand_index : int option;
  cand_spans : int;
  cand_sessions : int;
  cand_retries : int;
  cand_rounds : int;
  cand_user_msgs : int;
  cand_server_msgs : int;
  cand_world_msgs : int;
  cand_wire_symbols : int;
  cand_senses : int;
  cand_negatives : int;
  cand_faults : int;
  cand_wins : int;
}

type ledger = {
  runs : int;
  halted_runs : int;
  total_rounds : int;
  winning_rounds : int;
  wasted_rounds : int;
  candidates : candidate list;
}

let empty_candidate index =
  {
    cand_index = index;
    cand_spans = 0;
    cand_sessions = 0;
    cand_retries = 0;
    cand_rounds = 0;
    cand_user_msgs = 0;
    cand_server_msgs = 0;
    cand_world_msgs = 0;
    cand_wire_symbols = 0;
    cand_senses = 0;
    cand_negatives = 0;
    cand_faults = 0;
    cand_wins = 0;
  }

let ledger runs =
  let tbl = Hashtbl.create 16 in
  let get index =
    match Hashtbl.find_opt tbl index with
    | Some c -> c
    | None -> empty_candidate index
  in
  let total_rounds = ref 0 and winning_rounds = ref 0 in
  let halted_runs = ref 0 in
  List.iter
    (fun r ->
      if r.halted then incr halted_runs;
      total_rounds := !total_rounds + r.rounds;
      List.iter
        (fun (s : span) ->
          if r.winner <> None && s.index = r.winner then
            winning_rounds := !winning_rounds + s.rounds;
          let c = get s.index in
          Hashtbl.replace tbl s.index
            {
              c with
              cand_spans = c.cand_spans + 1;
              cand_sessions = c.cand_sessions + s.sessions;
              cand_retries = c.cand_retries + s.retries;
              cand_rounds = c.cand_rounds + s.rounds;
              cand_user_msgs = c.cand_user_msgs + s.user_msgs;
              cand_server_msgs = c.cand_server_msgs + s.server_msgs;
              cand_world_msgs = c.cand_world_msgs + s.world_msgs;
              cand_wire_symbols = c.cand_wire_symbols + s.wire_symbols;
              cand_senses = c.cand_senses + s.senses;
              cand_negatives = c.cand_negatives + s.negatives;
              cand_faults = c.cand_faults + s.faults;
            })
        r.spans;
      match r.winner with
      | Some _ ->
          let c = get r.winner in
          Hashtbl.replace tbl r.winner { c with cand_wins = c.cand_wins + 1 }
      | None -> ())
    runs;
  let candidates =
    Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
    |> List.sort (fun a b ->
           match (a.cand_index, b.cand_index) with
           | None, None -> 0
           | None, Some _ -> 1
           | Some _, None -> -1
           | Some i, Some j -> compare i j)
  in
  {
    runs = List.length runs;
    halted_runs = !halted_runs;
    total_rounds = !total_rounds;
    winning_rounds = !winning_rounds;
    wasted_rounds = !total_rounds - !winning_rounds;
    candidates;
  }

let ledger_of_events events = ledger (of_events events)

(* Table renderings, shared by the CLI and the experiment docs. *)

let index_cell = function None -> "-" | Some i -> string_of_int i

let ledger_table l =
  let rows =
    List.map
      (fun c ->
        [
          index_cell c.cand_index;
          Table.cell_int c.cand_spans;
          Table.cell_int c.cand_sessions;
          Table.cell_int c.cand_retries;
          Table.cell_int c.cand_rounds;
          Table.cell_int (c.cand_user_msgs + c.cand_server_msgs + c.cand_world_msgs);
          Table.cell_int c.cand_wire_symbols;
          Table.cell_int c.cand_senses;
          Table.cell_int c.cand_negatives;
          Table.cell_int c.cand_faults;
          Table.cell_int c.cand_wins;
        ])
      l.candidates
  in
  Table.make ~title:"overhead ledger (per candidate index)"
    ~columns:
      [
        "index"; "spans"; "sessions"; "retries"; "rounds"; "msgs";
        "wire syms"; "senses"; "negative"; "faults"; "wins";
      ]
    ~notes:
      [
        Printf.sprintf "runs %d (halted %d)" l.runs l.halted_runs;
        Printf.sprintf
          "rounds total %d = winning %d + wasted %d (enumeration overhead \
           %.1f%%)"
          l.total_rounds l.winning_rounds l.wasted_rounds
          (if l.total_rounds = 0 then 0.
           else 100. *. float_of_int l.wasted_rounds /. float_of_int l.total_rounds);
      ]
    rows

(* Per-session attribution over an engine trace.

   The engine replays each session's buffered events contiguously in
   session-id order: Supervise decisions (admit, start, restart, kill,
   done, ...) interleaved with the session's incarnations' run events.
   Every run event belongs to the session of the most recent Supervise
   event — the engine emits "admit" before anything else a session
   does — so a single pass reassembles per-session slices, and
   split_runs on a slice segments its incarnations exactly as for a
   single crash-resume run.  Each incarnation keeps the enumeration
   index its checkpoint restored (the Resume event the universal user
   emits when resuming mid-enumeration), linking the supervise timeline
   to the enumeration ladder: which candidate a restart came back to,
   and which incarnation finally won. *)

type incarnation = {
  inc_number : int;  (* 1-based, in start order *)
  inc_resumed_at : int option;  (* Resume.index, None for a cold start *)
  inc_run : run;
}

type session_span = {
  sess_id : int;
  sess_admit_tick : int option;
  sess_outcome : (string * int) option;  (* terminal action, tick *)
  sess_restarts : int;
  sess_kills : int;
  sess_rounds : int;  (* over all incarnations *)
  sess_incarnations : incarnation list;
}

let session_of_slice id (supervises, events) =
  let admit = ref None and outcome = ref None in
  let restarts = ref 0 and kills = ref 0 in
  List.iter
    (fun (tick, action) ->
      match action with
      | "admit" -> if !admit = None then admit := Some tick
      | "restart" -> incr restarts
      | "kill" -> incr kills
      | "done" | "give-up" | "deadline" | "shed" ->
          outcome := Some (action, tick)
      | _ -> ())
    supervises;
  let incarnations =
    List.mapi
      (fun i segment ->
        {
          inc_number = i + 1;
          inc_resumed_at =
            List.find_map
              (function Trace.Resume { index; _ } -> Some index | _ -> None)
              segment;
          inc_run = run_of_events segment;
        })
      (if events = [] then [] else Trace.split_runs events)
  in
  {
    sess_id = id;
    sess_admit_tick = !admit;
    sess_outcome = !outcome;
    sess_restarts = !restarts;
    sess_kills = !kills;
    sess_rounds =
      List.fold_left (fun acc i -> acc + i.inc_run.rounds) 0 incarnations;
    sess_incarnations = incarnations;
  }

let sessions_of_events events =
  let slices = Hashtbl.create 64 in
  let order = ref [] in
  let slice id =
    match Hashtbl.find_opt slices id with
    | Some s -> s
    | None ->
        let s = (ref [], ref []) in
        Hashtbl.add slices id s;
        order := id :: !order;
        s
  in
  let current = ref None in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Supervise { tick; session; action; _ } ->
          current := Some session;
          let sups, _ = slice session in
          sups := (tick, action) :: !sups
      | ev -> begin
          match !current with
          | None -> () (* a bare run stream: nothing to attribute to *)
          | Some id ->
              let _, evs = slice id in
              evs := ev :: !evs
        end)
    events;
  List.rev_map
    (fun id ->
      let sups, evs = Hashtbl.find slices id in
      session_of_slice id (List.rev !sups, List.rev !evs))
    !order
  |> List.sort (fun a b -> compare a.sess_id b.sess_id)

let sessions_table sessions =
  let rows =
    List.map
      (fun s ->
        let outcome, tick =
          match s.sess_outcome with
          | Some (action, tick) -> (action, Table.cell_int tick)
          | None -> ("unfinished", "-")
        in
        let resumes =
          s.sess_incarnations
          |> List.filter_map (fun i -> i.inc_resumed_at)
          |> List.map string_of_int
          |> String.concat ","
        in
        let winner =
          match List.rev s.sess_incarnations with
          | last :: _ -> index_cell last.inc_run.winner
          | [] -> "-"
        in
        [
          Table.cell_int s.sess_id;
          (match s.sess_admit_tick with
          | Some t -> Table.cell_int t
          | None -> "-");
          outcome;
          tick;
          Table.cell_int (List.length s.sess_incarnations);
          Table.cell_int s.sess_restarts;
          Table.cell_int s.sess_kills;
          Table.cell_int s.sess_rounds;
          (if resumes = "" then "-" else resumes);
          winner;
        ])
      sessions
  in
  Table.make ~title:"sessions (per-incarnation attribution)"
    ~columns:
      [
        "session"; "admit"; "outcome"; "tick"; "incarnations"; "restarts";
        "kills"; "rounds"; "resumed at"; "winner";
      ]
    rows

let runs_table runs =
  let rows =
    List.mapi
      (fun i (r : run) ->
        [
          Table.cell_int (i + 1);
          r.goal;
          Table.cell_int r.rounds;
          (if r.halted then "yes" else "no");
          index_cell r.winner;
          Table.cell_int (List.length r.spans);
          Table.cell_int r.violations;
        ])
      runs
  in
  Table.make ~title:"runs" ~columns:
    [ "run"; "goal"; "rounds"; "halted"; "winner"; "spans"; "violations" ]
    rows
