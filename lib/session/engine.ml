open Goalcom_prelude
open Goalcom
module Fault = Goalcom_faults.Fault
module Binary = Goalcom_obs.Binary

(* The supervised concurrent session engine.

   Thousands of live sessions multiplex over an event-driven scheduler:
   each scheduler *tick* steps every running session's Exec.Stepper by
   a quantum of rounds (in parallel over the domain pool), then makes
   all supervision decisions — admissions, restarts, wedge kills,
   breaker transitions — sequentially in session-id order.  Because
   the parallel part only advances state machines that nothing else
   touches, and every decision that consumes randomness or mutates
   shared state happens in the sequential phase in a fixed order, the
   whole run is bit-identical across jobs counts.

   Memory: sessions run Summary steppers, which keep no History — each
   round's world view goes into one live referee judge (Outcome.Live),
   so a running session's footprint does not grow with its horizon.
   At completion the engine reads the stepper's summary: the outcome,
   and the achieved view recorded as the session's goal state.

   Tracing: when a sink is installed, every session owns an arena —
   an append-only buffer of events in Goalcom_obs.Binary's encoding —
   and a count of the events it captured.  A capture sink, one per
   domain taking part in a tick, is installed around that domain's
   share of the quantum (and around each stepper's creation) and
   pointed at each session in turn; its offer makes Trace's typed
   emitters write each event's bytes straight into that session's
   arena, building no event.  The engine writes its own Supervise and
   Violation events there too.  The merged trace — arenas concatenated in
   session-id order — is replayed into the ambient sink at the end,
   so Trace.split_runs on one session's slice segments its
   incarnations exactly as it does for the crash-resume harness.  A
   sink that offers an encoded push (Ring.domain_sink) receives each
   event's bytes as they are; any other sink receives the decoded
   events.

   Retention: an offer also says the sink keeps only its last N
   events.  Then a session whose successors (higher ids) already hold
   N events can never reach the sink's retained tail — counts only
   grow — so at the end of each tick a watermark that only moves up
   releases the arenas below it, and a released session's capture
   only counts: its events are neither built nor encoded.  The
   watermark reads a running total of the events captured above it,
   kept where the captures happen, so a tick costs no walk over the
   sessions.  The replay [discard]s the released prefix's count and
   pushes the rest, which number at least N: the sink ends as if every
   event had been pushed, while the arenas hold at most the watermark
   session's events plus fewer than N above it, plus one tick's
   captures. *)

type spec = {
  sname : string;
  server_class : string;
  goal : Goal.t;
  make_user : checkpoint:Universal.checkpoint -> Strategy.user;
  server : Strategy.server;
  exec_config : Exec.config;
}

type group = {
  gname : string;
  members : int array;
  arbitrate :
    tick:int ->
    report:(session:int -> action:string -> detail:string -> unit) ->
    unit;
}

type config = {
  quantum : int;
  max_live : int;
  queue_capacity : int;
  arrivals : Arrival.t;
  classes : (string * int) list;
  round_budget : int;
  deadline : int;
  max_ticks : int;
  policy : Policy.t;
  breaker_threshold : int;
  breaker_cooldown : int;
}

let config ?(quantum = 32) ?(max_live = 64) ?(queue_capacity = 4096)
    ?arrivals_per_tick ?arrivals ?(classes = []) ?(round_budget = 0)
    ?(deadline = 0) ?(max_ticks = 10_000) ?(policy = Policy.default)
    ?(breaker_threshold = 5) ?(breaker_cooldown = 8) () =
  if quantum < 1 then invalid_arg "Engine.config: quantum must be >= 1";
  if max_ticks < 1 then invalid_arg "Engine.config: max_ticks must be >= 1";
  if round_budget < 0 || deadline < 0 then
    invalid_arg "Engine.config: negative budget/deadline";
  let arrivals =
    (* [?arrivals] wins; the integer knob is kept for callers predating
       rate processes (0 = everything at tick 1, as before). *)
    match (arrivals, arrivals_per_tick) with
    | Some a, _ -> a
    | None, None | None, Some 0 -> Arrival.Bang
    | None, Some k when k > 0 -> Arrival.Constant k
    | None, Some _ -> invalid_arg "Engine.config: negative arrivals"
  in
  {
    quantum;
    max_live;
    queue_capacity;
    arrivals;
    classes;
    round_budget;
    deadline;
    max_ticks;
    policy;
    breaker_threshold;
    breaker_cooldown;
  }

let default_config = config ()

type outcome =
  | Done of { rounds : int; incarnations : int; state : string }
  | Shed
  | Gave_up of { incarnations : int }
  | Deadline_exceeded of { incarnations : int }
  | Unfinished

let outcome_line id = function
  | Done { rounds; incarnations; state } ->
      Printf.sprintf "%d done rounds=%d inc=%d state=%s" id rounds incarnations
        state
  | Shed -> Printf.sprintf "%d shed" id
  | Gave_up { incarnations } -> Printf.sprintf "%d gave-up inc=%d" id incarnations
  | Deadline_exceeded { incarnations } ->
      Printf.sprintf "%d deadline inc=%d" id incarnations
  | Unfinished -> Printf.sprintf "%d unfinished" id

type report = {
  outcomes : outcome array;
  ticks : int;
  completed : int;
  shed : int;
  gave_up : int;
  deadlines : int;
  unfinished : int;
  restarts : int;
  trips : int;
  total_rounds : int;
  p50_rounds : float;
  p99_rounds : float;
  p999_rounds : float;
  digest : string;
  checkpoints : Universal.checkpoint array;
}

(* --- internal session state ------------------------------------------ *)

type phase =
  | Pending (* not yet arrived *)
  | Waiting (* in the admission queue *)
  | Running of Exec.Stepper.t
  | Backoff of { due : int }
  | Terminal of outcome

(* A traced session's events, encoded, and their count.  Once the
   retention watermark releases the session, [arena] is [None] and its
   captures only count. *)
type trace = { mutable arena : Trace_wire.enc option; mutable events : int }

let new_trace () = { arena = Some (Trace_wire.create 256); events = 0 }
let count t = t.events <- t.events + 1

(* The ambient sink while the engine steps sessions on one domain:
   installed once around the domain's share of a tick (or around one
   incarnation's start) and pointed at each session in turn.  Its
   offer's wire makes Trace's typed emitters write straight into the
   current session's arena, committing by counting; for a released
   session it only counts, so the event is neither built nor encoded.
   [sink] takes any event that still arrives built.  A session arena
   keeps every event ([retain] = [max_int]), so no producer can meet
   [discard]'s contract; it counts like [push]. *)
type capture = {
  mutable cur : trace;
  sink : Trace.sink;
  offer : Trace.encoded_sink;
  commit : int -> unit;
  counting : Trace.wire;
}

let new_capture () =
  let rec c =
    {
      cur = { arena = None; events = 0 };
      sink =
        (fun ev ->
          count c.cur;
          match c.cur.arena with Some a -> Binary.put_event a ev | None -> ());
      offer;
      commit = (fun _ -> count c.cur);
      counting = Trace.Count (fun () -> count c.cur);
    }
  and offer =
    {
      Trace.push =
        (fun b off len ->
          count c.cur;
          match c.cur.arena with
          | Some a -> Trace_wire.put_slice a b off len
          | None -> ());
      retain = max_int;
      discard = (fun k -> c.cur.events <- c.cur.events + k);
      wire = Trace.Count ignore;
    }
  in
  c

let point c t =
  c.cur <- t;
  c.offer.wire <-
    (match t.arena with
    | Some enc -> Trace.Write { enc; commit = c.commit }
    | None -> c.counting)

let with_capture c f = Trace.with_sink ~offer:c.offer c.sink f

(* Advance a stepper by up to [k] rounds; a run whose termination
   condition already holds finishes inside the quantum instead of
   paying a whole extra tick for the finalizing step. *)
let rec advance st k =
  if Exec.Stepper.finished st then ()
  else if Exec.Stepper.finishing st then ignore (Exec.Stepper.step st)
  else if k > 0 && Exec.Stepper.step st then advance st (k - 1)

type session = {
  id : int;
  spec : spec;
  rng : Rng.t; (* feeds every incarnation's stepper *)
  sup_rng : Rng.t; (* feeds backoff jitter *)
  checkpoint : Universal.checkpoint;
  fault : Fault.t; (* this session's chaos storm stack *)
  trace : trace option; (* [Some] iff the run is traced *)
  mutable phase : phase;
  mutable incarnations : int;
  mutable failures : int;
  mutable inc_rounds : int; (* rounds in the current incarnation *)
  mutable rounds_total : int; (* across incarnations *)
  mutable admitted_tick : int;
}

let run ?(chaos = Chaos.none) ?(config = default_config) ?jobs ?(groups = [])
    ?on_supervise ?on_tick ~specs ~seed () =
  let n = Array.length specs in
  List.iter
    (fun g ->
      if Array.length g.members = 0 then
        invalid_arg ("Engine.run: empty group " ^ g.gname);
      Array.iter
        (fun id ->
          if id < 0 || id >= n then
            invalid_arg ("Engine.run: group member out of range in " ^ g.gname))
        g.members)
    groups;
  let jobs =
    match jobs with Some j -> j | None -> Goalcom_par.Pool.default_jobs ()
  in
  let tracing = Trace.enabled () in
  (* The entry sink's encoded offer, and the retention it states (none
     for a sink that makes no offer: it receives every event). *)
  let offer = if tracing then Trace.encoded () else None in
  let retain = match offer with Some o -> o.Trace.retain | None -> max_int in
  let root = Rng.make seed in
  let sessions =
    Array.init n (fun id ->
        let sup_rng = Rng.split root in
        let rng = Rng.split root in
        {
          id;
          spec = specs.(id);
          rng;
          sup_rng;
          checkpoint = Universal.new_checkpoint ();
          fault = Chaos.stack_for chaos ~id;
          trace = (if tracing then Some (new_trace ()) else None);
          phase = Pending;
          incarnations = 0;
          failures = 0;
          inc_rounds = 0;
          rounds_total = 0;
          admitted_tick = 0;
        })
  in
  let adm =
    Admission.make ~classes:config.classes ~max_live:config.max_live
      ~queue_capacity:config.queue_capacity ()
  in
  let breakers : (string, Breaker.t) Hashtbl.t = Hashtbl.create 7 in
  let breaker_of s =
    match Hashtbl.find_opt breakers s.spec.server_class with
    | Some b -> b
    | None ->
        let b =
          Breaker.make ~threshold:config.breaker_threshold
            ~cooldown:config.breaker_cooldown ()
        in
        Hashtbl.add breakers s.spec.server_class b;
        b
  in
  let restarts = ref 0 in
  (* Sessions [0, !released) have had their arenas dropped.  Session
     [w] goes once the sessions above it hold [retain] events, which
     [above] keeps as a running total: every capture into a session
     above the watermark adds to it where it happens (the sequential
     phase's captures one by one, the quantum's as each shard's
     delta). *)
  let released = ref 0 in
  let above = ref 0 in
  let captured s k = if s.id > !released then above := !above + k in
  let events s = match s.trace with Some t -> t.events | None -> 0 in
  (* Every supervision decision goes to the observer hook (a live
     Rollup, typically) whether or not tracing is on — the hook is how
     serve reports fleet stats without retaining any trace — and into
     the session's trace buffer when it is.  Hooks run in the
     sequential phase in id order, so what they see is deterministic;
     they observe only, the run's outcomes and digest never depend on
     them. *)
  let sup s ~tick action detail =
    (match on_supervise with
    | Some f -> f ~tick ~session:s.id ~action ~detail
    | None -> ());
    match s.trace with
    | Some t ->
        Option.iter
          (fun a -> Trace_wire.supervise a ~tick ~session:s.id ~action ~detail)
          t.arena;
        count t;
        captured s 1
    | None -> ()
  in
  (* The capture of the sequential phase (incarnation starts). *)
  let seq_capture = if tracing then Some (new_capture ()) else None in
  let with_session_sink s f =
    match (s.trace, seq_capture) with
    | Some t, Some c ->
        point c t;
        with_capture c f
    | _ -> f ()
  in
  let emit_breaker_change s ~tick = function
    | None -> ()
    | Some Breaker.Tripped -> sup s ~tick "trip" s.spec.server_class
    | Some Breaker.Probing -> sup s ~tick "half-open" s.spec.server_class
    | Some Breaker.Reclosed -> sup s ~tick "close" s.spec.server_class
  in
  let start_incarnation s ~tick ~restarted =
    s.incarnations <- s.incarnations + 1;
    s.inc_rounds <- 0;
    if restarted then incr restarts;
    sup s ~tick
      (if restarted then "restart" else "start")
      (Printf.sprintf "incarnation %d" s.incarnations);
    let before = events s in
    with_session_sink s (fun () ->
        let user = s.spec.make_user ~checkpoint:s.checkpoint in
        let server = Fault.apply s.fault s.spec.server in
        let stepper =
          Exec.Stepper.create ~config:s.spec.exec_config
            ~retention:Exec.Stepper.Summary ~goal:s.spec.goal ~user ~server
            s.rng
        in
        s.phase <- Running stepper);
    captured s (events s - before)
  in
  (* Gate a (re)start through the class breaker; true = started. *)
  let try_begin s ~tick ~restarted =
    let ok, change = Breaker.allow (breaker_of s) ~tick in
    emit_breaker_change s ~tick change;
    if ok then start_incarnation s ~tick ~restarted;
    ok
  in
  (* A failed incarnation (wedge, kill, or unachieved run): feed the
     breaker, then either give up or schedule a backoff restart. *)
  let fail_incarnation s ~tick =
    s.failures <- s.failures + 1;
    emit_breaker_change s ~tick (Breaker.record_failure (breaker_of s) ~tick);
    if Policy.gives_up config.policy ~failures:s.failures then begin
      sup s ~tick "give-up" (Printf.sprintf "after %d failures" s.failures);
      s.phase <- Terminal (Gave_up { incarnations = s.incarnations });
      Admission.release adm
    end
    else begin
      let wait = Policy.backoff config.policy s.sup_rng ~attempt:s.failures in
      s.phase <- Backoff { due = tick + wait }
    end
  in
  (* [view] is the stepper's achieved view: the first world view whose
     prefix the goal's referee accepts.  For the monotone finite
     referees this is the view that achieved the goal — stable across
     restarts and scheduling, unlike the final view (worlds keep
     evolving after achievement: pages clear, agents wander).  It falls
     back to the last view when no prefix verdict is [`Ok] (compact
     referees judged at truncation). *)
  let succeed s ~tick view =
    emit_breaker_change s ~tick (Breaker.record_success (breaker_of s));
    let state = Msg.to_string view in
    sup s ~tick "done"
      (Printf.sprintf "rounds=%d incarnations=%d" s.rounds_total
         s.incarnations);
    s.phase <- Terminal (Done { rounds = s.rounds_total; incarnations = s.incarnations; state });
    Admission.release adm
  in
  let release_retired () =
    while !released < n && !above >= retain do
      Option.iter (fun t -> t.arena <- None) sessions.(!released).trace;
      incr released;
      if !released < n then above := !above - events sessions.(!released)
    done
  in
  let terminal s = match s.phase with Terminal _ -> true | _ -> false in
  let all_terminal () = Array.for_all terminal sessions in
  let next_arrival = ref 0 in
  (* Split after every per-session stream: runs whose arrival process
     draws nothing (Bang / Constant) keep their historical digests. *)
  let arrival_rng = Rng.split root in
  let arrival_state = Arrival.start config.arrivals in
  let tick = ref 0 in
  (* The running set of each tick, in id order.  Every Running session
     holds one of the [max_live] admission slots, so the buffer is
     allocated once. *)
  let running =
    if n = 0 then [||] else Array.make (min n config.max_live) sessions.(0)
  in
  (* One long-lived shard task per domain: oversubscribing domains
     past the hardware turns the minor-GC stop-the-world sync into
     pure overhead, so the pool width is clamped to the host (results
     are bit-identical for every width — only wall-clock changes). *)
  let width = max 1 (min jobs (Goalcom_par.Pool.hardware_jobs ())) in
  Goalcom_par.Pool.with_pool ~jobs:width (fun pool ->
      while (not (all_terminal ())) && !tick < config.max_ticks do
        incr tick;
        let tick = !tick in
        (* 1. chaos kills on running sessions *)
        Array.iter
          (fun s ->
            match s.phase with
            | Running _ when Chaos.kills_at chaos ~tick ~id:s.id ->
                sup s ~tick "kill" "chaos";
                fail_incarnation s ~tick
            | _ -> ())
          sessions;
        (* 2. due restarts (breaker-gated; blocked ones retry next tick) *)
        Array.iter
          (fun s ->
            match s.phase with
            | Backoff { due } when due <= tick ->
                ignore (try_begin s ~tick ~restarted:true)
            | _ -> ())
          sessions;
        (* 3. arrivals *)
        let batch =
          Arrival.draw config.arrivals arrival_state ~rng:arrival_rng ~tick
            ~remaining:(n - !next_arrival)
        in
        for _ = 1 to batch do
          if !next_arrival < n then begin
            let s = sessions.(!next_arrival) in
            incr next_arrival;
            s.admitted_tick <- tick;
            let admitted =
              Admission.has_capacity adm
              &&
              let ok, change = Breaker.allow (breaker_of s) ~tick in
              emit_breaker_change s ~tick change;
              ok
            in
            if admitted then begin
              Admission.claim adm;
              sup s ~tick "admit" "live";
              start_incarnation s ~tick ~restarted:false
            end
            else if Admission.enqueue adm ~cname:s.spec.server_class s.id
            then begin
              s.phase <- Waiting;
              sup s ~tick "admit" "queued"
            end
            else begin
              sup s ~tick "shed" "queue full";
              s.phase <- Terminal Shed
            end
          end
        done;
        (* 4. promote from the queues: weighted deficit round-robin
           over the admission classes; every leading terminal id is
           drained in one pass, and an open breaker blocks only its
           own class (see Admission). *)
        Admission.promote adm
          ~terminal:(fun id -> terminal sessions.(id))
          ~try_start:(fun id ->
            let s = sessions.(id) in
            if try_begin s ~tick ~restarted:false then begin
              Admission.claim adm;
              true
            end
            else false);
        (* 5. the parallel quantum, sharded: the runnable set is split
           into [width] contiguous id-range batches and each domain
           advances its whole shard for the quantum — one multi-
           millisecond task per domain instead of one sub-millisecond
           task per session, so the pool's per-task overhead stops
           dominating.  Shard boundaries cannot affect outcomes: a
           shard only advances steppers nothing else touches, trace
           events land in per-session buffers (replayed in id order),
           and the round-count bookkeeping is per-session too. *)
        let m = ref 0 in
        Array.iter
          (fun s ->
            match s.phase with
            | Running _ ->
                running.(!m) <- s;
                incr m
            | _ -> ())
          sessions;
        let m = !m in
        let shards = min m width in
        (* Each shard returns the events its sessions above the
           watermark captured; the watermark does not move during the
           quantum. *)
        let tasks =
          Array.init shards (fun k ->
              let lo = m * k / shards and hi = m * (k + 1) / shards in
              fun () ->
                let capture = if tracing then Some (new_capture ()) else None in
                let shard () =
                  let captured_above = ref 0 in
                  for i = lo to hi - 1 do
                    let s = running.(i) in
                    let st =
                      match s.phase with Running st -> st | _ -> assert false
                    in
                    let before = Exec.Stepper.rounds_executed st in
                    let events_before = events s in
                    (match (capture, s.trace) with
                    | Some c, Some t -> point c t
                    | _ -> ());
                    advance st config.quantum;
                    let delta = Exec.Stepper.rounds_executed st - before in
                    s.inc_rounds <- s.inc_rounds + delta;
                    s.rounds_total <- s.rounds_total + delta;
                    if s.id > !released then
                      captured_above :=
                        !captured_above + events s - events_before
                  done;
                  !captured_above
                in
                match capture with
                | Some c -> with_capture c shard
                | None -> shard ())
        in
        Array.iter
          (fun d -> above := !above + d)
          (Goalcom_par.Pool.run pool tasks);
        (* 6a. group arbiters: one slot per tick per live group.  The
           parallel quantum only staged per-member state (each member
           touches its own cells); everything cross-member — winner
           selection, collision feedback, delivery grants — happens
           here on the supervising domain, in group list order, before
           any verdict is made.  Reports funnel into the supervise
           stream attributed to the member session, so rollups see
           deliveries and collisions like any other decision.  A group
           whose members are all terminal stops arbitrating (its slot
           clock freezes with its last live member). *)
        List.iter
          (fun g ->
            if Array.exists (fun id -> not (terminal sessions.(id))) g.members
            then
              g.arbitrate ~tick
                ~report:(fun ~session ~action ~detail ->
                  sup sessions.(session) ~tick action detail))
          groups;
        (* 6b. sequential supervision, id order *)
        Array.iter
          (fun s ->
            (match s.phase with
            | Running st when Exec.Stepper.finished st ->
                let outcome, view = Exec.Stepper.summary st in
                (match s.trace with
                | Some t ->
                    List.iter
                      (fun round ->
                        Option.iter (fun a -> Trace_wire.violation a ~round) t.arena;
                        count t;
                        captured s 1)
                      outcome.Outcome.violation_rounds
                | None -> ());
                if outcome.Outcome.achieved then succeed s ~tick view
                else begin
                  sup s ~tick "fail"
                    (Printf.sprintf "unachieved after %d rounds" s.inc_rounds);
                  fail_incarnation s ~tick
                end
            | Running _
              when config.round_budget > 0
                   && s.inc_rounds >= config.round_budget ->
                sup s ~tick "wedge"
                  (Printf.sprintf "budget %d rounds" config.round_budget);
                fail_incarnation s ~tick
            | _ -> ());
            (* deadlines apply to everything submitted and unfinished *)
            match s.phase with
            | (Waiting | Running _ | Backoff _)
              when config.deadline > 0
                   && tick - s.admitted_tick >= config.deadline ->
                sup s ~tick "deadline"
                  (Printf.sprintf "after %d ticks" (tick - s.admitted_tick));
                (match s.phase with
                | Running _ | Backoff _ -> Admission.release adm
                | _ -> ());
                s.phase <-
                  Terminal (Deadline_exceeded { incarnations = s.incarnations })
            | _ -> ())
          sessions;
        if retain < max_int then release_retired ();
        match on_tick with Some f -> f ~tick | None -> ()
      done);
  (* Anything still live when the tick budget ran out. *)
  Array.iter
    (fun s -> if not (terminal s) then s.phase <- Terminal Unfinished)
    sessions;
  let outcomes =
    Array.map
      (fun s ->
        match s.phase with Terminal o -> o | _ -> assert false)
      sessions
  in
  (* Replay the merged trace — session arenas in id order — into the
     ambient sink that was installed when the engine was entered: the
     released prefix as one [discard], then every kept arena. *)
  if tracing then begin
    let replay =
      match offer with
      | Some o ->
          let dropped = ref 0 in
          for i = 0 to !released - 1 do
            dropped := !dropped + events sessions.(i)
          done;
          if !dropped > 0 then o.Trace.discard !dropped;
          fun b len ->
            let rec go p =
              if p < len then begin
                let q = Binary.skip_event b p in
                o.Trace.push b p (q - p);
                go q
              end
            in
            go 0
      | None -> Binary.iter (Trace.handle_emit (Trace.handle ()))
    in
    Array.iter
      (fun s ->
        match s.trace with
        | Some { arena = Some a; _ } -> replay (Trace_wire.bytes a) (Trace_wire.length a)
        | _ -> ())
      sessions
  end;
  let count f = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 outcomes in
  let completed = count (function Done _ -> true | _ -> false) in
  let done_rounds =
    Array.to_list outcomes
    |> List.filter_map (function
         | Done { rounds; _ } -> Some (float_of_int rounds)
         | _ -> None)
  in
  let trips = Hashtbl.fold (fun _ b acc -> acc + Breaker.trips b) breakers 0 in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (Array.to_list (Array.mapi outcome_line outcomes))))
  in
  {
    outcomes;
    ticks = !tick;
    completed;
    shed = count (function Shed -> true | _ -> false);
    gave_up = count (function Gave_up _ -> true | _ -> false);
    deadlines = count (function Deadline_exceeded _ -> true | _ -> false);
    unfinished = count (function Unfinished -> true | _ -> false);
    restarts = !restarts;
    trips;
    total_rounds =
      Array.fold_left (fun acc s -> acc + s.rounds_total) 0 sessions;
    p50_rounds = (if done_rounds = [] then 0. else Stats.percentile 50. done_rounds);
    p99_rounds = (if done_rounds = [] then 0. else Stats.percentile 99. done_rounds);
    p999_rounds =
      (if done_rounds = [] then 0. else Stats.percentile 99.9 done_rounds);
    digest;
    checkpoints = Array.map (fun s -> s.checkpoint) sessions;
  }
