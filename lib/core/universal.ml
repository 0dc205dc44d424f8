open Goalcom_automata

type stats = {
  mutable switches : int;
  mutable sessions : int;
  mutable current_index : int;
  mutable settled_round : int;
}

let new_stats () =
  { switches = 0; sessions = 0; current_index = 0; settled_round = 0 }

let reset_stats s =
  s.switches <- 0;
  s.sessions <- 0;
  s.current_index <- 0;
  s.settled_round <- 0

(* Enumeration progress that outlives the strategy instance.  A crash
   (of the user process, or a harness-level restart after a server
   crash) re-runs [init]; with a checkpoint the fresh instance resumes
   the enumeration where the previous one left off instead of paying
   the whole enumeration overhead again from index 0. *)
type checkpoint = { mutable saved_index : int; mutable saved_slots : int }

let new_checkpoint () = { saved_index = 0; saved_slots = 0 }

(* Memoised cyclic enumeration access: a growable array keyed by the effective
   (cardinality-reduced) index, so wrap-around passes and retries stop
   re-running the enumeration's constructor chain every switch.  One
   memo per strategy *instance* (created in [init]), never shared —
   strategy values are shared across domains by [Trial.run_par], so a
   cache living in the closure would race. *)
type 'a memo = { m_enum : 'a Enum.t; mutable m_cache : 'a option array }

let memo_create enum = { m_enum = enum; m_cache = [||] }

let memo_get m i =
  let key =
    match Enum.cardinality m.m_enum with
    | Some 0 -> invalid_arg "Universal: empty strategy enumeration"
    | Some c -> i mod c
    | None -> i
  in
  let n = Array.length m.m_cache in
  if key >= n then begin
    let grown = Array.make (max 8 (max (key + 1) (2 * n))) None in
    Array.blit m.m_cache 0 grown 0 n;
    m.m_cache <- grown
  end;
  match m.m_cache.(key) with
  | Some s -> s
  | None ->
      let s =
        match Enum.get m.m_enum key with
        | Some s -> s
        | None -> invalid_arg "Universal: enumeration ran out of strategies"
      in
      m.m_cache.(key) <- Some s;
      s

(* Updated in place: one record per instance, built by [init]. *)
type ('strat, 'inst) compact_state = {
  c_memo : 'strat memo;
  mutable c_index : int;
  mutable c_inst : 'inst;
  c_sense : Sensing.state;  (* has absorbed every completed round *)
  mutable c_pending : bool;
      (* a round awaits sensing: [c_ev]; its [from_world] is also the
         previous world observation the wedge detector compares
         against *)
  c_ev : View.event;  (* refilled in place at the end of every step *)
  mutable c_rounds_in : int;  (* rounds the current strategy has run *)
  mutable c_attempt : int;  (* retries already spent on the current index *)
  mutable c_grace : int;
      (* memoized [effective_grace c_index c_attempt] — recomputed only
         when index or attempt change, so the per-round path (patience
         check, Sense event) skips the cardinality division *)
  mutable c_stall : int;  (* consecutive rounds without world-view progress *)
}

let compact ?(grace = 1) ?(growth = `Doubling) ?(retries = 0) ?wedge_after
    ?checkpoint ?stats ~enum ~sensing () =
  if grace < 0 then invalid_arg "Universal.compact: negative grace";
  if retries < 0 then invalid_arg "Universal.compact: negative retries";
  (match wedge_after with
  | Some w when w <= 0 ->
      invalid_arg "Universal.compact: wedge_after must be positive"
  | _ -> ());
  (match Enum.cardinality enum with
  | Some 0 -> invalid_arg "Universal.compact: empty strategy enumeration"
  | _ -> ());
  (* With [`Doubling], patience grows geometrically with each full pass
     over a finite class.  Needed for convergence: after adopting the
     right strategy the system may need a recovery period during which
     sensing is still negative (e.g. steering a plant back into range);
     constant patience would evict the right strategy forever, whereas
     doubling patience eventually covers any bounded recovery time —
     this realises the growing time allowance of the full version's
     construction.  [`Constant] keeps patience fixed; it exists for the
     ablation experiment that demonstrates why the growth matters.

     On top of either growth, each retry of the {e same} index (see
     [retries]) doubles the patience again — exponential backoff, so a
     strategy evicted by a transient fault is re-tried with enough
     room to outlast the fault before the enumeration moves on. *)
  let effective_grace index attempt =
    let base =
      match growth with
      | `Constant -> grace
      | `Doubling -> begin
          match Enum.cardinality enum with
          | Some card when card > 0 ->
              let wraps = min (index / card) 20 in
              grace * (1 lsl wraps)
          | _ -> grace
        end
    in
    base * (1 lsl min attempt 20)
  in
  let module I = Strategy.Instance in
  Strategy.make_inplace
    ~name:(Printf.sprintf "universal-compact(%s;%s)" (Enum.name enum) sensing.Sensing.name)
    ~init:(fun () ->
      Option.iter reset_stats stats;
      let memo = memo_create enum in
      let start =
        match checkpoint with Some c -> c.saved_index | None -> 0
      in
      Option.iter (fun s -> s.current_index <- start) stats;
      if start > 0 then
        Trace.emit_resume (Trace.handle ()) ~index:start ~slots:0;
      {
        c_memo = memo;
        c_index = start;
        c_inst = I.create (memo_get memo start);
        c_sense = Sensing.start sensing;
        c_pending = false;
        c_ev = View.empty ();
        c_rounds_in = 0;
        c_attempt = 0;
        c_grace = effective_grace start 0;
        c_stall = 0;
      })
    ~step:(fun rng state (obs : Io.User.obs) ->
      if state.c_pending then ignore (Sensing.observe state.c_sense state.c_ev);
      let verdict =
        if not state.c_pending then Sensing.Positive (* nothing to judge yet *)
        else Sensing.verdict state.c_sense
      in
      (* One handle fetch per round: it guards this emission and, when
         a negative verdict switches, the one below. *)
      let h = Trace.handle () in
      Trace.emit_sense h ~round:obs.Io.User.round ~sensor:sensing.Sensing.name
        ~positive:(verdict = Sensing.Positive) ~clock:state.c_rounds_in
        ~patience:state.c_grace;
      (* Wedge detection: a frozen from_world stream means the current
         strategy is not moving the world at all (e.g. the server
         crashed or went silent mid-session); once the stall outlasts
         the wedge window we force re-enumeration immediately instead
         of spinning out the remaining grace. *)
      let stall =
        if
          state.c_pending
          && Msg.equal state.c_ev.View.from_world obs.Io.User.from_world
        then state.c_stall + 1
        else 0
      in
      let wedged =
        match wedge_after with Some w -> stall >= w | None -> false
      in
      state.c_stall <- stall;
      if
        verdict = Sensing.Negative
        && (state.c_rounds_in >= state.c_grace || wedged)
      then begin
        if (not wedged) && state.c_attempt < retries then begin
          (* Retry the same index from scratch with doubled patience
             before giving up on it. *)
          Trace.emit_switch h ~round:obs.Io.User.round
            ~from_index:state.c_index ~to_index:state.c_index
            ~attempt:(state.c_attempt + 1);
          state.c_attempt <- state.c_attempt + 1;
          state.c_grace <- effective_grace state.c_index state.c_attempt
        end
        else begin
          let index = state.c_index + 1 in
          Trace.emit_switch h ~round:obs.Io.User.round
            ~from_index:state.c_index ~to_index:index ~attempt:0;
          Option.iter
            (fun s ->
              s.switches <- s.switches + 1;
              s.current_index <- index;
              s.settled_round <- obs.Io.User.round)
            stats;
          Option.iter (fun c -> c.saved_index <- index) checkpoint;
          state.c_index <- index;
          state.c_attempt <- 0;
          state.c_grace <- effective_grace index 0
        end;
        state.c_inst <- I.create (memo_get state.c_memo state.c_index);
        state.c_rounds_in <- 0;
        state.c_stall <- 0
      end;
      let act = Io.User.unhalted (I.step rng state.c_inst obs) in
      state.c_pending <- true;
      View.fill state.c_ev obs act;
      state.c_rounds_in <- state.c_rounds_in + 1;
      act)

(* ---- The multicore Levin racer ---------------------------------- *)

type race = {
  winner_slot : int;
  winner_index : int;
  winner_budget : int;
  winner_rounds : int;
  slots_probed : int;
  history : History.t;
}

let finite_par ?schedule ?(max_slots = 64) ?jobs ?pool ?config ~enum ~sensing
    ~goal ~server ~seed () =
  (match Enum.cardinality enum with
  | Some 0 -> invalid_arg "Universal.finite_par: empty strategy enumeration"
  | _ -> ());
  if max_slots <= 0 then
    invalid_arg "Universal.finite_par: max_slots must be positive";
  (match jobs with
  | Some j when j <= 0 ->
      invalid_arg "Universal.finite_par: jobs must be positive"
  | _ -> ());
  let sched =
    match schedule with Some s -> s | None -> Levin.schedule ()
  in
  let slots = Array.of_seq (Seq.take max_slots sched) in
  let n = Array.length slots in
  if n = 0 then invalid_arg "Universal.finite_par: empty schedule";
  (* Determinism: one generator per probe, split from the master in
     slot order before any work is distributed (explicit loop —
     Array.init evaluation order is unspecified). *)
  let master = Goalcom_prelude.Rng.make seed in
  let rngs = Array.make n master in
  for i = 0 to n - 1 do
    rngs.(i) <- Goalcom_prelude.Rng.split master
  done;
  (* The winner is the *minimal* schedule slot whose probe senses
     positive — the slot the sequential schedule would have stopped at.
     [best] only ever decreases (min-CAS), and only positive probes
     write it, so a probe at slot [i] may be cancelled only when a
     positive slot [< i] is already known: the true winner can never be
     cancelled, which makes the outcome independent of domain
     scheduling. *)
  let best = Atomic.make max_int in
  let module I = Strategy.Instance in
  (* Candidates are resolved sequentially before any task is spawned:
     [Enum.get] is pure, so this changes no behaviour, and it keeps the
     domains from re-walking the enumeration (or sharing a memo).  The
     resolution itself goes through a memo: Levin schedules revisit the
     same index in every phase (index 0 appears in all of them), so
     without it a 64-slot race decodes candidate 0 eleven times.  With
     it, no candidate is ever decoded twice within a race — and when
     the enumeration is itself cache-backed (a class wrapped in
     [Enum.cached]), not twice per process. *)
  let memo = memo_create enum in
  let candidates =
    Array.map (fun slot -> memo_get memo slot.Levin.index) slots
  in
  let probe i () =
    if Atomic.get best < i then None
    else begin
      let slot = slots.(i) in
      let inner = candidates.(i) in
      let cancelled () = Atomic.get best < i in
      (* Same session discipline as the sequential construction: the
         candidate's own halt requests are suppressed (sensing decides),
         and the probe runs for exactly the slot's budget — except that
         a cancelled probe halts at its next step so its domain frees up
         for uncancelled work. *)
      let user =
        Strategy.make_inplace
          ~name:(Printf.sprintf "race-probe(%d@%d)" slot.Levin.index i)
          ~init:(fun () -> I.create inner)
          ~step:(fun rng inst (obs : Io.User.obs) ->
            if cancelled () then Io.User.halt_act
            else Io.User.unhalted (I.step rng inst obs))
      in
      let config =
        let base = match config with Some c -> c | None -> Exec.config () in
        Exec.{ base with horizon = slot.Levin.budget }
      in
      let history = Exec.run ~config ~goal ~user ~server rngs.(i) in
      if cancelled () then None
      else begin
        let sensed =
          View.fold_events history ~init:(Sensing.start sensing)
            ~f:Sensing.observe
        in
        (if Sensing.verdict sensed = Sensing.Positive then
           let rec lower () =
             let cur = Atomic.get best in
             if i < cur && not (Atomic.compare_and_set best cur i) then
               lower ()
           in
           lower ());
        Some history
      end
    end
  in
  let tasks = Array.make n (probe 0) in
  for i = 0 to n - 1 do
    tasks.(i) <- probe i
  done;
  let results =
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
  let w = Atomic.get best in
  if w = max_int then None
  else begin
    let slot = slots.(w) in
    let history =
      match results.(w) with Some h -> h | None -> assert false
    in
    let slots_probed =
      Array.fold_left
        (fun acc r -> match r with Some _ -> acc + 1 | None -> acc)
        0 results
    in
    Some
      {
        winner_slot = w;
        winner_index = slot.Levin.index;
        winner_budget = slot.Levin.budget;
        winner_rounds = History.length history;
        slots_probed;
        history;
      }
  end

(* Updated in place: one record per instance, built by [init]. *)
type ('strat, 'inst) finite_state = {
  f_memo : 'strat memo;
  mutable f_sched : Levin.slot Seq.t;
  mutable f_current : (Levin.slot * 'inst) option;
  mutable f_used : int;  (* rounds consumed in the current session *)
  f_sense : Sensing.state;  (* has absorbed every completed round *)
  mutable f_pending : bool;  (* a round awaits sensing: [f_ev] *)
  f_ev : View.event;  (* refilled in place at the end of every step *)
}

let rec seq_drop n s =
  if n <= 0 then s
  else begin
    match s () with Seq.Nil -> s | Seq.Cons (_, rest) -> seq_drop (n - 1) rest
  end

let finite ?schedule ?checkpoint ?stats ~enum ~sensing () =
  (match Enum.cardinality enum with
  | Some 0 -> invalid_arg "Universal.finite: empty strategy enumeration"
  | _ -> ());
  let module I = Strategy.Instance in
  let initial_schedule () =
    match schedule with Some s -> s | None -> Levin.schedule ()
  in
  Strategy.make_inplace
    ~name:(Printf.sprintf "universal-finite(%s;%s)" (Enum.name enum) sensing.Sensing.name)
    ~init:(fun () ->
      Option.iter reset_stats stats;
      let sched = initial_schedule () in
      (* Resume past the sessions a previous incarnation already spent:
         the schedule is deterministic, so skipping the first
         [saved_slots] slots continues exactly where the crash cut the
         enumeration off. *)
      let sched =
        match checkpoint with
        | Some c ->
            if c.saved_slots > 0 then
              Trace.emit_resume (Trace.handle ()) ~index:c.saved_index
                ~slots:c.saved_slots;
            seq_drop c.saved_slots sched
        | None -> sched
      in
      {
        f_memo = memo_create enum;
        f_sched = sched;
        f_current = None;
        f_used = 0;
        f_sense = Sensing.start sensing;
        f_pending = false;
        f_ev = View.empty ();
      })
    ~step:(fun rng state (obs : Io.User.obs) ->
      if state.f_pending then ignore (Sensing.observe state.f_sense state.f_ev);
      let verdict =
        if not state.f_pending then Sensing.Negative (* nothing achieved yet *)
        else Sensing.verdict state.f_sense
      in
      let h = Trace.handle () in
      Trace.emit_sense h ~round:obs.Io.User.round ~sensor:sensing.Sensing.name
        ~positive:(verdict = Sensing.Positive) ~clock:state.f_used
        ~patience:
          (match state.f_current with
          | Some (slot, _) -> slot.Levin.budget
          | None -> 0);
      if verdict = Sensing.Positive then begin
        state.f_pending <- false;
        Io.User.halt_act
      end
      else begin
        let session_over =
          match state.f_current with
          | None -> true
          | Some (slot, _) -> state.f_used >= slot.Levin.budget
        in
        if session_over then begin
          match state.f_sched () with
          | Seq.Nil -> invalid_arg "Universal.finite: schedule exhausted"
          | Seq.Cons (slot, rest) ->
              Trace.emit_session h ~round:obs.Io.User.round
                ~index:slot.Levin.index ~budget:slot.Levin.budget;
              Option.iter
                (fun s ->
                  s.sessions <- s.sessions + 1;
                  s.switches <- s.switches + 1;
                  s.current_index <- slot.Levin.index;
                  s.settled_round <- obs.Io.User.round)
                stats;
              Option.iter
                (fun c ->
                  c.saved_slots <- c.saved_slots + 1;
                  c.saved_index <- slot.Levin.index)
                checkpoint;
              state.f_sched <- rest;
              state.f_current <-
                Some (slot, I.create (memo_get state.f_memo slot.Levin.index));
              state.f_used <- 0
        end;
        let inst =
          match state.f_current with
          | Some (_, inst) -> inst
          | None -> assert false
        in
        let act = Io.User.unhalted (I.step rng inst obs) in
        state.f_pending <- true;
        View.fill state.f_ev obs act;
        state.f_used <- state.f_used + 1;
        act
      end)
