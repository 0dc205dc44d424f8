open Goalcom_prelude

type config = { horizon : int; drain : int; world_choice : int }

let config ?(horizon = 1000) ?(drain = 2) ?(world_choice = 0) () =
  if horizon <= 0 then invalid_arg "Exec.config: horizon must be positive";
  if drain < 0 then invalid_arg "Exec.config: drain must be non-negative";
  { horizon; drain; world_choice }

let default_config = config ()

module Stepper = struct
  (* One run, unrolled: the recursive loop of [run] turned into a
     mutable state machine so a scheduler can interleave thousands of
     live runs round by round.  Invariants mirror the loop exactly —
     [round] is the next round to execute, [u2s] .. [w2s] the messages
     in flight (emitted last round, delivered this round) — so stepping
     to completion is bit-identical to the recursive loop, events and
     randomness included. *)

  type retention = Full | Summary

  (* What a run keeps of its rounds: every round ([Full]), or only a
     live referee judge ([Summary]). *)
  type store = Rounds of History.Builder.t | Judged of Outcome.Live.t

  type t = {
    cfg : config;
    user_rng : Rng.t;
    server_rng : Rng.t;
    world_rng : Rng.t;
    user_inst : (Io.User.obs, Io.User.act) Strategy.Instance.t;
    server_inst : (Io.Server.obs, Io.Server.act) Strategy.Instance.t;
    world_inst : World.Instance.t;
    store : store;
    mutable round : int;
    mutable halted : bool;
    mutable halt_round : int;  (* 0 = not halted *)
    mutable drain_left : int;
    mutable u2s : Msg.t;
    mutable u2w : Msg.t;
    mutable s2u : Msg.t;
    mutable s2w : Msg.t;
    mutable w2u : Msg.t;
    mutable w2s : Msg.t;
    mutable finished : bool;
    mutable result : History.t option;  (* [Full] only *)
  }

  let create ?(config = default_config) ?(retention = Full) ~goal ~user ~server
      rng =
    (* Run_start precedes the RNG splits, exactly as in the monolithic
       loop, so a traced stepper and a traced [run] agree byte for
       byte. *)
    let h = Trace.handle () in
    if Trace.handle_enabled h then
      Trace.emit_run_start h ~goal:(Goal.name goal) ~user:(Strategy.name user)
        ~server:(Strategy.name server) ~horizon:config.horizon
        ~drain:config.drain ~world_choice:config.world_choice;
    let user_rng = Rng.split rng in
    let server_rng = Rng.split rng in
    let world_rng = Rng.split rng in
    let user_inst = Strategy.Instance.create user in
    let server_inst = Strategy.Instance.create server in
    let world_inst =
      World.Instance.create (Goal.world ~choice:config.world_choice goal)
    in
    let initial_world_view = World.Instance.view world_inst in
    {
      cfg = config;
      user_rng;
      server_rng;
      world_rng;
      user_inst;
      server_inst;
      world_inst;
      store =
        (match retention with
        | Full -> Rounds (History.Builder.create ~initial_world_view)
        | Summary -> Judged (Outcome.Live.create goal initial_world_view));
      round = 1;
      halted = false;
      halt_round = 0;
      drain_left = config.drain;
      u2s = Msg.Silence;
      u2w = Msg.Silence;
      s2u = Msg.Silence;
      s2w = Msg.Silence;
      w2u = Msg.Silence;
      w2s = Msg.Silence;
      finished = false;
      result = None;
    }

  let finished t = t.finished
  let round t = t.round
  let halted t = t.halted
  let rounds_executed t = t.round - 1

  (* The termination condition already holds: the next [step] will not
     execute a round, only finalize.  Lets a scheduler finish a run
     inside the current quantum instead of paying a whole extra tick
     for the finalizing step. *)
  let finishing t =
    t.finished || t.round > t.cfg.horizon || (t.halted && t.drain_left <= 0)

  let[@inline] emit_msg h round src dst msg =
    if not (Msg.is_silence msg) then Trace.emit_msg h ~round ~src ~dst msg

  let finish t =
    (match t.store with
    | Rounds b -> t.result <- Some (History.Builder.finish b)
    | Judged _ -> ());
    t.finished <- true;
    Trace.emit_run_end (Trace.handle ()) ~rounds:(rounds_executed t)
      ~halted:t.halted

  (* Tracing is re-resolved per step (not latched at creation like the
     closed loop used to): a stepper may be created on one domain and
     stepped on another, or stepped under a per-session buffering sink
     installed by the engine around each quantum.  Within a single
     [run] call the sink is stable, so the behaviour is unchanged. *)
  let step t =
    if t.finished then false
    else if t.round > t.cfg.horizon || (t.halted && t.drain_left <= 0) then begin
      finish t;
      false
    end
    else begin
      (* One DLS access per step; everything below goes through the
         handle (the sink is stable within a step — nothing here
         installs or removes sinks). *)
      let h = Trace.handle () in
      let tracing = Trace.handle_enabled h in
      let round = t.round in
      if tracing then begin
        Trace.handle_set_round h round;
        Trace.emit_round_start h ~round
      end;
      let user_act : Io.User.act =
        if t.halted then Io.User.halt_act
        else
          Strategy.Instance.step t.user_rng t.user_inst
            { Io.User.from_server = t.s2u; from_world = t.w2u; round }
      in
      let server_act : Io.Server.act =
        Strategy.Instance.step t.server_rng t.server_inst
          { Io.Server.from_user = t.u2s; from_world = t.w2s }
      in
      let world_act : Io.World.act =
        World.Instance.step t.world_rng t.world_inst
          { Io.World.from_user = t.u2w; from_server = t.s2w }
      in
      let halted' = t.halted || user_act.halt in
      if tracing then begin
        emit_msg h round Trace.User Trace.Server user_act.to_server;
        emit_msg h round Trace.User Trace.World user_act.to_world;
        emit_msg h round Trace.Server Trace.User server_act.to_user;
        emit_msg h round Trace.Server Trace.World server_act.to_world;
        emit_msg h round Trace.World Trace.User world_act.to_user;
        emit_msg h round Trace.World Trace.Server world_act.to_server;
        if halted' && not t.halted then Trace.emit_halt h ~round
      end;
      let world_view = World.Instance.view t.world_inst in
      (match t.store with
      | Rounds b ->
          History.Builder.add b
            {
              History.Round.index = round;
              user_to_server = user_act.to_server;
              user_to_world = user_act.to_world;
              server_to_user = server_act.to_user;
              server_to_world = server_act.to_world;
              world_to_user = world_act.to_user;
              world_to_server = world_act.to_server;
              world_view;
              user_halted = halted';
            }
      | Judged live -> Outcome.Live.step live ~round world_view);
      if halted' && not t.halted then t.halt_round <- round;
      t.drain_left <- (if t.halted then t.drain_left - 1 else t.cfg.drain);
      t.halted <- halted';
      t.round <- round + 1;
      t.u2s <- user_act.to_server;
      t.u2w <- user_act.to_world;
      t.s2u <- server_act.to_user;
      t.s2w <- server_act.to_world;
      t.w2u <- world_act.to_user;
      t.w2s <- world_act.to_server;
      true
    end

  let history t =
    match (t.store, t.result) with
    | Judged _, _ ->
        invalid_arg
          "Exec.Stepper.history: a Summary stepper keeps no history (use \
           summary)"
    | Rounds _, Some h -> h
    | Rounds _, None ->
        invalid_arg "Exec.Stepper.history: run still live (step until false)"

  let summary t =
    match t.store with
    | Rounds _ ->
        invalid_arg
          "Exec.Stepper.summary: a Full stepper keeps its history (use \
           history)"
    | Judged _ when not t.finished ->
        invalid_arg "Exec.Stepper.summary: run still live (step until false)"
    | Judged live ->
        ( Outcome.Live.finish live ~rounds:(rounds_executed t) ~halted:t.halted
            ~halt_round:(if t.halt_round = 0 then None else Some t.halt_round),
          Outcome.Live.achieved_view live )

  let run_to_end t =
    while step t do
      ()
    done;
    history t
end

let run ?sink ?(config = default_config) ~goal ~user ~server rng =
  let body () =
    Stepper.run_to_end (Stepper.create ~config ~goal ~user ~server rng)
  in
  match sink with None -> body () | Some s -> Trace.with_sink s body

let run_outcome ?sink ?config ?tail_window ~goal ~user ~server rng =
  let body () =
    let history = run ?config ~goal ~user ~server rng in
    let outcome = Outcome.judge ?tail_window goal history in
    let h = Trace.handle () in
    if Trace.handle_enabled h then
      List.iter
        (fun round -> Trace.emit_violation h ~round)
        outcome.Outcome.violation_rounds;
    (outcome, history)
  in
  match sink with None -> body () | Some s -> Trace.with_sink s body
