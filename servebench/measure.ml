(* One measured Engine.run: the plain run (end-to-end figures) or the
   layer run (the same run with every layer wrapped).  The engine is
   driven only through its public entry point and its observer hooks;
   latency, admission wait and tick times come from [on_supervise] and
   [on_tick] timestamps. *)

open Goalcom
open Goalcom_prelude
module Engine = Goalcom_session.Engine

type value = Int of int | Num of float | Str of string

type result = {
  report : Engine.report;
  figures : (string * value) list;
  bad_states : int;
      (** Done sessions whose recorded goal state the goal's referee
          does not accept *)
}

let pct xs q = if xs = [] then 0. else Stats.percentile q xs
let ms_of_ns ns = float_of_int ns /. 1e6
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Set-up times, in seconds, of repeated plain preparations: at least
   five, and more until half a second has passed.  The first, cold,
   preparation is not counted.  Each starts from a collected heap, so
   no set-up pays for collecting its predecessor's garbage. *)
let setup_seconds w =
  let min_reps = 5 and budget_s = 0.5 in
  let one () =
    Gc.full_major ();
    let t0 = Layers.now_ns () in
    ignore (Sys.opaque_identity (Workloads.prepare ~layers:false w));
    float_of_int (Layers.now_ns () - t0) /. 1e9
  in
  ignore (one ());
  let t0 = Layers.now_ns () in
  let rec go acc k =
    if k >= min_reps && float_of_int (Layers.now_ns () - t0) /. 1e9 >= budget_s
    then List.rev acc
    else go (one () :: acc) (k + 1)
  in
  go [] 0

(* A Done session's state is the earliest world view its referee
   accepted; judging that view afresh must accept it again. *)
let accepted (spec : Engine.spec) state =
  match Msg.of_string state with
  | Error _ -> false
  | Ok view -> (
      match Referee.start spec.goal.Goal.referee view with
      | _, `Ok -> true
      | _, `Violation -> false)

let bad_states (specs : Engine.spec array) (report : Engine.report) =
  let bad = ref 0 in
  Array.iteri
    (fun i -> function
      | Engine.Done { state; _ } ->
          if Referee.is_finite specs.(i).goal.Goal.referee
             && not (accepted specs.(i) state)
          then incr bad
      | _ -> ())
    report.outcomes;
  !bad

let run ~layers ~seed (w : Workloads.t) =
  let p = Workloads.prepare ~layers w in
  let n = Array.length p.specs in
  let jobs = Workloads.width w in
  (* hook state: per-session arrival / queue / done ticks, per-tick
     end timestamps (and, in the layer run, the supervising domain's
     wrapped time at each tick end) *)
  let arrival = Array.make n 0 in
  let queued_at = Array.make n 0 in
  let done_at = Array.make n 0 in
  let waits = ref [] in
  let kills = ref 0 and decisions = ref 0 in
  let tick_end = Array.make (w.config.Engine.max_ticks + 1) 0 in
  let last_tick = ref 0 in
  let main_outer_at_last = ref 0 in
  let on_supervise ~tick ~session ~action ~detail =
    incr decisions;
    match action with
    | "admit" ->
        arrival.(session) <- tick;
        if detail = "queued" then queued_at.(session) <- tick
    | "shed" -> arrival.(session) <- tick
    | "start" ->
        if queued_at.(session) > 0 then begin
          waits := float_of_int (tick - queued_at.(session)) :: !waits;
          queued_at.(session) <- 0
        end
    | "kill" -> incr kills
    | "done" -> done_at.(session) <- tick
    | _ -> ()
  in
  let on_tick ~tick =
    tick_end.(tick) <- Layers.now_ns ();
    last_tick := tick;
    if layers then main_outer_at_last := (Layers.local ()).Layers.outer_ns
  in
  if layers then Layers.reset ();
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let t0 = Layers.now_ns () in
  tick_end.(0) <- t0;
  let go () =
    Engine.run ~chaos:p.chaos ~config:w.config ~jobs ~on_supervise ~on_tick
      ~specs:p.specs ~seed ()
  in
  let report =
    match p.ring with
    | None -> go ()
    | Some r ->
        let sink = Goalcom_obs.Ring.domain_sink r in
        Trace.with_sink (if layers then Layers.sink sink else sink) go
  in
  let t1 = Layers.now_ns () in
  let minor_words = Gc.minor_words () -. mw0 in
  let gc1 = Gc.quick_stat () in
  let wall_ns = t1 - t0 in
  let rounds = float_of_int (max 1 report.total_rounds) in
  let latencies =
    Array.to_list report.outcomes
    |> List.mapi (fun i o -> (i, o))
    |> List.filter_map (fun (i, o) ->
           match o with
           | Engine.Done _ ->
               Some (ms_of_ns (tick_end.(done_at.(i)) - tick_end.(arrival.(i) - 1)))
           | _ -> None)
  in
  let ticks =
    List.init !last_tick (fun k -> ms_of_ns (tick_end.(k + 1) - tick_end.(k)))
  in
  let common =
    [
      ("workload", Str w.name);
      ("mode", Str (if layers then "layers" else "plain"));
      ("seed", Int seed);
      ("jobs", Int jobs);
      ("sessions", Int n);
      ("digest", Str report.digest);
      ("completed", Int report.completed);
      ("shed", Int report.shed);
      ("gave_up", Int report.gave_up);
      ("deadlines", Int report.deadlines);
      ("unfinished", Int report.unfinished);
      ("restarts", Int report.restarts);
      ("trips", Int report.trips);
      ("total_rounds", Int report.total_rounds);
      ("ticks", Int report.ticks);
      ("wall_s", Num (float_of_int wall_ns /. 1e9));
      ("goals_per_s", Num (float_of_int report.completed /. (float_of_int wall_ns /. 1e9)));
      ("rounds_per_s", Num (rounds /. (float_of_int wall_ns /. 1e9)));
      ("latency_p50_ms", Num (pct latencies 50.));
      ("latency_p99_ms", Num (pct latencies 99.));
      ("rounds_to_goal_p50", Num report.p50_rounds);
      ("rounds_to_goal_p99", Num report.p99_rounds);
      ("done_pct", Num (100. *. float_of_int report.completed /. float_of_int (max 1 n)));
      (* Gc.minor_words counts the calling domain only, so it is exact
         at jobs 1 and misses worker allocation above that; there the
         figure comes from Gc.quick_stat, which in OCaml 5 sums every
         domain's counters, including joined workers' *)
      ("alloc_words_per_round",
        Num
          ((if jobs = 1 then minor_words
            else gc1.Gc.minor_words -. gc0.Gc.minor_words)
          /. rounds));
      ("peak_heap_mb", Num (mb_of_words gc1.Gc.top_heap_words));
      ("gc.minor_collections", Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      ("gc.major_collections", Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("gc.promoted_words_per_round",
        Num ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. rounds));
      ("engine.ticks", Int report.ticks);
      ("engine.tick_p50_ms", Num (pct ticks 50.));
      ("engine.tick_p99_ms", Num (pct ticks 99.));
      ("admission.wait_p50_ticks", Num (pct !waits 50.));
      ("admission.wait_p99_ticks", Num (pct !waits 99.));
      ("admission.shed", Int report.shed);
      ("supervise.restarts", Int report.restarts);
      ("supervise.kills", Int !kills);
      ("supervise.trips", Int report.trips);
      ("supervise.decisions", Int !decisions);
      ("pool.width", Int jobs);
    ]
  in
  let layer_figures =
    if not layers then []
    else begin
      let t = Layers.totals () in
      let self l = Layers.self_ns t l in
      let calls l = Layers.calls t l in
      let tick_ns = tick_end.(!last_tick) - t0 in
      let replay_ns = t1 - tick_end.(!last_tick) in
      let main_outer_end = (Layers.local ()).Layers.outer_ns in
      (* wrapped time after the last tick is the ring sink, called by
         the replay on the supervising domain *)
      let replay_wrapped = main_outer_end - !main_outer_at_last in
      let engine_self = tick_ns - !main_outer_at_last in
      let replay_self = replay_ns - replay_wrapped in
      let wrapped_in_ticks = t.Layers.t_outer_ns - replay_wrapped in
      let layer_self = List.fold_left (fun acc l -> acc + self l) 0 Layers.all in
      (* Attributed against the pool's capacity, width x wall.  At
         jobs 1 every nanosecond of the run is wrapped, engine or
         replay time, so the remainder is 0 by construction; above
         that it is worker time outside wrapped calls, idle included.
         run.py takes it, like pool.busy_pct, from a par variant. *)
      let capacity = jobs * wall_ns in
      let attributed = layer_self + engine_self + replay_self in
      let per_layer l =
        if l = Layers.Ring then []
        else
          let base = Layers.name l in
          [ (base ^ ".calls", Int (calls l)); (base ^ ".self_ms", Num (ms_of_ns (self l))) ]
      in
      let completed = max 1 report.completed in
      let slots =
        Array.to_list report.outcomes
        |> List.mapi (fun i o -> (i, o))
        |> List.fold_left
             (fun acc (i, o) ->
               match o with
               | Engine.Done _ -> acc + report.checkpoints.(i).Universal.saved_slots
               | _ -> acc)
             0
      in
      let sensing_calls = calls Layers.Sensing in
      List.concat_map per_layer Layers.all
      @ [
          ("universal.ns_per_call",
            Num (float_of_int (self Layers.Universal) /. float_of_int (max 1 (calls Layers.Universal))));
          ("universal.slots_per_goal", Num (float_of_int slots /. float_of_int completed));
          ("sensing.negative_pct",
            Num (100. *. float_of_int t.Layers.t_negatives /. float_of_int (max 1 sensing_calls)));
          ("referee.calls_per_round", Num (float_of_int (calls Layers.Referee) /. rounds));
          ("engine.self_ms", Num (ms_of_ns engine_self));
          ("engine.replay_ms", Num (ms_of_ns replay_self));
          ("ring.events", Int (calls Layers.Ring));
          ("ring.sink_ms", Num (ms_of_ns (self Layers.Ring)));
          ("ring.evicted", Int (match p.ring with Some r -> Goalcom_obs.Ring.evicted r | None -> 0));
          ("pool.busy_pct",
            Num (100. *. float_of_int wrapped_in_ticks /. float_of_int (max 1 (jobs * tick_ns))));
          ("layer.unattributed_pct",
            Num (100. *. float_of_int (capacity - attributed) /. float_of_int (max 1 capacity)));
        ]
    end
  in
  { report; figures = common @ layer_figures; bad_states = bad_states p.specs report }

let json_of_figures figures =
  let field (k, v) =
    Printf.sprintf "%S: %s" k
      (match v with
      | Int i -> string_of_int i
      | Num f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
      | Str s -> Printf.sprintf "%S" s)
  in
  "{" ^ String.concat ", " (List.map field figures) ^ "}"
