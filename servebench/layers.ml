(* Layer accounting for the benchmark's layer run.

   Nothing inside lib/ is instrumented: the benchmark wraps the
   closures it hands to the engine (user strategies, sensing, servers,
   worlds, referees, the trace sink) and times each call into a
   layer's public functions from outside.  A layer's self time is the
   wall time inside its wrapped calls minus the part covered by nested
   wrapped calls (sensing runs inside the universal user's step).

   Accumulators are per domain (domain-local storage), so pool workers
   never share a counter; every domain's accumulator is registered
   once, under a lock, and summed after the run. *)

open Goalcom

(* CLOCK_MONOTONIC in nanoseconds, from bechamel's stub.  Declared
   here rather than called through [Monotonic_clock.now] so that the
   unboxed int64 never escapes and a timed call allocates nothing. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type layer = Universal | Sensing | Servers | World | Referee | Ring

let all = [ Universal; Sensing; Servers; World; Referee; Ring ]

let index = function
  | Universal -> 0
  | Sensing -> 1
  | Servers -> 2
  | World -> 3
  | Referee -> 4
  | Ring -> 5

let name = function
  | Universal -> "universal"
  | Sensing -> "sensing"
  | Servers -> "servers"
  | World -> "world"
  | Referee -> "referee"
  | Ring -> "ring"

type acc = {
  calls : int array;
  self_ns : int array;
  mutable child_ns : int;  (** nested wrapped time inside the open call *)
  mutable depth : int;
  mutable outer_ns : int;  (** time inside outermost wrapped calls *)
  mutable negatives : int;  (** sensing calls with a negative verdict *)
}

let layers = List.length all

let fresh () =
  {
    calls = Array.make layers 0;
    self_ns = Array.make layers 0;
    child_ns = 0;
    depth = 0;
    outer_ns = 0;
    negatives = 0;
  }

let registry = ref []
let lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a = fresh () in
      Mutex.protect lock (fun () -> registry := a :: !registry);
      a)

let local () = Domain.DLS.get key

let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun a ->
          Array.fill a.calls 0 layers 0;
          Array.fill a.self_ns 0 layers 0;
          a.child_ns <- 0;
          a.depth <- 0;
          a.outer_ns <- 0;
          a.negatives <- 0)
        !registry)

let accumulators () = Mutex.protect lock (fun () -> !registry)

(* [enter] opens a call frame and returns the caller's nested-time
   counter; [leave] closes it.  Split in two (rather than one
   higher-order [time f]) so the wrappers below allocate no closure
   per call. *)
let enter a =
  let saved = a.child_ns in
  a.child_ns <- 0;
  a.depth <- a.depth + 1;
  saved

let leave a l ~saved ~t0 =
  let dt = now_ns () - t0 in
  let i = index l in
  a.calls.(i) <- a.calls.(i) + 1;
  a.self_ns.(i) <- a.self_ns.(i) + dt - a.child_ns;
  a.child_ns <- saved + dt;
  a.depth <- a.depth - 1;
  if a.depth = 0 then a.outer_ns <- a.outer_ns + dt

let time1 l f x =
  let a = local () in
  let saved = enter a in
  let t0 = now_ns () in
  match f x with
  | r ->
      leave a l ~saved ~t0;
      r
  | exception e ->
      leave a l ~saved ~t0;
      raise e

let time2 l f x y =
  let a = local () in
  let saved = enter a in
  let t0 = now_ns () in
  match f x y with
  | r ->
      leave a l ~saved ~t0;
      r
  | exception e ->
      leave a l ~saved ~t0;
      raise e

let time3 l f x y z =
  let a = local () in
  let saved = enter a in
  let t0 = now_ns () in
  match f x y z with
  | r ->
      leave a l ~saved ~t0;
      r
  | exception e ->
      leave a l ~saved ~t0;
      raise e

(* --- wrappers: same behaviour, every call timed ---------------------- *)

(* A strategy whose state is a running instance of the original: same
   name, same rng draws, same actions. *)
let strategy l s =
  Strategy.make ~name:(Strategy.name s)
    ~init:(fun () -> time1 l Strategy.Instance.create s)
    ~step:(fun rng inst obs -> (inst, time3 l Strategy.Instance.step rng inst obs))

let world w =
  World.make ~name:(World.name w)
    ~init:(fun () -> time1 World World.Instance.create w)
    ~step:(fun rng inst obs -> (inst, time3 World World.Instance.step rng inst obs))
    ~view:(fun inst -> time1 World World.Instance.view inst)

(* Re-wrapped around the original's live judge: every judgement the
   engine makes (Outcome.judge, the achieved-view rescan) is a fold of
   [start]/[step], so the wrapped referee decides identically. *)
let referee r =
  let init v = time2 Referee Referee.start r v in
  let step j v = time2 Referee Referee.step j v in
  if Referee.is_finite r then Referee.finite_incremental (Referee.name r) ~init ~step
  else Referee.compact_incremental (Referee.name r) ~init ~step

let goal (g : Goal.t) =
  Goal.make ~name:g.Goal.name ~worlds:(List.map world g.Goal.worlds)
    ~referee:(referee g.Goal.referee)

let sense_start s =
  let st = Sensing.start s in
  (st, Sensing.verdict st)

let sense_step st ev =
  let st = Sensing.observe st ev in
  (st, Sensing.verdict st)

let count_negative ((_, v) as r) =
  (if v = Sensing.Negative then
     let a = local () in
     a.negatives <- a.negatives + 1);
  r

let sensing (s : Sensing.t) =
  Sensing.incremental ~name:s.Sensing.name
    ~init:(fun () -> count_negative (time1 Sensing sense_start s))
    ~step:(fun st ev -> count_negative (time2 Sensing sense_step st ev))

let sink (sink : Trace.sink) : Trace.sink = fun ev -> time1 Ring sink ev

(* --- totals ----------------------------------------------------------- *)

type totals = {
  t_calls : int array;
  t_self_ns : int array;
  t_outer_ns : int;
  t_negatives : int;
}

let totals () =
  let accs = accumulators () in
  let sum f = List.fold_left (fun n a -> n + f a) 0 accs in
  {
    t_calls = Array.init layers (fun i -> sum (fun a -> a.calls.(i)));
    t_self_ns = Array.init layers (fun i -> sum (fun a -> a.self_ns.(i)));
    t_outer_ns = sum (fun a -> a.outer_ns);
    t_negatives = sum (fun a -> a.negatives);
  }

let calls t l = t.t_calls.(index l)
let self_ns t l = t.t_self_ns.(index l)
