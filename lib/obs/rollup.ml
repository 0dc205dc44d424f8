open Goalcom
open Goalcom_prelude

(* Streaming per-session rollups over the supervise stream.

   The fleet-level view of a serve/chaos run: per-server-class counters
   of every supervision decision, a histogram of rounds-to-goal, and a
   histogram of session latency (admit tick -> done tick), folded event
   by event so nothing retains full traces.  All state is integers, so
   two rollups fed the same decisions — or one rollup fed the merge of
   two disjoint streams — agree bit for bit; percentiles come from
   fixed-bucket histograms whose merge is element-wise addition, which
   is what makes the jobs {1,2,4} determinism test possible.

   Wall-clock enters only through the optional [clock] (sessions/sec
   needs it); everything else is deterministic, and a clock-less rollup
   snapshot is a pure function of the supervise stream (the golden
   stats test pins one). *)

(* HDR-style fixed-bucket histogram over non-negative ints.  Values
   0..63 get exact unit buckets; beyond that, each power-of-two octave
   splits into 32 sub-buckets, bounding relative error by 1/32 (~3%).
   Quantiles report the bucket's inclusive upper bound, so small exact
   values quantise exactly.  Merge is element-wise addition: counts
   commute, so sharded collection is deterministic. *)
module Hist = struct
  let linear = 64
  let sub = 32
  let octaves = 57 (* 2^6 .. 2^62: every non-negative OCaml int *)
  let nbuckets = linear + (octaves * sub)

  type t = { counts : int array; mutable total : int; mutable sum : int }

  let create () = { counts = Array.make nbuckets 0; total = 0; sum = 0 }

  let bucket_of v =
    if v < linear then if v < 0 then 0 else v
    else begin
      let rec msb acc v = if v <= 1 then acc else msb (acc + 1) (v lsr 1) in
      let m = msb 0 v in
      (* m >= 6: the octave is m - 6, the sub-bucket the 5 bits below
         the leading one. *)
      linear + ((m - 6) * sub) + ((v lsr (m - 5)) land (sub - 1))
    end

  (* Inclusive upper bound of bucket [i] — the value a quantile in this
     bucket reports. *)
  let upper_of i =
    if i < linear then i
    else
      let o = (i - linear) / sub and s = (i - linear) mod sub in
      (1 lsl (o + 6)) + ((s + 1) lsl (o + 1)) - 1

  let add t v =
    let v = if v < 0 then 0 else v in
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum + v

  let merge ~into src =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.total <- into.total + src.total;
    into.sum <- into.sum + src.sum

  let total t = t.total
  let mean t = if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total

  let percentile q t =
    if t.total = 0 then 0
    else begin
      let rank =
        let r = int_of_float (ceil (q /. 100. *. float_of_int t.total)) in
        if r < 1 then 1 else if r > t.total then t.total else r
      in
      let i = ref 0 and seen = ref 0 in
      while !seen < rank do
        seen := !seen + t.counts.(!i);
        incr i
      done;
      upper_of (!i - 1)
    end
end

(* Per-class counters: one slot per supervision action that terminates,
   starts or refuses a session.  [admitted] counts both immediate and
   queued admissions.  [delivered] / [collisions] come from shared-world
   group arbiters (lib/net Medium via the engine's group report): frames
   a session got through its medium slot, and slots it clashed in. *)
type counts = {
  mutable admitted : int;
  mutable shed : int;
  mutable started : int;
  mutable restarts : int;
  mutable completed : int;
  mutable failed : int;  (* failed incarnations (pre-restart-policy) *)
  mutable gave_up : int;
  mutable deadlines : int;
  mutable wedges : int;
  mutable kills : int;
  mutable trips : int;
  mutable delivered : int;
  mutable collisions : int;
}

let zero_counts () =
  {
    admitted = 0;
    shed = 0;
    started = 0;
    restarts = 0;
    completed = 0;
    failed = 0;
    gave_up = 0;
    deadlines = 0;
    wedges = 0;
    kills = 0;
    trips = 0;
    delivered = 0;
    collisions = 0;
  }

type t = {
  class_of : int -> string;
  clock : (unit -> float) option;
  t0 : float;
  classes : (string, counts) Hashtbl.t;
  admit_tick : (int, int) Hashtbl.t;  (* session -> tick it was admitted *)
  latency : Hist.t;  (* admit tick -> done tick, completed sessions *)
  rounds : Hist.t;  (* rounds-to-goal, completed sessions *)
  mutable ticks : int;
  mutable rounds_total : int;
}

let create ?clock ?(class_of = fun _ -> "all") () =
  {
    class_of;
    clock;
    t0 = (match clock with Some c -> c () | None -> 0.);
    classes = Hashtbl.create 8;
    admit_tick = Hashtbl.create 256;
    latency = Hist.create ();
    rounds = Hist.create ();
    ticks = 0;
    rounds_total = 0;
  }

let counts_for t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some c -> c
  | None ->
      let c = zero_counts () in
      Hashtbl.add t.classes cls c;
      c

let supervise t ~tick ~session ~action ~detail =
  if tick > t.ticks then t.ticks <- tick;
  let c = counts_for t (t.class_of session) in
  match action with
  | "admit" ->
      c.admitted <- c.admitted + 1;
      Hashtbl.replace t.admit_tick session tick
  | "shed" -> c.shed <- c.shed + 1
  | "start" -> c.started <- c.started + 1
  | "restart" -> c.restarts <- c.restarts + 1
  | "kill" -> c.kills <- c.kills + 1
  | "fail" -> c.failed <- c.failed + 1
  | "wedge" -> c.wedges <- c.wedges + 1
  | "give-up" ->
      c.gave_up <- c.gave_up + 1;
      Hashtbl.remove t.admit_tick session
  | "deadline" ->
      c.deadlines <- c.deadlines + 1;
      Hashtbl.remove t.admit_tick session
  | "trip" -> c.trips <- c.trips + 1
  | "deliver" -> c.delivered <- c.delivered + 1
  | "collide" -> c.collisions <- c.collisions + 1
  | "done" ->
      c.completed <- c.completed + 1;
      let rounds =
        try Scanf.sscanf detail "rounds=%d" (fun r -> r) with _ -> 0
      in
      Hist.add t.rounds rounds;
      t.rounds_total <- t.rounds_total + rounds;
      let admitted =
        match Hashtbl.find_opt t.admit_tick session with
        | Some a -> a
        | None -> tick
      in
      Hashtbl.remove t.admit_tick session;
      Hist.add t.latency (tick - admitted)
  | _ -> () (* half-open, close, future actions: not aggregated *)

let observe t (ev : Trace.event) =
  match ev with
  | Trace.Supervise { tick; session; action; detail } ->
      supervise t ~tick ~session ~action ~detail
  | _ -> ()

let merge ~into src =
  Hashtbl.iter
    (fun cls (c : counts) ->
      let d = counts_for into cls in
      d.admitted <- d.admitted + c.admitted;
      d.shed <- d.shed + c.shed;
      d.started <- d.started + c.started;
      d.restarts <- d.restarts + c.restarts;
      d.completed <- d.completed + c.completed;
      d.failed <- d.failed + c.failed;
      d.gave_up <- d.gave_up + c.gave_up;
      d.deadlines <- d.deadlines + c.deadlines;
      d.wedges <- d.wedges + c.wedges;
      d.kills <- d.kills + c.kills;
      d.trips <- d.trips + c.trips;
      d.delivered <- d.delivered + c.delivered;
      d.collisions <- d.collisions + c.collisions)
    src.classes;
  Hashtbl.iter
    (fun session tick ->
      if not (Hashtbl.mem into.admit_tick session) then
        Hashtbl.replace into.admit_tick session tick)
    src.admit_tick;
  Hist.merge ~into:into.latency src.latency;
  Hist.merge ~into:into.rounds src.rounds;
  if src.ticks > into.ticks then into.ticks <- src.ticks;
  into.rounds_total <- into.rounds_total + src.rounds_total

(* Snapshots: the immutable rendering-side view. *)

type class_stats = {
  cls : string;
  admitted : int;
  shed : int;
  started : int;
  restarts : int;
  completed : int;
  failed : int;
  gave_up : int;
  deadlines : int;
  wedges : int;
  kills : int;
  trips : int;
  delivered : int;
  collisions : int;
}

type snapshot = {
  ticks : int;
  classes : class_stats list;  (* sorted by class name *)
  totals : class_stats;  (* [cls = "total"] *)
  latency_p50 : int;
  latency_p99 : int;
  latency_p999 : int;
  rounds_p50 : int;
  rounds_p99 : int;
  rounds_p999 : int;
  rounds_total : int;
  wall_s : float option;
  sessions_per_sec : float option;
}

let freeze cls (c : counts) =
  {
    cls;
    admitted = c.admitted;
    shed = c.shed;
    started = c.started;
    restarts = c.restarts;
    completed = c.completed;
    failed = c.failed;
    gave_up = c.gave_up;
    deadlines = c.deadlines;
    wedges = c.wedges;
    kills = c.kills;
    trips = c.trips;
    delivered = c.delivered;
    collisions = c.collisions;
  }

let snapshot (t : t) =
  let classes =
    Hashtbl.fold (fun cls c acc -> freeze cls c :: acc) t.classes []
    |> List.sort (fun a b -> compare a.cls b.cls)
  in
  let totals =
    List.fold_left
      (fun acc c ->
        {
          acc with
          admitted = acc.admitted + c.admitted;
          shed = acc.shed + c.shed;
          started = acc.started + c.started;
          restarts = acc.restarts + c.restarts;
          completed = acc.completed + c.completed;
          failed = acc.failed + c.failed;
          gave_up = acc.gave_up + c.gave_up;
          deadlines = acc.deadlines + c.deadlines;
          wedges = acc.wedges + c.wedges;
          kills = acc.kills + c.kills;
          trips = acc.trips + c.trips;
          delivered = acc.delivered + c.delivered;
          collisions = acc.collisions + c.collisions;
        })
      (freeze "total" (zero_counts ()))
      classes
  in
  let wall_s =
    match t.clock with Some c -> Some (c () -. t.t0) | None -> None
  in
  let sessions_per_sec =
    match wall_s with
    | Some w when w > 0. -> Some (float_of_int totals.completed /. w)
    | _ -> None
  in
  {
    ticks = t.ticks;
    classes;
    totals;
    latency_p50 = Hist.percentile 50. t.latency;
    latency_p99 = Hist.percentile 99. t.latency;
    latency_p999 = Hist.percentile 99.9 t.latency;
    rounds_p50 = Hist.percentile 50. t.rounds;
    rounds_p99 = Hist.percentile 99. t.rounds;
    rounds_p999 = Hist.percentile 99.9 t.rounds;
    rounds_total = t.rounds_total;
    wall_s;
    sessions_per_sec;
  }

(* Renderings: terminal table (goalcom top / serve), Prometheus text
   exposition and JSON snapshots (--stats). *)

let table s =
  let row (c : class_stats) =
    [
      c.cls;
      Table.cell_int c.admitted;
      Table.cell_int c.shed;
      Table.cell_int c.started;
      Table.cell_int c.restarts;
      Table.cell_int c.completed;
      Table.cell_int c.failed;
      Table.cell_int c.gave_up;
      Table.cell_int c.deadlines;
      Table.cell_int c.wedges;
      Table.cell_int c.kills;
      Table.cell_int c.trips;
      Table.cell_int c.delivered;
      Table.cell_int c.collisions;
    ]
  in
  let rate =
    match s.sessions_per_sec with
    | Some r -> Printf.sprintf "; %.0f sessions/sec" r
    | None -> ""
  in
  Table.make ~title:"session rollup (by server class)"
    ~columns:
      [
        "class"; "admit"; "shed"; "start"; "restart"; "done"; "fail";
        "give-up"; "deadline"; "wedge"; "kill"; "trip"; "deliver";
        "collide";
      ]
    ~notes:
      [
        Printf.sprintf "tick %d%s" s.ticks rate;
        Printf.sprintf "latency ticks p50/p99/p999 %d/%d/%d" s.latency_p50
          s.latency_p99 s.latency_p999;
        Printf.sprintf "rounds-to-goal p50/p99/p999 %d/%d/%d (total %d)"
          s.rounds_p50 s.rounds_p99 s.rounds_p999 s.rounds_total;
      ]
    (List.map row (s.classes @ [ s.totals ]))

let to_prometheus s =
  let b = Buffer.create 1024 in
  let counter name help cell =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n# TYPE %s counter\n" name help name);
    List.iter
      (fun (c : class_stats) ->
        List.iter
          (fun (action, v) ->
            Buffer.add_string b
              (Printf.sprintf "%s{class=%S,action=%S} %d\n" name c.cls action v))
          (cell c))
      s.classes
  in
  counter "goalcom_sessions_total" "Supervision decisions per server class."
    (fun c ->
      [
        ("admitted", c.admitted);
        ("shed", c.shed);
        ("started", c.started);
        ("restarted", c.restarts);
        ("done", c.completed);
        ("failed", c.failed);
        ("gave_up", c.gave_up);
        ("deadline", c.deadlines);
        ("wedged", c.wedges);
        ("killed", c.kills);
        ("tripped", c.trips);
        ("delivered", c.delivered);
        ("collided", c.collisions);
      ]);
  Buffer.add_string b "# TYPE goalcom_ticks gauge\n";
  Buffer.add_string b (Printf.sprintf "goalcom_ticks %d\n" s.ticks);
  let summary name (p50, p99, p999) =
    Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" name);
    List.iter
      (fun (q, v) ->
        Buffer.add_string b (Printf.sprintf "%s{quantile=%S} %d\n" name q v))
      [ ("0.5", p50); ("0.99", p99); ("0.999", p999) ]
  in
  summary "goalcom_session_latency_ticks" (s.latency_p50, s.latency_p99, s.latency_p999);
  summary "goalcom_rounds_to_goal" (s.rounds_p50, s.rounds_p99, s.rounds_p999);
  Buffer.add_string b "# TYPE goalcom_rounds_total counter\n";
  Buffer.add_string b (Printf.sprintf "goalcom_rounds_total %d\n" s.rounds_total);
  (match s.sessions_per_sec with
  | Some r ->
      Buffer.add_string b "# TYPE goalcom_sessions_per_sec gauge\n";
      Buffer.add_string b (Printf.sprintf "goalcom_sessions_per_sec %.3f\n" r)
  | None -> ());
  Buffer.contents b

let add_class_json b (c : class_stats) =
  Buffer.add_string b "{\"class\":\"";
  Json.add_escaped b c.cls;
  Buffer.add_string b
    (Printf.sprintf
       "\",\"admitted\":%d,\"shed\":%d,\"started\":%d,\"restarts\":%d,\"done\":%d,\"failed\":%d,\"gave_up\":%d,\"deadlines\":%d,\"wedges\":%d,\"kills\":%d,\"trips\":%d,\"delivered\":%d,\"collisions\":%d}"
       c.admitted c.shed c.started c.restarts c.completed c.failed
       c.gave_up c.deadlines c.wedges c.kills c.trips c.delivered
       c.collisions)

let to_json s =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "{\"ticks\":%d," s.ticks);
  (match s.wall_s with
  | Some w -> Buffer.add_string b (Printf.sprintf "\"wall_s\":%.6f," w)
  | None -> ());
  (match s.sessions_per_sec with
  | Some r -> Buffer.add_string b (Printf.sprintf "\"sessions_per_sec\":%.3f," r)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf
       "\"latency_ticks\":{\"p50\":%d,\"p99\":%d,\"p999\":%d},\"rounds\":{\"p50\":%d,\"p99\":%d,\"p999\":%d,\"total\":%d},\"classes\":["
       s.latency_p50 s.latency_p99 s.latency_p999 s.rounds_p50 s.rounds_p99
       s.rounds_p999 s.rounds_total);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      add_class_json b c)
    s.classes;
  Buffer.add_string b "],\"totals\":";
  add_class_json b s.totals;
  Buffer.add_char b '}';
  Buffer.contents b

(* Reading a snapshot back (goalcom top polls the JSON file a running
   serve writes).  Inverse of [to_json] up to float formatting. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let int_field name j =
  match Option.bind (Json.member name j) Json.int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing int field %S" name)

let class_of_json j =
  let* cls =
    match Option.bind (Json.member "class" j) Json.string_opt with
    | Some s -> Ok s
    | None -> Error "missing class name"
  in
  let* admitted = int_field "admitted" j in
  let* shed = int_field "shed" j in
  let* started = int_field "started" j in
  let* restarts = int_field "restarts" j in
  let* completed = int_field "done" j in
  let* failed = int_field "failed" j in
  let* gave_up = int_field "gave_up" j in
  let* deadlines = int_field "deadlines" j in
  let* wedges = int_field "wedges" j in
  let* kills = int_field "kills" j in
  let* trips = int_field "trips" j in
  (* Absent in snapshots written before the shared-medium counters
     existed: read as 0 rather than rejecting the file. *)
  let opt_field name =
    match Option.bind (Json.member name j) Json.int_opt with
    | Some v -> v
    | None -> 0
  in
  let delivered = opt_field "delivered" in
  let collisions = opt_field "collisions" in
  Ok
    {
      cls;
      admitted;
      shed;
      started;
      restarts;
      completed;
      failed;
      gave_up;
      deadlines;
      wedges;
      kills;
      trips;
      delivered;
      collisions;
    }

let snapshot_of_json j =
  let* ticks = int_field "ticks" j in
  let sub name field =
    match Json.member name j with
    | Some o -> int_field field o
    | None -> Error (Printf.sprintf "missing object %S" name)
  in
  let* latency_p50 = sub "latency_ticks" "p50" in
  let* latency_p99 = sub "latency_ticks" "p99" in
  let* latency_p999 = sub "latency_ticks" "p999" in
  let* rounds_p50 = sub "rounds" "p50" in
  let* rounds_p99 = sub "rounds" "p99" in
  let* rounds_p999 = sub "rounds" "p999" in
  let* rounds_total = sub "rounds" "total" in
  let* classes =
    match Option.bind (Json.member "classes" j) Json.list_opt with
    | None -> Error "missing classes array"
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* c = class_of_json item in
            Ok (c :: acc))
          (Ok []) items
        |> Result.map List.rev
  in
  let* totals =
    match Json.member "totals" j with
    | Some o -> class_of_json o
    | None -> Error "missing totals"
  in
  Ok
    {
      ticks;
      classes;
      totals;
      latency_p50;
      latency_p99;
      latency_p999;
      rounds_p50;
      rounds_p99;
      rounds_p999;
      rounds_total;
      wall_s = Option.bind (Json.member "wall_s" j) Json.number_opt;
      sessions_per_sec =
        Option.bind (Json.member "sessions_per_sec" j) Json.number_opt;
    }
