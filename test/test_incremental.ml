(* Equivalence suite for the incremental referee/sensing engine.

   The O(n) folds ([Referee.violations], [Sensing.verdicts]) replaced a
   quadratic prefix re-evaluation; the refactor's contract is that they
   agree with the legacy evaluation prefix for prefix, on arbitrary
   histories.  The oracles live in [Helpers]: the quadratic
   [violations_prefix], list-predicate referees ([compact_pred],
   [finite_pred]) and whole-view sensor twins ([of_view_predicate]);
   each sensor is also checked against a whole-view reference function
   applied to every [View_list.prefixes] element. *)

open Goalcom
open Goalcom_prelude

let count = 80

(* --- random histories --- *)

let msg_gen =
  QCheck.Gen.(
    oneof
      [
        return Msg.Silence;
        map (fun n -> Msg.Sym n) (int_bound 4);
        map (fun n -> Msg.Int (n - 8)) (int_bound 16);
        map (fun s -> Msg.Text s) (oneofl [ "a"; "bb"; "solved"; "err" ]);
        map2
          (fun a b -> Msg.Pair (Msg.Int a, Msg.Sym b))
          (int_bound 4) (int_bound 3);
      ])

let round_of_msgs index halted = function
  | [ a; b; c; d; e; f; g ] ->
      {
        History.Round.index;
        user_to_server = a;
        user_to_world = b;
        server_to_user = c;
        server_to_world = d;
        world_to_user = e;
        world_to_server = f;
        world_view = g;
        user_halted = halted;
      }
  | _ -> assert false

(* Histories of 0..28 rounds with arbitrary channel contents, sometimes
   with a halted tail (as Exec.run's drain rounds produce). *)
let history_gen =
  QCheck.Gen.(
    int_bound 28 >>= fun n ->
    int_bound (n + 1) >>= fun halt_at ->
    list_repeat n (list_repeat 7 msg_gen) >>= fun rows ->
    msg_gen >|= fun v0 ->
    let rounds =
      List.mapi (fun i row -> round_of_msgs (i + 1) (i + 1 > halt_at) row) rows
    in
    History.make ~initial_world_view:v0 rounds)

let k_gen = QCheck.Gen.int_bound 3

(* A small family of message predicates indexed by [k], covering every
   constructor. *)
let view_pred k (m : Msg.t) =
  match m with
  | Msg.Silence -> true
  | Msg.Sym s -> s <> k
  | Msg.Int n -> (n + 16) mod (k + 2) <> 0
  | Msg.Text t -> String.length t <> k + 1
  | Msg.Pair (Msg.Int a, _) -> a <> k
  | Msg.Pair _ -> k mod 2 = 0
  | Msg.Seq _ -> k mod 3 <> 0

let hk_arb = QCheck.make QCheck.Gen.(pair history_gen k_gen)

(* --- referees: incremental folds vs the quadratic prefix oracle --- *)

(* List-predicate referee with a genuinely prefix-dependent predicate (a
   count over the whole most-recent-first list): the single fold inside
   [violations] must reproduce the judge-every-prefix results exactly. *)
let prop_compact_legacy_fold_eq_prefix =
  QCheck.Test.make ~count
    ~name:"Referee: legacy compact fold = prefix oracle (list predicate)"
    hk_arb
    (fun (h, k) ->
      let acceptable views =
        Listx.count (fun v -> not (view_pred k v)) views <= k
      in
      let r = Helpers.compact_pred "legacy-count" acceptable in
      Referee.violations r h = Helpers.violations_prefix r h)

(* Native incremental referee vs its legacy twin: stateless head check. *)
let prop_incr_stateless_eq_legacy =
  QCheck.Test.make ~count
    ~name:"Referee: incremental (stateless) = legacy twin" hk_arb
    (fun (h, k) ->
      let incr =
        Referee.compact_incremental "incr-head"
          ~init:(fun _v0 -> ((), `Ok))
          ~step:(fun () v -> ((), Referee.verdict_of_bool (view_pred k v)))
      in
      let legacy =
        Helpers.compact_pred "legacy-head" (function
          | v :: _ -> view_pred k v
          | [] -> true)
      in
      let vs = Referee.violations incr h in
      vs = Referee.violations legacy h
      && vs = Helpers.violations_prefix legacy h
      && vs = Helpers.violations_prefix incr h)

(* Native incremental referee vs its legacy twin: stateful count over
   the whole prefix (including the initial world view). *)
let prop_incr_stateful_eq_legacy =
  QCheck.Test.make ~count
    ~name:"Referee: incremental (stateful) = legacy twin" hk_arb
    (fun (h, k) ->
      let bad v = not (view_pred k v) in
      let incr =
        Referee.compact_incremental "incr-count"
          ~init:(fun v0 -> ((if bad v0 then 1 else 0), `Ok))
          ~step:(fun c v ->
            let c = if bad v then c + 1 else c in
            (c, Referee.verdict_of_bool (c <= k)))
      in
      let legacy =
        Helpers.compact_pred "legacy-count" (fun views ->
            Listx.count bad views <= k)
      in
      let vs = Referee.violations incr h in
      vs = Referee.violations legacy h
      && vs = Helpers.violations_prefix legacy h)

(* Violation lists are sorted round indices within 1..length. *)
let prop_violations_sorted_bounded =
  QCheck.Test.make ~count ~name:"Referee: violations sorted and in range"
    hk_arb
    (fun (h, k) ->
      let incr =
        Referee.compact_incremental "incr-head"
          ~init:(fun _v0 -> ((), `Ok))
          ~step:(fun () v -> ((), Referee.verdict_of_bool (view_pred k v)))
      in
      let vs = Referee.violations incr h in
      List.for_all (fun r -> r >= 1 && r <= History.length h) vs
      && List.sort compare vs = vs)

(* finite_exists = List.exists over the world views, and agrees with a
   list-predicate twin. *)
let prop_finite_exists_eq_list_exists =
  QCheck.Test.make ~count ~name:"Referee: finite_exists = List.exists"
    hk_arb
    (fun (h, k) ->
      let p v = not (view_pred k v) in
      let incr = Referee.finite_exists "seen-bad" p in
      let legacy = Helpers.finite_pred "seen-bad-legacy" (List.exists p) in
      let expected = List.exists p (History.world_views h) in
      Referee.decide_finite incr h = expected
      && Referee.decide_finite legacy h = expected
      && Referee.violations incr h
         = (if expected then [] else [ History.length h ]))

(* Stateful finite_incremental vs its list-predicate twin. *)
let prop_finite_incremental_eq_legacy =
  QCheck.Test.make ~count
    ~name:"Referee: finite_incremental (stateful) = legacy twin" hk_arb
    (fun (h, k) ->
      let bad v = not (view_pred k v) in
      let incr =
        Referee.finite_incremental "count-even"
          ~init:(fun v0 ->
            let c = if bad v0 then 1 else 0 in
            (c, Referee.verdict_of_bool (c mod 2 = 0)))
          ~step:(fun c v ->
            let c = if bad v then c + 1 else c in
            (c, Referee.verdict_of_bool (c mod 2 = 0)))
      in
      let legacy =
        Helpers.finite_pred "count-even-legacy" (fun views ->
            Listx.count bad views mod 2 = 0)
      in
      Referee.decide_finite incr h = Referee.decide_finite legacy h)

(* decider exposes the whole-list decision of a finite referee. *)
let prop_decider_eq_exists =
  QCheck.Test.make ~count ~name:"Referee: decider = List.exists"
    (QCheck.make
       QCheck.Gen.(pair (list_size (1 -- 12) msg_gen) k_gen))
    (fun (views, k) ->
      let p v = not (view_pred k v) in
      Referee.decider (Referee.finite_exists "seen" p) views
      = List.exists p views)

(* --- sensing: incremental instances vs whole-view references --- *)

let event_pred k (e : View.event) = not (view_pred k e.View.from_world)

module VL = Helpers.View_list

(* The library-wide sensing contract: the verdict stream of a sensor
   equals a whole-view reference function applied to every prefix of
   the projected view. *)
let sense_face_agrees sensor reference h =
  List.map snd (Sensing.verdicts sensor h)
  = List.map
      (fun view -> if reference view then Sensing.Positive else Sensing.Negative)
      (VL.prefixes h)

let latest_reference ~empty k view =
  match VL.latest view with None -> empty | Some e -> event_pred k e

let recent_reference ~window k view =
  List.exists (event_pred k) (Listx.take window (VL.events_rev view))

let few_negs_reference k view =
  Listx.count (fun e -> not (event_pred k e)) (VL.events view) <= k

(* Tolerant sensing on a whole view, re-sensing the base on up to
   [window] recent prefixes: Negative iff at least [threshold] of them
   are Negative. *)
let tolerant_reference ~window ~threshold base view =
  let depth = min window (VL.length view) in
  let negs = ref 0 in
  for k = 0 to depth - 1 do
    if not (base (VL.drop_latest k view)) then incr negs
  done;
  !negs < threshold

let prop_of_latest_face =
  QCheck.Test.make ~count ~name:"Sensing: of_latest incremental = sense"
    hk_arb
    (fun (h, k) ->
      let empty = k mod 2 = 0 in
      sense_face_agrees
        (Sensing.of_latest ~name:"latest" ~empty (event_pred k))
        (latest_reference ~empty k) h)

let prop_of_recent_face =
  QCheck.Test.make ~count ~name:"Sensing: of_recent incremental = sense"
    (QCheck.make QCheck.Gen.(triple history_gen k_gen (1 -- 6)))
    (fun (h, k, window) ->
      sense_face_agrees
        (Sensing.of_recent ~name:"recent" ~window (event_pred k))
        (recent_reference ~window k) h)

let prop_incremental_face =
  QCheck.Test.make ~count
    ~name:"Sensing: incremental (stateful) = make twin" hk_arb
    (fun (h, k) ->
      (* "fewer than k+1 negative events so far" — genuinely stateful. *)
      let incr =
        Sensing.incremental ~name:"few-negs"
          ~init:(fun () -> (0, Sensing.Positive))
          ~step:(fun negs e ->
            let negs = if event_pred k e then negs else negs + 1 in
            (negs, if negs <= k then Sensing.Positive else Sensing.Negative))
      in
      let twin =
        Helpers.of_view_predicate ~name:"few-negs-twin" (few_negs_reference k)
      in
      sense_face_agrees incr (few_negs_reference k) h
      && Sensing.verdicts incr h = Sensing.verdicts twin h)

let prop_of_latest_eq_make_twin =
  QCheck.Test.make ~count ~name:"Sensing: of_latest = make twin" hk_arb
    (fun (h, k) ->
      let empty = k mod 2 = 0 in
      let native =
        Sensing.of_latest ~name:"latest" ~empty (event_pred k)
      in
      let twin =
        Helpers.of_view_predicate ~name:"latest-twin"
          (latest_reference ~empty k)
      in
      Sensing.verdicts native h = Sensing.verdicts twin h)

let prop_of_recent_eq_make_twin =
  QCheck.Test.make ~count ~name:"Sensing: of_recent = make twin"
    (QCheck.make QCheck.Gen.(triple history_gen k_gen (1 -- 6)))
    (fun (h, k, window) ->
      let native = Sensing.of_recent ~name:"recent" ~window (event_pred k) in
      let twin =
        Helpers.of_view_predicate ~name:"recent-twin"
          (recent_reference ~window k)
      in
      Sensing.verdicts native h = Sensing.verdicts twin h)

(* Tolerant masking: the ring buffer must agree both with the
   whole-view re-sensing reference (via sense_face_agrees) and with a
   from-scratch reference computed over the raw verdict stream — the
   masked verdict at position i is Negative iff the last [window] raw
   verdicts up to i contain at least [threshold] negatives. *)
let prop_tolerant_face_and_reference =
  QCheck.Test.make ~count ~name:"Sensing: tolerant ring = legacy + reference"
    (QCheck.make
       QCheck.Gen.(
         pair (pair history_gen k_gen) (1 -- 6) >>= fun ((h, k), window) ->
         1 -- window >|= fun threshold -> (h, k, window, threshold)))
    (fun (h, k, window, threshold) ->
      let base = Sensing.of_latest ~name:"base" ~empty:true (event_pred k) in
      let tolerant = Sensing.tolerant ~window ~threshold base in
      let raw = Array.of_list (List.map snd (Sensing.verdicts base h)) in
      let expected =
        List.init (Array.length raw) (fun i ->
            let lo = max 0 (i - window + 1) in
            let negs = ref 0 in
            for j = lo to i do
              if raw.(j) = Sensing.Negative then incr negs
            done;
            if !negs >= threshold then Sensing.Negative else Sensing.Positive)
      in
      sense_face_agrees tolerant
        (tolerant_reference ~window ~threshold
           (latest_reference ~empty:true k))
        h
      && List.map snd (Sensing.verdicts tolerant h) = expected)

(* --- ring-buffer edge cases --- *)

let ev ~round ~fw =
  {
    View.round;
    from_server = Msg.Silence;
    from_world = fw;
    to_server = Msg.Silence;
    to_world = Msg.Silence;
    halted = false;
  }

let pos_msg = Msg.Int 1
let neg_msg = Msg.Int 0

let base_sensor =
  Sensing.of_latest ~name:"unit-base" ~empty:true (fun e ->
      Msg.equal e.View.from_world pos_msg)

(* Drive a tolerant instance over [msgs] and return the verdict after
   each observation. *)
let drive sensor msgs =
  let _, verdicts =
    List.fold_left
      (fun ((st, round), acc) fw ->
        let st = Sensing.observe st (ev ~round ~fw) in
        ((st, round + 1), Sensing.verdict st :: acc))
      ((Sensing.start sensor, 1), [])
      msgs
  in
  List.rev verdicts

let vl = Alcotest.(list (testable (Fmt.of_to_string (function
  | Sensing.Positive -> "+"
  | Sensing.Negative -> "-")) ( = )))

let test_tolerant_empty_positive () =
  let t = Sensing.tolerant ~window:8 ~threshold:3 base_sensor in
  Alcotest.(check bool)
    "empty view is Positive" true
    (Sensing.verdict (Sensing.start t) = Sensing.Positive)

let test_tolerant_window_one () =
  let t = Sensing.tolerant ~window:1 ~threshold:1 base_sensor in
  Alcotest.check vl "window=1 is the raw stream"
    Sensing.[ Negative; Positive; Negative; Negative ]
    (drive t [ neg_msg; pos_msg; neg_msg; neg_msg ])

let test_tolerant_threshold_eq_window () =
  let t = Sensing.tolerant ~window:3 ~threshold:3 base_sensor in
  Alcotest.check vl "negative only when the whole window is negative"
    Sensing.[ Positive; Positive; Negative; Negative; Positive ]
    (drive t [ neg_msg; neg_msg; neg_msg; neg_msg; pos_msg ])

let test_tolerant_window_exceeds_length () =
  let t = Sensing.tolerant ~window:8 ~threshold:8 base_sensor in
  Alcotest.check vl "threshold unreachable within a short run"
    Sensing.[ Positive; Positive; Positive ]
    (drive t [ neg_msg; neg_msg; neg_msg ])

let test_tolerant_eviction () =
  (* window=2, threshold=2: the r1 negative must be evicted by r3, so
     the two non-adjacent negatives never mask to Negative. *)
  let t = Sensing.tolerant ~window:2 ~threshold:2 base_sensor in
  Alcotest.check vl "evicted negatives stop counting"
    Sensing.[ Positive; Negative; Positive; Positive ]
    (drive t [ neg_msg; neg_msg; pos_msg; neg_msg ])

let test_tolerant_validation () =
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Sensing.tolerant: window must be positive") (fun () ->
      ignore (Sensing.tolerant ~window:0 ~threshold:1 base_sensor));
  Alcotest.check_raises "threshold must be in 1..window"
    (Invalid_argument "Sensing.tolerant: threshold must be in 1..window")
    (fun () -> ignore (Sensing.tolerant ~window:3 ~threshold:4 base_sensor))

let test_decider_compact_rejected () =
  let r =
    Referee.compact_incremental "c"
      ~init:(fun _ -> ((), `Ok))
      ~step:(fun () _ -> ((), `Ok))
  in
  Alcotest.check_raises "decider on compact"
    (Invalid_argument "Referee.decider: compact referee") (fun () ->
      ignore (Referee.decider r [ Msg.Silence ]));
  Alcotest.check_raises "decide_finite on compact"
    (Invalid_argument "Referee.decide_finite: compact referee") (fun () ->
      ignore (Referee.decide_finite r (History.make ~initial_world_view:Msg.Silence [])))

(* --- History length/prefix bookkeeping --- *)

let prop_history_length_prefix =
  QCheck.Test.make ~count ~name:"History: O(1) length and prefix agree"
    (QCheck.make QCheck.Gen.(pair history_gen (int_bound 32)))
    (fun (h, n) ->
      let p = History.prefix n h in
      History.length h = List.length (Helpers.history_rounds h)
      && Helpers.history_rounds p = Listx.take n (Helpers.history_rounds h)
      && History.length p = List.length (Helpers.history_rounds p))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compact_legacy_fold_eq_prefix;
      prop_incr_stateless_eq_legacy;
      prop_incr_stateful_eq_legacy;
      prop_violations_sorted_bounded;
      prop_finite_exists_eq_list_exists;
      prop_finite_incremental_eq_legacy;
      prop_decider_eq_exists;
      prop_of_latest_face;
      prop_of_recent_face;
      prop_incremental_face;
      prop_of_latest_eq_make_twin;
      prop_of_recent_eq_make_twin;
      prop_tolerant_face_and_reference;
      prop_history_length_prefix;
    ]

let () =
  Alcotest.run "incremental"
    [
      ("equivalence", suite);
      ( "ring buffer",
        [
          Alcotest.test_case "empty view" `Quick test_tolerant_empty_positive;
          Alcotest.test_case "window=1" `Quick test_tolerant_window_one;
          Alcotest.test_case "threshold=window" `Quick
            test_tolerant_threshold_eq_window;
          Alcotest.test_case "window > length" `Quick
            test_tolerant_window_exceeds_length;
          Alcotest.test_case "eviction" `Quick test_tolerant_eviction;
          Alcotest.test_case "validation" `Quick test_tolerant_validation;
          Alcotest.test_case "compact rejected" `Quick
            test_decider_compact_rejected;
        ] );
    ]
