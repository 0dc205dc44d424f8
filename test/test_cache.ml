(* The decode cache and the warm-start store.

   Enum.cached is an optimisation, so most properties here are
   equivalences: cached enumerations = uncached ones, and the universal
   constructions (finite, compact, finite_par across jobs counts)
   produce bit-identical winners and histories whether they climb
   [Machine_user.user_class] directly or behind the cache.  Test names
   call the cached class "compiled", the vocabulary of bench part 7's
   metrics.  The warm-start tests pin the robustness contract: a hit
   replays the cold outcome from slot 0; corrupt stores, stale indices
   and bad budgets all fall back cold with a Trace.Warm event recording
   the rejection; saves are atomic; and no input file makes [load]
   raise. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
module Warm = Goalcom_harness.Warm

let qtest ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen law)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- the decode cache -------------------------------------------------- *)

let machines_2 = Mealy.enumerate ~states:2 ~inputs:2 ~outputs:2

let prop_cached_enum_equiv =
  qtest "Enum.cached: cached enumeration = plain enumeration"
    QCheck.(list_of_size Gen.(int_bound 40) (int_bound 300))
    (fun indices ->
      let cached, _lru = Enum.cached ~capacity:8 machines_2 in
      List.for_all
        (fun i ->
          Option.map Mealy.encode (Enum.get cached i)
          = Option.map Mealy.encode (Enum.get machines_2 i))
        indices)

(* --- the LRU itself --------------------------------------------------- *)

let prop_lru_computes_once =
  qtest "Lru: ample capacity computes each key exactly once"
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 9))
    (fun keys ->
      let lru = Lru.create ~capacity:16 in
      let computes = ref 0 in
      List.iter
        (fun k ->
          ignore
            (Lru.find_or_add lru k (fun k ->
                 incr computes;
                 k * k)))
        keys;
      let distinct = List.length (List.sort_uniq compare keys) in
      !computes = distinct
      && Lru.misses lru = distinct
      && Lru.hits lru + Lru.misses lru = List.length keys)

let prop_lru_bounded =
  qtest "Lru: length never exceeds capacity; capacity 0 never caches"
    QCheck.(pair (int_bound 4) (list_of_size Gen.(1 -- 60) (int_bound 20)))
    (fun (capacity, keys) ->
      let lru = Lru.create ~capacity in
      let computes = ref 0 in
      List.iter
        (fun k ->
          ignore
            (Lru.find_or_add lru k (fun k ->
                 incr computes;
                 k)))
        keys;
      Lru.length lru <= capacity
      && (capacity > 0 || (!computes = List.length keys && Lru.length lru = 0)))

let test_lru_eviction_order () =
  let lru = Lru.create ~capacity:2 in
  let get k = ignore (Lru.find_or_add lru k (fun k -> k)) in
  get 1;
  get 2;
  get 1;
  (* 1 refreshed: 2 is now the least recently used *)
  get 3;
  (* evicts 2 *)
  Alcotest.(check bool) "1 kept" true (Lru.mem lru 1);
  Alcotest.(check bool) "2 evicted" false (Lru.mem lru 2);
  Alcotest.(check bool) "3 present" true (Lru.mem lru 3);
  let hits, misses = (Lru.hits lru, Lru.misses lru) in
  Lru.clear lru;
  Alcotest.(check int) "cleared" 0 (Lru.length lru);
  Alcotest.(check (pair int int))
    "counters survive clear" (hits, misses)
    (Lru.hits lru, Lru.misses lru);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

(* --- saturation regression (Mealy.count / Enum.append) ---------------- *)

let test_count_saturation () =
  (* 8 states x 8 inputs x 8 outputs: (8*8)^64 >> max_int. *)
  Alcotest.(check int) "count saturates" max_int
    (Mealy.count ~states:8 ~inputs:8 ~outputs:8);
  let e = Mealy.enumerate ~states:8 ~inputs:8 ~outputs:8 in
  Alcotest.(check (option int))
    "saturated class reports None, not max_int" None (Enum.cardinality e);
  Alcotest.(check bool) "indices still decode" true (Enum.get e 0 <> None);
  (* A saturating non-final layer would make every layer above it
     unreachable; historically enumerate_up_to truncated silently. *)
  Alcotest.(check bool) "enumerate_up_to refuses a saturating layer" true
    (try
       ignore (Mealy.enumerate_up_to ~max_states:9 ~inputs:8 ~outputs:8);
       false
     with Invalid_argument _ -> true)

let test_append_overflow () =
  let huge = Enum.make ~name:"huge" ~card:max_int (fun _ -> Some 0) in
  let one = Enum.make ~name:"one" ~card:1 (fun _ -> Some 1) in
  Alcotest.(check (option int))
    "overflowing append is uncountable" None
    (Enum.cardinality (Enum.append huge one));
  Alcotest.(check (option int))
    "small append still counts" (Some 2)
    (Enum.cardinality (Enum.append one one))

(* --- the xor toy goal (as in test_machine_user) ----------------------- *)

let streak_needed = 6

let xor_world b =
  World.make
    ~name:(Printf.sprintf "xor-world(b=%d)" b)
    ~init:(fun () -> (0, 0, false))
    ~step:(fun _rng (round, streak, done_) (obs : Io.World.obs) ->
      let round = round + 1 in
      let expected = (round + b) mod 2 in
      let streak =
        match obs.from_user with
        | Msg.Sym s when s = expected -> streak + 1
        | Msg.Sym _ -> 0
        | _ -> streak
      in
      let done_ = done_ || streak >= streak_needed in
      let announce = if done_ then 2 else round mod 2 in
      ((round, streak, done_), Io.World.say_user (Msg.Int announce)))
    ~view:(fun (_, _, done_) -> Msg.Int (if done_ then 2 else 0))

let xor_goal b =
  Goal.make
    ~name:(Printf.sprintf "xor(b=%d)" b)
    ~worlds:[ xor_world b ]
    ~referee:(Helpers.finite_pred "converged" (fun views -> List.mem (Msg.Int 2) views))

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let sensing =
  Helpers.of_view_predicate ~name:"done" (fun view ->
      match Helpers.View_list.latest view with
      | Some { View.from_world = Msg.Int 2; _ } -> true
      | Some _ | None -> false)

let machines_1 = Mealy.enumerate_up_to ~max_states:1 ~inputs:3 ~outputs:2

let uncompiled_class () =
  Machine_user.user_class ~read:(Machine_user.read_world_int ~cap:3)
    ~write:Machine_user.write_world_sym machines_1

let compiled_class ~capacity () =
  fst (Enum.cached ~capacity (uncompiled_class ()))

let run_universal ~make_user ~b ~seed =
  let stats = Universal.new_stats () in
  let user = make_user ~stats in
  let outcome, history =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:600 ())
      ~goal:(xor_goal b) ~user ~server:idle_server (Rng.make seed)
  in
  (outcome.Outcome.achieved, stats.Universal.current_index, history)

(* --- universal constructions: cached class = plain class --------------- *)

let prop_finite_differential =
  qtest ~count:8 "Universal.finite: compiled+cached class = uncompiled class"
    QCheck.(pair (int_bound 1) (1 -- 1000))
    (fun (b, seed) ->
      let go enum =
        run_universal ~b ~seed ~make_user:(fun ~stats ->
            Universal.finite ~stats ~enum ~sensing ())
      in
      let ((achieved, _, _) as plain) = go (uncompiled_class ()) in
      achieved && plain = go (compiled_class ~capacity:8 ()))

let prop_compact_differential =
  qtest ~count:6 "Universal.compact: compiled+cached class = uncompiled class"
    QCheck.(pair (int_bound 1) (1 -- 1000))
    (fun (b, seed) ->
      let go enum =
        run_universal ~b ~seed ~make_user:(fun ~stats ->
            Universal.compact ~grace:20 ~stats ~enum ~sensing ())
      in
      go (uncompiled_class ()) = go (compiled_class ~capacity:8 ()))

let prop_cache_eviction_differential =
  (* Capacity 0 (always miss) and 1 (evicting on every candidate switch,
     i.e. mid-enumeration) must be behaviourally invisible. *)
  qtest ~count:6 "Universal.finite: cache sizes 0 and 1 change nothing"
    QCheck.(pair (int_bound 1) (1 -- 1000))
    (fun (b, seed) ->
      let go enum =
        run_universal ~b ~seed ~make_user:(fun ~stats ->
            Universal.finite ~stats ~enum ~sensing ())
      in
      let plain = go (uncompiled_class ()) in
      plain = go (compiled_class ~capacity:0 ())
      && plain = go (compiled_class ~capacity:1 ()))

let race_schedule () = Levin.round_robin ~budget:40 ~width:8 ()

let race ~enum ~b ~seed ~jobs =
  Universal.finite_par ~schedule:(race_schedule ()) ~max_slots:8 ~jobs ~enum
    ~sensing ~goal:(xor_goal b) ~server:idle_server ~seed ()

(* Everything but slots_probed, which is documented as
   scheduling-dependent above jobs = 1. *)
let race_fields = function
  | None -> None
  | Some (r : Universal.race) ->
      Some
        ( r.Universal.winner_slot,
          r.Universal.winner_index,
          r.Universal.winner_budget,
          r.Universal.winner_rounds,
          r.Universal.history )

let prop_finite_par_differential =
  qtest ~count:5
    "Universal.finite_par: compiled+cached = uncompiled at jobs 1/2/4"
    QCheck.(pair (int_bound 1) (1 -- 1000))
    (fun (b, seed) ->
      let base = race_fields (race ~enum:(uncompiled_class ()) ~b ~seed ~jobs:1) in
      base <> None
      && List.for_all
           (fun jobs ->
             race_fields (race ~enum:(compiled_class ~capacity:8 ()) ~b ~seed ~jobs)
             = base)
           [ 1; 2; 4 ])

(* --- warm-start store ------------------------------------------------- *)

(* Names mix plain text with the bytes the JSON writer must escape:
   quotes, backslashes and control characters, plus raw high bytes. *)
let gen_name =
  QCheck.Gen.(
    string_size (int_bound 12)
      ~gen:
        (frequency
           [
             (4, printable);
             (1, oneofl [ '"'; '\\' ]);
             (1, map Char.chr (int_bound 0x1f));
             (1, char);
           ]))

let arb_entry =
  QCheck.make
    ~print:Warm.entry_to_json
    QCheck.Gen.(
      map
        (fun ((c, e), (i, bu)) ->
          { Warm.server_class = c; enum = e; index = i; budget = bu })
        (pair (pair gen_name gen_name) (pair (int_bound 1000) (1 -- 1000))))

let prop_warm_roundtrip =
  qtest ~count:60 "Warm: save/load JSONL roundtrip"
    QCheck.(list_of_size Gen.(int_bound 10) arb_entry)
    (fun entries ->
      let path = Filename.temp_file "warm_rt" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Warm.save path entries;
          Warm.load path = Ok entries))

let test_warm_atomic_save () =
  let path = Filename.temp_file "warm_atomic" ".jsonl" in
  let tmp = path ^ ".tmp" in
  let entry index =
    { Warm.server_class = "c"; enum = "e"; index; budget = 1 }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (List.filter Sys.file_exists [ path; tmp ]))
    (fun () ->
      Warm.save path [ entry 1 ];
      Alcotest.(check bool) "no temp file after save" false (Sys.file_exists tmp);
      (* A writer that crashed before its rename leaves a partial temp
         file behind; the store itself is untouched. *)
      let oc = open_out tmp in
      output_string oc "{\"class\":\"c\",\"enu";
      close_out oc;
      Alcotest.(check bool) "stale temp file is ignored" true
        (Warm.load path = Ok [ entry 1 ]);
      Warm.save path [ entry 2 ];
      Alcotest.(check bool) "next save replaces the temp file" false
        (Sys.file_exists tmp);
      Alcotest.(check bool) "store round-trips" true
        (Warm.load path = Ok [ entry 2 ]))

(* Arbitrary bytes, and valid store lines cut short or with one byte
   overwritten: [load] answers Ok or Error and never raises. *)
let gen_store_bytes =
  QCheck.Gen.(
    let valid =
      list_size (1 -- 3) (QCheck.gen arb_entry) >|= fun es ->
      String.concat "" (List.map (fun e -> Warm.entry_to_json e ^ "\n") es)
    in
    frequency
      [
        (1, string_size ~gen:char (int_bound 200));
        ( 1,
          valid >>= fun s ->
          int_bound (String.length s) >|= fun cut -> String.sub s 0 cut );
        ( 1,
          valid >>= fun s ->
          pair (int_bound (String.length s - 1)) char >|= fun (at, c) ->
          String.mapi (fun i c' -> if i = at then c else c') s );
      ])

let prop_warm_load_fuzz =
  qtest ~count:500 "Warm.load: arbitrary bytes never raise"
    (QCheck.make ~print:String.escaped gen_store_bytes)
    (fun bytes ->
      let path = Filename.temp_file "warm_fuzz" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc bytes;
          close_out oc;
          match Warm.load path with Ok _ | Error _ -> true))

let prop_warm_record_lookup =
  qtest ~count:60 "Warm: record then lookup; re-record replaces, not grows"
    QCheck.(pair (list_of_size Gen.(int_bound 6) arb_entry) arb_entry)
    (fun (entries, e) ->
      let once = Warm.record entries e in
      let bumped = { e with Warm.budget = e.Warm.budget + 1 } in
      let twice = Warm.record once bumped in
      Warm.lookup once ~server_class:e.Warm.server_class ~enum:e.Warm.enum
      = Some e
      && List.length twice = List.length once
      && Warm.lookup twice ~server_class:e.Warm.server_class ~enum:e.Warm.enum
         = Some bumped)

let prop_levin_hinted =
  qtest ~count:50 "Levin.hinted: prepends hints; rejects invalid ones"
    QCheck.(list_of_size Gen.(int_bound 5) (pair (int_bound 50) (1 -- 50)))
    (fun raw ->
      let hints = List.map (fun (i, b) -> { Levin.index = i; budget = b }) raw in
      let sched = Levin.hinted ~hints (Levin.schedule ()) in
      List.of_seq (Seq.take (List.length hints) sched) = hints
      && (try
            let (_ : Levin.slot Seq.t) =
              Levin.hinted
                ~hints:[ { Levin.index = -1; budget = 3 } ]
                (Levin.schedule ())
            in
            false
          with Invalid_argument _ -> true)
      && (try
            let (_ : Levin.slot Seq.t) =
              Levin.hinted
                ~hints:[ { Levin.index = 0; budget = 0 } ]
                (Levin.schedule ())
            in
            false
          with Invalid_argument _ -> true))

let test_warm_corrupt_and_missing () =
  let path = Filename.temp_file "warm_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "{\"class\":\"a\",\"enum\":\"b\",\"index\":1,\"budget\":2}\nnot json\n";
      close_out oc;
      match Warm.load path with
      | Error e ->
          Alcotest.(check bool) "error names the line" true
            (contains ~affix:"line 2" e)
      | Ok _ -> Alcotest.fail "corrupt store loaded");
  match Warm.load "/nonexistent/warm.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing store loaded"

(* Run [f] under a capturing sink; return its result plus every
   Trace.Warm event's (accepted, index). *)
let collect_warm_events f =
  let events = ref [] in
  let result =
    Trace.with_sink
      (function
        | Trace.Warm { accepted; index; _ } ->
            events := (accepted, index) :: !events
        | _ -> ())
      f
  in
  (result, List.rev !events)

let test_warm_hint_validation () =
  let enum = compiled_class ~capacity:4 () in
  let entry index budget =
    { Warm.server_class = "xor"; enum = Enum.name enum; index; budget }
  in
  (* Valid entry: one hint slot, accepted event. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Ok [ entry 3 17 ]))
  in
  Alcotest.(check bool) "hint applied" true
    (hints = [ { Levin.index = 3; budget = 17 } ]);
  Alcotest.(check (list (pair bool int))) "accepted event" [ (true, 3) ] evs;
  (* Stale index (the class has 8 candidates): rejected, cold fallback. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Ok [ entry 999 17 ]))
  in
  Alcotest.(check bool) "stale rejected" true (hints = []);
  Alcotest.(check (list (pair bool int))) "rejected event" [ (false, 999) ] evs;
  (* Bad budget: rejected. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Ok [ entry 3 0 ]))
  in
  Alcotest.(check bool) "bad budget rejected" true (hints = []);
  Alcotest.(check (list (pair bool int))) "bad-budget event" [ (false, 3) ] evs;
  (* Load error: cold start, index -1 in the event. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Error "warm.jsonl: line 2: bad"))
  in
  Alcotest.(check bool) "error store is a cold start" true (hints = []);
  Alcotest.(check (list (pair bool int))) "error event" [ (false, -1) ] evs;
  (* Plain miss: silent cold start. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"other" (Ok [ entry 3 17 ]))
  in
  Alcotest.(check bool) "miss is silent" true (hints = [] && evs = [])

let test_warm_replay_race () =
  (* A cold race's outcome, recorded with of_race and replayed through
     hinted_schedule, wins at slot 0 with the same candidate. *)
  let enum = compiled_class ~capacity:8 () in
  match race ~enum ~b:1 ~seed:3 ~jobs:2 with
  | None -> Alcotest.fail "cold race found no winner"
  | Some cold -> (
      let entry = Warm.of_race ~server_class:"xor/b1" ~enum cold in
      let path = Filename.temp_file "warm_replay" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Warm.save path [ entry ];
          let store = Warm.load path in
          Alcotest.(check bool) "store loads" true (store = Ok [ entry ]);
          let schedule =
            Warm.hinted_schedule ~schedule:(race_schedule ()) ~enum
              ~server_class:"xor/b1" store
          in
          match
            Universal.finite_par ~schedule ~max_slots:9 ~jobs:2 ~enum ~sensing
              ~goal:(xor_goal 1) ~server:idle_server ~seed:3 ()
          with
          | None -> Alcotest.fail "warm race found no winner"
          | Some warm ->
              Alcotest.(check int) "same winning candidate"
                cold.Universal.winner_index warm.Universal.winner_index;
              Alcotest.(check int) "won at the hint slot" 0
                warm.Universal.winner_slot))

(* --- registration ----------------------------------------------------- *)

let () =
  Alcotest.run "cache"
    [
      ("compiled", [ prop_cached_enum_equiv ]);
      ( "lru",
        [
          prop_lru_computes_once;
          prop_lru_bounded;
          Alcotest.test_case "eviction order & validation" `Quick
            test_lru_eviction_order;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "Mealy.count saturation is explicit" `Quick
            test_count_saturation;
          Alcotest.test_case "Enum.append overflow is explicit" `Quick
            test_append_overflow;
        ] );
      ( "universal",
        [
          prop_finite_differential;
          prop_compact_differential;
          prop_cache_eviction_differential;
          prop_finite_par_differential;
        ] );
      ( "warm",
        [
          prop_warm_roundtrip;
          prop_warm_record_lookup;
          prop_levin_hinted;
          prop_warm_load_fuzz;
          Alcotest.test_case "corrupt & missing stores" `Quick
            test_warm_corrupt_and_missing;
          Alcotest.test_case "atomic save & stale temp file" `Quick
            test_warm_atomic_save;
          Alcotest.test_case "hint validation & tracing" `Quick
            test_warm_hint_validation;
          Alcotest.test_case "race replay from a warm hint" `Quick
            test_warm_replay_race;
        ] );
    ]
