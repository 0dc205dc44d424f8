(* Telemetry-layer tests: the binary event codec (qcheck roundtrips,
   including adversarial Text payloads; the boundary finder and decode
   fuzzing), the ring sink's wrap/eviction/compaction behaviour, its
   raw-slice push and its discard, the ring-vs-JSONL capture acceptance on a real
   supervised run, Rollup merge determinism across jobs counts, and the
   golden stats snapshot frozen by `goalcom trace-golden`. *)

open Goalcom
open Goalcom_session
open Goalcom_harness
module Binary = Goalcom_obs.Binary
module Ring = Goalcom_obs.Ring
module Rollup = Goalcom_obs.Rollup
module Jsonl = Goalcom_obs.Jsonl
module Trace_diff = Goalcom_obs.Trace_diff
module Json = Goalcom_obs.Json

let qcount = 200

(* --- Generators ------------------------------------------------------- *)

(* Adversarial strings: arbitrary bytes, so Text payloads cover NUL,
   newlines, quotes, and high bytes — everything the length-prefixed
   binary framing must carry verbatim (and at sizes straddling the
   word-copy / blit split at 8 and 16 bytes). *)
let raw_string_gen =
  QCheck.Gen.(
    map Bytes.unsafe_to_string
      (map
         (fun l -> Bytes.init (List.length l) (List.nth l))
         (list_size (0 -- 40) (map Char.chr (0 -- 255)))))

let msg_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Msg.Silence;
              map (fun s -> Msg.Sym s) (0 -- 1000);
              map (fun i -> Msg.Int i)
                (oneof [ small_signed_int; int; return min_int; return max_int ]);
              map (fun s -> Msg.Text s) raw_string_gen;
            ]
        in
        if n <= 1 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map2 (fun a b -> Msg.Pair (a, b)) (self (n / 2)) (self (n / 2))
              );
              (1, map (fun ms -> Msg.Seq ms) (list_size (0 -- 4) (self (n / 3))));
            ]))

let party_gen = QCheck.Gen.oneofl [ Trace.User; Trace.Server; Trace.World ]

let event_gen_with int_field =
  QCheck.Gen.(
    oneof
      [
        map
          (fun ((goal, user), (server, (horizon, (drain, world_choice)))) ->
            Trace.Run_start { goal; user; server; horizon; drain; world_choice })
          (pair
             (pair raw_string_gen raw_string_gen)
             (pair raw_string_gen (pair int_field (pair int_field int_field))));
        map (fun round -> Trace.Round_start { round }) int_field;
        map
          (fun (round, (src, (dst, msg))) ->
            Trace.Emit { round; src; dst; msg })
          (pair int_field (pair party_gen (pair party_gen msg_gen)));
        map (fun round -> Trace.Halt { round }) int_field;
        map
          (fun (round, (sensor, (positive, (clock, patience)))) ->
            Trace.Sense { round; sensor; positive; clock; patience })
          (pair int_field
             (pair raw_string_gen (pair bool (pair int_field int_field))));
        map
          (fun (round, (from_index, (to_index, attempt))) ->
            Trace.Switch { round; from_index; to_index; attempt })
          (pair int_field (pair int_field (pair int_field int_field)));
        map
          (fun (index, slots) -> Trace.Resume { index; slots })
          (pair int_field int_field);
        map
          (fun (round, (index, budget)) -> Trace.Session { round; index; budget })
          (pair int_field (pair int_field int_field));
        map
          (fun (round, (fault, detail)) -> Trace.Fault { round; fault; detail })
          (pair int_field (pair raw_string_gen raw_string_gen));
        map (fun round -> Trace.Violation { round }) int_field;
        map
          (fun (rounds, halted) -> Trace.Run_end { rounds; halted })
          (pair int_field bool);
        map
          (fun (tick, (session, (action, detail))) ->
            Trace.Supervise { tick; session; action; detail })
          (pair int_field (pair int_field (pair raw_string_gen raw_string_gen)));
        map
          (fun ((server_class, enum), (index, (accepted, detail))) ->
            Trace.Warm { server_class; enum; index; accepted; detail })
          (pair
             (pair raw_string_gen raw_string_gen)
             (pair (oneof [ int_field; return (-1) ]) (pair bool raw_string_gen)));
      ])

let event_gen =
  event_gen_with QCheck.Gen.(oneof [ small_nat; int_bound 100_000; return 0 ])

(* Every field over the whole int range: negative, and at both ends of
   the 63-bit domain, where zigzag and the nine-group varint are
   exercised. *)
let signed_event_gen =
  event_gen_with
    QCheck.Gen.(
      oneof [ small_signed_int; int; return min_int; return max_int; return (-1) ])

let event_arb =
  QCheck.make event_gen ~print:(fun ev -> Goalcom_obs.Jsonl.event_to_json ev)

(* --- Binary codec ----------------------------------------------------- *)

let prop_binary_roundtrip =
  QCheck.Test.make ~count:qcount ~name:"Binary: event roundtrips exactly"
    event_arb (fun ev ->
      match Binary.event_of_string (Binary.event_to_string ev) with
      | Ok ev' -> ev' = ev
      | Error e -> QCheck.Test.fail_report ("decode failed: " ^ e))

let prop_binary_stream_roundtrip =
  QCheck.Test.make ~count:(qcount / 2)
    ~name:"Binary: concatenated stream decodes in order"
    QCheck.(make QCheck.Gen.(list_size (0 -- 20) event_gen))
    (fun evs ->
      let b = Buffer.create 256 in
      List.iter (fun ev -> Buffer.add_string b (Binary.event_to_string ev)) evs;
      match Binary.decode_all (Buffer.contents b) with
      | Ok evs' -> evs' = evs
      | Error e -> QCheck.Test.fail_report ("decode_all failed: " ^ e))

(* A cursor used via [put_event] (append, no rewind — the ring's mode)
   frames every event so each slice decodes independently. *)
let prop_binary_cursor_slices =
  QCheck.Test.make ~count:(qcount / 2)
    ~name:"Binary: cursor appends decode slice by slice"
    QCheck.(make QCheck.Gen.(list_size (1 -- 12) event_gen))
    (fun evs ->
      let e = Trace_wire.create 16 in
      let slices =
        List.map
          (fun ev ->
            let start = Trace_wire.length e in
            Binary.put_event e ev;
            (start, Trace_wire.length e - start))
          evs
      in
      let buf = Trace_wire.bytes e in
      List.for_all2
        (fun ev (start, len) ->
          Binary.event_of_string (Bytes.sub_string buf start len) = Ok ev)
        evs slices)

let test_binary_rejects_garbage () =
  (match Binary.event_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty string decoded");
  (match Binary.event_of_string "\255\255\255\255" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad tag decoded");
  (* A truncated event must fail cleanly, not read out of bounds. *)
  let s = Binary.event_to_string (Trace.Fault { round = 9; fault = "f"; detail = "dddddddddd" }) in
  match Binary.event_of_string (String.sub s 0 (String.length s - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated event decoded"

(* The boundary finder walks an arena the way the engine's replay does:
   each step must land exactly where [decode] stops, and [iter]'s one-
   cursor loop must yield what [decode_all] does. *)
let prop_binary_skip_matches_decode =
  QCheck.Test.make ~count:qcount
    ~name:"Binary: skip_event ends where decode does; iter = decode_all"
    QCheck.(make ~print:(fun evs -> String.concat "\n" (List.map Goalcom_obs.Jsonl.event_to_json evs))
              QCheck.Gen.(list_size (0 -- 12) event_gen))
    (fun evs ->
      let e = Trace_wire.create 16 in
      List.iter (Binary.put_event e) evs;
      let b = Trace_wire.bytes e and len = Trace_wire.length e in
      let s = Bytes.sub_string b 0 len in
      let rec walk p =
        if p >= len then p = len
        else
          match Binary.decode ~pos:p s with
          | Error err -> QCheck.Test.fail_report ("decode failed: " ^ err)
          | Ok (_, q) ->
              let q' = Binary.skip_event b p in
              if q' <> q then
                QCheck.Test.fail_reportf "at %d: skip_event %d, decode %d" p q' q
              else walk q
      in
      let decoded = ref [] in
      Binary.iter (fun ev -> decoded := ev :: !decoded) b len;
      walk 0 && List.rev !decoded = evs)

(* Fuzz: [decode] on arbitrary bytes — raw noise, and valid encodings
   with a byte overwritten or the tail cut — answers [Ok] or [Error];
   it never raises. *)
let fuzz_bytes_gen =
  QCheck.Gen.(
    oneof
      [
        raw_string_gen;
        map3
          (fun ev at byte ->
            let s = Bytes.of_string (Binary.event_to_string ev) in
            Bytes.set s (at mod Bytes.length s) (Char.chr byte);
            Bytes.to_string s)
          event_gen nat (0 -- 255);
        map2
          (fun ev cut ->
            let s = Binary.event_to_string ev in
            String.sub s 0 (cut mod String.length s))
          event_gen nat;
      ])

let prop_binary_decode_never_raises =
  QCheck.Test.make ~count:(qcount * 5)
    ~name:"Binary: decode of arbitrary bytes is Ok or Error, never raises"
    QCheck.(make ~print:String.escaped fuzz_bytes_gen)
    (fun s ->
      match (Binary.decode s, Binary.decode_all s) with
      | (Ok _ | Error _), (Ok _ | Error _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* A Fault (tag 8) whose detail string claims [max_int] bytes (nine
   varint groups, bit 62 clear): the bounds check must not overflow
   into a [String.sub] that raises. *)
let test_binary_huge_length_is_error () =
  let s = "\008\002\001f" ^ "\255\255\255\255\255\255\255\255\063" ^ "xy" in
  match Binary.decode s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "enormous string length decoded"
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

(* --- Typed emitters ----------------------------------------------------- *)

(* The typed emitter for [ev]'s kind, called with [ev]'s fields. *)
let emit_typed h (ev : Trace.event) =
  match ev with
  | Trace.Run_start { goal; user; server; horizon; drain; world_choice } ->
      Trace.emit_run_start h ~goal ~user ~server ~horizon ~drain ~world_choice
  | Trace.Round_start { round } -> Trace.emit_round_start h ~round
  | Trace.Emit { round; src; dst; msg } -> Trace.emit_msg h ~round ~src ~dst msg
  | Trace.Halt { round } -> Trace.emit_halt h ~round
  | Trace.Sense { round; sensor; positive; clock; patience } ->
      Trace.emit_sense h ~round ~sensor ~positive ~clock ~patience
  | Trace.Switch { round; from_index; to_index; attempt } ->
      Trace.emit_switch h ~round ~from_index ~to_index ~attempt
  | Trace.Resume { index; slots } -> Trace.emit_resume h ~index ~slots
  | Trace.Session { round; index; budget } ->
      Trace.emit_session h ~round ~index ~budget
  | Trace.Fault { round; fault; detail } ->
      Trace.emit_fault h ~round ~fault ~detail
  | Trace.Violation { round } -> Trace.emit_violation h ~round
  | Trace.Run_end { rounds; halted } -> Trace.emit_run_end h ~rounds ~halted
  | Trace.Supervise { tick; session; action; detail } ->
      Trace.emit_supervise h ~tick ~session ~action ~detail
  | Trace.Warm { server_class; enum; index; accepted; detail } ->
      Trace.emit_warm h ~server_class ~enum ~index ~accepted ~detail

(* An offer whose only use is its wire. *)
let offer_of wire =
  { Trace.push = (fun _ _ _ -> ()); retain = max_int; discard = ignore; wire }

(* A wire target like the session engine's: an arena and a commit. *)
let arena_offer commit =
  let enc = Trace_wire.create 16 in
  (enc, offer_of (Trace.Write { enc; commit }))

(* Typed emission writes exactly the bytes [Binary] encodes for the
   built event, through each of the four targets: a session-style
   arena (one commit, at the offset the event starts), the ring's own
   [domain_sink] (one slot holding exactly those bytes), the JSONL
   sink's wire (the event's line), and a plain sink (the built event
   itself). *)
let prop_typed_emit_is_encode =
  QCheck.Test.make ~count:(qcount * 2)
    ~name:"typed emit bytes = Binary.encode of the built event"
    QCheck.(
      make ~print:(fun (p, ev) ->
          Printf.sprintf "prefix %d: %s" p (Goalcom_obs.Jsonl.event_to_json ev))
        QCheck.Gen.(pair (0 -- 40) signed_event_gen))
    (fun (prefix, ev) ->
      let expect = Binary.event_to_string ev in
      (* The arena: [prefix] bytes already there, as after earlier
         events. *)
      let starts = ref [] in
      let enc, offer = arena_offer (fun start -> starts := start :: !starts) in
      Trace_wire.put_slice enc (Bytes.make prefix 'p') 0 prefix;
      Trace.with_sink ~offer ignore (fun () -> emit_typed (Trace.handle ()) ev);
      let written =
        Bytes.sub_string (Trace_wire.bytes enc) prefix
          (Trace_wire.length enc - prefix)
      in
      let r = Ring.create ~capacity:4 in
      Trace.with_sink (Ring.domain_sink r) (fun () ->
          emit_typed (Trace.handle ()) ev);
      let jsonl = Buffer.create 64 in
      Trace.with_sink (Jsonl.buffer_sink jsonl) (fun () ->
          emit_typed (Trace.handle ()) ev);
      let built = ref [] in
      Trace.with_sink (fun e -> built := e :: !built) (fun () ->
          emit_typed (Trace.handle ()) ev);
      if written <> expect then
        QCheck.Test.fail_reportf "arena bytes %S, encode %S" written expect
      else if !starts <> [ prefix ] then
        QCheck.Test.fail_reportf "commits at [%s], want [%d]"
          (String.concat ";" (List.map string_of_int !starts))
          prefix
      else if Ring.slots r <> [ expect ] then
        QCheck.Test.fail_report "ring slot differs from the encoding"
      else if Buffer.contents jsonl <> Jsonl.event_to_json ev ^ "\n" then
        QCheck.Test.fail_reportf "jsonl wire line %S" (Buffer.contents jsonl)
      else !built = [ ev ])

(* A [Count] wire neither builds nor encodes: the counter runs once per
   emission and nothing else is touched. *)
let test_count_wire_only_counts () =
  let n = ref 0 and built = ref 0 in
  let offer = offer_of (Trace.Count (fun () -> incr n)) in
  let evs = QCheck.Gen.generate ~rand:(Random.State.make [| 5 |]) ~n:300 signed_event_gen in
  Trace.with_sink ~offer (fun _ -> incr built) (fun () ->
      let h = Trace.handle () in
      List.iter (emit_typed h) evs);
  Alcotest.(check int) "counted" 300 !n;
  Alcotest.(check int) "built" 0 !built

(* Minor words allocated by [f], net of the measurement's own float. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  (w2 -. w1) -. (w1 -. w0)

(* The engine's replay walks every kept arena with [skip_event]: the
   schema walk must allocate nothing, whatever the event kinds. *)
let rec skip_all b len p =
  if p < len then skip_all b len (Binary.skip_event b p) else p

let test_skip_event_allocates_nothing () =
  let evs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 11 |]) ~n:500 signed_event_gen
  in
  let e = Trace_wire.create 16 in
  List.iter (Binary.put_event e) evs;
  let b = Trace_wire.bytes e and len = Trace_wire.length e in
  let stop = ref 0 in
  let words = minor_words (fun () -> stop := skip_all b len 0) in
  Alcotest.(check int) "walked the whole arena" len !stop;
  Alcotest.(check (float 0.)) "minor words" 0. words

(* One traced round's events, written [n] times through the typed
   emitters: arguments are constants, so any word allocated is the
   emitters'. *)
let emit_rounds h n =
  let msg = Msg.Sym 2 in
  for round = 1 to n do
    Trace.emit_round_start h ~round;
    Trace.emit_sense h ~round ~sensor:"plant-in-range" ~positive:true ~clock:round
      ~patience:16;
    Trace.emit_msg h ~round ~src:Trace.User ~dst:Trace.Server msg;
    Trace.emit_msg h ~round ~src:Trace.World ~dst:Trace.User msg;
    Trace.emit_halt h ~round
  done

(* After warm-up (the arenas have grown to size), typed emission into a
   session-style arena and into the ring's shard allocates nothing. *)
let test_typed_emit_allocates_nothing () =
  let n = 2_000 and count = ref 0 in
  let enc, offer = arena_offer (fun _ -> incr count) in
  Trace.with_sink ~offer ignore (fun () ->
      let h = Trace.handle () in
      emit_rounds h n;
      Trace_wire.truncate enc 0;
      Alcotest.(check (float 0.)) "session arena: minor words" 0.
        (minor_words (fun () -> emit_rounds h n)));
  (* A ring that evicts and compacts on the measured pass too. *)
  let r = Ring.create ~capacity:(3 * n) in
  Trace.with_sink (Ring.domain_sink r) (fun () ->
      let h = Trace.handle () in
      emit_rounds h n;
      Alcotest.(check (float 0.)) "ring shard: minor words" 0.
        (minor_words (fun () -> emit_rounds h n)));
  Alcotest.(check bool) "ring evicted" true (Ring.evicted r > 0)

(* With no sink the typed emitters are a load and a branch: an untraced
   Summary stepper on the control kernel (steps 1001-2000 of seed 11)
   allocates 20 words per step.  They are the three obs records the
   stepper builds (4 + 3 + 3), the server's decoded obs (3) and the
   universal user's sensing event (7); "words per layer" in test_alloc
   pins the parts. *)
let test_untraced_step_allocation () =
  let alphabet = 4 in
  let dialects = Goalcom_automata.Dialect.enumerate_rotations ~size:alphabet in
  let module Control = Goalcom_goals.Control in
  let st =
    Exec.Stepper.create ~config:(Exec.config ~horizon:3000 ())
      ~retention:Exec.Stepper.Summary ~goal:(Control.goal ~alphabet ())
      ~user:(Control.universal_user ~alphabet dialects)
      ~server:(Control.server ~alphabet (Goalcom_automata.Enum.get_exn dialects 2))
      (Goalcom_prelude.Rng.make 11)
  in
  let steps () =
    for _ = 1 to 1000 do
      ignore (Exec.Stepper.step st)
    done
  in
  steps ();
  let per_step = minor_words steps /. 1000. in
  if per_step > 20. then
    Alcotest.failf "untraced step allocates %.3f words (at most 20)" per_step

(* --- Ring wrap / eviction / compaction -------------------------------- *)

let ev_of_int i =
  Trace.Emit { round = i; src = Trace.User; dst = Trace.Server; msg = Msg.Int i }

let test_ring_retains_before_wrap () =
  let r = Ring.create ~capacity:4 in
  let sink = Ring.sink r in
  List.iter (fun i -> sink (ev_of_int i)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "evicted" 0 (Ring.evicted r);
  Alcotest.(check int) "domains" 1 (Ring.domains r);
  Alcotest.(check bool) "events" true
    (Ring.events r = List.map ev_of_int [ 1; 2; 3 ])

let test_ring_wraps_to_last_capacity () =
  let r = Ring.create ~capacity:4 in
  let sink = Ring.sink r in
  for i = 1 to 10 do
    sink (ev_of_int i)
  done;
  Alcotest.(check int) "length" 4 (Ring.length r);
  Alcotest.(check int) "evicted" 6 (Ring.evicted r);
  Alcotest.(check bool) "last 4 retained" true
    (Ring.events r = List.map ev_of_int [ 7; 8; 9; 10 ]);
  Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Ring.length r);
  Alcotest.(check int) "evicted reset" 0 (Ring.evicted r);
  sink (ev_of_int 11);
  Alcotest.(check bool) "usable after clear" true
    (Ring.events r = [ ev_of_int 11 ])

(* Thousands of evictions with size-varying events: the arena compacts
   many times over; after every batch the ring must still decode to
   exactly the last [capacity] events. *)
let test_ring_compaction_preserves_tail () =
  let cap = 8 in
  let r = Ring.create ~capacity:cap in
  let sink = Ring.domain_sink r in
  let mk i =
    Trace.Fault
      { round = i; fault = "f"; detail = String.make (i mod 97) 'x' }
  in
  for batch = 0 to 49 do
    for k = 1 to 100 do
      sink (mk ((batch * 100) + k))
    done;
    let last = (batch * 100) + 100 in
    let expect = List.init cap (fun j -> mk (last - cap + 1 + j)) in
    if Ring.events r <> expect then
      Alcotest.failf "batch %d: tail mismatch after compaction" batch
  done;
  Alcotest.(check int) "evicted" (5000 - cap) (Ring.evicted r)

(* The raw-slice push shares the event push's index, eviction and
   compaction: pushing the encodings of a stream leaves the ring
   exactly as pushing the events does, byte for byte, at every
   checkpoint.  The stream is long enough that at each capacity the
   evicted bytes outgrow the retained ones plus the 4096-byte slack,
   which forces at least one arena compaction (asserted below). *)
let test_ring_encoded_push_matches_event_push () =
  let n = 12_000 in
  let evs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n event_gen
  in
  let e = Trace_wire.create 16 in
  let slices =
    List.map
      (fun ev ->
        let start = Trace_wire.length e in
        Binary.put_event e ev;
        (start, Trace_wire.length e - start))
      evs
  in
  let b = Trace_wire.bytes e in
  List.iter
    (fun capacity ->
      let by_event = Ring.create ~capacity and by_slice = Ring.create ~capacity in
      (* The raw push is reachable only as [domain_sink]'s offer. *)
      let push =
        let sink = Ring.domain_sink by_slice in
        match Trace.with_sink sink Trace.encoded with
        | Some push -> push
        | None -> Alcotest.fail "Ring.domain_sink offers no encoded push"
      in
      List.iteri
        (fun k (ev, (off, len)) ->
          Ring.sink by_event ev;
          push.Trace.push b off len;
          if (k + 1) mod 1000 = 0 then begin
            let at what =
              Printf.sprintf "capacity %d, %d pushed: %s" capacity (k + 1) what
            in
            Alcotest.(check int) (at "length") (Ring.length by_event) (Ring.length by_slice);
            Alcotest.(check int) (at "evicted") (Ring.evicted by_event) (Ring.evicted by_slice);
            Alcotest.(check (list string)) (at "slots") (Ring.slots by_event) (Ring.slots by_slice);
            Alcotest.(check bool) (at "events") true (Ring.events by_event = Ring.events by_slice)
          end)
        (List.combine evs slices);
      Alcotest.(check int) "evicted" (n - capacity) (Ring.evicted by_slice);
      let retained =
        List.fold_left (fun acc s -> acc + String.length s) 0 (Ring.slots by_slice)
      in
      let dead = Trace_wire.length e - retained in
      if dead <= retained + 4096 then
        Alcotest.failf "capacity %d: %d dead bytes never force a compaction" capacity dead)
    [ 1; 7; 4096 ]

(* The offer's [discard k] stands for [k] pushes the ring would evict:
   followed by at least [capacity] pushes, it leaves the ring exactly
   as pushing [k] events first would — whatever the ring held before,
   and whatever the [k] events were. *)
let prop_ring_discard_then_fill =
  QCheck.Test.make ~count:qcount
    ~name:"Ring: discard k then >= capacity pushes = k pushes first"
    QCheck.(
      make
        ~print:(fun (c, (p, (k, (m, _)))) ->
          Printf.sprintf "capacity %d, prefill %d, k %d, %d more" c p k m)
        QCheck.Gen.(
          pair (1 -- 40)
            (pair (0 -- 50) (pair (0 -- 100) (pair (0 -- 20) (list_size (return 210) event_gen))))))
    (fun (capacity, (prefill, (k, (extra, evs)))) ->
      let at i = List.nth evs (i mod List.length evs) in
      let pushed = Ring.create ~capacity and discarded = Ring.create ~capacity in
      let offer =
        match Trace.with_sink (Ring.domain_sink discarded) Trace.encoded with
        | Some o -> o
        | None -> QCheck.Test.fail_report "Ring.domain_sink makes no offer"
      in
      for i = 0 to prefill - 1 do
        Ring.sink pushed (at i);
        Ring.sink discarded (at i)
      done;
      for i = 0 to k - 1 do
        Ring.sink pushed (at (prefill + i))
      done;
      offer.Trace.discard k;
      for i = 0 to capacity + extra - 1 do
        let ev = at (prefill + k + i) in
        Ring.sink pushed ev;
        Ring.sink discarded ev
      done;
      Ring.slots pushed = Ring.slots discarded
      && Ring.length pushed = Ring.length discarded
      && Ring.evicted pushed = Ring.evicted discarded)

(* --- Capture acceptance: ring vs JSONL on a supervised run ------------ *)

let chaos_specs sessions = E18_chaos_matrix.specs ~sessions ()

let test_ring_matches_jsonl_capture () =
  let specs = chaos_specs 12 in
  let config = Engine.config ~quantum:32 () in
  let run () =
    ignore (Engine.run ~config ~jobs:2 ~specs ~seed:77 ())
  in
  let buf = ref [] in
  Trace.with_sink (fun ev -> buf := ev :: !buf) run;
  let jsonl_events = List.rev !buf in
  let r = Ring.create ~capacity:(List.length jsonl_events + 16) in
  Trace.with_sink (Ring.domain_sink r) run;
  let ring_events = Ring.events r in
  Alcotest.(check int) "no eviction" 0 (Ring.evicted r);
  (match Trace.check Trace.standard ring_events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "drained ring fails invariants: %s" e);
  (match Trace_diff.events jsonl_events ring_events with
  | None -> ()
  | Some d ->
      Alcotest.failf "ring / jsonl divergence: %s"
        (Trace_diff.to_string ~left_label:"jsonl" ~right_label:"ring" d));
  (* Same events -> byte-identical JSONL rendering. *)
  Alcotest.(check bool) "jsonl lines equal" true
    (Jsonl.to_lines jsonl_events = Jsonl.to_lines ring_events)

(* --- Rollup ------------------------------------------------------------ *)

(* The engine makes supervision decisions in its sequential phase, so a
   live rollup fed from on_supervise is bit-identical across jobs
   counts. *)
let test_rollup_deterministic_across_jobs () =
  let snapshot_at jobs =
    let specs = chaos_specs 16 in
    let class_of id = specs.(id).Engine.server_class in
    let r = Rollup.create ~class_of () in
    let on_supervise = Rollup.supervise r in
    ignore
      (Engine.run
         ~config:(Engine.config ~quantum:32 ())
         ~jobs ~on_supervise ~specs ~seed:5 ());
    Rollup.to_json (Rollup.snapshot r)
  in
  let s1 = snapshot_at 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d snapshot" jobs)
        s1 (snapshot_at jobs))
    [ 2; 4 ]

(* Merging shard rollups equals feeding one rollup the whole stream,
   and the merge is order-insensitive on the counters. *)
let test_rollup_merge_matches_single_stream () =
  let specs = chaos_specs 16 in
  let class_of id = specs.(id).Engine.server_class in
  let decisions = ref [] in
  ignore
    (Engine.run
       ~config:(Engine.config ~quantum:32 ())
       ~jobs:1
       ~on_supervise:(fun ~tick ~session ~action ~detail ->
         decisions := (tick, session, action, detail) :: !decisions)
       ~specs ~seed:5 ());
  let decisions = List.rev !decisions in
  let whole = Rollup.create ~class_of () in
  let a = Rollup.create ~class_of () in
  let b = Rollup.create ~class_of () in
  List.iteri
    (fun i (tick, session, action, detail) ->
      Rollup.supervise whole ~tick ~session ~action ~detail;
      Rollup.supervise (if i mod 2 = 0 then a else b) ~tick ~session ~action
        ~detail)
    decisions;
  Rollup.merge ~into:a b;
  Alcotest.(check string) "merged = single stream"
    (Rollup.to_json (Rollup.snapshot whole))
    (Rollup.to_json (Rollup.snapshot a))

let test_rollup_json_roundtrip () =
  let json = Trace_cases.rollup_stats () in
  match Json.parse json with
  | Error e -> Alcotest.failf "snapshot JSON unparseable: %s" e
  | Ok j -> (
      match Rollup.snapshot_of_json j with
      | Error e -> Alcotest.failf "snapshot_of_json: %s" e
      | Ok snap ->
          Alcotest.(check string) "re-rendered snapshot" json
            (Rollup.to_json snap))

(* Inputs the snapshot fuzzer found: a number beyond the float range
   (read as infinity, then printed as the non-JSON [inf]) and a class
   name with control bytes and a quote (printed with OCaml escapes that
   JSON rejects). *)
let test_rollup_json_hostile () =
  let with_text a b = Helpers.replace_first (Trace_cases.rollup_stats ()) a ~by:b in
  (match Json.parse (with_text "\"ticks\":5" "\"wall_s\":-1e999,\"ticks\":5") with
  | Ok _ -> Alcotest.fail "an out-of-range number parsed"
  | Error _ -> ());
  match
    Result.bind
      (Json.parse (with_text "\"class\":\"total\"" "\"class\":\"q\\u0001\\\"\\u00ff\""))
      Rollup.snapshot_of_json
  with
  | Error e -> Alcotest.failf "hostile class name rejected: %s" e
  | Ok snap -> (
      let json = Rollup.to_json snap in
      match Result.bind (Json.parse json) Rollup.snapshot_of_json with
      | Error e -> Alcotest.failf "re-rendered snapshot unreadable: %s" e
      | Ok back ->
          Alcotest.(check string) "class name round-trips" "q\001\"\255"
            back.Rollup.totals.Rollup.cls)

(* Fuzzed snapshots: the committed stats golden after text edits (the
   spec fuzzer's bytes, noise and slice edits) and after tree edits
   (members dropped or duplicated, then one value replaced or one
   member inserted, its text drawn from hostile literals: wrong shapes,
   out-of-range numbers, control bytes), read through Json.parse.  The
   reader answers Ok/Error (or raises Invalid_argument), never another
   exception, within a second; an accepted snapshot re-renders to JSON
   that reads back to the same snapshot. *)
let prop_snapshot_of_json_total =
  let open QCheck.Gen in
  let at_random items f =
    int_bound (List.length items - 1) >>= fun i ->
    f (List.nth items i) >|= fun ys ->
    List.concat (List.mapi (fun k y -> if k = i then ys else [ y ]) items)
  in
  let rec reshape = function
    | Json.Obj (_ :: _ as kvs) ->
        at_random kvs (fun ((k, v) as kv) ->
            oneof [ return []; return [ kv; kv ]; map (fun v -> [ (k, v) ]) (reshape v) ])
        >|= fun kvs -> Json.Obj kvs
    | Json.List (_ :: _ as l) ->
        at_random l (fun v ->
            oneof [ return []; return [ v; v ]; map (fun v -> [ v ]) (reshape v) ])
        >|= fun l -> Json.List l
    | v -> return v
  in
  (* One placeholder string per tree, swapped for a raw literal after
     printing — so the literal may be text no [Json.t] prints. *)
  let hole = Json.String "\000hole" in
  let rec plant v =
    let descend =
      match v with
      | Json.Obj (_ :: _ as kvs) ->
          frequency
            [
              ( 1,
                oneofl [ "ticks"; "wall_s"; "sessions_per_sec"; "class" ] >|= fun k ->
                Json.Obj ((k, hole) :: kvs) );
              ( 4,
                at_random kvs (fun (k, v) -> map (fun v -> [ (k, v) ]) (plant v))
                >|= fun kvs -> Json.Obj kvs );
            ]
      | Json.List (_ :: _ as l) ->
          at_random l (fun v -> map (fun v -> [ v ]) (plant v)) >|= fun l -> Json.List l
      | _ -> return hole
    in
    frequency [ (1, return hole); (4, descend) ]
  in
  let literals =
    [
      "null"; "true"; "-1"; "4611686018427387903"; "4611686018427387904"; "0.5";
      "1e999"; "-1e999"; "1e-999"; "1e300"; "\"\""; "\"q\\u0001\\\"\\u00ff\"";
      "[]"; "{}";
    ]
  in
  let swap_hole text literal =
    Helpers.replace_first text (Json.to_string hole) ~by:literal
  in
  let rec reshapes k v = if k = 0 then return v else reshape v >>= reshapes (k - 1) in
  (* Read when the first case is drawn: the suite runs in test/. *)
  let golden =
    lazy
      (String.concat "\n"
         (Jsonl.read_lines (Filename.concat "golden" "stats_e18_chaos.json")))
  in
  let gen st =
    let golden = Lazy.force golden in
    let tree_edits =
      match Json.parse golden with
      | Error e -> failwith e
      | Ok j ->
          int_range 0 2 >>= fun k ->
          reshapes k j >>= plant >>= fun j ->
          oneofl literals >|= swap_hole (Json.to_string j)
    in
    frequency [ (1, Helpers.spec_fuzz_gen ~valid:[ golden ]); (1, tree_edits) ] st
  in
  let roundtrips snap =
    let json = Rollup.to_json snap in
    match Result.bind (Json.parse json) Rollup.snapshot_of_json with
    | Ok back -> Rollup.to_json back = json
    | Error _ -> false
  in
  QCheck.Test.make ~count:2000
    ~name:"Rollup.snapshot_of_json: fuzzed input fails cleanly"
    (QCheck.make ~print:String.escaped gen)
    (Helpers.parser_total ~accepted:roundtrips (fun s ->
         Result.bind (Json.parse s) Rollup.snapshot_of_json))

(* Histogram edges: exact unit buckets below 64, bounded relative error
   above, deterministic merge. *)
let test_hist_edges () =
  let h = Rollup.Hist.create () in
  List.iter (Rollup.Hist.add h) [ 0; 1; 63; 64; 1000; 100_000 ];
  Alcotest.(check int) "total" 6 (Rollup.Hist.total h);
  Alcotest.(check int) "p0 exact" 0 (Rollup.Hist.percentile 0. h);
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "small value %d exact" v)
        v
        (Rollup.Hist.upper_of (Rollup.Hist.bucket_of v)))
    [ 0; 1; 13; 63 ];
  List.iter
    (fun v ->
      let ub = Rollup.Hist.upper_of (Rollup.Hist.bucket_of v) in
      if ub < v then Alcotest.failf "upper_of(bucket_of %d) = %d < v" v ub;
      if float_of_int (ub - v) > (float_of_int v /. 16.) +. 1. then
        Alcotest.failf "bucket error too large at %d: %d" v ub)
    [ 64; 65; 100; 1000; 12_345; 1_000_000 ]

(* --- Golden stats snapshot -------------------------------------------- *)

let test_stats_golden () =
  let path = Filename.concat "golden" "stats_e18_chaos.json" in
  let expected = String.concat "\n" (Jsonl.read_lines path) in
  let actual = Trace_cases.rollup_stats () in
  if expected <> actual then
    Alcotest.failf
      "stats snapshot drifted from %s;\nexpected: %s\nactual:   %s\n\
       if the change is intended, regenerate with `dune exec bin/main.exe -- \
       trace-golden test/golden`"
      path expected actual

let suite =
  [
    QCheck_alcotest.to_alcotest prop_binary_roundtrip;
    QCheck_alcotest.to_alcotest prop_binary_stream_roundtrip;
    QCheck_alcotest.to_alcotest prop_binary_cursor_slices;
    Alcotest.test_case "binary rejects garbage" `Quick
      test_binary_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_binary_skip_matches_decode;
    Alcotest.test_case "skip_event allocates nothing" `Quick
      test_skip_event_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_binary_decode_never_raises;
    Alcotest.test_case "binary huge string length" `Quick
      test_binary_huge_length_is_error;
    QCheck_alcotest.to_alcotest prop_typed_emit_is_encode;
    Alcotest.test_case "count wire only counts" `Quick test_count_wire_only_counts;
    Alcotest.test_case "typed emit allocates nothing" `Quick
      test_typed_emit_allocates_nothing;
    Alcotest.test_case "untraced step allocation" `Quick
      test_untraced_step_allocation;
    Alcotest.test_case "ring retains before wrap" `Quick
      test_ring_retains_before_wrap;
    Alcotest.test_case "ring wraps to last capacity" `Quick
      test_ring_wraps_to_last_capacity;
    Alcotest.test_case "ring compaction preserves tail" `Quick
      test_ring_compaction_preserves_tail;
    Alcotest.test_case "ring encoded push = event push" `Quick
      test_ring_encoded_push_matches_event_push;
    QCheck_alcotest.to_alcotest prop_ring_discard_then_fill;
    Alcotest.test_case "ring matches jsonl capture" `Quick
      test_ring_matches_jsonl_capture;
    Alcotest.test_case "rollup deterministic across jobs" `Quick
      test_rollup_deterministic_across_jobs;
    Alcotest.test_case "rollup merge = single stream" `Quick
      test_rollup_merge_matches_single_stream;
    Alcotest.test_case "rollup json roundtrip" `Quick
      test_rollup_json_roundtrip;
    Alcotest.test_case "rollup json hostile inputs" `Quick
      test_rollup_json_hostile;
    QCheck_alcotest.to_alcotest prop_snapshot_of_json_total;
    Alcotest.test_case "histogram edges" `Quick test_hist_edges;
    Alcotest.test_case "stats golden snapshot" `Quick test_stats_golden;
  ]

let () = Alcotest.run "telemetry" [ ("telemetry", suite) ]
