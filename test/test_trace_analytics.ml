(* Analytics-layer suite (lib/obs): the JSONL reader inverts the writer
   on arbitrary events (qcheck), the committed golden files parse back
   and satisfy the standard invariants, span attribution sums exactly
   to the run totals, Trace_diff reports first divergences, the Json
   printer round-trips through the reader (which never raises on
   noise), and the Bench_gate regression predicate passes identical
   metrics while failing an injected 50% regression, a vanished hard
   gate and a baseline with repeated names. *)

open Goalcom
open Goalcom_harness
module Obs = Goalcom_obs

let qcount = 250

(* Arbitrary messages, biased toward the adversarial corners of the
   Text escaping (quotes, backslashes, control and high bytes). *)
let msg_gen =
  QCheck.Gen.(
    sized_size (int_bound 4) @@ fix (fun self n ->
        let any_byte = map Char.chr (int_bound 255) in
        let leaf =
          oneof
            [
              return Msg.Silence;
              map (fun i -> Msg.Sym i) (int_bound 30);
              map (fun i -> Msg.Int (i - 500)) (int_bound 1000);
              map (fun s -> Msg.Text s) (string_size ~gen:any_byte (int_bound 8));
              map
                (fun s -> Msg.Text s)
                (oneofl [ "\""; "\\"; "a\"b\\c"; "\n\t\r\b"; "\255\001"; "" ]);
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map2 (fun a b -> Msg.Pair (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun l -> Msg.Seq l) (list_size (int_bound 3) (self (n / 2))));
            ]))

let party_gen = QCheck.Gen.oneofl [ Trace.User; Trace.Server; Trace.World ]

(* Name-ish strings exercise the JSON (not Msg) escaping path. *)
let name_gen =
  QCheck.Gen.oneofl
    [ "printing(alphabet=3)"; "g\"x"; "maze\\y"; ""; "a b\nc"; "\195\169!" ]

let event_gen =
  QCheck.Gen.(
    let nat = int_bound 5000 in
    oneof
      [
        map3
          (fun goal user (server, horizon, drain, world_choice) ->
            Trace.Run_start { goal; user; server; horizon; drain; world_choice })
          name_gen name_gen
          (quad name_gen nat (int_bound 9) (int_bound 9));
        map (fun round -> Trace.Round_start { round }) nat;
        map3
          (fun round (src, dst) msg -> Trace.Emit { round; src; dst; msg })
          nat (pair party_gen party_gen) msg_gen;
        map (fun round -> Trace.Halt { round }) nat;
        map3
          (fun round sensor (positive, clock, patience) ->
            Trace.Sense { round; sensor; positive; clock; patience })
          nat name_gen
          (triple bool nat nat);
        map2
          (fun round (from_index, to_index, attempt) ->
            Trace.Switch { round; from_index; to_index; attempt })
          nat
          (triple (int_bound 40) (int_bound 40) (int_bound 6));
        map2 (fun index slots -> Trace.Resume { index; slots }) (int_bound 40) nat;
        map3
          (fun round index budget -> Trace.Session { round; index; budget })
          nat (int_bound 40) nat;
        map3
          (fun round fault detail -> Trace.Fault { round; fault; detail })
          nat name_gen name_gen;
        map (fun round -> Trace.Violation { round }) nat;
        map2 (fun rounds halted -> Trace.Run_end { rounds; halted }) nat bool;
        map3
          (fun tick session (action, detail) ->
            Trace.Supervise { tick; session; action; detail })
          nat nat (pair name_gen name_gen);
        map3
          (fun (server_class, enum) (index, accepted) detail ->
            Trace.Warm { server_class; enum; index; accepted; detail })
          (pair name_gen name_gen)
          (pair (int_range (-1) 40) bool)
          name_gen;
      ])

let event_arb = QCheck.make event_gen ~print:Obs.Jsonl.event_to_json

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:qcount
    ~name:"Jsonl: parse_line (event_to_json e) = Ok e" event_arb (fun e ->
      match Obs.Jsonl.parse_line (Obs.Jsonl.event_to_json e) with
      | Ok e' -> e' = e
      | Error msg -> QCheck.Test.fail_report msg)

(* The byte format itself is pinned by the goldens; pin one line per
   event kind here too, with the adversarial corners (both ends of the
   int range, negatives, quotes, backslashes, control and high bytes,
   nested messages), so a renderer change cannot hide behind a golden
   regeneration. *)
let exact_bytes () =
  let check expected ev =
    Alcotest.(check string) expected expected (Obs.Jsonl.event_to_json ev)
  in
  check
    {|{"ev":"run_start","goal":"g\"x","user":"u\\v","server":"s\tt","horizon":4611686018427387903,"drain":0,"world_choice":-1}|}
    (Trace.Run_start
       {
         goal = "g\"x";
         user = "u\\v";
         server = "s\tt";
         horizon = max_int;
         drain = 0;
         world_choice = -1;
       });
  check {|{"ev":"round_start","round":7}|} (Trace.Round_start { round = 7 });
  check
    {|{"ev":"emit","round":1,"src":"user","dst":"server","msg":"\"a\\\"b\\\\c\\nd\""}|}
    (Trace.Emit
       {
         round = 1;
         src = Trace.User;
         dst = Trace.Server;
         msg = Msg.Text "a\"b\\c\nd";
       });
  check
    {|{"ev":"emit","round":-4611686018427387904,"src":"world","dst":"user","msg":"([#3;-4;_],(\"q\\\"\\\\\\001\\255\\n\",[]))"}|}
    (Trace.Emit
       {
         round = min_int;
         src = Trace.World;
         dst = Trace.User;
         msg =
           Msg.Pair
             ( Msg.Seq [ Msg.Sym 3; Msg.Int (-4); Msg.Silence ],
               Msg.Pair (Msg.Text "q\"\\\001\255\n", Msg.Seq []) );
       });
  check {|{"ev":"halt","round":4611686018427387903}|}
    (Trace.Halt { round = max_int });
  check
    {|{"ev":"sense","round":3,"sensor":"grace\u0002","positive":false,"clock":-5,"patience":-4611686018427387904}|}
    (Trace.Sense
       {
         round = 3;
         sensor = "grace\002";
         positive = false;
         clock = -5;
         patience = min_int;
       });
  check {|{"ev":"switch","round":12,"from":2,"to":3,"attempt":-1}|}
    (Trace.Switch { round = 12; from_index = 2; to_index = 3; attempt = -1 });
  check {|{"ev":"resume","index":0,"slots":7}|}
    (Trace.Resume { index = 0; slots = 7 });
  check {|{"ev":"session","round":1,"index":-2,"budget":64}|}
    (Trace.Session { round = 1; index = -2; budget = 64 });
  check
    ({|{"ev":"fault","round":4,"fault":"corrupt","detail":"a\"b\\c\n\u0001|}
    ^ "\255\"}")
    (Trace.Fault
       { round = 4; fault = "corrupt"; detail = "a\"b\\c\n\001\255" });
  check {|{"ev":"violation","round":-1}|} (Trace.Violation { round = -1 });
  check {|{"ev":"run_end","rounds":0,"halted":true}|}
    (Trace.Run_end { rounds = 0; halted = true });
  check
    {|{"ev":"supervise","tick":9,"session":3,"action":"restart","detail":""}|}
    (Trace.Supervise { tick = 9; session = 3; action = "restart"; detail = "" });
  check
    {|{"ev":"warm","class":"printing","enum":"dialects","index":-1,"accepted":false,"detail":"stale \"7\"\\"}|}
    (Trace.Warm
       {
         server_class = "printing";
         enum = "dialects";
         index = -1;
         accepted = false;
         detail = "stale \"7\"\\";
       })

(* The writers replace a trace file whole: a callback that raises
   mid-write leaves the previous file as it was and no temporary file
   behind, and a finished write leaves only the new file. *)
let writers_atomic () =
  let path = Filename.temp_file "jsonl_atomic" ".jsonl" in
  let tmp = path ^ ".tmp" in
  let old = [ Trace.Round_start { round = 1 }; Trace.Halt { round = 1 } ] in
  let fresh = [ Trace.Round_start { round = 2 } ] in
  let on_disk what expected =
    Alcotest.(check bool) what true (Obs.Jsonl.of_file path = Ok expected);
    Alcotest.(check bool) (what ^ ": no temp file") false (Sys.file_exists tmp)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (List.filter Sys.file_exists [ path; tmp ]))
    (fun () ->
      Obs.Jsonl.to_file path old;
      on_disk "to_file writes" old;
      (match
         Obs.Jsonl.with_file ~buffer_bytes:1 path (fun sink ->
             List.iter sink fresh;
             failwith "writer died")
       with
      | () -> Alcotest.fail "the callback's exception was swallowed"
      | exception Failure _ -> ());
      on_disk "a raising callback keeps the old file" old;
      Obs.Jsonl.with_file path (fun sink -> List.iter sink fresh);
      on_disk "with_file replaces" fresh)

(* Committed golden files: parse back, revalidate, re-serialize
   byte-identically. *)
let golden_path name = Filename.concat "golden" (name ^ ".jsonl")

let golden_roundtrip (c : Trace_cases.case) () =
  let path = golden_path c.name in
  match Obs.Jsonl.of_file path with
  | Error e -> Alcotest.fail e
  | Ok events ->
      (match Trace.check Trace.standard events with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: invariants: %s" c.name msg);
      Alcotest.(check (list string))
        "re-serialization is byte-identical"
        (Obs.Jsonl.read_lines path)
        (Obs.Jsonl.to_lines events)

(* Fuzz the reader from the committed goldens' own lines (mutated,
   spliced, or raw noise): [parse_line] answers [Ok] or [Error] and
   never raises, and a line that parses re-renders to a line that
   parses back to the same event. *)
let golden_lines =
  lazy
    (Sys.readdir "golden" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.concat_map (fun f -> Obs.Jsonl.read_lines (Filename.concat "golden" f))
    |> List.sort_uniq compare)

let parses_cleanly line =
  match Obs.Jsonl.parse_line line with
  | Error _ -> true
  | Ok ev -> Obs.Jsonl.parse_line (Obs.Jsonl.event_to_json ev) = Ok ev
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let prop_jsonl_fuzz =
  QCheck.Test.make ~count:(qcount * 4)
    ~name:"Jsonl.parse_line: fuzzed lines fail cleanly"
    (QCheck.make ~print:String.escaped
       (Helpers.spec_fuzz_gen ~valid:(Lazy.force golden_lines)))
    parses_cleanly

(* The same through [of_file]: a file of fuzzed lines, plus a message
   nested a million deep and a million unclosed brackets. *)
let jsonl_fuzz_file () =
  let deep = 1_000_000 in
  let emit msg =
    {|{"ev":"emit","round":1,"src":"user","dst":"server","msg":"|} ^ msg ^ {|"}|}
  in
  let deep_lines =
    [
      emit
        (String.concat "" (List.init deep (fun _ -> "(#1,"))
        ^ "_" ^ String.make deep ')');
      emit (String.make deep '[');
    ]
  in
  List.iter
    (fun l -> Alcotest.(check bool) "deep line" true (parses_cleanly l))
    deep_lines;
  let lines =
    deep_lines
    @ QCheck.Gen.generate ~rand:(Random.State.make [| 27 |]) ~n:500
        (Helpers.spec_fuzz_gen ~valid:(Lazy.force golden_lines))
  in
  let path = Filename.temp_file "jsonl_fuzz" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Goalcom_prelude.File.write_atomic path (String.concat "\n" lines);
      match Obs.Jsonl.of_file path with
      | Ok _ | Error _ -> ()
      | exception e -> Alcotest.failf "of_file raised %s" (Printexc.to_string e))

(* Attribution: every Round_start is charged to exactly one span, so
   per-candidate rounds sum to the run totals — pinned on the goldens
   (e3_maze is the multi-run file). *)
let attribution_sums (c : Trace_cases.case) () =
  let events =
    match Obs.Jsonl.of_file (golden_path c.name) with
    | Ok ev -> ev
    | Error e -> Alcotest.fail e
  in
  let runs = Obs.Span.of_events events in
  Alcotest.(check bool) "at least one run" true (runs <> []);
  List.iter
    (fun (r : Obs.Span.run) ->
      let spans_sum =
        List.fold_left (fun acc (s : Obs.Span.span) -> acc + s.rounds) 0 r.spans
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: span rounds sum to run total" c.name)
        r.rounds spans_sum)
    runs;
  let ledger = Obs.Span.ledger runs in
  let total_run_rounds =
    List.fold_left (fun acc (r : Obs.Span.run) -> acc + r.rounds) 0 runs
  in
  Alcotest.(check int) "ledger total matches" total_run_rounds
    ledger.Obs.Span.total_rounds;
  Alcotest.(check int) "winning + wasted = total" ledger.Obs.Span.total_rounds
    (ledger.Obs.Span.winning_rounds + ledger.Obs.Span.wasted_rounds)

let e1_winner_rounds () =
  (* The E1 golden halts; its winning rounds are exactly the rounds
     charged to the winning candidate. *)
  let events =
    match Obs.Jsonl.of_file (golden_path "e1_printing") with
    | Ok ev -> ev
    | Error e -> Alcotest.fail e
  in
  match Obs.Span.of_events events with
  | [ run ] ->
      Alcotest.(check bool) "halted" true run.Obs.Span.halted;
      Alcotest.(check bool) "has a winner" true (run.Obs.Span.winner <> None)
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

(* Trace_diff *)

let diff_identical () =
  let lines = Obs.Jsonl.read_lines (golden_path "e1_printing") in
  match Obs.Trace_diff.lines lines lines with
  | None -> ()
  | Some d -> Alcotest.failf "spurious divergence: %s" d.Obs.Trace_diff.detail

let diff_different_runs () =
  (* Two different reference runs diverge at line 1 (the Run_start). *)
  let a = Obs.Jsonl.read_lines (golden_path "e1_printing") in
  let b = Obs.Jsonl.read_lines (golden_path "e16_crash") in
  match Obs.Trace_diff.lines a b with
  | Some d ->
      Alcotest.(check int) "diverges at line 1" 1 d.Obs.Trace_diff.position;
      Alcotest.(check bool) "kind-aware detail" true
        (String.length d.Obs.Trace_diff.detail > 0)
  | None -> Alcotest.fail "distinct traces reported identical"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let diff_field_detail () =
  let ev round = Trace.Round_start { round } in
  match Obs.Trace_diff.events [ ev 1; ev 2 ] [ ev 1; ev 3 ] with
  | Some d ->
      Alcotest.(check int) "position" 2 d.Obs.Trace_diff.position;
      Alcotest.(check bool)
        (Printf.sprintf "detail names the field: %s" d.Obs.Trace_diff.detail)
        true
        (contains d.Obs.Trace_diff.detail "round 2 vs 3")
  | None -> Alcotest.fail "no divergence found"

let diff_tail () =
  let ev round = Trace.Round_start { round } in
  match Obs.Trace_diff.events [ ev 1; ev 2 ] [ ev 1 ] with
  | Some d ->
      Alcotest.(check int) "position" 2 d.Obs.Trace_diff.position;
      Alcotest.(check bool) "right side ended" true (d.Obs.Trace_diff.right = None)
  | None -> Alcotest.fail "length mismatch not reported"

(* Bench_gate *)

let gate_metrics name value = { Obs.Bench_gate.name; value }

let sample_metrics =
  [
    gate_metrics "no_sink_overhead_pct" 0.4;
    gate_metrics "jsonl sink (buffer)/overhead_pct" 120.0;
    gate_metrics "untraced replica/ms_per_run" 0.057;
  ]

let gate_identical_passes () =
  let cs =
    Obs.Bench_gate.compare_metrics ~baseline:sample_metrics ~fresh:sample_metrics
      ()
  in
  Alcotest.(check int) "all compared" (List.length sample_metrics)
    (List.length cs);
  Alcotest.(check int) "no regressions" 0
    (List.length (Obs.Bench_gate.regressions cs))

let gate_injected_regression_fails () =
  (* A 50% blowup on a relative (pct) metric must trip the gate. *)
  let fresh =
    List.map
      (fun (m : Obs.Bench_gate.metric) ->
        if m.name = "jsonl sink (buffer)/overhead_pct" then
          { m with Obs.Bench_gate.value = m.value *. 1.5 }
        else m)
      sample_metrics
  in
  let cs = Obs.Bench_gate.compare_metrics ~baseline:sample_metrics ~fresh () in
  let regs = Obs.Bench_gate.regressions cs in
  Alcotest.(check int) "exactly one regression" 1 (List.length regs);
  Alcotest.(check string)
    "the right metric" "jsonl sink (buffer)/overhead_pct"
    (List.hd regs).Obs.Bench_gate.metric;
  match Obs.Json.parse (Obs.Bench_gate.verdict_json cs) with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check (option string))
        "verdict says fail" (Some "fail")
        (Option.bind (Obs.Json.member "verdict" v) Obs.Json.string_opt)

let gate_slack_absorbs_noise () =
  (* Near-zero pct metrics: a big relative move inside the absolute
     slack is noise, not a regression. *)
  Alcotest.(check bool) "0.2 -> 0.9 pct is not a regression" false
    (Obs.Bench_gate.judge ~tol_pct:35. ~slack:10. ~baseline:0.2 ~fresh:0.9);
  Alcotest.(check bool) "120 -> 180 pct is a regression" true
    (Obs.Bench_gate.judge ~tol_pct:35. ~slack:10. ~baseline:120. ~fresh:180.);
  (* Absolute timings: only order-of-magnitude blowups trip the loose
     default. *)
  Alcotest.(check bool) "1.5x on a timing passes" false
    (Obs.Bench_gate.judge ~tol_pct:300. ~slack:0. ~baseline:0.06 ~fresh:0.09);
  Alcotest.(check bool) "5x on a timing fails" true
    (Obs.Bench_gate.judge ~tol_pct:300. ~slack:0. ~baseline:0.06 ~fresh:0.30)

let gate_extraction () =
  let json =
    {|{"name": "trace", "host": {"domains": 2, "profile": "release"},
       "metrics": [
         {"name": "no_sink_overhead_pct", "value": 0.25},
         {"name": "no sink/ms_per_run", "value": 0.05},
         {"name": "untraced replica/ms_per_run", "value": 49}
       ]}|}
  in
  match Result.bind (Obs.Json.parse json) Obs.Bench_gate.metrics_of_json with
  | Error e -> Alcotest.fail e
  | Ok ms ->
      Alcotest.(check (list (pair string (float 0.))))
        "the metrics list, in order (host is not gateable)"
        [
          ("no_sink_overhead_pct", 0.25);
          ("no sink/ms_per_run", 0.05);
          ("untraced replica/ms_per_run", 49.);
        ]
        (List.map (fun (m : Obs.Bench_gate.metric) -> (m.name, m.value)) ms)

let gate_duplicate_names_rejected () =
  let file =
    Obs.Bench_gate.to_json ~name:"trace" ~host:[]
      [ gate_metrics "a/ms" 1.; gate_metrics "b/ms" 2.; gate_metrics "a/ms" 3. ]
  in
  match Obs.Bench_gate.metrics_of_json file with
  | Ok _ -> Alcotest.fail "a repeated metric name was accepted"
  | Error e ->
      Alcotest.(check bool) "names the metric" true (contains e "a/ms")

let gate_hard_gate_must_match () =
  (* A renamed variant: the gate's name no longer appears in the run. *)
  let gate = gate_metrics "ring sink (binary)/overhead_pct" 50. in
  match
    Obs.Bench_gate.check ~gates:[ gate ] ~baseline:sample_metrics
      ~fresh:sample_metrics ()
  with
  | Ok _ -> Alcotest.fail "a gate with no fresh metric passed silently"
  | Error e ->
      Alcotest.(check bool) "names the gate" true
        (contains e "ring sink (binary)/overhead_pct")

let gate_check_splits_gates () =
  (* The gated name is judged once, at zero tolerance against its
     threshold; the committed value under that name is not compared. *)
  let gate = gate_metrics "no_sink_overhead_pct" 5. in
  let fresh =
    List.map
      (fun (m : Obs.Bench_gate.metric) ->
        if m.name = gate.name then { m with value = 5.5 } else m)
      sample_metrics
  in
  match
    Obs.Bench_gate.check ~gates:[ gate ] ~baseline:sample_metrics ~fresh ()
  with
  | Error e -> Alcotest.fail e
  | Ok cs ->
      Alcotest.(check int) "one row per metric" 3 (List.length cs);
      let row =
        List.filter
          (fun (c : Obs.Bench_gate.comparison) -> c.metric = gate.name)
          cs
      in
      Alcotest.(check (list (triple (float 0.) (float 0.) bool)))
        "the gate row: threshold, zero tolerance, regressed"
        [ (5., 0., true) ]
        (List.map
           (fun (c : Obs.Bench_gate.comparison) ->
             (c.baseline, c.tol_pct, c.regressed))
           row)

(* Every committed baseline is in the one schema: it loads, and its
   metric names are unique and its values finite.  BENCH_check.json is
   a verdict, not a baseline. *)
let committed_baselines_load () =
  let files =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json"
           && f <> "BENCH_check.json")
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "the committed baselines"
    [
      "BENCH_compile.json"; "BENCH_faults.json"; "BENCH_net.json";
      "BENCH_par.json"; "BENCH_sense.json"; "BENCH_session.json";
      "BENCH_trace.json";
    ]
    files;
  List.iter
    (fun f ->
      match Obs.Bench_gate.load_file (Filename.concat ".." f) with
      | Error e -> Alcotest.fail e
      | Ok ms ->
          let names = List.map (fun (m : Obs.Bench_gate.metric) -> m.name) ms in
          Alcotest.(check int)
            (f ^ ": unique names")
            (List.length names)
            (List.length (List.sort_uniq compare names));
          Alcotest.(check bool)
            (f ^ ": finite values")
            true
            (List.for_all
               (fun (m : Obs.Bench_gate.metric) -> Float.is_finite m.value)
               ms))
    files

(* Json printer *)

let json_gen =
  QCheck.Gen.(
    let str = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 6) in
    let flt =
      oneof
        [
          oneofl [ 310.7; 1e-300; -0.5; 0.; 1e21; 5e-324; max_float; 0.1 ];
          map (fun f -> if Float.is_finite f then f else 2.5) float;
        ]
    in
    sized_size (int_bound 4) @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Obs.Json.Null;
              map (fun b -> Obs.Json.Bool b) bool;
              map (fun i -> Obs.Json.Int i) (oneof [ int; oneofl [ max_int; min_int ] ]);
              map (fun f -> Obs.Json.Float f) flt;
              map (fun s -> Obs.Json.String s) str;
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (self (n / 2))));
              ( 1,
                map
                  (fun l -> Obs.Json.Obj l)
                  (list_size (int_bound 4) (pair str (self (n / 2)))) );
            ]))

let prop_json_roundtrip =
  QCheck.Test.make ~count:qcount ~name:"Json: parse (to_string v) = Ok v"
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun v -> Obs.Json.parse (Obs.Json.to_string v) = Ok v)

(* The escaper as it was before the index scan: the reference the
   current one must match byte for byte. *)
let add_escaped_reference b s =
  if not (String.exists Obs.Json.needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

(* Random strings weighted towards the bytes the escaper treats
   specially: quote, backslash, control bytes and high bytes. *)
let prop_escape_matches_reference =
  let byte =
    QCheck.Gen.(
      frequency
        [
          (3, map Char.chr (int_range 0x20 0x7e));
          (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t' ]);
          (1, map Char.chr (int_bound 0x1f));
          (1, map Char.chr (int_range 0x80 0xff));
        ])
  in
  QCheck.Test.make ~count:(4 * qcount)
    ~name:"Json.add_escaped = the reference escaper"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:byte (int_bound 40)))
    (fun s ->
      let escaped f =
        let b = Buffer.create 16 in
        Buffer.add_string b "x";
        f b s;
        Buffer.contents b
      in
      escaped Obs.Json.add_escaped = escaped add_escaped_reference)

let json_non_finite_rejected () =
  List.iter
    (fun f ->
      match Obs.Json.to_string (Obs.Json.List [ Obs.Json.Float f ]) with
      | s -> Alcotest.failf "wrote %s" s
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ]

(* Noise, flipped bytes and truncations of a valid BENCH file: the
   reader answers Ok or Error and never raises. *)
let prop_json_parse_total =
  let valid =
    Obs.Json.to_string
      (Obs.Bench_gate.to_json ~name:"trace"
         ~host:[ ("domains", Obs.Json.Int 2) ]
         (sample_metrics @ [ gate_metrics "a \"quoted\"\n/ms" 1e-300 ]))
  in
  let n = String.length valid in
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64);
          map
            (fun flips ->
              let b = Bytes.of_string valid in
              List.iter
                (fun (i, c) -> Bytes.set b (i mod n) (Char.chr c))
                flips;
              Bytes.to_string b)
            (list_size (int_range 1 4) (pair nat (int_bound 255)));
          map (fun k -> String.sub valid 0 (k mod n)) nat;
        ])
  in
  QCheck.Test.make ~count:(4 * qcount) ~name:"Json.parse never raises"
    (QCheck.make ~print:String.escaped gen)
    (fun s -> match Obs.Json.parse s with Ok _ | Error _ -> true)

let golden_cases f =
  List.map
    (fun (c : Trace_cases.case) -> Alcotest.test_case c.name `Quick (f c))
    Trace_cases.all

let () =
  Alcotest.run "trace-analytics"
    [
      ( "jsonl",
        QCheck_alcotest.to_alcotest prop_jsonl_roundtrip
        :: [
             Alcotest.test_case "exact bytes" `Quick exact_bytes;
             Alcotest.test_case "writers are atomic" `Quick writers_atomic;
             QCheck_alcotest.to_alcotest prop_jsonl_fuzz;
             Alcotest.test_case "fuzzed file" `Quick jsonl_fuzz_file;
           ] );
      ("golden-roundtrip", golden_cases golden_roundtrip);
      ( "attribution",
        golden_cases attribution_sums
        @ [ Alcotest.test_case "e1 winner" `Quick e1_winner_rounds ] );
      ( "trace-diff",
        [
          Alcotest.test_case "identical" `Quick diff_identical;
          Alcotest.test_case "different runs" `Quick diff_different_runs;
          Alcotest.test_case "field detail" `Quick diff_field_detail;
          Alcotest.test_case "tail" `Quick diff_tail;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "identical passes" `Quick gate_identical_passes;
          Alcotest.test_case "injected 50% fails" `Quick
            gate_injected_regression_fails;
          Alcotest.test_case "slack and tolerances" `Quick
            gate_slack_absorbs_noise;
          Alcotest.test_case "metric extraction" `Quick gate_extraction;
          Alcotest.test_case "duplicate names rejected" `Quick
            gate_duplicate_names_rejected;
          Alcotest.test_case "hard gate must match" `Quick
            gate_hard_gate_must_match;
          Alcotest.test_case "gates split from soft" `Quick
            gate_check_splits_gates;
          Alcotest.test_case "committed baselines load" `Quick
            committed_baselines_load;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_escape_matches_reference;
          QCheck_alcotest.to_alcotest prop_json_parse_total;
          Alcotest.test_case "non-finite rejected" `Quick
            json_non_finite_rejected;
        ] );
    ]
