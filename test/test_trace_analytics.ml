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

(* The byte format itself is pinned by the goldens; spot-pin the
   adversarial corners here so a renderer change cannot hide behind a
   golden regeneration. *)
let exact_bytes () =
  let check expected ev =
    Alcotest.(check string) expected expected (Obs.Jsonl.event_to_json ev)
  in
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
  check {|{"ev":"resume","index":0,"slots":7}|}
    (Trace.Resume { index = 0; slots = 7 })

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
        :: [ Alcotest.test_case "exact bytes" `Quick exact_bytes ] );
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
          QCheck_alcotest.to_alcotest prop_json_parse_total;
          Alcotest.test_case "non-finite rejected" `Quick
            json_non_finite_rejected;
        ] );
    ]
