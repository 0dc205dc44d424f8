open Goalcom_prelude

(* The perf-regression gate: compare a fresh benchmark run against the
   committed BENCH_*.json baselines, metric by metric, with per-metric
   tolerances, and render a machine-readable verdict.  `bench --check`
   drives this in CI; the logic lives here so the test suite can
   exercise it without running a benchmark.

   Tolerance policy: relative metrics (names ending in "_pct", e.g. the
   tracing-overhead percentages) transfer across machines and get the
   tight default; absolute timings (ns_per_run / ms_per_run) do not —
   CI hardware is not the hardware the baseline was measured on — so
   their default tolerance is deliberately loose and they mostly guard
   against order-of-magnitude blowups.  Callers can tighten either via
   [?tol_pct].  A small absolute slack keeps near-zero percentages from
   tripping on ratio noise. *)

type metric = { name : string; value : float }

type comparison = {
  metric : string;
  baseline : float;
  fresh : float;
  tol_pct : float;
  slack : float;
  regressed : bool;
}

let is_pct = String.ends_with ~suffix:"_pct"
let default_tol_pct name = if is_pct name then 35. else 300.
let default_slack name = if is_pct name then 10. else 0.

(* A fresh value regresses when it exceeds the baseline by more than
   the relative tolerance AND by more than the absolute slack; lower is
   always better for every gated metric (times, overhead percentages). *)
let judge ~tol_pct ~slack ~baseline ~fresh =
  fresh > baseline *. (1. +. (tol_pct /. 100.)) && fresh > baseline +. slack

let compare_metrics ?(tol_pct = default_tol_pct) ?(slack = default_slack)
    ~baseline ~fresh () =
  List.filter_map
    (fun { name; value = fresh_v } ->
      match List.find_opt (fun m -> m.name = name) baseline with
      | None -> None
      | Some { value = base_v; _ } ->
          let tol = tol_pct name and slack = slack name in
          Some
            {
              metric = name;
              baseline = base_v;
              fresh = fresh_v;
              tol_pct = tol;
              slack;
              regressed = judge ~tol_pct:tol ~slack ~baseline:base_v ~fresh:fresh_v;
            })
    fresh

let mem name ms = List.exists (fun (m : metric) -> m.name = name) ms

(* One part's gate: the baseline's metrics, minus any name a hard gate
   owns, drift with the part's tolerances; the hard gates are judged at
   zero tolerance, so a fresh value above the threshold fails however
   the committed file reads.  A gate no fresh metric answers is an
   error, not a skip: a renamed variant would otherwise drop its
   ceiling while the verdict still said pass. *)
let check ?tol_pct ?slack ~gates ~baseline ~fresh () =
  match List.find_opt (fun g -> not (mem g.name fresh)) gates with
  | Some g -> Error (Printf.sprintf "hard gate %S matches no fresh metric" g.name)
  | None ->
      let soft = List.filter (fun m -> not (mem m.name gates)) baseline in
      let zero _ = 0. in
      Ok
        (compare_metrics ?tol_pct ?slack ~baseline:soft ~fresh ()
        @ compare_metrics ~tol_pct:zero ~slack:zero ~baseline:gates ~fresh ())

let regressions = List.filter (fun c -> c.regressed)

(* The BENCH file: {"name": part, "host": {..}, "metrics": [{"name",
   "value"}, ..]}.  Only "metrics" is read back; "host" is provenance
   for a human reader. *)

let to_json ~name ~host metrics =
  Json.Obj
    [
      ("name", Json.String name);
      ("host", Json.Obj host);
      ( "metrics",
        Json.List
          (List.map
             (fun m ->
               Json.Obj
                 [ ("name", Json.String m.name); ("value", Json.Float m.value) ])
             metrics) );
    ]

let metrics_of_json j =
  let metric entry =
    match
      ( Option.bind (Json.member "name" entry) Json.string_opt,
        Option.bind (Json.member "value" entry) Json.number_opt )
    with
    | Some name, Some value when Float.is_finite value -> Ok { name; value }
    | _ -> Error "a metric needs a string \"name\" and a finite \"value\""
  in
  match Option.bind (Json.member "metrics" j) Json.list_opt with
  | None | Some [] -> Error "no \"metrics\" list"
  | Some entries ->
      let rec go ms = function
        | [] -> Ok (List.rev ms)
        | entry :: rest -> (
            match metric entry with
            | Error _ as e -> e
            | Ok m when mem m.name ms ->
                Error (Printf.sprintf "duplicate metric %S" m.name)
            | Ok m -> go (m :: ms) rest)
      in
      go [] entries

let load_file path =
  Result.bind (Json.of_file path) (fun j ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (metrics_of_json j))

(* Rendering. *)

let table comparisons =
  let rows =
    List.map
      (fun c ->
        [
          c.metric;
          Printf.sprintf "%.3f" c.baseline;
          Printf.sprintf "%.3f" c.fresh;
          Printf.sprintf "%.0f%%" c.tol_pct;
          (if c.regressed then "REGRESSED" else "ok");
        ])
      comparisons
  in
  Table.make ~title:"bench --check"
    ~columns:[ "metric"; "baseline"; "fresh"; "tol"; "status" ]
    rows

let verdict_json comparisons =
  let regs = regressions comparisons in
  let entry c =
    Json.Obj
      [
        ("metric", Json.String c.metric);
        ("baseline", Json.Float c.baseline);
        ("fresh", Json.Float c.fresh);
        ("tol_pct", Json.Float c.tol_pct);
        ("regressed", Json.Bool c.regressed);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("verdict", Json.String (if regs = [] then "pass" else "fail"));
         ("compared", Json.Int (List.length comparisons));
         ("regressed", Json.Int (List.length regs));
         ("comparisons", Json.List (List.map entry comparisons));
       ])
