(** Perf-regression gate over the committed [BENCH_*.json] baselines.

    [bench --check] re-measures, extracts metrics from both the fresh
    run and the committed baseline, and fails (exit 1) when a metric
    regresses beyond its tolerance.  The comparison logic lives here so
    tests can drive it without running a benchmark.

    Tolerance policy: relative metrics — names ending in ["_pct"], like
    the tracing-overhead percentages — transfer across machines and get
    a tight default (35% relative, 10-point absolute slack; both bounds
    must be exceeded to count as a regression).  Absolute timings
    (ns_per_run, ms_per_run) do not transfer — CI hardware is not the
    baseline's hardware — so their default tolerance is a loose 300%,
    catching only order-of-magnitude blowups. *)

type metric = { name : string; value : float }

type comparison = {
  metric : string;
  baseline : float;
  fresh : float;
  tol_pct : float;  (** relative tolerance applied, in percent *)
  slack : float;  (** absolute slack applied, in the metric's unit *)
  regressed : bool;
}

val default_tol_pct : string -> float
val default_slack : string -> float

val judge : tol_pct:float -> slack:float -> baseline:float -> fresh:float -> bool
(** [true] iff fresh exceeds baseline by more than {e both} the relative
    tolerance and the absolute slack.  Lower is better for every gated
    metric. *)

val compare_metrics :
  ?tol_pct:(string -> float) ->
  ?slack:(string -> float) ->
  baseline:metric list ->
  fresh:metric list ->
  unit ->
  comparison list
(** One comparison per fresh metric that also appears in the baseline;
    metrics present on only one side are skipped (a fresh smoke run may
    legitimately measure a subset). *)

val check :
  ?tol_pct:(string -> float) ->
  ?slack:(string -> float) ->
  gates:metric list ->
  baseline:metric list ->
  fresh:metric list ->
  unit ->
  (comparison list, string) result
(** One part's gate.  The baseline's metrics, minus any name in [gates],
    are compared with {!compare_metrics} at the part's tolerances; each
    of [gates] is a hard threshold compared at zero tolerance and zero
    slack.  [Error] when a gate matches no fresh metric, so a renamed
    metric cannot drop its ceiling silently. *)

val regressions : comparison list -> comparison list

(** {1 The BENCH file}

    Every [BENCH_*.json] has one shape:
    [{"name": part, "host": {..}, "metrics": [{"name": n, "value": v}, ..]}].
    Only ["metrics"] is read back; ["host"] is provenance. *)

val to_json : name:string -> host:(string * Json.t) list -> metric list -> Json.t

val metrics_of_json : Json.t -> (metric list, string) result
(** The ["metrics"] list.  [Error] when it is missing or empty, when an
    entry lacks a string ["name"] or a finite numeric ["value"], or when
    a name repeats (a comparison would judge only the first). *)

val load_file : string -> (metric list, string) result
(** {!metrics_of_json} of a file; errors are prefixed with the path. *)

val table : comparison list -> Goalcom_prelude.Table.t

val verdict_json : comparison list -> string
(** Machine-readable verdict, printed by {!Json.to_string}:
    [{"verdict": "pass"|"fail", "compared": n, "regressed": k,
      "comparisons": [...]}]. *)
