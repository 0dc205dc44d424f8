(** Trial runners: repeated executions with derived seeds, aggregated.

    Every experiment reduces to "pair this user with that server on this
    goal, run [n] trials, report success rate and rounds-to-success";
    this module is that reduction. *)

open Goalcom

type result = {
  successes : int;
  trials : int;
  success_rate : float;
  rounds_to_success : float list;
      (** halting round (finite goals) or settling round (compact:
          round of the last referee violation) of the successful
          trials *)
  mean_rounds : float;  (** mean of [rounds_to_success]; [nan] if none *)
  unsafe_halts : int;
      (** trials where the user halted yet the referee rejects — a
          sensing-safety violation (finite goals; always 0 when sensing
          is safe) *)
}

val run :
  ?config:Exec.config ->
  ?tail_window:int ->
  ?sink:Trace.sink ->
  trials:int ->
  seed:int ->
  goal:Goal.t ->
  user:Strategy.user ->
  server:Strategy.server ->
  unit ->
  result
(** Trial [i] runs with an independent generator derived from
    [seed] and pairs the user with world choice [i mod num_worlds]
    (so non-deterministic worlds are cycled).

    [?sink] is installed as the ambient trace sink for the whole batch,
    so one stream carries every trial's events; fold it with
    {!Goalcom_obs.Span} for per-run and per-candidate counts.
    @raise Invalid_argument if [trials <= 0] (message names the entry
    point and the offending value). *)

val run_par :
  ?config:Exec.config ->
  ?tail_window:int ->
  ?sink:Trace.sink ->
  ?jobs:int ->
  ?pool:Goalcom_par.Pool.t ->
  trials:int ->
  seed:int ->
  goal:Goal.t ->
  user:Strategy.user ->
  server:Strategy.server ->
  unit ->
  result
(** {!run}, fanned across a domain pool — and {e bit-identical} to it
    for every [jobs] count: trial generators are pre-split from [seed]
    in trial order (the exact sequence {!run} consumes), outcomes are
    aggregated in trial order, and each trial's trace events are
    buffered on the executing domain and replayed to [?sink] in trial
    order, so the merged stream equals the sequential one.

    Width is [?pool] (reused across calls, takes precedence), else
    [?jobs], else [Pool.default_jobs] ([--jobs] / [GOALCOM_JOBS], 1 by
    default).  If no [?sink] is given but the calling domain has an
    ambient sink installed, that sink receives the replayed events —
    mirroring {!run}, which runs its trials under the caller's ambient
    sink.

    @raise Invalid_argument if [trials <= 0] or [jobs <= 0]. *)

val equal : result -> result -> bool
(** Field-for-field equality (structural; treats the [nan] of an empty
    [mean_rounds] as equal to itself).  Backs the determinism property
    tests comparing {!run_par} against {!run}. *)

val success_rate :
  ?config:Exec.config ->
  ?tail_window:int ->
  trials:int ->
  seed:int ->
  goal:Goal.t ->
  user:Strategy.user ->
  server:Strategy.server ->
  unit ->
  float
(** [(run ...).success_rate] — the one-number view used by tests and
    quick checks. *)

val pp : Format.formatter -> result -> unit
