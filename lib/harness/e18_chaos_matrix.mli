(** E18 — chaos matrix: goal completion under supervised concurrency.

    Runs a mixed population of checkpointed universal sessions
    (printing, corridor maze, open-room maze) through
    {!Goalcom_session.Engine} under a set of chaos conditions — crash
    storms, burst loss, adversarial budgets, admission overload — and
    tabulates completion rate, supervision costs and rounds-to-goal
    percentiles.  Deterministic: each cell's digest is identical
    across repeats and jobs counts.

    The building blocks ([specs], [conditions], [run_condition]) are
    exposed for the bench harness and the [goalcom chaos] CLI, which
    run single conditions at other population sizes. *)

open Goalcom_prelude

val title : string
val claim : string

val specs :
  ?warm:(Warm.entry list, string) result ->
  sessions:int ->
  unit ->
  Goalcom_session.Engine.spec array
(** The standard mix: session [i] is printing / corridor maze /
    open-room maze by [i mod 3], with server dialects cycled within
    each family.  [warm] is a loaded warm-start store
    ({!Warm.load}): validated hints become prepended
    Levin slots, so repeated runs skip straight to known winners; a
    load [Error] or stale entry falls back cold (with a [Trace.Warm]
    event when tracing). *)

val warm_class : int -> string
(** The warm-start key for session [i]: its goal family plus the server
    dialect it cycles onto (finer than [server_class], which names the
    breaker — the winning candidate depends on the dialect). *)

val warm_entries :
  ?warm:(Warm.entry list, string) result ->
  Goalcom_session.Engine.report ->
  Warm.entry list
(** Harvest warm-start entries from a finished run: each [Done]
    session's checkpoint pins its winning candidate index and the
    schedule slot it was running (whose budget becomes the hint
    budget).  Starts from the entries already in [warm] (if any), so
    recording is cumulative; pass the result to
    {!Warm.save}. *)

type condition = {
  cname : string;
  chaos_spec : string;  (** {!Goalcom_session.Chaos.of_string} grammar *)
  econfig : Goalcom_session.Engine.config;
}

val conditions : unit -> condition list

val chaos_of : string -> Goalcom_session.Chaos.t
(** Parse against the mix's channel alphabet.
    @raise Invalid_argument on a bad spec. *)

val run_condition :
  ?warm:(Warm.entry list, string) result ->
  ?jobs:int ->
  sessions:int ->
  seed:int ->
  condition ->
  Goalcom_session.Engine.report

val sessions_default : unit -> int
(** Sessions per condition: [GOALCOM_E18_SESSIONS], default 2000. *)

val run : seed:int -> Table.t
