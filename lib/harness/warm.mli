(** The warm-start cache: known-good winning indices, persisted as
    JSONL across runs.

    A universal construction's dominant cost is the enumeration ladder
    it climbs before locking onto the right candidate.  That index is a
    property of the {e server class} (and of the enumeration it indexes
    into), not of the run — so once a race or a session has found it,
    later runs against the same class can probe it first.  Entries are
    keyed by ([server_class], enumeration name); a stored index is
    only a {e hint}: applied, it becomes a prepended Levin slot
    ({!Levin.hinted}), so a stale hint costs its own budget and the
    cold schedule takes over unchanged.

    Robustness is the point of the keying and validation: a corrupt
    file, an entry for a different enumeration, an out-of-range index
    or a non-positive budget are all rejected — the caller falls back
    to the cold path and a {!Trace.Warm} event (when tracing) records
    the decision either way. *)

open Goalcom_automata
open Goalcom

type entry = {
  server_class : string;
  enum : string;  (** enumeration name the index points into *)
  index : int;
  budget : int;  (** rounds the winning session needed (hint budget) *)
}

val entry_to_json : entry -> string
(** One JSONL line:
    [{"class":...,"enum":...,"index":...,"budget":...}]. *)

val save : string -> entry list -> unit
(** Write the store, one entry per line, replacing [path] atomically
    ({!Goalcom_prelude.File.write_atomic}): a crash mid-save leaves the
    previous store intact. *)

val load : string -> (entry list, string) result
(** Parse a store; any corrupt line fails the whole load (the caller
    treats [Error] as a cold start, never a partial one). *)

val lookup : entry list -> server_class:string -> enum:string -> entry option
(** Most recent matching entry (later lines supersede earlier ones). *)

val record : entry list -> entry -> entry list
(** Append-or-replace by key, preserving order of other entries. *)

val of_race : server_class:string -> enum:'a Enum.t -> Universal.race -> entry
(** The entry a finished race proves: its winning index, with the
    winner's actual rounds as the hint budget (never below the winning
    slot's budget floor of 1). *)

val hints :
  enum:'a Enum.t ->
  server_class:string ->
  (entry list, string) result ->
  Levin.slot list
(** Validate a loaded store against the enumeration it will index:
    returns the hint slots to prepend ([[]] on a miss, a load error, or
    a stale entry).  Emits one {!Trace.Warm} event when tracing is on
    and the store was either applied or rejected (a plain miss is
    silent — that is the ordinary cold start). *)

val hinted_schedule :
  ?schedule:Levin.slot Seq.t ->
  enum:'a Enum.t ->
  server_class:string ->
  (entry list, string) result ->
  Levin.slot Seq.t
(** [Levin.hinted ~hints:(hints ...)] over [schedule] (default
    [Levin.schedule ()]) — what a warm-started {!Universal.finite} or
    {!Universal.finite_par} passes as its schedule. *)
