(** Attribution: fold a trace into per-candidate-index spans and an
    overhead ledger.

    Theorem 1's enumeration overhead is, operationally, the rounds a
    universal user burns on candidate strategies that do not end up
    achieving the goal.  The universal constructions announce their
    moves in the trace — [Switch] (compact), [Session] (Levin/finite),
    [Resume] (checkpoint restore) — and this module charges every
    round, message, sensing verdict and fault activation to the
    candidate in charge when it happened, per run and aggregated over a
    trial batch.

    Charging discipline (event order in a round is [Round_start],
    [Sense], [Switch]/[Session], [Emit]s, [Halt]): a sensing verdict is
    charged to the candidate it judged (before any switch it triggers);
    the round itself and its messages go to the candidate that acted in
    it (after the round's switches settled).  Every [Round_start] is
    charged to exactly one span, so per-candidate rounds sum exactly to
    the run total — the unit test pins this on the committed E1 golden
    trace. *)

(** A maximal stretch of consecutive rounds charged to one candidate.
    [index = None] means no enumeration event ever named a candidate
    (an informed/baseline user, or a truncated capture). *)
type span = {
  index : int option;
  first_round : int;
  last_round : int;
  rounds : int;
  sessions : int;  (** Levin [Session] events opening this span *)
  retries : int;  (** same-index [Switch] retries opening this span *)
  user_msgs : int;
  server_msgs : int;
  world_msgs : int;
  wire_symbols : int;
      (** symbols on the wire over the span's emissions: [Sym]/[Int]
          count 1, [Text] its length, containers the sum of their
          parts *)
  senses : int;
  negatives : int;
  faults : int;
}

type run = {
  goal : string;
  user : string;
  server : string;
  horizon : int;
  drain : int;
  world_choice : int;
  spans : span list;  (** in round order; rounds partition the run *)
  rounds : int;  (** from [Run_end], or counted [Round_start]s if absent *)
  halted : bool;
  violations : int;
  winner : int option;
      (** candidate in charge at a halted end; [None] if the run timed
          out or no candidate was ever named *)
}

val run_of_events : Goalcom.Trace.event list -> run
(** Attribute a single run's events (everything up to the next
    [Run_start]). *)

val of_events : Goalcom.Trace.event list -> run list
(** Split a (possibly multi-run) stream with
    {!Goalcom.Trace.split_runs} and attribute each run. *)

(** {1 The overhead ledger} *)

type candidate = {
  cand_index : int option;
  cand_spans : int;
  cand_sessions : int;
  cand_retries : int;
  cand_rounds : int;
  cand_user_msgs : int;
  cand_server_msgs : int;
  cand_world_msgs : int;
  cand_wire_symbols : int;
  cand_senses : int;
  cand_negatives : int;
  cand_faults : int;
  cand_wins : int;  (** runs this candidate was in charge of at a halt *)
}

type ledger = {
  runs : int;
  halted_runs : int;
  total_rounds : int;
  winning_rounds : int;
      (** rounds charged, in each run, to that run's winner *)
  wasted_rounds : int;
      (** [total - winning]: the measured enumeration overhead *)
  candidates : candidate list;  (** ascending index; [None] last *)
}

val ledger : run list -> ledger
val ledger_of_events : Goalcom.Trace.event list -> ledger

(** {1 Per-session attribution}

    An engine trace replays each session's events contiguously in
    session-id order: [Supervise] decisions interleaved with the
    session's incarnations' run events.  {!sessions_of_events}
    reassembles per-session slices (every run event belongs to the
    session of the most recent [Supervise] — the engine emits ["admit"]
    first), segments each slice into incarnations with
    {!Goalcom.Trace.split_runs}, and links each incarnation to the
    enumeration index its checkpoint restored (its [Resume] event) —
    so a restart's supervise timeline meets the enumeration ladder. *)

type incarnation = {
  inc_number : int;  (** 1-based, in start order *)
  inc_resumed_at : int option;
      (** the enumeration index the incarnation's checkpoint restored
          ([Resume.index]); [None] for a cold start *)
  inc_run : run;
}

type session_span = {
  sess_id : int;
  sess_admit_tick : int option;
  sess_outcome : (string * int) option;
      (** terminal supervise action (["done"], ["give-up"],
          ["deadline"], ["shed"]) and its tick; [None] if unfinished *)
  sess_restarts : int;
  sess_kills : int;
  sess_rounds : int;  (** over all incarnations *)
  sess_incarnations : incarnation list;
}

val sessions_of_events : Goalcom.Trace.event list -> session_span list
(** Sessions in id order.  Events before the first [Supervise] (a bare
    run stream) are not attributed — use {!of_events} for those. *)

(** {1 Rendering} *)

val ledger_table : ledger -> Goalcom_prelude.Table.t
val runs_table : run list -> Goalcom_prelude.Table.t

val sessions_table : session_span list -> Goalcom_prelude.Table.t
(** One row per session: outcome, incarnations, restarts / kills,
    rounds, the enumeration indices restarts resumed at, and the
    winning candidate of the last incarnation. *)
