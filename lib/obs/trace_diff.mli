(** First-divergence trace diffing, event-kind-aware.

    Promoted from the golden-trace test's inline line differ so that
    the test suite and the CLI ([goalcom trace diff]) share one
    implementation.  Two traces are compared on their serialized JSONL
    lines — the byte format {e is} the regression contract — and when
    both sides of a divergence still parse, the structural layer says
    which event kind and which fields moved. *)

val kind_name : Goalcom.Trace.event -> string
(** The JSONL ["ev"] tag of the event's constructor. *)

type divergence = {
  position : int;  (** 1-based line number of the first difference *)
  left : string option;  (** the diverging line; [None] = side ended *)
  right : string option;
  detail : string;  (** kind-aware explanation *)
}

val lines : string list -> string list -> divergence option
(** [None] iff the line lists are equal. *)

val events :
  Goalcom.Trace.event list -> Goalcom.Trace.event list -> divergence option
(** Compare via {!Jsonl.to_lines} — two event lists diverge iff their
    serializations do. *)

val to_string : ?left_label:string -> ?right_label:string -> divergence -> string
(** Multi-line rendering; labels default to ["left"]/["right"] (the
    golden test passes ["golden"]/["actual"]). *)
