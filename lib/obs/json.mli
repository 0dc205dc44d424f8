(** A minimal JSON reader and printer for the observability layer's own
    artefacts — JSONL trace lines ({!Jsonl.parse_line}) and the
    committed [BENCH_*.json] baselines ({!Bench_gate}).  Whole-value
    parsing, exact integers, objects as assoc lists in input order.
    Not a general-purpose JSON library: good errors over streaming. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace input is an error.
    [\uXXXX] escapes decode to single bytes (the writer only emits
    them for control characters) and error beyond [ÿ]. *)

val of_file : string -> (t, string) result
(** {!parse} the whole file; errors are prefixed with the path. *)

val to_string : t -> string
(** The inverse of {!parse}: [parse (to_string v) = Ok v].  Floats print
    as [%.15g], or [%.17g] when that does not read back as the same
    float, with a [".0"] when the digits alone would read back as an
    [Int].  A container of scalars prints on one line; any other prints
    one member per line, indented two spaces per level.  No trailing
    newline.
    @raise Invalid_argument on a non-finite float, which JSON cannot
    express. *)

val add_escaped : Buffer.t -> string -> unit
(** Append [s] JSON-escaped, without the surrounding quotes: quotes,
    backslashes and control characters escaped, other bytes raw — what
    {!parse} reads back byte for byte. *)

(** {1 Accessors} — shape probes returning [None] on mismatch. *)

val member : string -> t -> t option
val string_opt : t -> string option
val int_opt : t -> int option
val bool_opt : t -> bool option

val number_opt : t -> float option
(** [Int] widened to float, or [Float]. *)

val list_opt : t -> t list option
