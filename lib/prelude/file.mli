(** Whole-file writes that a crash cannot half-finish. *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] writes [content] to [path ^ ".tmp"],
    then renames it over [path].  A reader sees the old file or the new
    one, never a truncated mix; a crash before the rename leaves at most
    a stale [.tmp] beside an intact [path].  The channel is closed even
    when a write raises. *)
