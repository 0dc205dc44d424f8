(** Whole-file writes that a crash cannot half-finish. *)

val with_atomic_out : string -> (out_channel -> 'a) -> 'a
(** [with_atomic_out path f] hands [f] a channel on [path ^ ".tmp"];
    when [f] returns, the channel is closed and the file renamed over
    [path].  A reader sees the old file or the new one, never a
    truncated mix.  When [f] (or the close) raises, the channel is
    closed, the temporary file removed and the exception re-raised:
    [path] keeps its old contents.  A crash before the rename leaves at
    most a stale [.tmp] beside an intact [path]. *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] is {!with_atomic_out} writing
    [content]. *)
