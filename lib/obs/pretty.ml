open Goalcom

let pp_event ppf (ev : Trace.event) =
  match ev with
  | Trace.Run_start { goal; user; server; horizon; drain; world_choice } ->
      Format.fprintf ppf "== run %s: %s vs %s (horizon %d, drain %d, world %d)"
        goal user server horizon drain world_choice
  | Trace.Round_start { round } -> Format.fprintf ppf "-- round %d" round
  | Trace.Emit { round; src; dst; msg } ->
      Format.fprintf ppf "   r%d %s->%s %s" round
        (Trace.party_name src) (Trace.party_name dst) (Msg.to_string msg)
  | Trace.Halt { round } -> Format.fprintf ppf "   r%d user halts" round
  | Trace.Sense { round; sensor; positive; clock; patience } ->
      Format.fprintf ppf "   r%d sense %s %s (clock %d/%d)" round sensor
        (if positive then "+" else "-")
        clock patience
  | Trace.Switch { round; from_index; to_index; attempt } ->
      if from_index = to_index then
        Format.fprintf ppf "   r%d retry strategy #%d (attempt %d)" round
          from_index attempt
      else
        Format.fprintf ppf "   r%d switch strategy #%d -> #%d" round from_index
          to_index
  | Trace.Resume { index; slots } ->
      Format.fprintf ppf "== resume enumeration at #%d (%d slots spent)" index
        slots
  | Trace.Session { round; index; budget } ->
      Format.fprintf ppf "   r%d session strategy #%d, budget %d" round index
        budget
  | Trace.Fault { round; fault; detail } ->
      Format.fprintf ppf "   r%d FAULT %s [%s]" round fault detail
  | Trace.Violation { round } ->
      Format.fprintf ppf "   r%d referee violation" round
  | Trace.Run_end { rounds; halted } ->
      Format.fprintf ppf "== end after %d rounds%s" rounds
        (if halted then " (halted)" else "")
  | Trace.Supervise { tick; session; action; detail } ->
      Format.fprintf ppf "## t%d session %d %s%s" tick session action
        (if detail = "" then "" else " [" ^ detail ^ "]")
  | Trace.Warm { server_class; enum; index; accepted; detail } ->
      Format.fprintf ppf "== warm %s/%s #%d %s%s" server_class enum index
        (if accepted then "hit" else "rejected")
        (if detail = "" then "" else " [" ^ detail ^ "]")

let sink ppf ev = Format.fprintf ppf "%a@." pp_event ev
