open Goalcom

type t = Trace.event list ref

let create () = ref []
let sink t ev = t := ev :: !t
let events t = List.rev !t

let record f =
  let t = create () in
  let x = Trace.with_sink (sink t) f in
  (x, events t)
