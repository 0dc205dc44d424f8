type event = {
  mutable round : int;
  mutable from_server : Msg.t;
  mutable from_world : Msg.t;
  mutable to_server : Msg.t;
  mutable to_world : Msg.t;
  mutable halted : bool;
}

let empty () =
  { round = 0; from_server = Msg.Silence; from_world = Msg.Silence;
    to_server = Msg.Silence; to_world = Msg.Silence; halted = false }

(* Stores only on change, as Exec.Stepper does: each runs the write barrier. *)
let fill e (obs : Io.User.obs) (act : Io.User.act) =
  e.round <- obs.round;
  if e.from_server != obs.from_server then e.from_server <- obs.from_server;
  if e.from_world != obs.from_world then e.from_world <- obs.from_world;
  if e.to_server != act.to_server then e.to_server <- act.to_server;
  if e.to_world != act.to_world then e.to_world <- act.to_world;
  e.halted <- false

(* NOTE on timing: the messages a user *received* in round r are the ones
   emitted in round r-1.  The view event for round r therefore pairs the
   user's round-r sends with the round-(r-1) incoming messages, matching
   exactly what the user's strategy observed when it acted. *)
let fold_events h ~init ~f =
  let acc, _, _ =
    History.fold_rounds h ~init:(init, Msg.Silence, Msg.Silence)
      ~f:(fun (acc, prev_s2u, prev_w2u) (r : History.Round.t) ->
        let e =
          {
            round = r.index;
            from_server = prev_s2u;
            from_world = prev_w2u;
            to_server = r.user_to_server;
            to_world = r.user_to_world;
            halted = r.user_halted;
          }
        in
        (f acc e, r.server_to_user, r.world_to_user))
  in
  acc
