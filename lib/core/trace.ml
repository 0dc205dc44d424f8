(* Structured execution tracing.

   The event algebra lives in lib/core (rather than lib/obs) because the
   emitters — Exec, Universal, Sensing, and the fault layer — are below
   the observability library in the dependency order; lib/obs builds the
   attribution fold (Span), the ring, the JSONL exporter and the
   pretty-printer on top of this module.

   Sink discipline: there is one ambient sink (like a Logs reporter).
   Emitters go through the typed [emit_*] functions (or guard a built
   event with [enabled ()]), so that when no sink is installed no event
   value is ever allocated — the entire cost of the disabled tracing
   path is one load-and-branch per emission site.  When the installed
   sink offers a wire (an arena and a commit), the typed emitters write
   the event's bytes straight into it and build no event at all. *)

type party = Trace_wire.party = User | Server | World

let party_name = function User -> "user" | Server -> "server" | World -> "world"

type event =
  | Run_start of {
      goal : string;
      user : string;
      server : string;
      horizon : int;
      drain : int;
      world_choice : int;
    }
  | Round_start of { round : int }
  | Emit of { round : int; src : party; dst : party; msg : Msg.t }
  | Halt of { round : int }
  | Sense of {
      round : int;
      sensor : string;
      positive : bool;
      clock : int;
      patience : int;
    }
  | Switch of { round : int; from_index : int; to_index : int; attempt : int }
  | Resume of { index : int; slots : int }
  | Session of { round : int; index : int; budget : int }
  | Fault of { round : int; fault : string; detail : string }
  | Violation of { round : int }
  | Run_end of { rounds : int; halted : bool }
  | Supervise of { tick : int; session : int; action : string; detail : string }
  | Warm of {
      server_class : string;
      enum : string;
      index : int;
      accepted : bool;
      detail : string;
    }

type sink = event -> unit

(* The ambient sink, and the round the engine is currently executing
   (kept here so emitters that cannot see the round — the fault layer
   wraps a server, whose observations carry no round number — can still
   stamp their events).  Both are only touched when tracing is on.

   Both live in domain-local storage: each domain owns an independent
   sink and round, so parallel trials record into per-domain buffers
   with no synchronisation on the emission path, and a sink installed
   on one domain can never observe (or corrupt) another domain's run.
   Fresh domains start with no sink — pool workers inherit nothing and
   install their own recorder per task. *)

type wire =
  | Write of { enc : Trace_wire.enc; commit : int -> unit }
  | Count of (unit -> unit)

type encoded_sink = {
  push : Bytes.t -> int -> int -> unit;
  retain : int;
  discard : int -> unit;
  mutable wire : wire;
}

(* What the typed emitters do, resolved once when a sink is installed:
   nothing, build the event for the sink, or use the sink's offer. *)
type target = Off | Events of sink | Offered of encoded_sink

(* [d_offer] is the encoded fast path a sink offered on this domain
   (see [offer_encoded]): the sink closure is the ephemeron's key, so
   the offer lives exactly as long as the sink it names — a dropped
   ring is never kept alive by the slot.  [d_target] always agrees
   with [d_sink]: [Off] iff no sink. *)
type dls = {
  mutable d_sink : sink option;
  mutable d_round : int;
  mutable d_offer : (sink, encoded_sink) Ephemeron.K1.t option;
  mutable d_target : target;
}

let dls_key =
  Domain.DLS.new_key (fun () ->
      { d_sink = None; d_round = 0; d_offer = None; d_target = Off })
let[@inline] state () = Domain.DLS.get dls_key

(* Pattern match, not [<> None]: the guard sits on every emission site
   in the engine's hot loop, and structural comparison is a C call. *)
let[@inline] enabled () =
  match (state ()).d_sink with None -> false | Some _ -> true

let current () = (state ()).d_sink

(* Installing a sink only affects the calling domain, so doing it from
   a domain that is *not* participating in an in-flight parallel batch
   is almost certainly a bug: the caller expects to observe the runs
   executing on the pool's domains, and will silently see nothing.
   Refuse loudly instead. *)
let guard_install = function
  | None -> ()
  | Some _ ->
      if Goalcom_par.Pool.active_batches () > 0
         && not (Goalcom_par.Pool.in_worker ())
      then
        invalid_arg
          "Trace sinks are domain-local: refusing to install an ambient \
           sink while a parallel batch runs in other domains (it would \
           observe nothing); install the sink from within the pool task, \
           or pass ?sink to the parallel entry point"

(* The installed sink's target: its offer when the domain's slot holds
   one made by this very closure (physical equality — a wrapper around
   an offering sink makes none), else plain events. *)
let target_of st = function
  | None -> Off
  | Some s -> (
      match st.d_offer with
      | None -> Events s
      | Some offer -> (
          match Ephemeron.K1.query offer s with
          | Some o -> Offered o
          | None -> Events s))

let set_sink s =
  guard_install s;
  let st = state () in
  st.d_sink <- s;
  st.d_target <- target_of st s

let emit ev = match (state ()).d_sink with None -> () | Some f -> f ev

(* Hot-path handle: the per-domain state record itself.  [Domain.DLS.get]
   compiles to a lookup through the domain's local root — cheap, but not
   free, and the engine's step loop used to pay it up to nine times per
   round (the enabled guard, [set_round], and once inside [emit] for
   every message).  Fetching the record once per step and reading fields
   through it leaves exactly one DLS access per round.  A handle is safe
   to hold for as long as the holder stays on one domain: [set_sink] /
   [with_sink] mutate this same record in place, so a cached handle
   observes sink installs and removals immediately. *)

type handle = dls

let[@inline] handle () = state ()

let[@inline] handle_enabled h =
  match h.d_sink with None -> false | Some _ -> true

let[@inline] handle_emit h ev =
  match h.d_sink with None -> () | Some f -> f ev

let[@inline] handle_set_round h r = h.d_round <- r
let[@inline] handle_round h = h.d_round

let with_sink ?offer s f =
  guard_install (Some s);
  let st = state () in
  let prev = st.d_sink in
  let prev_round = st.d_round in
  let prev_target = st.d_target in
  st.d_sink <- Some s;
  st.d_target <-
    (match offer with Some o -> Offered o | None -> target_of st (Some s));
  Fun.protect
    ~finally:(fun () ->
      st.d_sink <- prev;
      st.d_round <- prev_round;
      st.d_target <- prev_target)
    f

(* One slot per domain: the latest offer wins.  The installed sink
   takes the fast path only if it is physically the offering closure,
   so any wrapper (a tee, a timing shim) falls back to plain event
   delivery.  The slot is read when a sink is installed, never per
   event. *)
let offer_encoded s e =
  (state ()).d_offer <- Some (Ephemeron.K1.make s e)

let encoded () =
  match (state ()).d_target with Offered o -> Some o | Off | Events _ -> None

(* --- typed emitters ---------------------------------------------------

   One per event kind.  Each matches the resolved target once: no sink
   costs that load and branch; a plain sink gets the built event; an
   offered wire gets the event's bytes, written where the event would
   have been encoded anyway, and a commit naming where they start; a
   counting wire only counts.  The [Write] arm is the same four lines
   in every emitter — a shared helper taking the writer as a closure
   would allocate that closure per event on the non-flambda
   compiler. *)

let[@inline] emit_run_start h ~goal ~user ~server ~horizon ~drain
    ~world_choice =
  match h.d_target with
  | Off -> ()
  | Events f ->
      f (Run_start { goal; user; server; horizon; drain; world_choice })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.run_start enc ~goal ~user ~server ~horizon ~drain
        ~world_choice;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_round_start h ~round =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Round_start { round })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.round_start enc ~round;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_msg h ~round ~src ~dst msg =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Emit { round; src; dst; msg })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.emit enc ~round ~src ~dst msg;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_halt h ~round =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Halt { round })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.halt enc ~round;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_sense h ~round ~sensor ~positive ~clock ~patience =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Sense { round; sensor; positive; clock; patience })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.sense enc ~round ~sensor ~positive ~clock ~patience;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_switch h ~round ~from_index ~to_index ~attempt =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Switch { round; from_index; to_index; attempt })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.switch enc ~round ~from_index ~to_index ~attempt;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_resume h ~index ~slots =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Resume { index; slots })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.resume enc ~index ~slots;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_session h ~round ~index ~budget =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Session { round; index; budget })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.session enc ~round ~index ~budget;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_fault h ~round ~fault ~detail =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Fault { round; fault; detail })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.fault enc ~round ~fault ~detail;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_violation h ~round =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Violation { round })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.violation enc ~round;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_run_end h ~rounds ~halted =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Run_end { rounds; halted })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.run_end enc ~rounds ~halted;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_supervise h ~tick ~session ~action ~detail =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Supervise { tick; session; action; detail })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.supervise enc ~tick ~session ~action ~detail;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let[@inline] emit_warm h ~server_class ~enum ~index ~accepted ~detail =
  match h.d_target with
  | Off -> ()
  | Events f -> f (Warm { server_class; enum; index; accepted; detail })
  | Offered { wire = Write { enc; commit }; _ } ->
      let start = Trace_wire.length enc in
      Trace_wire.warm enc ~server_class ~enum ~index ~accepted ~detail;
      commit start
  | Offered { wire = Count count; _ } -> count ()

let tee a b ev =
  a ev;
  b ev

let null _ = ()

(* Invariant checking over recorded traces.  An invariant inspects the
   whole event list and reports the first violation as a message. *)

type invariant = { inv_name : string; inv_check : event list -> string option }

let invariant ~name check = { inv_name = name; inv_check = check }

let rounds_increase =
  invariant ~name:"round numbers strictly increase" (fun events ->
      let rec go prev = function
        | [] -> None
        | Round_start { round } :: rest ->
            if round > prev then go round rest
            else
              Some
                (Printf.sprintf "round %d started after round %d" round prev)
        | _ :: rest -> go prev rest
      in
      go 0 events)

let no_emission_after_drain =
  invariant ~name:"no party emits after the user halts (beyond drain)"
    (fun events ->
      let drain =
        List.find_map
          (function Run_start { drain; _ } -> Some drain | _ -> None)
          events
      in
      let halt =
        List.find_map
          (function Halt { round } -> Some round | _ -> None)
          events
      in
      match (halt, drain) with
      | None, _ -> None
      | Some h, drain ->
          let drain = Option.value drain ~default:0 in
          List.find_map
            (function
              | Emit { round; src; dst; _ } when round > h + drain ->
                  Some
                    (Printf.sprintf
                       "%s emitted to %s in round %d, after halt round %d + \
                        drain %d"
                       (party_name src) (party_name dst) round h drain)
              | _ -> None)
            events)

let switch_follows_negative =
  invariant ~name:"every switch is preceded by a negative sensing verdict"
    (fun events ->
      let rec go last_sense = function
        | [] -> None
        | Sense { positive; _ } :: rest -> go (Some positive) rest
        | Switch { round; to_index; _ } :: rest -> begin
            match last_sense with
            | Some false -> go last_sense rest
            | Some true ->
                Some
                  (Printf.sprintf
                     "switch to index %d at round %d follows a positive verdict"
                     to_index round)
            | None ->
                Some
                  (Printf.sprintf
                     "switch to index %d at round %d with no prior verdict"
                     to_index round)
          end
        | _ :: rest -> go last_sense rest
      in
      go None events)

let standard =
  [ rounds_increase; no_emission_after_drain; switch_follows_negative ]

(* A trace file may hold many runs back to back (a trial batch, or a
   checkpointed enumeration resumed by a fresh incarnation); each
   Run_start opens a new segment.  Events before the first Run_start —
   a truncated capture — form a leading segment of their own. *)
let split_runs events =
  let flush cur acc = match cur with [] -> acc | c -> List.rev c :: acc in
  let rec go cur acc = function
    | [] -> List.rev (flush cur acc)
    | (Run_start _ as ev) :: rest -> go [ ev ] (flush cur acc) rest
    | ev :: rest -> go (ev :: cur) acc rest
  in
  go [] [] events

let check invariants events =
  (* Round numbers restart at every Run_start, so invariants quantify
     over single runs: check each segment independently. *)
  let check_segment k segment =
    let rec go = function
      | [] -> Ok ()
      | inv :: rest -> begin
          match inv.inv_check segment with
          | None -> go rest
          | Some msg ->
              Error
                (if k = 0 then Printf.sprintf "%s: %s" inv.inv_name msg
                 else Printf.sprintf "%s: run %d: %s" inv.inv_name (k + 1) msg)
        end
    in
    go invariants
  in
  let rec over k = function
    | [] -> Ok ()
    | segment :: rest -> begin
        match check_segment k segment with
        | Ok () -> over (k + 1) rest
        | Error _ as e -> e
      end
  in
  over 0 (split_runs events)
