open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_servers

let left_cmd = 0
let right_cmd = 1
let min_alphabet = 3

let check_alphabet alphabet =
  if alphabet < min_alphabet then
    invalid_arg "Control: alphabet must have at least 3 symbols"

type params = { bound : int; limit : int; force : int; max_drift : int }

let default_params = { bound = 10; limit = 24; force = 2; max_drift = 1 }

let check_params p =
  if p.bound <= 0 || p.limit <= p.bound || p.force <= 0 || p.max_drift < 0 then
    invalid_arg "Control: inconsistent parameters"

(* The actuator's two command acts, shared by every actuator. *)
let push_left = Io.Server.say_world (Msg.Sym left_cmd)
let push_right = Io.Server.say_world (Msg.Sym right_cmd)

let actuator ~alphabet =
  check_alphabet alphabet;
  Strategy.stateless ~name:"actuator" (fun (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Sym c when c = left_cmd -> push_left
      | Msg.Sym c when c = right_cmd -> push_right
      | _ -> Io.Server.silent)

let server ~alphabet d = Transform.with_dialect d (actuator ~alphabet)

let server_class ~alphabet dialects =
  Transform.dialect_class ~base:(actuator ~alphabet) dialects

(* Readings within the default limit and the acts that broadcast them,
   built once, so a plant step or view is a table load.  Plants with a
   wider limit allocate the readings outside it. *)
let cached_limit = default_params.limit

let readings =
  Array.init ((2 * cached_limit) + 1) (fun i -> Msg.Int (i - cached_limit))

let broadcasts = Array.map Io.World.say_user readings

let reading p =
  if abs p <= cached_limit then readings.(p + cached_limit) else Msg.Int p

let broadcast p =
  if abs p <= cached_limit then broadcasts.(p + cached_limit)
  else Io.World.say_user (Msg.Int p)

(* The state is the plant's reading, updated in place. *)
let world ?(params = default_params) () =
  check_params params;
  World.make_inplace
    ~name:
      (Printf.sprintf "plant(bound=%d,limit=%d)" params.bound params.limit)
    ~init:(fun () -> ref 0)
    ~step:(fun rng plant (obs : Io.World.obs) ->
      let force =
        match obs.from_server with
        | Msg.Sym c when c = left_cmd -> -params.force
        | Msg.Sym c when c = right_cmd -> params.force
        | _ -> 0
      in
      let drift = Rng.int rng (params.max_drift + 1) in
      plant := max (-params.limit) (min params.limit (!plant + drift + force));
      broadcast !plant)
    ~view:(fun plant -> reading !plant)

(* Acceptability of a prefix depends only on its latest world view, so
   the incremental judge is stateless and returns one of two constant
   results. *)
let referee_of params =
  let ok = ((), `Ok) and violation = ((), `Violation) in
  Referee.compact_incremental "plant-in-range"
    ~init:(fun _v0 -> ok)
    ~step:(fun () v ->
      match v with
      | Msg.Int plant when abs plant <= params.bound -> ok
      | _ -> violation)

let goal ?(params = default_params) ~alphabet () =
  check_alphabet alphabet;
  check_params params;
  Goal.make
    ~name:(Printf.sprintf "control(alphabet=%d,bound=%d)" alphabet params.bound)
    ~worlds:[ world ~params () ]
    ~referee:(referee_of params)

let informed_user ~alphabet d =
  check_alphabet alphabet;
  let send cmd = Io.User.say_server (Dialect_msg.encode d (Msg.Sym cmd)) in
  let left = send left_cmd and right = send right_cmd in
  Strategy.stateless
    ~name:(Printf.sprintf "control-user@%s" (Format.asprintf "%a" Dialect.pp d))
    (fun (obs : Io.User.obs) ->
      match obs.from_world with
      | Msg.Int plant -> if plant >= 0 then left else right
      | _ -> left)

let user_class ~alphabet dialects =
  Enum.map
    ~name:(Printf.sprintf "control-users(%s)" (Enum.name dialects))
    (fun d -> informed_user ~alphabet d)
    dialects

let sensing ?(params = default_params) () =
  Sensing.of_latest ~name:"plant-in-range" ~empty:true (fun e ->
      match e.View.from_world with
      | Msg.Int plant -> abs plant <= params.bound
      | _ -> true)

let universal_user ?(grace = 4) ?stats ?params ~alphabet dialects =
  Universal.compact ~grace ?stats
    ~enum:(user_class ~alphabet dialects)
    ~sensing:(sensing ?params ()) ()
