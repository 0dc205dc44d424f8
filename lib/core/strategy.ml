open Goalcom_prelude

(* One representation: [step] updates the state [init] built in place
   and returns the act.  [make] keeps a functional step's state in a
   ref. *)
type ('obs, 'act, 'state) spec = {
  name : string;
  init : unit -> 'state;
  step : Rng.t -> 'state -> 'obs -> 'act;
}

type ('obs, 'act) t = S : ('obs, 'act, 'state) spec -> ('obs, 'act) t
[@@unboxed]

let make_inplace ~name ~init ~step = S { name; init; step }

let make ~name ~init ~step =
  make_inplace ~name
    ~init:(fun () -> ref (init ()))
    ~step:(fun rng r obs ->
      let s, act = step rng !r obs in
      r := s;
      act)

let name (S s) = s.name
let rename name (S s) = S { s with name }

let stateless ~name f =
  make_inplace ~name ~init:(fun () -> ()) ~step:(fun _rng () obs -> f obs)

let stateless_random ~name f =
  make_inplace ~name ~init:(fun () -> ()) ~step:(fun rng () obs -> f rng obs)

let map_obs f (S s) =
  S
    {
      name = s.name;
      init = s.init;
      step = (fun rng state obs -> s.step rng state (f obs));
    }

let map_act f (S s) =
  S
    {
      name = s.name;
      init = s.init;
      step = (fun rng state obs -> f (s.step rng state obs));
    }

module Instance = struct
  type ('obs, 'act) instance =
    | I : {
        spec : ('obs, 'act, 'state) spec;
        mutable state : 'state;
        mutable rounds : int;
      }
        -> ('obs, 'act) instance

  type ('obs, 'act) t = ('obs, 'act) instance

  let create (S spec) = I { spec; state = spec.init (); rounds = 0 }

  let step rng (I inst) obs =
    let act = inst.spec.step rng inst.state obs in
    inst.rounds <- inst.rounds + 1;
    act

  let restart (I inst) =
    inst.state <- inst.spec.init ();
    inst.rounds <- 0

  let strategy (I inst) = S inst.spec
  let rounds (I inst) = inst.rounds
end

type ('obs, 'act) phase = {
  mutable left : int;  (* rounds [first] still plays *)
  first : ('obs, 'act) Instance.t;
  mutable rest : ('obs, 'act) Instance.t option;  (* started at the switch *)
}

let switch_after k first rest =
  if k < 0 then invalid_arg "Strategy.switch_after: negative k";
  let module I = Instance in
  make_inplace
    ~name:(Printf.sprintf "switch-after-%d(%s;%s)" k (name first) (name rest))
    ~init:(fun () -> { left = k; first = I.create first; rest = None })
    ~step:(fun rng ph obs ->
      match ph.rest with
      | Some inst -> I.step rng inst obs
      | None when ph.left > 0 ->
          ph.left <- ph.left - 1;
          I.step rng ph.first obs
      | None ->
          let inst = I.create rest in
          ph.rest <- Some inst;
          I.step rng inst obs)

type user = (Io.User.obs, Io.User.act) t
type server = (Io.Server.obs, Io.Server.act) t
