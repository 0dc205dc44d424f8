open Goalcom
open Goalcom_prelude
open Goalcom_automata

let with_dialect d base =
  let name = Printf.sprintf "%s@%s" (Strategy.name base) (Format.asprintf "%a" Dialect.pp d) in
  Strategy.rename name
    (Strategy.map_obs
       (fun (obs : Io.Server.obs) ->
         let m = Dialect_msg.decode d obs.Io.Server.from_user in
         if m == obs.Io.Server.from_user then obs
         else { obs with Io.Server.from_user = m })
       (Strategy.map_act
          (fun (act : Io.Server.act) ->
            let m = Dialect_msg.encode d act.Io.Server.to_user in
            if m == act.Io.Server.to_user then act
            else { act with Io.Server.to_user = m })
          base))

let dialect_class ~base dialects =
  Enum.map
    ~name:(Printf.sprintf "%s-under-%s" (Strategy.name base) (Enum.name dialects))
    (fun d -> with_dialect d base)
    dialects

(* Per-step RNG (see Channel.drop_inbound): a construction-time stream
   would be shared across instances and diverge under replay. *)
let noisy ~flip_prob base =
  if flip_prob < 0. || flip_prob > 1. then
    invalid_arg "Transform.noisy: flip_prob out of range";
  let module I = Strategy.Instance in
  Strategy.make
    ~name:(Printf.sprintf "noisy(%.2f,%s)" flip_prob (Strategy.name base))
    ~init:(fun () -> I.create base)
    ~step:(fun rng inst obs ->
      let act = I.step rng inst obs in
      if Rng.bernoulli rng flip_prob then
        (inst, { act with Io.Server.to_user = Msg.Silence })
      else (inst, act))

let lazy_every k base =
  if k <= 0 then invalid_arg "Transform.lazy_every: k must be positive";
  let module I = Strategy.Instance in
  Strategy.make
    ~name:(Printf.sprintf "lazy(%d,%s)" k (Strategy.name base))
    ~init:(fun () -> (I.create base, 0))
    ~step:(fun rng (inst, tick) obs ->
      if tick mod k = k - 1 then ((inst, tick + 1), I.step rng inst obs)
      else ((inst, tick + 1), Io.Server.silent))

let silent () = Strategy.stateless ~name:"silent-server" (fun _ -> Io.Server.silent)

let babbler ~alphabet_size =
  if alphabet_size <= 0 then invalid_arg "Transform.babbler: bad alphabet";
  Strategy.stateless_random ~name:"babbler-server" (fun rng _ ->
      {
        Io.Server.to_user = Msg.Sym (Rng.int rng alphabet_size);
        to_world = Msg.Sym (Rng.int rng alphabet_size);
      })

let deaf base =
  Strategy.rename
    (Printf.sprintf "deaf(%s)" (Strategy.name base))
    (Strategy.map_obs
       (fun (obs : Io.Server.obs) -> { obs with Io.Server.from_user = Msg.Silence })
       base)
