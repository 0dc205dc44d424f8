open Goalcom
open Goalcom_prelude
open Goalcom_automata

(* Per instance: the base server's instance, and the scratch obs it is
   handed when decoding changes the user's message (the caller's obs is
   not ours to overwrite; a fresh record per round is what this saves). *)
type dialected = {
  base_inst : (Io.Server.obs, Io.Server.act) Strategy.Instance.t;
  decoded : Io.Server.obs;
}

let with_dialect d base =
  let module I = Strategy.Instance in
  Strategy.make_inplace
    ~name:(Printf.sprintf "%s@%s" (Strategy.name base) (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () ->
      {
        base_inst = I.create base;
        decoded = { Io.Server.from_user = Msg.Silence; from_world = Msg.Silence };
      })
    ~step:(fun rng st (obs : Io.Server.obs) ->
      let m = Dialect_msg.decode d obs.Io.Server.from_user in
      let obs =
        if m == obs.Io.Server.from_user then obs
        else begin
          let scratch = st.decoded in
          (* Stores only on change: each runs the write barrier. *)
          if scratch.from_user != m then scratch.from_user <- m;
          if scratch.from_world != obs.from_world then
            scratch.from_world <- obs.from_world;
          scratch
        end
      in
      let act = I.step rng st.base_inst obs in
      let m = Dialect_msg.encode d act.Io.Server.to_user in
      if m == act.Io.Server.to_user then act
      else { act with Io.Server.to_user = m })

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
