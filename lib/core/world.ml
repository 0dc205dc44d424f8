open Goalcom_prelude

(* One representation, as {!Strategy}: [step] updates the state in
   place and returns the act; [make] adapts a functional step over a
   ref. *)
type 'state spec = {
  name : string;
  init : unit -> 'state;
  step : Rng.t -> 'state -> Io.World.obs -> Io.World.act;
  view : 'state -> Msg.t;
}

type t = W : 'state spec -> t [@@unboxed]

let make_inplace ~name ~init ~step ~view = W { name; init; step; view }

let make ~name ~init ~step ~view =
  make_inplace ~name
    ~init:(fun () -> ref (init ()))
    ~step:(fun rng r obs ->
      let s, act = step rng !r obs in
      r := s;
      act)
    ~view:(fun r -> view !r)

let name (W w) = w.name

module Instance = struct
  type instance = I : { spec : 'state spec; state : 'state } -> instance
  type t = instance

  let create (W spec) = I { spec; state = spec.init () }
  let step rng (I inst) obs = inst.spec.step rng inst.state obs
  let view (I inst) = inst.spec.view inst.state
end
