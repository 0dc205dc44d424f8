module Round = struct
  type t = {
    index : int;
    user_to_server : Msg.t;
    user_to_world : Msg.t;
    server_to_user : Msg.t;
    server_to_world : Msg.t;
    world_to_user : Msg.t;
    world_to_server : Msg.t;
    world_view : Msg.t;
    user_halted : bool;
  }

  let pp ppf r =
    Format.fprintf ppf
      "@[<h>r%d: U->S %a | U->W %a | S->U %a | S->W %a | W->U %a | W->S %a | world %a%s@]"
      r.index Msg.pp r.user_to_server Msg.pp r.user_to_world Msg.pp
      r.server_to_user Msg.pp r.server_to_world Msg.pp r.world_to_user Msg.pp
      r.world_to_server Msg.pp r.world_view
      (if r.user_halted then " [halted]" else "")
end

(* Rounds live in fixed-size chunks hung off a growable spine: round
   [i] (0-based) is [spine.(i lsr chunk_bits).(i land chunk_mask)].
   Appending a round is an array store (amortising the spine doubling),
   so the per-round cons cell and the O(n) [List.rev] at [finish] are
   gone from the execution hot path, and [length]/[halted]/[halt_round]
   /[prefix] are O(1).  A prefix shares the spine of its parent and
   only narrows [len]; chunk slots at or past [len] are unreachable
   through the accessors below. *)
let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type t = {
  initial_world_view : Msg.t;
  spine : Round.t array array;
  len : int;
  halt : int option;  (* first round with [user_halted], if any *)
}

let unsafe_round t i = t.spine.(i lsr chunk_bits).(i land chunk_mask)

let round_exn t i =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "History.round_exn: index %d out of bounds [0,%d)" i t.len)
  else unsafe_round t i

let fold_rounds t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (unsafe_round t i)
  done;
  !acc

let iter_rounds t ~f =
  for i = 0 to t.len - 1 do
    f (unsafe_round t i)
  done

type history = t

module Builder = struct
  type t = {
    initial_world_view : Msg.t;
    mutable spine : Round.t array array;
    mutable nchunks : int;  (* chunks with at least one live slot *)
    mutable len : int;
    mutable halt : int option;
    mutable finished : bool;
  }

  let create ~initial_world_view =
    { initial_world_view; spine = [||]; nchunks = 0; len = 0; halt = None;
      finished = false }

  let length t = t.len

  (* Fresh chunks are filled with the round being appended; slots past
     [len] are never read, so the padding value is irrelevant. *)
  let add t (r : Round.t) =
    if t.finished then invalid_arg "History.Builder.add: builder is finished";
    if r.index <> t.len + 1 then
      invalid_arg
        (Printf.sprintf "History.make: round %d has index %d" (t.len + 1)
           r.index);
    let ci = t.len lsr chunk_bits in
    if ci >= t.nchunks then begin
      if ci >= Array.length t.spine then begin
        let cap = max 4 (2 * Array.length t.spine) in
        let spine = Array.make cap [||] in
        Array.blit t.spine 0 spine 0 t.nchunks;
        t.spine <- spine
      end;
      t.spine.(ci) <- Array.make chunk_size r;
      t.nchunks <- t.nchunks + 1
    end;
    t.spine.(ci).(t.len land chunk_mask) <- r;
    if r.user_halted && t.halt = None then t.halt <- Some r.index;
    t.len <- t.len + 1

  let finish t =
    t.finished <- true;
    { initial_world_view = t.initial_world_view;
      spine = Array.sub t.spine 0 t.nchunks;
      len = t.len;
      halt = t.halt }
end

let make ~initial_world_view rounds =
  let b = Builder.create ~initial_world_view in
  List.iter (Builder.add b) rounds;
  Builder.finish b

let initial_world_view t = t.initial_world_view
let length t = t.len

let world_views t =
  t.initial_world_view
  :: List.init t.len (fun i -> (unsafe_round t i).Round.world_view)

let world_views_rev t =
  fold_rounds t ~init:[ t.initial_world_view ] ~f:(fun acc r ->
      r.Round.world_view :: acc)

let halted t = t.halt <> None
let halt_round t = t.halt

let prefix n t =
  if n < 0 then invalid_arg (Printf.sprintf "History.prefix: negative n (%d)" n);
  let len = min n t.len in
  let halt = match t.halt with Some h when h <= len -> t.halt | _ -> None in
  { t with len; halt }

(* Post-hoc reconstruction of the engine-level trace events from a
   recorded history: what Exec.run would have emitted for the same run
   minus Run_start (the config is not recorded) and minus the
   strategy-internal events (sensing, switches, faults), which only
   exist in live traces. *)
let trace_events t =
  let emit round src dst msg acc =
    if Msg.is_silence msg then acc
    else Trace.Emit { round; src; dst; msg } :: acc
  in
  let events, halt_seen =
    fold_rounds t ~init:([], false)
      ~f:(fun (acc, halt_seen) (r : Round.t) ->
        let acc = Trace.Round_start { round = r.index } :: acc in
        let acc =
          emit r.index Trace.User Trace.Server r.user_to_server acc
          |> emit r.index Trace.User Trace.World r.user_to_world
          |> emit r.index Trace.Server Trace.User r.server_to_user
          |> emit r.index Trace.Server Trace.World r.server_to_world
          |> emit r.index Trace.World Trace.User r.world_to_user
          |> emit r.index Trace.World Trace.Server r.world_to_server
        in
        if r.user_halted && not halt_seen then
          (Trace.Halt { round = r.index } :: acc, true)
        else (acc, halt_seen))
  in
  List.rev
    (Trace.Run_end { rounds = length t; halted = halt_seen } :: events)

let pp ppf t =
  Format.fprintf ppf "@[<v>initial world %a@,%a@]" Msg.pp t.initial_world_view
    (Format.pp_print_list Round.pp)
    (List.init t.len (unsafe_round t))
