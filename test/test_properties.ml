(* Property-based tests (qcheck) on the core data structures and model
   invariants, registered as alcotest cases via QCheck_alcotest. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata

let count = 200

(* Coding *)

let prop_pair_roundtrip =
  QCheck.Test.make ~count ~name:"Coding: unpair (pair x y) = (x, y)"
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (x, y) -> Coding.unpair (Coding.pair x y) = (x, y))

let prop_list_roundtrip =
  (* Nested Cantor pairing explodes double-exponentially, so the
     bijection's practical domain is short lists of small naturals —
     stay inside it (the overflow guard is tested separately). *)
  QCheck.Test.make ~count ~name:"Coding: decode_list (encode_list l) = l"
    QCheck.(list_of_size Gen.(int_bound 4) (int_bound 8))
    (fun l -> Coding.decode_list (Coding.encode_list l) = l)

let prop_tuple_roundtrip =
  QCheck.Test.make ~count ~name:"Coding: mixed-radix tuple roundtrip"
    QCheck.(list_of_size Gen.(1 -- 5) (2 -- 6))
    (fun radices_list ->
      let radices = Array.of_list radices_list in
      let space = Coding.tuple_space ~radices in
      let code = space / 2 in
      Coding.encode_tuple ~radices (Coding.decode_tuple ~radices code) = code)

(* Dist *)

let weighted_gen =
  QCheck.(
    list_of_size
      Gen.(1 -- 6)
      (pair (int_bound 20) (float_bound_inclusive 10.)))

let prop_dist_normalised =
  QCheck.Test.make ~count ~name:"Dist: of_weighted is normalised" weighted_gen
    (fun pairs ->
      QCheck.assume (List.exists (fun (_, w) -> w > 0.) pairs);
      Dist.is_normalised (Dist.of_weighted pairs))

let prop_dist_sample_in_support =
  QCheck.Test.make ~count ~name:"Dist: samples lie in the support"
    QCheck.(pair weighted_gen (int_bound 1_000_000))
    (fun (pairs, seed) ->
      QCheck.assume (List.exists (fun (_, w) -> w > 0.) pairs);
      let d = Dist.of_weighted pairs in
      let rng = Rng.make seed in
      List.mem (Dist.sample rng d) (Dist.support d))

let prop_dist_map_normalised =
  QCheck.Test.make ~count ~name:"Dist: map preserves normalisation" weighted_gen
    (fun pairs ->
      QCheck.assume (List.exists (fun (_, w) -> w > 0.) pairs);
      Dist.is_normalised (Dist.map (fun x -> x mod 3) (Dist.of_weighted pairs)))

(* Rng *)

let prop_rng_int_bounds =
  QCheck.Test.make ~count ~name:"Rng: int within bounds"
    QCheck.(pair (int_bound 1_000_000) (1 -- 10_000))
    (fun (seed, bound) ->
      let rng = Rng.make seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_deterministic =
  QCheck.Test.make ~count ~name:"Rng: equal seeds give equal streams"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let a = Rng.make seed and b = Rng.make seed in
      List.for_all
        (fun _ -> Rng.int64 a = Rng.int64 b)
        (Listx.range 0 20))

(* Stats *)

let samples_gen = QCheck.(list_of_size Gen.(2 -- 30) (float_bound_inclusive 100.))

let prop_stats_mean_bounded =
  QCheck.Test.make ~count ~name:"Stats: min <= mean <= max" samples_gen
    (fun xs ->
      QCheck.assume (xs <> []);
      let m = Stats.mean xs in
      Stats.minimum xs -. 1e-9 <= m && m <= Stats.maximum xs +. 1e-9)

let prop_stats_percentile_bounded =
  QCheck.Test.make ~count ~name:"Stats: percentiles within [min,max]"
    QCheck.(pair samples_gen (float_bound_inclusive 100.))
    (fun (xs, q) ->
      QCheck.assume (xs <> []);
      let p = Stats.percentile q xs in
      Stats.minimum xs -. 1e-9 <= p && p <= Stats.maximum xs +. 1e-9)

(* Mealy *)

let prop_mealy_roundtrip =
  QCheck.Test.make ~count ~name:"Mealy: encode (decode c) = c"
    QCheck.(triple (1 -- 3) (1 -- 3) (1 -- 3))
    (fun (states, inputs, outputs) ->
      let total = Mealy.count ~states ~inputs ~outputs in
      let codes = [ 0; total / 3; total / 2; total - 1 ] in
      List.for_all
        (fun code ->
          match Mealy.decode ~states ~inputs ~outputs code with
          | Some m -> Mealy.encode m = code
          | None -> false)
        codes)

let prop_mealy_run_length =
  QCheck.Test.make ~count ~name:"Mealy: run preserves word length"
    QCheck.(pair (int_bound 1_000_000) (list_of_size Gen.(0 -- 20) (int_bound 1)))
    (fun (code, word) ->
      match Mealy.decode ~states:2 ~inputs:2 ~outputs:2 (code mod 256) with
      | None -> QCheck.assume_fail ()
      | Some m -> List.length (Mealy.run m word) = List.length word)

let prop_mealy_bisimulation_reflexive =
  QCheck.Test.make ~count:60 ~name:"Mealy: equal_behaviour is reflexive"
    QCheck.(int_bound 255)
    (fun code ->
      match Mealy.decode ~states:2 ~inputs:2 ~outputs:2 code with
      | None -> QCheck.assume_fail ()
      | Some m -> Mealy.equal_behaviour ~depth:6 m m)

(* Dialect *)

let dialect_gen =
  QCheck.map
    (fun (seed, size) ->
      let rng = Rng.make seed in
      Dialect.random rng (size + 2))
    QCheck.(pair (int_bound 1_000_000) (int_bound 6))

let prop_dialect_inverse =
  QCheck.Test.make ~count ~name:"Dialect: unapply . apply = id"
    dialect_gen
    (fun d ->
      List.for_all
        (fun i -> Dialect.unapply d (Dialect.apply d i) = i)
        (Listx.range 0 (Dialect.size d)))

let prop_dialect_lehmer_roundtrip =
  QCheck.Test.make ~count ~name:"Dialect: lehmer roundtrip" dialect_gen
    (fun d ->
      match Dialect.of_lehmer ~size:(Dialect.size d) (Dialect.to_lehmer d) with
      | Some d' -> Dialect.equal d d'
      | None -> false)

let prop_dialect_msg_roundtrip =
  QCheck.Test.make ~count ~name:"Dialect_msg: decode . encode = id"
    QCheck.(pair dialect_gen (list_of_size Gen.(0 -- 6) (int_bound 20)))
    (fun (d, syms) ->
      let msg = Msg.Seq (List.map (fun s -> Msg.Sym s) syms) in
      Msg.equal msg
        (Goalcom_servers.Dialect_msg.decode d
           (Goalcom_servers.Dialect_msg.encode d msg)))

(* Grid *)

let grid_gen =
  QCheck.map
    (fun (seed, w, h) ->
      let rng = Rng.make seed in
      let w = w + 2 and h = h + 2 in
      let blocked =
        List.filter_map
          (fun _ ->
            let p = (Rng.int rng w, Rng.int rng h) in
            if p = (0, 0) then None else Some p)
          (Listx.range 0 (w * h / 4))
      in
      Goalcom_goals.Grid.make ~width:w ~height:h ~blocked ())
    QCheck.(triple (int_bound 1_000_000) (int_bound 6) (int_bound 6))

let prop_grid_bfs_valid =
  QCheck.Test.make ~count ~name:"Grid: BFS paths are valid and shortest-ish"
    QCheck.(pair grid_gen (int_bound 1_000_000))
    (fun (g, seed) ->
      let open Goalcom_goals in
      let rng = Rng.make seed in
      let random_free () =
        let rec go k =
          if k = 0 then None
          else begin
            let p = (Rng.int rng g.Grid.width, Rng.int rng g.Grid.height) in
            if Grid.is_free g p then Some p else go (k - 1)
          end
        in
        go 50
      in
      match (random_free (), random_free ()) with
      | Some src, Some dst -> begin
          match Grid.bfs_path g src dst with
          | None -> true (* unreachable is fine *)
          | Some path ->
              let final = List.fold_left (Grid.move g) src path in
              final = dst && List.length path >= Grid.manhattan src dst
        end
      | _ -> QCheck.assume_fail ())

(* SAT *)

let prop_planted_satisfiable =
  QCheck.Test.make ~count:60 ~name:"Sat: planted instances are satisfiable"
    QCheck.(pair (int_bound 1_000_000) (pair (3 -- 9) (1 -- 25)))
    (fun (seed, (num_vars, num_clauses)) ->
      let open Goalcom_sat in
      let rng = Rng.make seed in
      let clause_len = min 3 num_vars in
      let cnf, plant = Gen.planted rng ~num_vars ~num_clauses ~clause_len in
      Cnf.eval cnf plant
      &&
      match Dpll.solve cnf with
      | Some a -> Cnf.eval cnf a
      | None -> false)

let prop_dpll_sound =
  QCheck.Test.make ~count:60 ~name:"Sat: DPLL models satisfy; unsat agrees with brute force"
    QCheck.(pair (int_bound 1_000_000) (pair (2 -- 5) (1 -- 14)))
    (fun (seed, (num_vars, num_clauses)) ->
      let open Goalcom_sat in
      let rng = Rng.make seed in
      let clause_len = min 2 num_vars in
      let cnf = Gen.uniform rng ~num_vars ~num_clauses ~clause_len in
      match Dpll.solve cnf with
      | Some a -> Cnf.eval cnf a
      | None -> Dpll.count_models cnf = 0)

(* Levin *)

let prop_levin_work_monotone =
  QCheck.Test.make ~count:40 ~name:"Levin: work_before monotone in index and budget"
    QCheck.(pair (int_bound 8) (1 -- 32))
    (fun (index, budget) ->
      Levin.work_before ~index ~budget ()
      <= Levin.work_before ~index:(index + 1) ~budget ()
      && Levin.work_before ~index ~budget ()
         <= Levin.work_before ~index ~budget:(budget * 2) ())

(* Model invariants *)

let echo_world =
  World.make ~name:"w"
    ~init:(fun () -> 0)
    ~step:(fun _rng n (obs : Io.World.obs) ->
      let n = match obs.from_user with Msg.Int k -> n + k | _ -> n in
      (n, Io.World.say_user (Msg.Int n)))
    ~view:(fun n -> Msg.Int n)

let echo_goal =
  Goal.make ~name:"sum" ~worlds:[ echo_world ]
    ~referee:(Helpers.finite_pred "always" (fun _ -> true))

let chatty =
  Strategy.make ~name:"chatty"
    ~init:(fun () -> 0)
    ~step:(fun rng n (_ : Io.User.obs) ->
      (n + 1, Io.User.say_world (Msg.Int (Rng.int rng 5))))

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let prop_exec_deterministic =
  QCheck.Test.make ~count:40 ~name:"Exec: runs are deterministic given a seed"
    QCheck.(pair (int_bound 1_000_000) (1 -- 60))
    (fun (seed, horizon) ->
      let run () =
        Exec.run
          ~config:(Exec.config ~horizon ())
          ~goal:echo_goal ~user:chatty ~server:idle_server (Rng.make seed)
      in
      History.world_views (run ()) = History.world_views (run ()))

let prop_exec_history_well_formed =
  QCheck.Test.make ~count:40 ~name:"Exec: histories have dense 1-based indices"
    QCheck.(pair (int_bound 1_000_000) (1 -- 60))
    (fun (seed, horizon) ->
      let h =
        Exec.run
          ~config:(Exec.config ~horizon ())
          ~goal:echo_goal ~user:chatty ~server:idle_server (Rng.make seed)
      in
      List.for_all2
        (fun (r : History.Round.t) i -> r.index = i)
        (Helpers.history_rounds h)
        (Listx.range 1 (History.length h + 1)))

let prop_view_prefix_lengths =
  QCheck.Test.make ~count:40 ~name:"View: prefixes grow one event per round"
    QCheck.(pair (int_bound 1_000_000) (1 -- 40))
    (fun (seed, horizon) ->
      let h =
        Exec.run
          ~config:(Exec.config ~horizon ())
          ~goal:echo_goal ~user:chatty ~server:idle_server (Rng.make seed)
      in
      let prefixes = Helpers.View_list.prefixes h in
      List.for_all2
        (fun v i -> Helpers.View_list.length v = i)
        prefixes
        (Listx.range 1 (List.length prefixes + 1)))

let prop_compact_violations_sorted =
  QCheck.Test.make ~count:40 ~name:"Referee: violation rounds ascend"
    QCheck.(pair (int_bound 1_000_000) (1 -- 60))
    (fun (seed, horizon) ->
      let referee =
        Helpers.compact_pred "even" (fun views_rev ->
            match views_rev with Msg.Int n :: _ -> n mod 2 = 0 | _ -> true)
      in
      let goal = Goal.make ~name:"g" ~worlds:[ echo_world ] ~referee in
      let h =
        Exec.run
          ~config:(Exec.config ~horizon ())
          ~goal ~user:chatty ~server:idle_server (Rng.make seed)
      in
      let vs = Referee.violations referee h in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      ascending vs && List.for_all (fun r -> r >= 1 && r <= History.length h) vs)

(* Goal-level roundtrips *)

let prop_transfer_relay_roundtrip =
  QCheck.Test.make ~count:80 ~name:"Transfer: framed payloads are delivered verbatim"
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 255))
    (fun payload ->
      let open Goalcom_goals in
      let relay = Transfer.relay ~alphabet:4 in
      let inst = Strategy.Instance.create relay in
      let rng = Rng.make 1 in
      let feed m =
        Strategy.Instance.step rng inst
          { Io.Server.from_user = m; from_world = Msg.Silence }
      in
      ignore (feed (Msg.Sym Transfer.begin_cmd));
      List.iter
        (fun c -> ignore (feed (Msg.Pair (Msg.Sym Transfer.data_cmd, Msg.Int c))))
        payload;
      let final = feed (Msg.Sym Transfer.end_cmd) in
      Goalcom_goals.Codec.ints_opt final.Io.Server.to_world = Some payload)

let prop_printing_informed_always_succeeds =
  QCheck.Test.make ~count:40 ~name:"Printing: informed user succeeds on random documents"
    QCheck.(pair (int_bound 1_000_000) (list_of_size Gen.(1 -- 8) (int_bound 9)))
    (fun (seed, doc) ->
      let open Goalcom_goals in
      let alphabet = 4 in
      let d = Dialect.rotation ~size:alphabet (seed mod alphabet) in
      let goal = Printing.goal ~docs:[ doc ] ~alphabet () in
      let outcome, _ =
        Exec.run_outcome
          ~config:(Exec.config ~horizon:100 ())
          ~goal
          ~user:(Printing.informed_user ~alphabet d)
          ~server:(Printing.server ~alphabet d)
          (Rng.make seed)
      in
      outcome.Outcome.achieved)

let prop_codec_cnf_roundtrip =
  QCheck.Test.make ~count:60 ~name:"Codec: cnf encoding roundtrips"
    QCheck.(pair (int_bound 1_000_000) (pair (2 -- 8) (1 -- 12)))
    (fun (seed, (num_vars, num_clauses)) ->
      let open Goalcom_sat in
      let rng = Rng.make seed in
      let cnf =
        Gen.uniform rng ~num_vars ~num_clauses ~clause_len:(min 3 num_vars)
      in
      match Goalcom_goals.Codec.cnf_opt (Goalcom_goals.Codec.cnf cnf) with
      | Some cnf' ->
          cnf'.Cnf.num_vars = cnf.Cnf.num_vars
          && cnf'.Cnf.clauses = cnf.Cnf.clauses
      | None -> false)

(* Field and protocol laws *)

let gf_gen =
  QCheck.map (fun n -> Goalcom_ip.Gf.of_int n) QCheck.(int_bound (2_000_000_000))

let prop_gf_field_laws =
  QCheck.Test.make ~count:200 ~name:"Gf: ring laws and inverses"
    QCheck.(triple gf_gen gf_gen gf_gen)
    (fun (a, b, c) ->
      let open Goalcom_ip.Gf in
      equal (add a b) (add b a)
      && equal (mul a b) (mul b a)
      && equal (mul a (add b c)) (add (mul a b) (mul a c))
      && equal (add a (neg a)) zero
      && equal (sub a b) (add a (neg b))
      && (equal a zero || equal (mul a (inv a)) one))

let prop_poly_lagrange_identity =
  QCheck.Test.make ~count:100 ~name:"Poly: Lagrange reproduces the samples"
    QCheck.(list_of_size Gen.(2 -- 8) (int_bound 1_000_000))
    (fun ys ->
      let samples = Array.of_list (List.map Goalcom_ip.Gf.of_int ys) in
      List.for_all
        (fun i ->
          Goalcom_ip.Gf.equal
            (Goalcom_ip.Poly.eval_samples samples (Goalcom_ip.Gf.of_int i))
            samples.(i))
        (Listx.range 0 (Array.length samples)))

let prop_sumcheck_complete_and_sound =
  QCheck.Test.make ~count:30 ~name:"Sumcheck: complete on truth, sound on lies"
    QCheck.(pair (int_bound 1_000_000) (1 -- 1000))
    (fun (seed, delta) ->
      let open Goalcom_ip in
      let rng = Rng.make seed in
      let cnf =
        Goalcom_sat.Gen.uniform rng ~num_vars:5 ~num_clauses:8 ~clause_len:3
      in
      let count = Arith.count_models_mod cnf in
      let ok_true, _ =
        Sumcheck.run rng cnf ~claimed:count ~prover:Sumcheck.honest_prover
      in
      let ok_false, _ =
        Sumcheck.run rng cnf ~claimed:(count + delta)
          ~prover:Sumcheck.honest_prover
      in
      ok_true && not ok_false)

(* Algebraic laws *)

let prop_dialect_group_laws =
  QCheck.Test.make ~count:100 ~name:"Dialect: group laws (assoc, identity, inverse)"
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (2 -- 7))
    (fun (s1, s2, n) ->
      let d1 = Dialect.random (Rng.make s1) n in
      let d2 = Dialect.random (Rng.make s2) n in
      let d3 = Dialect.rotation ~size:n 1 in
      let id = Dialect.identity n in
      Dialect.equal
        (Dialect.compose (Dialect.compose d1 d2) d3)
        (Dialect.compose d1 (Dialect.compose d2 d3))
      && Dialect.equal (Dialect.compose d1 id) d1
      && Dialect.equal (Dialect.compose id d1) d1
      && Dialect.equal (Dialect.compose d1 (Dialect.inverse d1)) id)

let prop_mealy_cascade_law =
  QCheck.Test.make ~count:100
    ~name:"Mealy: run (cascade m1 m2) = run m2 . run m1"
    QCheck.(triple (int_bound 255) (int_bound 255)
              (list_of_size Gen.(0 -- 12) (int_bound 1)))
    (fun (c1, c2, word) ->
      match
        ( Mealy.decode ~states:2 ~inputs:2 ~outputs:2 c1,
          Mealy.decode ~states:2 ~inputs:2 ~outputs:2 c2 )
      with
      | Some m1, Some m2 ->
          Mealy.run (Mealy.cascade m1 m2) word = Mealy.run m2 (Mealy.run m1 word)
      | _ -> QCheck.assume_fail ())

let prop_enum_interleave_complete =
  QCheck.Test.make ~count:100 ~name:"Enum: interleave contains both sides"
    QCheck.(pair (list_of_size Gen.(0 -- 6) (int_bound 50))
              (list_of_size Gen.(0 -- 6) (int_bound 50)))
    (fun (xs, ys) ->
      let a = Enum.of_list ~name:"a" xs and b = Enum.of_list ~name:"b" ys in
      let merged = Enum.to_list (Enum.interleave a b) in
      List.length merged = List.length xs + List.length ys
      && List.for_all (fun x -> List.mem x merged) xs
      && List.for_all (fun y -> List.mem y merged) ys)

(* Engine invariants *)

let halt_at k =
  Strategy.make ~name:"halt-at"
    ~init:(fun () -> 0)
    ~step:(fun _rng n (_ : Io.User.obs) ->
      if n + 1 >= k then (n + 1, Io.User.halt_act)
      else (n + 1, Io.User.say_world (Msg.Int n)))

let prop_exec_silent_after_halt =
  QCheck.Test.make ~count:60 ~name:"Exec: user emits silence after halting"
    QCheck.(pair (int_bound 1_000_000) (1 -- 20))
    (fun (seed, k) ->
      let h =
        Exec.run
          ~config:(Exec.config ~horizon:60 ~drain:4 ())
          ~goal:echo_goal ~user:(halt_at k) ~server:idle_server (Rng.make seed)
      in
      match History.halt_round h with
      | None -> false
      | Some r ->
          List.for_all
            (fun (round : History.Round.t) ->
              round.index <= r
              || (Msg.is_silence round.user_to_server
                 && Msg.is_silence round.user_to_world))
            (Helpers.history_rounds h))

let prop_exec_drain_bound =
  QCheck.Test.make ~count:60 ~name:"Exec: run ends within drain rounds of the halt"
    QCheck.(triple (int_bound 1_000_000) (1 -- 20) (0 -- 5))
    (fun (seed, k, drain) ->
      let h =
        Exec.run
          ~config:(Exec.config ~horizon:100 ~drain ())
          ~goal:echo_goal ~user:(halt_at k) ~server:idle_server (Rng.make seed)
      in
      match History.halt_round h with
      | None -> false
      | Some r -> History.length h = min 100 (r + drain))

let prop_history_prefix_views =
  QCheck.Test.make ~count:60 ~name:"History: prefix commutes with world_views"
    QCheck.(triple (int_bound 1_000_000) (1 -- 40) (0 -- 40))
    (fun (seed, horizon, cut) ->
      let h =
        Exec.run
          ~config:(Exec.config ~horizon ())
          ~goal:echo_goal ~user:chatty ~server:idle_server (Rng.make seed)
      in
      let cut = min cut (History.length h) in
      History.world_views (History.prefix cut h)
      = Listx.take (cut + 1) (History.world_views h))

(* --- Chunked History vs the list model --------------------------------

   History stores rounds in chunked arrays; these properties pin every
   observable to what the plain list representation gives: the round
   list itself, world views (both directions), halt bookkeeping,
   prefixes at random cuts (spanning chunk boundaries: lengths run past
   64 * 2), the reconstructed trace, and the incremental Builder path
   against the one-shot [make]. *)

let round_of_payload i (a, b, halted) : History.Round.t =
  let msg k = if k = 0 then Msg.Silence else Msg.Int k in
  {
    History.Round.index = i + 1;
    user_to_server = msg a;
    user_to_world = msg (a + 1);
    server_to_user = msg b;
    server_to_world = Msg.Silence;
    world_to_user = msg (b + 2);
    world_to_server = Msg.Silence;
    world_view = Msg.Int (a + b);
    user_halted = halted;
  }

let rounds_gen =
  QCheck.(
    list_of_size
      Gen.(0 -- 150)
      (triple (int_bound 3) (int_bound 3)
         (map (fun n -> n = 0) (int_bound 9))))

(* The pre-chunking trace reconstruction, verbatim: the list fold the
   chunked [History.trace_events] must agree with. *)
let trace_events_list_model ~initial_world_view:_ (rounds : History.Round.t list) =
  let emit round src dst msg acc =
    if Msg.is_silence msg then acc
    else Trace.Emit { round; src; dst; msg } :: acc
  in
  let events, halt_seen =
    List.fold_left
      (fun (acc, halt_seen) (r : History.Round.t) ->
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
      ([], false) rounds
  in
  List.rev
    (Trace.Run_end { rounds = List.length rounds; halted = halt_seen } :: events)

let prop_history_chunks_equal_list_model =
  QCheck.Test.make ~count:120 ~name:"History: chunked storage = list model"
    QCheck.(pair rounds_gen (int_bound 160))
    (fun (payloads, cut) ->
      let rounds = List.mapi round_of_payload payloads in
      let init = Msg.Int 0 in
      let h = History.make ~initial_world_view:init rounds in
      let n = List.length rounds in
      Helpers.history_rounds h = rounds
      && History.length h = n
      && History.world_views h
         = init :: List.map (fun (r : History.Round.t) -> r.world_view) rounds
      && History.world_views_rev h = List.rev (History.world_views h)
      && History.halted h
         = List.exists (fun (r : History.Round.t) -> r.user_halted) rounds
      && History.halt_round h
         = List.find_map
             (fun (r : History.Round.t) ->
               if r.user_halted then Some r.index else None)
             rounds
      && History.fold_rounds h ~init:[] ~f:(fun acc r -> r :: acc)
         = List.rev rounds
      && List.for_all
           (fun i -> History.round_exn h i = List.nth rounds i)
           (if n = 0 then [] else [ 0; n / 2; n - 1 ])
      && History.trace_events h
         = trace_events_list_model ~initial_world_view:init rounds
      &&
      let p = History.prefix cut h in
      let cut = min cut n in
      Helpers.history_rounds p = Listx.take cut rounds
      && History.length p = cut
      && History.halt_round p
         = List.find_map
             (fun (r : History.Round.t) ->
               if r.user_halted then Some r.index else None)
             (Listx.take cut rounds)
      && History.halted p
         = List.exists
             (fun (r : History.Round.t) -> r.user_halted)
             (Listx.take cut rounds))

let prop_history_builder_equals_make =
  QCheck.Test.make ~count:120 ~name:"History: Builder.add* = make of the same list"
    rounds_gen
    (fun payloads ->
      let rounds = List.mapi round_of_payload payloads in
      let init = Msg.Int 0 in
      let b = History.Builder.create ~initial_world_view:init in
      List.iter (History.Builder.add b) rounds;
      let incremental = History.Builder.finish b in
      let oneshot = History.make ~initial_world_view:init rounds in
      Helpers.history_rounds incremental = Helpers.history_rounds oneshot
      && History.length incremental = History.length oneshot
      && History.Builder.length b = List.length rounds
      && History.halt_round incremental = History.halt_round oneshot
      && History.world_views incremental = History.world_views oneshot
      && History.trace_events incremental = History.trace_events oneshot)

let prop_multi_session_count =
  QCheck.Test.make ~count:40 ~name:"Multi_session: completed sessions = floor(horizon/len)"
    QCheck.(pair (int_bound 1_000_000) (pair (5 -- 20) (1 -- 6)))
    (fun (seed, (session_length, k)) ->
      let base =
        Goal.make ~name:"never" ~worlds:[ echo_world ]
          ~referee:(Helpers.finite_pred "no" (fun _ -> false))
      in
      let goal = Multi_session.goal ~session_length base in
      let horizon = (session_length * k) + 3 in
      let user =
        Multi_session.wrap_user
          (Strategy.stateless ~name:"mute" (fun (_ : Io.User.obs) -> Io.User.silent))
      in
      let h =
        Exec.run
          ~config:(Exec.config ~horizon ())
          ~goal ~user ~server:idle_server (Rng.make seed)
      in
      List.length (Multi_session.session_results h) = k)

let prop_halt_on_positive_immediate =
  QCheck.Test.make ~count:40 ~name:"halt_on_positive: constant verdicts behave"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let always = Sensing.constant Sensing.Positive in
      let never = Sensing.constant Sensing.Negative in
      let run sensing =
        Exec.run
          ~config:(Exec.config ~horizon:30 ())
          ~goal:echo_goal
          ~user:(Sensing.halt_on_positive sensing chatty)
          ~server:idle_server (Rng.make seed)
      in
      History.halt_round (run always) = Some 1
      && History.halt_round (run never) = None)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pair_roundtrip;
      prop_list_roundtrip;
      prop_tuple_roundtrip;
      prop_dist_normalised;
      prop_dist_sample_in_support;
      prop_dist_map_normalised;
      prop_rng_int_bounds;
      prop_rng_deterministic;
      prop_stats_mean_bounded;
      prop_stats_percentile_bounded;
      prop_mealy_roundtrip;
      prop_mealy_run_length;
      prop_mealy_bisimulation_reflexive;
      prop_dialect_inverse;
      prop_dialect_lehmer_roundtrip;
      prop_dialect_msg_roundtrip;
      prop_grid_bfs_valid;
      prop_planted_satisfiable;
      prop_dpll_sound;
      prop_levin_work_monotone;
      prop_exec_deterministic;
      prop_exec_history_well_formed;
      prop_view_prefix_lengths;
      prop_compact_violations_sorted;
      prop_dialect_group_laws;
      prop_mealy_cascade_law;
      prop_enum_interleave_complete;
      prop_exec_silent_after_halt;
      prop_exec_drain_bound;
      prop_history_prefix_views;
      prop_history_chunks_equal_list_model;
      prop_history_builder_equals_make;
      prop_multi_session_count;
      prop_halt_on_positive_immediate;
      prop_gf_field_laws;
      prop_poly_lagrange_identity;
      prop_sumcheck_complete_and_sound;
      prop_transfer_relay_roundtrip;
      prop_printing_informed_always_succeeds;
      prop_codec_cnf_roundtrip;
    ]

let () = Alcotest.run "properties" [ ("qcheck", suite) ]
