(* Unit tests for the automata substrate: enumerations,
   Mealy machines and their Gödel coding, dialects, probabilistic
   machines. *)

open Goalcom_prelude
open Goalcom_automata

(* Enum *)

let test_enum_of_list () =
  let e = Enum.of_list ~name:"l" [ 10; 20; 30 ] in
  Alcotest.(check (option int)) "card" (Some 3) (Enum.cardinality e);
  Alcotest.(check (option int)) "get" (Some 20) (Enum.get e 1);
  Alcotest.(check (option int)) "oob" None (Enum.get e 3);
  Alcotest.(check (option int)) "negative" None (Enum.get e (-1))

let test_enum_map_append () =
  let e = Enum.of_list ~name:"l" [ 1; 2 ] in
  let doubled = Enum.map (fun x -> 2 * x) e in
  Alcotest.(check (list int)) "map" [ 2; 4 ] (Enum.to_list doubled);
  let appended = Enum.append e doubled in
  Alcotest.(check (list int)) "append" [ 1; 2; 2; 4 ] (Enum.to_list appended)

let test_enum_interleave () =
  let a = Enum.of_list ~name:"a" [ 1; 3; 5 ] in
  let b = Enum.of_list ~name:"b" [ 2; 4 ] in
  Alcotest.(check (list int)) "interleave" [ 1; 2; 3; 4; 5 ]
    (Enum.to_list (Enum.interleave a b))

let test_enum_interleave_infinite () =
  let odds = Enum.map (fun n -> (2 * n) + 1) Enum.naturals in
  let evens = Enum.map (fun n -> 2 * n) Enum.naturals in
  Alcotest.(check (list int)) "prefix" [ 1; 0; 3; 2; 5 ]
    (Enum.take 5 (Enum.interleave odds evens))

let test_enum_product_finite () =
  let a = Enum.of_list ~name:"a" [ 0; 1 ] in
  let b = Enum.of_list ~name:"b" [ 10; 20 ] in
  Alcotest.(check int) "card" 4
    (List.length (Enum.to_list (Enum.product a b)))

let test_enum_find_index () =
  let e = Enum.map (fun n -> n * n) Enum.naturals in
  Alcotest.(check (option int)) "found" (Some 4)
    (Enum.find_index (fun x -> x = 16) e);
  Alcotest.(check (option int)) "limit" None
    (Enum.find_index ~limit:3 (fun x -> x = 16) e)

let test_enum_take_naturals () =
  Alcotest.(check (list int)) "naturals" [ 0; 1; 2; 3 ] (Enum.take 4 Enum.naturals)

let test_enum_get_exn () =
  let e = Enum.of_list ~name:"xyz" [ 1 ] in
  Alcotest.check_raises "oob"
    (Invalid_argument "Enum.get_exn (xyz): index 1 out of range") (fun () ->
      ignore (Enum.get_exn e 1))

(* Mealy *)

let toggle =
  (* Two states; emits its state and flips it on input 1, stays on 0. *)
  Mealy.make ~states:2 ~inputs:2 ~outputs:2
    ~next:[| [| 0; 1 |]; [| 1; 0 |] |]
    ~out:[| [| 0; 0 |]; [| 1; 1 |] |]

let test_mealy_step_run () =
  Alcotest.(check (list int)) "run" [ 0; 1; 1; 0 ]
    (Mealy.run toggle [ 1; 0; 1; 0 ]);
  let s', o = Mealy.step toggle 0 1 in
  Alcotest.(check (pair int int)) "step" (1, 0) (s', o)

let test_mealy_identity_constant () =
  let id = Mealy.identity ~size:3 in
  Alcotest.(check (list int)) "identity" [ 2; 0; 1 ] (Mealy.run id [ 2; 0; 1 ]);
  let c = Mealy.constant ~inputs:2 ~outputs:4 3 in
  Alcotest.(check (list int)) "constant" [ 3; 3 ] (Mealy.run c [ 0; 1 ])

let test_mealy_count () =
  (* 1-state machines over k inputs, m outputs: m^k. *)
  Alcotest.(check int) "1x2x2" 4 (Mealy.count ~states:1 ~inputs:2 ~outputs:2);
  (* 2 states, 1 input, 2 outputs: (2*2)^2 = 16. *)
  Alcotest.(check int) "2x1x2" 16 (Mealy.count ~states:2 ~inputs:1 ~outputs:2)

let test_mealy_encode_decode_roundtrip () =
  let count = Mealy.count ~states:2 ~inputs:2 ~outputs:2 in
  List.iter
    (fun code ->
      match Mealy.decode ~states:2 ~inputs:2 ~outputs:2 code with
      | None -> Alcotest.fail "decode failed in range"
      | Some m -> Alcotest.(check int) "roundtrip" code (Mealy.encode m))
    (Listx.take 64 (Listx.range 0 count))

let test_mealy_decode_out_of_range () =
  Alcotest.(check bool) "oob" true
    (Mealy.decode ~states:1 ~inputs:1 ~outputs:1 1 = None)

let test_mealy_enumerate_distinct () =
  let e = Mealy.enumerate ~states:1 ~inputs:2 ~outputs:2 in
  let all = Enum.to_list e in
  Alcotest.(check int) "4 machines" 4 (List.length all);
  let outputs = List.map (fun m -> Mealy.run m [ 0; 1 ]) all in
  Alcotest.(check int) "distinct behaviours" 4
    (List.length (List.sort_uniq compare outputs))

let test_mealy_enumerate_up_to () =
  let e = Mealy.enumerate_up_to ~max_states:2 ~inputs:1 ~outputs:1 in
  (* 1 one-state machine + 4 two-state machines. *)
  Alcotest.(check (option int)) "card" (Some 5) (Enum.cardinality e)

let test_mealy_cascade () =
  let id = Mealy.identity ~size:2 in
  let neg =
    Mealy.make ~states:1 ~inputs:2 ~outputs:2
      ~next:[| [| 0; 0 |] |]
      ~out:[| [| 1; 0 |] |]
  in
  let both = Mealy.cascade neg neg in
  Alcotest.(check (list int)) "double negation" [ 0; 1 ] (Mealy.run both [ 0; 1 ]);
  let one = Mealy.cascade id neg in
  Alcotest.(check (list int)) "negation" [ 1; 0 ] (Mealy.run one [ 0; 1 ])

let test_mealy_equal_behaviour () =
  let id = Mealy.identity ~size:2 in
  (* A 2-state machine that behaves like the identity. *)
  let redundant =
    Mealy.make ~states:2 ~inputs:2 ~outputs:2
      ~next:[| [| 1; 1 |]; [| 0; 0 |] |]
      ~out:[| [| 0; 1 |]; [| 0; 1 |] |]
  in
  Alcotest.(check bool) "bisimilar" true
    (Mealy.equal_behaviour ~depth:8 id redundant);
  let neg =
    Mealy.make ~states:1 ~inputs:2 ~outputs:2
      ~next:[| [| 0; 0 |] |]
      ~out:[| [| 1; 0 |] |]
  in
  Alcotest.(check bool) "different" false (Mealy.equal_behaviour ~depth:8 id neg)

let test_mealy_map_output_input () =
  let id = Mealy.identity ~size:2 in
  let swapped = Mealy.map_output (fun o -> 1 - o) ~outputs:2 id in
  Alcotest.(check (list int)) "output relabel" [ 1; 0 ] (Mealy.run swapped [ 0; 1 ]);
  let pre = Mealy.map_input (fun i -> 1 - i) id in
  Alcotest.(check (list int)) "input relabel" [ 1; 0 ] (Mealy.run pre [ 0; 1 ])

let test_mealy_validation () =
  Alcotest.check_raises "bad next"
    (Invalid_argument "Mealy.make: next entry 5 out of range") (fun () ->
      ignore
        (Mealy.make ~states:1 ~inputs:1 ~outputs:1 ~next:[| [| 5 |] |]
           ~out:[| [| 0 |] |]))

(* Dialect *)

let test_dialect_apply_unapply () =
  let d = Dialect.of_array [| 2; 0; 1 |] in
  Alcotest.(check int) "apply" 2 (Dialect.apply d 0);
  Alcotest.(check int) "unapply" 0 (Dialect.unapply d 2);
  List.iter
    (fun i ->
      Alcotest.(check int) "inverse" i (Dialect.unapply d (Dialect.apply d i)))
    [ 0; 1; 2 ]

let test_dialect_inverse_compose () =
  let d = Dialect.of_array [| 1; 2; 0 |] in
  let e = Dialect.compose (Dialect.inverse d) d in
  Alcotest.(check bool) "inverse composes to id" true
    (Dialect.equal e (Dialect.identity 3))

let test_dialect_rotation () =
  let r = Dialect.rotation ~size:4 1 in
  Alcotest.(check int) "rot" 0 (Dialect.apply r 3);
  let r0 = Dialect.rotation ~size:4 4 in
  Alcotest.(check bool) "full rotation is id" true
    (Dialect.equal r0 (Dialect.identity 4))

let test_dialect_lehmer_roundtrip () =
  List.iter
    (fun code ->
      match Dialect.of_lehmer ~size:4 code with
      | None -> Alcotest.fail "in range"
      | Some d -> Alcotest.(check int) "roundtrip" code (Dialect.to_lehmer d))
    (Listx.range 0 24)

let test_dialect_enumerate_all () =
  let e = Dialect.enumerate_all ~size:3 in
  Alcotest.(check (option int)) "3! = 6" (Some 6) (Enum.cardinality e);
  let all = Enum.to_list e in
  let arrays = List.map Dialect.to_array all in
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq compare arrays));
  Alcotest.(check bool) "first is identity" true
    (Dialect.equal (List.hd all) (Dialect.identity 3))

let test_dialect_enumerate_rotations () =
  let e = Dialect.enumerate_rotations ~size:5 in
  Alcotest.(check (option int)) "card" (Some 5) (Enum.cardinality e)

let test_dialect_factorial () =
  Alcotest.(check int) "5!" 120 (Dialect.factorial 5);
  Alcotest.(check int) "0!" 1 (Dialect.factorial 0);
  Alcotest.(check int) "saturates" max_int (Dialect.factorial 30)

let test_dialect_random_is_permutation () =
  let rng = Rng.make 33 in
  let d = Dialect.random rng 8 in
  let a = Dialect.to_array d in
  Array.sort compare a;
  Alcotest.(check (array int)) "perm" (Array.init 8 Fun.id) a

let test_dialect_validation () =
  Alcotest.check_raises "not injective"
    (Invalid_argument "Dialect.of_array: not injective") (fun () ->
      ignore (Dialect.of_array [| 0; 0 |]))

(* Prob_mealy *)

let test_prob_mealy_of_mealy_deterministic () =
  let pm = Prob_mealy.of_mealy toggle in
  let rng = Rng.make 40 in
  Alcotest.(check (list int)) "same as deterministic"
    (Mealy.run toggle [ 1; 0; 1 ])
    (Prob_mealy.run rng pm [ 1; 0; 1 ])

let test_prob_mealy_perturb_dist () =
  let pm = Prob_mealy.perturb ~flip_prob:0.5 (Mealy.identity ~size:2) in
  let d = Prob_mealy.step_dist pm 0 0 in
  (* Output 0 with prob 1 - 0.5 + 0.5/2 = 0.75. *)
  Alcotest.(check (float 1e-9)) "p(correct)" 0.75 (Dist.prob d (0, 0));
  Alcotest.(check (float 1e-9)) "p(flipped)" 0.25 (Dist.prob d (0, 1))

let test_prob_mealy_perturb_frequencies () =
  let pm = Prob_mealy.perturb ~flip_prob:0.3 (Mealy.identity ~size:2) in
  let rng = Rng.make 41 in
  let wrong = ref 0 in
  for _ = 1 to 4000 do
    let _, o = Prob_mealy.step rng pm 0 0 in
    if o = 1 then incr wrong
  done;
  let rate = float_of_int !wrong /. 4000. in
  Alcotest.(check bool) "~15% wrong" true (Float.abs (rate -. 0.15) < 0.03)

let test_prob_mealy_validation () =
  Alcotest.check_raises "bad outcome"
    (Invalid_argument "Prob_mealy.make: outcome out of range") (fun () ->
      ignore
        (Prob_mealy.make ~states:1 ~inputs:1 ~outputs:1
           ~trans:[| [| Dist.return (0, 7) |] |]))

let () =
  Alcotest.run "automata"
    [
      ( "enum",
        [
          Alcotest.test_case "of_list" `Quick test_enum_of_list;
          Alcotest.test_case "map/append" `Quick test_enum_map_append;
          Alcotest.test_case "interleave" `Quick test_enum_interleave;
          Alcotest.test_case "interleave infinite" `Quick test_enum_interleave_infinite;
          Alcotest.test_case "product" `Quick test_enum_product_finite;
          Alcotest.test_case "find_index" `Quick test_enum_find_index;
          Alcotest.test_case "naturals" `Quick test_enum_take_naturals;
          Alcotest.test_case "get_exn" `Quick test_enum_get_exn;
        ] );
      ( "mealy",
        [
          Alcotest.test_case "step/run" `Quick test_mealy_step_run;
          Alcotest.test_case "identity/constant" `Quick test_mealy_identity_constant;
          Alcotest.test_case "count" `Quick test_mealy_count;
          Alcotest.test_case "encode/decode" `Quick test_mealy_encode_decode_roundtrip;
          Alcotest.test_case "decode oob" `Quick test_mealy_decode_out_of_range;
          Alcotest.test_case "enumerate distinct" `Quick test_mealy_enumerate_distinct;
          Alcotest.test_case "enumerate up to" `Quick test_mealy_enumerate_up_to;
          Alcotest.test_case "cascade" `Quick test_mealy_cascade;
          Alcotest.test_case "equal behaviour" `Quick test_mealy_equal_behaviour;
          Alcotest.test_case "relabel" `Quick test_mealy_map_output_input;
          Alcotest.test_case "validation" `Quick test_mealy_validation;
        ] );
      ( "dialect",
        [
          Alcotest.test_case "apply/unapply" `Quick test_dialect_apply_unapply;
          Alcotest.test_case "inverse/compose" `Quick test_dialect_inverse_compose;
          Alcotest.test_case "rotation" `Quick test_dialect_rotation;
          Alcotest.test_case "lehmer roundtrip" `Quick test_dialect_lehmer_roundtrip;
          Alcotest.test_case "enumerate all" `Quick test_dialect_enumerate_all;
          Alcotest.test_case "enumerate rotations" `Quick test_dialect_enumerate_rotations;
          Alcotest.test_case "factorial" `Quick test_dialect_factorial;
          Alcotest.test_case "random" `Quick test_dialect_random_is_permutation;
          Alcotest.test_case "validation" `Quick test_dialect_validation;
        ] );
      ( "prob_mealy",
        [
          Alcotest.test_case "deterministic embed" `Quick test_prob_mealy_of_mealy_deterministic;
          Alcotest.test_case "perturb distribution" `Quick test_prob_mealy_perturb_dist;
          Alcotest.test_case "perturb frequencies" `Quick test_prob_mealy_perturb_frequencies;
          Alcotest.test_case "validation" `Quick test_prob_mealy_validation;
        ] );
    ]
