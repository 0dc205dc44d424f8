(* Unit tests for the prelude substrate: RNG, distributions, statistics,
   integer codings, list helpers and table rendering. *)

open Goalcom_prelude

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Rng *)

let test_rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  List.iter
    (fun _ ->
      Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b))
    (Listx.range 0 50)

let test_rng_different_seeds () =
  let a = Rng.make 1 and b = Rng.make 2 in
  Alcotest.(check bool) "different first draw" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_range () =
  let rng = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_covers () =
  let rng = Rng.make 8 in
  let seen = Array.make 6 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 6) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_validation () =
  let rng = Rng.make 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.make 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_rng_bernoulli_bias () =
  let rng = Rng.make 10 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000. in
  Alcotest.(check bool) "close to 0.3" true (Float.abs (rate -. 0.3) < 0.03)

let test_rng_split_independence () =
  let parent = Rng.make 11 in
  let child = Rng.split parent in
  let a = Rng.int64 child and b = Rng.int64 parent in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_rng_permutation () =
  let rng = Rng.make 12 in
  let p = Rng.permutation rng 10 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 10 Fun.id) sorted

let test_rng_copy () =
  let a = Rng.make 13 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "same continuation" (Rng.int64 a) (Rng.int64 b)

(* The SplitMix64 stream, pinned: the first 64 draws of each kind for
   seeds 0, 1 and -1, as an MD5 of the comma-joined values (floats in
   %h, exact), with the first draw spelled out so a failure shows which
   way the stream moved.  The representation of the state may change;
   these values may not: every recorded digest depends on them. *)
let pinned_streams =
  [
    (0, "int64", "56e4392d00c4fecf4f2667422f26297b", "-2152535657050944081");
    (0, "int 7", "399c453f2e1a3b247577075ba192c8d3", "6");
    (0, "int 2^40", "15be0678527c02e3199522ebe9476e15", "61719671659");
    (0, "float 1.0", "d8d2169f371f1664a05b5b059565cb0f", "0x1.c4415072f63b9p-1");
    (0, "bool", "bba5edcb5668098e4c40fef7e6152fd2", "true");
    (1, "int64", "cc56ee371b09cd4e87f8b775eb8368ba", "-4616330145664149646");
    (1, "int 7", "497d4e98e84a14b439770bb9b8612c34", "1");
    (1, "int 2^40", "1230a0f6f89d3203664e213f92b33937", "52469741020");
    (1, "float 1.0", "18d7b72c94159c7482a4d27d55e654c4", "0x1.7fdf0061bb85ap-1");
    (1, "bool", "f8dd46b824020ec7999c316240eb0004", "false");
    (-1, "int64", "21f8e0e156be495eb2e5d6f12edfcd4d", "-6523613405836042406");
    (-1, "int 7", "6c17ede0158468d03774d8365ba97606", "5");
    (-1, "int 2^40", "d956ef1e209d14d76c5c96c93cdf6bda", "46997874646");
    (-1, "float 1.0", "37e784518bc9e6b2c305460e38636793", "0x1.4aeef0578a553p-1");
    (-1, "bool", "c310b549ae3ce0e6356a25cbad10ab13", "false");
  ]

let draw_as_string = function
  | "int64" -> fun r -> Int64.to_string (Rng.int64 r)
  | "int 7" -> fun r -> string_of_int (Rng.int r 7)
  | "int 2^40" -> fun r -> string_of_int (Rng.int r (1 lsl 40))
  | "float 1.0" -> fun r -> Printf.sprintf "%h" (Rng.float r 1.0)
  | "bool" -> fun r -> string_of_bool (Rng.bool r)
  | k -> invalid_arg k

let test_rng_stream_pinned () =
  List.iter
    (fun (seed, kind, md5, first) ->
      let r = Rng.make seed in
      let vs = List.init 64 (fun _ -> draw_as_string kind r) in
      let what = Printf.sprintf "seed %d, %s" seed kind in
      Alcotest.(check string) (what ^ ": first") first (List.hd vs);
      Alcotest.(check string) (what ^ ": 64 draws") md5
        (Digest.to_hex (Digest.string (String.concat "," vs))))
    pinned_streams;
  let parent = Rng.make 1 in
  let child = Rng.split parent in
  Alcotest.(check int64) "after split: child" (-1089616305791727635L) (Rng.int64 child);
  Alcotest.(check int64) "after split: parent" 6869446166584666695L (Rng.int64 parent);
  let r = Rng.make 1 in
  ignore (Rng.int64 r);
  let c = Rng.copy r in
  Alcotest.(check int64) "after copy: copy" 6869446166584666695L (Rng.int64 c);
  Alcotest.(check int64) "after copy: original" 6869446166584666695L (Rng.int64 r)

(* A draw that returns an immediate allocates nothing: the state is
   unboxed, and the rejection loop is no closure. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.make 3 in
  let sink = ref 0 in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    f ();
    let w2 = Gc.minor_words () in
    (w2 -. w1) -. (w1 -. w0)
  in
  let draws name f =
    Alcotest.(check (float 0.)) (name ^ ": minor words") 0.
      (words (fun () -> for _ = 1 to 10_000 do f () done))
  in
  draws "int 7" (fun () -> sink := !sink + Rng.int rng 7);
  draws "int 2^40" (fun () -> sink := !sink + Rng.int rng (1 lsl 40));
  draws "bernoulli" (fun () -> if Rng.bernoulli rng 0.3 then incr sink);
  draws "bool" (fun () -> if Rng.bool rng then incr sink);
  Alcotest.(check bool) "draws were made" true (!sink > 0)

let test_rng_pick () =
  let rng = Rng.make 14 in
  let v = Rng.pick rng [ 5 ] in
  Alcotest.(check int) "singleton" 5 v;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng ([] : int list)))

(* Dist *)

let test_dist_normalisation () =
  let d = Dist.of_weighted [ ("a", 1.); ("b", 3.) ] in
  Alcotest.(check (float 1e-9)) "p(a)" 0.25 (Dist.prob d "a");
  Alcotest.(check (float 1e-9)) "p(b)" 0.75 (Dist.prob d "b");
  Alcotest.(check bool) "normalised" true (Dist.is_normalised d)

let test_dist_merges_duplicates () =
  let d = Dist.of_weighted [ (1, 1.); (1, 1.); (2, 2.) ] in
  Alcotest.(check int) "support size" 2 (List.length (Dist.support d));
  Alcotest.(check (float 1e-9)) "p(1)" 0.5 (Dist.prob d 1)

let test_dist_uniform () =
  let d = Dist.uniform [ 1; 2; 3; 4 ] in
  Alcotest.(check (float 1e-9)) "quarter" 0.25 (Dist.prob d 3)

let test_dist_map_bind () =
  let d = Dist.uniform [ 0; 1 ] in
  let doubled = Dist.map (fun x -> 2 * x) d in
  Alcotest.(check (float 1e-9)) "p(2)" 0.5 (Dist.prob doubled 2);
  let chained =
    Dist.bind d (fun x -> if x = 0 then Dist.return 0 else Dist.uniform [ 1; 2 ])
  in
  Alcotest.(check (float 1e-9)) "p(0)" 0.5 (Dist.prob chained 0);
  Alcotest.(check (float 1e-9)) "p(1)" 0.25 (Dist.prob chained 1)

let test_dist_expect () =
  let d = Dist.of_weighted [ (1., 1.); (3., 1.) ] in
  Alcotest.(check (float 1e-9)) "mean" 2. (Dist.expect Fun.id d)

let test_dist_sample_frequencies () =
  let d = Dist.of_weighted [ (0, 0.2); (1, 0.8) ] in
  let rng = Rng.make 20 in
  let ones = ref 0 in
  for _ = 1 to 5000 do
    if Dist.sample rng d = 1 then incr ones
  done;
  let rate = float_of_int !ones /. 5000. in
  Alcotest.(check bool) "sampling matches" true (Float.abs (rate -. 0.8) < 0.03)

let test_dist_total_variation () =
  let a = Dist.uniform [ 0; 1 ] and b = Dist.uniform [ 1; 2 ] in
  Alcotest.(check (float 1e-9)) "tv" 0.5 (Dist.total_variation a b);
  Alcotest.(check (float 1e-9)) "tv self" 0. (Dist.total_variation a a)

let test_dist_bernoulli_edge () =
  Alcotest.(check (float 1e-9)) "p=0" 1. (Dist.prob (Dist.bernoulli 0.) false);
  Alcotest.(check (float 1e-9)) "p=1" 1. (Dist.prob (Dist.bernoulli 1.) true);
  Alcotest.(check (float 1e-9)) "clamped" 1. (Dist.prob (Dist.bernoulli 1.5) true)

let test_dist_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.of_weighted: empty")
    (fun () -> ignore (Dist.of_weighted ([] : (int * float) list)));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dist.of_weighted: negative weight") (fun () ->
      ignore (Dist.of_weighted [ (1, -1.) ]));
  Alcotest.check_raises "zero"
    (Invalid_argument "Dist.of_weighted: zero total weight") (fun () ->
      ignore (Dist.of_weighted [ (1, 0.) ]))

(* Stats *)

let test_stats_mean_median () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 1.5 (Stats.median [ 2.; 1. ])

let test_stats_variance () =
  Alcotest.(check (float 1e-9)) "variance" 1. (Stats.variance [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "single" 0. (Stats.variance [ 5. ])

let test_stats_percentile () =
  let xs = List.map float_of_int (Listx.range 1 11) in
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p100" 10. (Stats.percentile 100. xs);
  Alcotest.(check (float 1e-9)) "p50" 5.5 (Stats.percentile 50. xs)

let test_stats_summary () =
  let s = Stats.summarise [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  Alcotest.(check (float 1e-9)) "min" 1. s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4. s.Stats.max

let test_stats_success_rate () =
  Alcotest.(check (float 1e-9)) "rate" 0.5
    (Stats.success_rate [ true; false; true; false ])

let test_stats_validation () =
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Stats.mean []))

(* Coding *)

let test_coding_pair_roundtrip () =
  List.iter
    (fun z ->
      let x, y = Coding.unpair z in
      Alcotest.(check int) "roundtrip" z (Coding.pair x y))
    (Listx.range 0 500)

let test_coding_pair_known () =
  Alcotest.(check int) "pair 0 0" 0 (Coding.pair 0 0);
  Alcotest.(check (pair int int)) "unpair 0" (0, 0) (Coding.unpair 0)

let test_coding_pair_overflow () =
  Alcotest.check_raises "overflow guarded"
    (Invalid_argument "Coding.pair: overflow") (fun () ->
      ignore (Coding.pair max_int 1));
  Alcotest.check_raises "unpair domain guarded"
    (Invalid_argument "Coding.unpair: code outside the supported domain")
    (fun () -> ignore (Coding.unpair max_int));
  (* The extremes of the valid range still roundtrip. *)
  let top = Coding.pair 0 3_037_000_498 in
  let x, y = Coding.unpair top in
  Alcotest.(check int) "roundtrip at image max" top (Coding.pair x y);
  let big = 3_000_000_000 in
  let x, y = Coding.unpair big in
  Alcotest.(check int) "roundtrip at 3e9" big (Coding.pair x y)

let test_coding_list_overflow () =
  Alcotest.check_raises "long list overflow raises cleanly"
    (Invalid_argument "Coding.pair: overflow") (fun () ->
      ignore (Coding.encode_list [ 100; 100; 100; 100; 100; 100 ]))

let test_coding_triple () =
  let a, b, c = Coding.untriple (Coding.triple 3 1 4) in
  Alcotest.(check (list int)) "triple" [ 3; 1; 4 ] [ a; b; c ]

let test_coding_list_roundtrip () =
  List.iter
    (fun xs ->
      Alcotest.(check (list int)) "roundtrip" xs
        (Coding.decode_list (Coding.encode_list xs)))
    [ []; [ 0 ]; [ 1; 2; 3 ]; [ 0; 0; 0 ]; [ 7; 0; 9; 2 ] ]

let test_coding_list_injective () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let xs = Coding.decode_list n in
      Alcotest.(check bool) "fresh" false (Hashtbl.mem seen xs);
      Hashtbl.add seen xs ())
    (Listx.range 0 300)

let test_coding_tuple () =
  let radices = [| 3; 4; 2 |] in
  Alcotest.(check int) "space" 24 (Coding.tuple_space ~radices);
  List.iter
    (fun code ->
      let digits = Coding.decode_tuple ~radices code in
      Alcotest.(check int) "roundtrip" code (Coding.encode_tuple ~radices digits))
    (Listx.range 0 24);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Coding.decode_tuple: code out of range") (fun () ->
      ignore (Coding.decode_tuple ~radices 24))

(* Listx *)

let test_listx_range_take_drop () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 5);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take long" [ 1 ] (Listx.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ])

let test_listx_last () =
  Alcotest.(check int) "last" 3 (Listx.last [ 1; 2; 3 ]);
  Alcotest.(check (option int)) "last_opt empty" None (Listx.last_opt ([] : int list))

let test_listx_transpose () =
  Alcotest.(check (list (list int)))
    "transpose"
    [ [ 1; 3 ]; [ 2; 4 ] ]
    (Listx.transpose [ [ 1; 2 ]; [ 3; 4 ] ]);
  Alcotest.check_raises "ragged" (Invalid_argument "Listx.transpose: ragged rows")
    (fun () -> ignore (Listx.transpose [ [ 1 ]; [ 2; 3 ] ]))

let test_listx_windows () =
  Alcotest.(check (list (list int)))
    "windows"
    [ [ 1; 2 ]; [ 2; 3 ] ]
    (Listx.windows 2 [ 1; 2; 3 ])

let test_listx_unfold_iterate () =
  let countdown = Listx.unfold (fun n -> if n = 0 then None else Some (n, n - 1)) 3 in
  Alcotest.(check (list int)) "unfold" [ 3; 2; 1 ] countdown;
  Alcotest.(check (list int)) "iterate" [ 1; 2; 4; 8 ]
    (Listx.iterate 3 (fun x -> 2 * x) 1)

let test_listx_find_index () =
  Alcotest.(check (option int)) "found" (Some 1)
    (Listx.find_index (fun x -> x > 1) [ 1; 2; 3 ]);
  Alcotest.(check (option int)) "missing" None
    (Listx.find_index (fun x -> x > 9) [ 1; 2; 3 ])

(* Table *)

let test_table_render () =
  let t =
    Table.make ~title:"demo" ~columns:[ "a"; "bb" ]
      ~notes:[ "footnote" ]
      [ [ "1"; "2" ]; [ "33"; "4" ] ]
  in
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (contains ~affix:"demo" s);
  Alcotest.(check bool) "has cell" true (contains ~affix:"33" s);
  Alcotest.(check bool) "has note" true (contains ~affix:"footnote" s)

let test_table_validation () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Table.make (t): row width 1, expected 2") (fun () ->
      ignore (Table.make ~title:"t" ~columns:[ "a"; "b" ] [ [ "1" ] ]))

let test_table_csv () =
  let t =
    Table.make ~title:"t" ~columns:[ "x"; "y" ] [ [ "a,b"; "c\"d" ] ]
  in
  Alcotest.(check string) "csv quoting" "x,y\n\"a,b\",\"c\"\"d\"\n"
    (Table.to_csv t)

let test_table_cells () =
  Alcotest.(check string) "pct" "87.0%" (Table.cell_pct 0.87);
  Alcotest.(check string) "ratio" "3.10x" (Table.cell_ratio 3.1);
  Alcotest.(check string) "float" "1.50" (Table.cell_float 1.5)

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          Alcotest.test_case "int validation" `Quick test_rng_int_validation;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli bias" `Quick test_rng_bernoulli_bias;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "dist",
        [
          Alcotest.test_case "normalisation" `Quick test_dist_normalisation;
          Alcotest.test_case "merges duplicates" `Quick test_dist_merges_duplicates;
          Alcotest.test_case "uniform" `Quick test_dist_uniform;
          Alcotest.test_case "map/bind" `Quick test_dist_map_bind;
          Alcotest.test_case "expect" `Quick test_dist_expect;
          Alcotest.test_case "sample frequencies" `Quick test_dist_sample_frequencies;
          Alcotest.test_case "total variation" `Quick test_dist_total_variation;
          Alcotest.test_case "bernoulli edge" `Quick test_dist_bernoulli_edge;
          Alcotest.test_case "validation" `Quick test_dist_validation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "success rate" `Quick test_stats_success_rate;
          Alcotest.test_case "validation" `Quick test_stats_validation;
        ] );
      ( "coding",
        [
          Alcotest.test_case "pair roundtrip" `Quick test_coding_pair_roundtrip;
          Alcotest.test_case "pair known" `Quick test_coding_pair_known;
          Alcotest.test_case "pair overflow" `Quick test_coding_pair_overflow;
          Alcotest.test_case "list overflow" `Quick test_coding_list_overflow;
          Alcotest.test_case "triple" `Quick test_coding_triple;
          Alcotest.test_case "list roundtrip" `Quick test_coding_list_roundtrip;
          Alcotest.test_case "list injective" `Quick test_coding_list_injective;
          Alcotest.test_case "tuple" `Quick test_coding_tuple;
        ] );
      ( "listx",
        [
          Alcotest.test_case "range/take/drop" `Quick test_listx_range_take_drop;
          Alcotest.test_case "last" `Quick test_listx_last;
          Alcotest.test_case "transpose" `Quick test_listx_transpose;
          Alcotest.test_case "windows" `Quick test_listx_windows;
          Alcotest.test_case "unfold/iterate" `Quick test_listx_unfold_iterate;
          Alcotest.test_case "find_index" `Quick test_listx_find_index;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "validation" `Quick test_table_validation;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
