(* Helpers shared by several test executables: dune links every
   non-test module of this directory into each of them. *)

open Goalcom

(* A history's rounds as a chronological list — the view History itself
   does not offer, rebuilt on its fold for tests that compare whole
   runs. *)
let history_rounds h =
  List.rev (History.fold_rounds h ~init:[] ~f:(fun acc r -> r :: acc))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [hay] with the first occurrence of [needle] replaced by [by].
   @raise Not_found if [needle] does not occur. *)
let replace_first hay needle ~by =
  let nh = String.length hay and nn = String.length needle in
  let rec find i =
    if i + nn > nh then raise Not_found
    else if String.sub hay i nn = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub hay 0 i ^ by ^ String.sub hay (i + nn) (nh - i - nn)

(* --- Fuzzing spec parsers -------------------------------------------- *)

(* Inputs for a spec parser: arbitrary bytes, strings over the
   grammar's own characters (and a few hostile ones), and valid specs
   after a few random edits — inserts, cut slices, repeated slices, or
   two specs glued by a separator. *)
let spec_fuzz_gen ~valid =
  let open QCheck.Gen in
  let grammar =
    let own = String.concat "" valid in
    let extra = "0123456789+-:,. eEnaixX_\t\000\255" in
    let cs = own ^ extra in
    map (String.get cs) (int_bound (String.length cs - 1))
  in
  let edit s =
    let n = String.length s in
    int_bound n >>= fun i ->
    int_bound (n - i) >>= fun len ->
    grammar >>= fun c ->
    oneofl
      [
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.sub s 0 i ^ String.sub s (i + len) (n - i - len);
        String.sub s 0 (i + len) ^ String.sub s i (n - i);
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let mutated =
    oneofl valid >>= fun s ->
    oneofl valid >>= fun t ->
    oneofl [ ""; "+"; ":"; ","; "++" ] >>= fun sep ->
    bool >>= fun glue ->
    int_range 1 4 >>= fun k -> edits k (if glue then s ^ sep ^ t else s)
  in
  frequency
    [
      (1, string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 40));
      (1, string_size ~gen:grammar (0 -- 40));
      (4, mutated);
    ]

(* A spec parser's contract under fuzzing: it answers [Ok] or [Error],
   or raises [Invalid_argument], and never any other exception; it
   answers within [limit_s] seconds; and [accepted] holds of every
   value it returns. *)
let parser_total ?(limit_s = 1.) ~accepted parse s =
  let t0 = Unix.gettimeofday () in
  let ok =
    match parse s with
    | Ok v -> accepted v
    | Error _ -> true
    | exception Invalid_argument _ -> true
    | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e)
  in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > limit_s then QCheck.Test.fail_reportf "%S took %.3f s" s dt;
  ok
