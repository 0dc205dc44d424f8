(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable
   int64] field would box a fresh value on every draw.  Inside this
   module the compiler keeps the int64 arithmetic unboxed, so a draw
   that returns an [int], [bool] or [unit] allocates nothing. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_int64 seed =
  let t = Bytes.create 8 in
  set t 0 (mix64 seed);
  t

let make seed = of_int64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (get t 0) golden_gamma in
  set t 0 s;
  mix64 s

let int64 t = next t
let split t = of_int64 (next t)

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (next t) 34)

(* Rejection sampling on 30 bits to avoid modulo bias. *)
let rec below t limit bound =
  let v = bits30 t in
  if v < limit then v mod bound else below t limit bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then below t ((1 lsl 30) / bound * bound) bound
  else Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

(* 53 random bits over 2^53. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  unit_float t *. bound

let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = unit_float t < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a
