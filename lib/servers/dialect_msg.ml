open Goalcom
open Goalcom_automata

let in_range d s = s >= 0 && s < Dialect.size d

let sym ~fwd d s =
  if not (in_range d s) then s
  else if fwd then Dialect.apply d s
  else Dialect.unapply d s

(* Translated symbols come from a dialect's range [0, size): those of
   the alphabets in use (a few symbols to a few dozen) are built once,
   so a translation is a table load. *)
let interned = Array.init 64 (fun s -> Msg.Sym s)
let sym_msg s = if s < Array.length interned then interned.(s) else Msg.Sym s

(* Returns [m] itself, physically, when no symbol changes: a [Pair] or
   [Seq] node is rebuilt only when one of its children was.  Most
   messages on a served round carry no symbol (pages, positions,
   silence), so they cross the dialect without allocating. *)
let rec map_syms ~fwd d (m : Msg.t) : Msg.t =
  match m with
  | Msg.Silence | Msg.Int _ | Msg.Text _ -> m
  | Msg.Sym s ->
      let s' = sym ~fwd d s in
      if s' = s then m else sym_msg s'
  | Msg.Pair (a, b) ->
      let a' = map_syms ~fwd d a in
      let b' = map_syms ~fwd d b in
      if a' == a && b' == b then m else Msg.Pair (a', b')
  | Msg.Seq ms ->
      let ms' = map_list ~fwd d ms in
      if ms' == ms then m else Msg.Seq ms'

and map_list ~fwd d l =
  match l with
  | [] -> l
  | x :: xs ->
      let x' = map_syms ~fwd d x in
      let xs' = map_list ~fwd d xs in
      if x' == x && xs' == xs then l else x' :: xs'

let encode d m = map_syms ~fwd:true d m
let decode d m = map_syms ~fwd:false d m
