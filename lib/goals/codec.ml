open Goalcom
open Goalcom_sat

let ints xs = Msg.Seq (List.map (fun x -> Msg.Int x) xs)

let ints_opt = function
  | Msg.Seq ms ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | Msg.Int x :: rest -> go (x :: acc) rest
        | _ -> None
      in
      go [] ms
  | _ -> None

let ints_equal m xs =
  match m with
  | Msg.Seq ms ->
      let rec go ms xs =
        match (ms, xs) with
        | [], [] -> true
        | Msg.Int m :: ms, x :: xs -> m = x && go ms xs
        | _ -> false
      in
      go ms xs
  | _ -> false

let pair_of_ints a b = Msg.Pair (ints a, ints b)

let pair_of_ints_opt = function
  | Msg.Pair (a, b) -> begin
      match (ints_opt a, ints_opt b) with
      | Some a, Some b -> Some (a, b)
      | _ -> None
    end
  | _ -> None

let pos (x, y) = Msg.Pair (Msg.Int x, Msg.Int y)

let pos_opt = function
  | Msg.Pair (Msg.Int x, Msg.Int y) -> Some (x, y)
  | _ -> None

let pos_pair p t = Msg.Pair (pos p, pos t)

let pos_pair_opt = function
  | Msg.Pair (p, t) -> begin
      match (pos_opt p, pos_opt t) with
      | Some p, Some t -> Some (p, t)
      | _ -> None
    end
  | _ -> None

let cnf (f : Cnf.t) =
  Msg.Pair
    (Msg.Int f.num_vars, Msg.Seq (List.map (fun clause -> ints clause) f.clauses))

let cnf_opt = function
  | Msg.Pair (Msg.Int num_vars, Msg.Seq clause_msgs) -> begin
      let clauses =
        List.fold_left
          (fun acc m ->
            match (acc, ints_opt m) with
            | Some acc, Some clause -> Some (clause :: acc)
            | _ -> None)
          (Some []) clause_msgs
      in
      match clauses with
      | None -> None
      | Some clauses -> (
          try Some (Cnf.make ~num_vars (List.rev clauses))
          with Invalid_argument _ -> None)
    end
  | _ -> None

let assignment bits =
  ints (List.map (fun b -> if b then 1 else 0) bits)

let assignment_opt ~num_vars m =
  match ints_opt m with
  | Some bits when List.length bits = num_vars ->
      let a = Array.make (num_vars + 1) false in
      let ok = ref true in
      List.iteri
        (fun i bit ->
          if bit = 0 then a.(i + 1) <- false
          else if bit = 1 then a.(i + 1) <- true
          else ok := false)
        bits;
      if !ok then Some a else None
  | _ -> None
