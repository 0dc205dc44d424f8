open Goalcom
open Goalcom_prelude

type t = { name : string; wrap : Strategy.server -> Strategy.server }

let name t = t.name
let apply t server = t.wrap server

let make ~name wrap = { name; wrap }

let nop = { name = "nop"; wrap = Fun.id }

(* Fault wrappers observe the server-side interface only, which carries
   no round counter; when tracing they stamp their events with the
   engine's ambient round (set by {!Exec.run} before each round).  No
   emission ever consumes randomness, so traced and untraced runs draw
   the same RNG stream. *)
let emit_fault fault detail =
  let h = Trace.handle () in
  Trace.emit_fault h ~round:(Trace.handle_round h) ~fault ~detail

(* [compose f g] applies [g] closest to the server: the composed link
   reads outbound as server → g → f → user and inbound the other way —
   the same convention as function composition. *)
let compose f g =
  if f == nop then g
  else if g == nop then f
  else { name = f.name ^ "+" ^ g.name; wrap = (fun s -> f.wrap (g.wrap s)) }

let stack = function
  | [] -> nop
  | faults -> List.fold_left compose nop faults

(* Channel wrappers, re-exported so a whole fault stack can be written
   in one algebra. *)

let delay ~rounds =
  if rounds < 0 then invalid_arg "Fault.delay: negative latency";
  if rounds = 0 then nop
  else
    {
      name = Printf.sprintf "delay(%d)" rounds;
      wrap = Goalcom_servers.Channel.delayed ~rounds;
    }

let drop ~prob =
  if not (prob >= 0. && prob <= 1.) then
    invalid_arg "Fault.drop: prob out of range";
  if prob = 0. then nop
  else
    {
      name = Printf.sprintf "drop(%.2f)" prob;
      wrap = Goalcom_servers.Channel.drop_inbound ~drop_prob:prob;
    }

let duplicate =
  { name = "dup"; wrap = Goalcom_servers.Channel.duplicate_outbound }

(* Corruption: flip one site of the message.  Symbols are flipped
   within the [0, alphabet) command space through their mixed-radix
   code (Coding.encode_tuple) with a non-zero offset, so a corrupted
   symbol is always a *different valid* symbol — the nastiest case for
   a dialect protocol, since the garbled command still parses. *)

let flip_sym rng ~alphabet s =
  if alphabet <= 1 || s < 0 || s >= alphabet then s
  else begin
    let radices = [| alphabet |] in
    let code = Coding.encode_tuple ~radices [| s |] in
    let space = Coding.tuple_space ~radices in
    let code = (code + 1 + Rng.int rng (alphabet - 1)) mod space in
    (Coding.decode_tuple ~radices code).(0)
  end

let rec corrupt_msg rng ~alphabet = function
  | Msg.Silence -> Msg.Silence
  | Msg.Sym s -> Msg.Sym (flip_sym rng ~alphabet s)
  | Msg.Int n -> Msg.Int (abs (n lxor (1 lsl Rng.int rng 8)))
  | Msg.Text s when s = "" -> Msg.Text s
  | Msg.Text s ->
      let b = Bytes.of_string s in
      let i = Rng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Msg.Text (Bytes.to_string b)
  | Msg.Pair (a, b) ->
      if Rng.bool rng then Msg.Pair (corrupt_msg rng ~alphabet a, b)
      else Msg.Pair (a, corrupt_msg rng ~alphabet b)
  | Msg.Seq [] -> Msg.Seq []
  | Msg.Seq ms ->
      let i = Rng.int rng (List.length ms) in
      Msg.Seq
        (List.mapi
           (fun j m -> if j = i then corrupt_msg rng ~alphabet m else m)
           ms)

let corrupt ~alphabet ~prob =
  if not (prob >= 0. && prob <= 1.) then
    invalid_arg "Fault.corrupt: prob out of range";
  if alphabet <= 0 then invalid_arg "Fault.corrupt: bad alphabet";
  if prob = 0. then nop
  else begin
    let module I = Strategy.Instance in
    let fname = Printf.sprintf "corrupt(%.2f)" prob in
    {
      name = fname;
      wrap =
        (fun base ->
          Strategy.make
            ~name:(Printf.sprintf "corrupt(%.2f,%s)" prob (Strategy.name base))
            ~init:(fun () -> I.create base)
            ~step:(fun rng inst (obs : Io.Server.obs) ->
              let zap dir m =
                if Msg.is_silence m then m
                else if Rng.bernoulli rng prob then begin
                  emit_fault fname dir;
                  corrupt_msg rng ~alphabet m
                end
                else m
              in
              let obs =
                { obs with
                  Io.Server.from_user = zap "inbound" obs.Io.Server.from_user }
              in
              let act = I.step rng inst obs in
              ( inst,
                { act with
                  Io.Server.to_user = zap "outbound" act.Io.Server.to_user } )));
    }
  end

(* Reordering with bounded skew: non-silent messages enter a per-
   direction buffer; each round the link either stays quiet or releases
   a uniformly chosen buffered message, except that a message that has
   already waited [skew] rounds is released first (oldest overdue
   wins).  No message is ever created, lost, or delayed more than
   [skew] rounds beyond its arrival. *)

let reorder_pop rng ~skew buffer =
  match buffer with
  | [] -> (Msg.Silence, [], false)
  | _ ->
      let overdue = List.exists (fun (_, age) -> age >= skew) buffer in
      if (not overdue) && Rng.bernoulli rng 0.5 then
        (Msg.Silence, List.map (fun (m, age) -> (m, age + 1)) buffer, false)
      else begin
        let idx =
          if overdue then begin
            (* first (oldest) overdue entry *)
            let rec find i = function
              | (_, age) :: _ when age >= skew -> i
              | _ :: rest -> find (i + 1) rest
              | [] -> 0
            in
            find 0 buffer
          end
          else Rng.int rng (List.length buffer)
        in
        let msg = fst (List.nth buffer idx) in
        let rest = List.filteri (fun j _ -> j <> idx) buffer in
        (* idx > 0 means a younger message overtook the queue head. *)
        (msg, List.map (fun (m, age) -> (m, age + 1)) rest, idx > 0)
      end

let reorder ~skew =
  if skew < 0 then invalid_arg "Fault.reorder: negative skew";
  if skew = 0 then nop
  else begin
    let module I = Strategy.Instance in
    let push buffer m =
      if Msg.is_silence m then buffer else buffer @ [ (m, 0) ]
    in
    let fname = Printf.sprintf "reorder(%d)" skew in
    {
      name = fname;
      wrap =
        (fun base ->
          Strategy.make
            ~name:(Printf.sprintf "reorder(%d,%s)" skew (Strategy.name base))
            ~init:(fun () -> (I.create base, [], []))
            ~step:(fun rng (inst, inbox, outbox) (obs : Io.Server.obs) ->
              let delivered_in, inbox, ooo_in =
                reorder_pop rng ~skew (push inbox obs.Io.Server.from_user)
              in
              if ooo_in then emit_fault fname "inbound";
              let act =
                I.step rng inst { obs with Io.Server.from_user = delivered_in }
              in
              let delivered_out, outbox, ooo_out =
                reorder_pop rng ~skew (push outbox act.Io.Server.to_user)
              in
              if ooo_out then emit_fault fname "outbound";
              ( (inst, inbox, outbox),
                { act with Io.Server.to_user = delivered_out } )));
    }
  end

(* Bursty loss: a two-state Gilbert–Elliott chain shared by both
   directions of the link.  In the bad state each non-silent message is
   dropped with [drop_prob]; the good state is loss-free.  The chain
   advances once per round on the per-step RNG. *)

let burst ~p_enter ~p_exit ~drop_prob =
  let check name p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Fault.burst: %s out of range" name)
  in
  check "p_enter" p_enter;
  check "p_exit" p_exit;
  check "drop_prob" drop_prob;
  let module I = Strategy.Instance in
  let fname = Printf.sprintf "burst(%.2f,%.2f,%.2f)" p_enter p_exit drop_prob in
  {
    name = fname;
    wrap =
      (fun base ->
        Strategy.make
          ~name:(Printf.sprintf "burst(%.2f,%s)" drop_prob (Strategy.name base))
          ~init:(fun () -> (I.create base, ref false))
          ~step:(fun rng ((inst, bad) as st) (obs : Io.Server.obs) ->
            bad :=
              if !bad then not (Rng.bernoulli rng p_exit)
              else Rng.bernoulli rng p_enter;
            let zapped dir m =
              !bad && (not (Msg.is_silence m)) && Rng.bernoulli rng drop_prob
              && begin
                emit_fault fname dir;
                true
              end
            in
            let obs =
              if zapped "inbound" obs.Io.Server.from_user then
                { obs with Io.Server.from_user = Msg.Silence }
              else obs
            in
            let act = I.step rng inst obs in
            ( st,
              if zapped "outbound" act.Io.Server.to_user then
                { act with Io.Server.to_user = Msg.Silence }
              else act )));
  }

(* Crash-restart: every [every] rounds the wrapped server's state is
   reset to its initial value (Strategy.Instance.restart) — the server
   process died and came back up with empty memory, losing any dialect
   or session progress accumulated so far. *)

let crash_restart ~every =
  if every <= 0 then invalid_arg "Fault.crash_restart: period must be positive";
  let module I = Strategy.Instance in
  let fname = Printf.sprintf "crash(%d)" every in
  {
    name = fname;
    wrap =
      (fun base ->
        Strategy.make
          ~name:(Printf.sprintf "crash(%d,%s)" every (Strategy.name base))
          ~init:(fun () -> (I.create base, ref 0))
          ~step:(fun rng ((inst, age) as st) obs ->
            if !age >= every then begin
              emit_fault fname "restart";
              I.restart inst;
              age := 0
            end;
            incr age;
            (st, I.step rng inst obs)));
  }

(* Intermittent helpfulness: [on] rounds of normal service, then [off]
   rounds in which the server is down — it does not observe anything
   (its state is frozen, messages sent to it are lost) and emits either
   silence or, with [noise], random symbols that imitate a babbling
   peer. *)

let intermittent ?noise ~on ~off () =
  if on <= 0 || off < 0 then invalid_arg "Fault.intermittent: bad schedule";
  (match noise with
  | Some a when a <= 0 -> invalid_arg "Fault.intermittent: bad noise alphabet"
  | _ -> ());
  if off = 0 then nop
  else begin
    let module I = Strategy.Instance in
    let fname =
      Printf.sprintf "intermittent(%d/%d%s)" on off
        (match noise with Some _ -> ",noisy" | None -> "")
    in
    {
      name = fname;
      wrap =
        (fun base ->
          Strategy.make
            ~name:
              (Printf.sprintf "intermittent(%d/%d,%s)" on off
                 (Strategy.name base))
            ~init:(fun () -> (I.create base, 0))
            ~step:(fun rng (inst, tick) obs ->
              if tick mod (on + off) < on then
                ((inst, tick + 1), I.step rng inst obs)
              else begin
                (* One event per outage, at its first down round. *)
                if tick mod (on + off) = on then emit_fault fname "outage";
                let out =
                  match noise with
                  | None -> Io.Server.silent
                  | Some alphabet ->
                      Io.Server.say_user (Msg.Sym (Rng.int rng alphabet))
                in
                ((inst, tick + 1), out)
              end));
    }
  end

(* Adversarial scheduler: a budget of single-fault rounds, spent where
   it hurts the most.  Starving the server of an inbound command stops
   all progress dead, so that is the first choice; failing that, a
   corrupted non-silent reply misleads the user's sensing.  At most one
   fault per round, nothing once the budget is gone. *)

let adversary ~budget ~alphabet =
  if budget < 0 then invalid_arg "Fault.adversary: negative budget";
  if alphabet <= 0 then invalid_arg "Fault.adversary: bad alphabet";
  let module I = Strategy.Instance in
  let fname = Printf.sprintf "adversary(%d)" budget in
  {
    name = fname;
    wrap =
      (fun base ->
        Strategy.make
          ~name:(Printf.sprintf "adversary(%d,%s)" budget (Strategy.name base))
          ~init:(fun () -> (I.create base, budget))
          ~step:(fun rng (inst, left) (obs : Io.Server.obs) ->
            if left > 0 && not (Msg.is_silence obs.Io.Server.from_user) then begin
              emit_fault fname "starve";
              let act =
                I.step rng inst { obs with Io.Server.from_user = Msg.Silence }
              in
              ((inst, left - 1), act)
            end
            else begin
              let act = I.step rng inst obs in
              if left > 0 && not (Msg.is_silence act.Io.Server.to_user) then begin
                emit_fault fname "garble";
                ( (inst, left - 1),
                  {
                    act with
                    Io.Server.to_user =
                      corrupt_msg rng ~alphabet act.Io.Server.to_user;
                  } )
              end
              else ((inst, left), act)
            end));
  }

(* Spec parsing, for CLI flags and randomised tests. *)

let spec_error spec reason =
  Error (Printf.sprintf "bad fault spec %S: %s" spec reason)

(* One usage string per fault name: the vocabulary of both the
   unknown-name error (which lists all of them) and the per-name arity
   errors (which quote just the offender's). *)
let usages =
  [
    ("nop", "nop");
    ("delay", "delay:K");
    ("drop", "drop:P");
    ("loss", "loss:P");
    ("dup", "dup");
    ("corrupt", "corrupt:P");
    ("reorder", "reorder:K");
    ("burst", "burst:PENTER,PEXIT,PDROP");
    ("crash", "crash:K");
    ("intermittent", "intermittent:ON,OFF");
    ("adversary", "adversary:B");
  ]

let valid_names () = String.concat " " (List.map snd usages)

let of_string ~alphabet spec =
  let fail = spec_error spec in
  let head, args =
    match String.index_opt spec ':' with
    | None -> (spec, [])
    | Some i ->
        ( String.sub spec 0 i,
          String.split_on_char ','
            (String.sub spec (i + 1) (String.length spec - i - 1)) )
  in
  let int_arg s = int_of_string_opt (String.trim s) in
  let float_arg s = float_of_string_opt (String.trim s) in
  (* The name resolved but its argument list does not fit: quote the
     expected shape (and how many arguments actually arrived). *)
  let arity want =
    let got =
      match args with
      | [] -> "none"
      | _ -> string_of_int (List.length args)
    in
    fail (Printf.sprintf "%S wants the form %s (got %s argument%s)" head want
            got (if args <> [] && List.length args = 1 then "" else "s"))
  in
  try
    match head with
    | "nop" -> ( match args with [] -> Ok nop | _ -> arity "nop")
    | "delay" -> begin
        match args with
        | [ k ] -> begin
            match int_arg k with
            | Some k -> Ok (delay ~rounds:k)
            | None -> fail "delay:K wants an integer"
          end
        | _ -> arity "delay:K"
      end
    | "drop" -> begin
        match args with
        | [ p ] -> begin
            match float_arg p with
            | Some p -> Ok (drop ~prob:p)
            | None -> fail "drop:P wants a float"
          end
        | _ -> arity "drop:P"
      end
    (* [loss:P] is the network-link spelling of [drop:P] — lib/net link
       specs read "loss" where fault stacks historically said "drop";
       both parse to the same wrapper. *)
    | "loss" -> begin
        match args with
        | [ p ] -> begin
            match float_arg p with
            | Some p -> Ok (drop ~prob:p)
            | None -> fail "loss:P wants a float"
          end
        | _ -> arity "loss:P"
      end
    | "dup" -> ( match args with [] -> Ok duplicate | _ -> arity "dup")
    | "corrupt" -> begin
        match args with
        | [ p ] -> begin
            match float_arg p with
            | Some p -> Ok (corrupt ~alphabet ~prob:p)
            | None -> fail "corrupt:P wants a float"
          end
        | _ -> arity "corrupt:P"
      end
    | "reorder" -> begin
        match args with
        | [ k ] -> begin
            match int_arg k with
            | Some k -> Ok (reorder ~skew:k)
            | None -> fail "reorder:K wants an integer"
          end
        | _ -> arity "reorder:K"
      end
    | "burst" -> begin
        match args with
        | [ a; b; c ] -> begin
            match (float_arg a, float_arg b, float_arg c) with
            | Some p_enter, Some p_exit, Some drop_prob ->
                Ok (burst ~p_enter ~p_exit ~drop_prob)
            | _ -> fail "burst:PENTER,PEXIT,PDROP wants three floats"
          end
        | _ -> arity "burst:PENTER,PEXIT,PDROP"
      end
    | "crash" -> begin
        match args with
        | [ k ] -> begin
            match int_arg k with
            | Some k -> Ok (crash_restart ~every:k)
            | None -> fail "crash:K wants an integer"
          end
        | _ -> arity "crash:K"
      end
    | "intermittent" -> begin
        match args with
        | [ on; off ] -> begin
            match (int_arg on, int_arg off) with
            | Some on, Some off -> Ok (intermittent ~on ~off ())
            | _ -> fail "intermittent:ON,OFF wants two integers"
          end
        | _ -> arity "intermittent:ON,OFF"
      end
    | "adversary" -> begin
        match args with
        | [ b ] -> begin
            match int_arg b with
            | Some b -> Ok (adversary ~budget:b ~alphabet)
            | None -> fail "adversary:B wants an integer"
          end
        | _ -> arity "adversary:B"
      end
    | _ ->
        fail
          (Printf.sprintf "unknown fault %S; known faults: %s" head
             (valid_names ()))
  with Invalid_argument reason -> fail reason

let stack_of_string ~alphabet spec =
  let specs =
    List.filter (fun s -> s <> "") (String.split_on_char '+' spec)
  in
  let rec go acc = function
    | [] -> Ok (stack (List.rev acc))
    | s :: rest -> begin
        match of_string ~alphabet s with
        | Ok f -> go (f :: acc) rest
        | Error _ as e -> e
      end
  in
  go [] specs
