(* Admission control: a bounded live set over bounded per-class queues
   served by weighted deficit round-robin.  Overflow is shed
   immediately — under a storm the engine degrades by refusing work,
   not by growing unbounded state.  Queues hold bare session ids; all
   decisions are made by the engine in id order, so queue evolution is
   deterministic.

   Scheduling.  Each class owns a FIFO queue and a weight.  [promote]
   serves the classes cyclically from a cursor that persists across
   ticks: every pass over a class credits its deficit counter with its
   weight, and each admission spends one credit.  A class whose head
   is blocked (open breaker, reported by [try_start] returning false)
   is skipped for the rest of the call but keeps its banked credit
   (capped at one weight), so head-of-line blocking is confined to the
   blocked class — other classes keep being served — which is exactly
   the starvation the old single-FIFO deliberately exhibited and this
   replaces.  With a single class of weight 1 the schedule degenerates
   to the old FIFO, admission for admission.

   The primitives stay split (claim / enqueue / promote / release):
   the engine interleaves a breaker check between "is there a slot?"
   and "take the slot", and [promote]'s callbacks let it do that
   per-session without this module knowing about breakers. *)

type klass = {
  cname : string;
  weight : int;
  queue : int Queue.t;
  mutable deficit : int;
}

type t = {
  max_live : int;
  queue_capacity : int;
  classes : klass array;
  default_class : int;
  mutable cursor : int; (* next class promote starts serving from *)
  mutable queued : int; (* total across classes *)
  mutable live : int;
  mutable shed : int;
}

let make ?(classes = []) ~max_live ~queue_capacity () =
  if max_live < 1 then invalid_arg "Admission.make: max_live must be >= 1";
  if queue_capacity < 0 then
    invalid_arg "Admission.make: queue_capacity must be >= 0";
  List.iter
    (fun (cname, w) ->
      if w < 1 then
        invalid_arg
          (Printf.sprintf "Admission.make: class %s weight must be >= 1" cname))
    classes;
  let classes =
    if List.mem_assoc "default" classes then classes
    else classes @ [ ("default", 1) ]
  in
  let seen = Hashtbl.create 7 in
  List.iter
    (fun (cname, _) ->
      if Hashtbl.mem seen cname then
        invalid_arg ("Admission.make: duplicate class " ^ cname);
      Hashtbl.add seen cname ())
    classes;
  let classes =
    Array.of_list
      (List.map
         (fun (cname, weight) ->
           { cname; weight; queue = Queue.create (); deficit = 0 })
         classes)
  in
  let default_class = ref 0 in
  Array.iteri
    (fun i c -> if c.cname = "default" then default_class := i)
    classes;
  {
    max_live;
    queue_capacity;
    classes;
    default_class = !default_class;
    cursor = 0;
    queued = 0;
    live = 0;
    shed = 0;
  }

let class_index t cname =
  let rec go i =
    if i >= Array.length t.classes then t.default_class
    else if t.classes.(i).cname = cname then i
    else go (i + 1)
  in
  go 0

let live t = t.live
let queued t = t.queued
let queued_in t cname = Queue.length t.classes.(class_index t cname).queue
let shed_count t = t.shed
let classes_of_string s =
  if String.trim s = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
          let bad () =
            Error
              (Printf.sprintf
                 "Admission.classes_of_string: bad entry %S (want \
                  CLASS=WEIGHT with WEIGHT >= 1)"
                 part)
          in
          match String.index_opt part '=' with
          | None -> bad ()
          | Some i -> (
              let cname = String.trim (String.sub part 0 i) in
              let w =
                String.trim (String.sub part (i + 1) (String.length part - i - 1))
              in
              match int_of_string_opt w with
              | Some w when w >= 1 && cname <> "" ->
                  if List.mem_assoc cname acc then
                    Error
                      (Printf.sprintf
                         "Admission.classes_of_string: duplicate class %s" cname)
                  else go ((cname, w) :: acc) rest
              | _ -> bad ()))
    in
    go [] (String.split_on_char ',' s)

let has_capacity t = t.live < t.max_live

let claim t =
  if t.live >= t.max_live then invalid_arg "Admission.claim: live set full";
  t.live <- t.live + 1

let enqueue t ~cname id =
  if t.queued < t.queue_capacity then begin
    Queue.push id t.classes.(class_index t cname).queue;
    t.queued <- t.queued + 1;
    true
  end
  else begin
    t.shed <- t.shed + 1;
    false
  end

let release t =
  if t.live <= 0 then invalid_arg "Admission.release: live set empty";
  t.live <- t.live - 1

let pop c t =
  ignore (Queue.pop c.queue);
  t.queued <- t.queued - 1

(* Drop queued sessions that died while waiting (deadlines).  Only
   heads are inspected; a dead id deeper in the queue is dropped when
   it surfaces.  Runs regardless of capacity so a tick with a full
   live set still clears its dead heads. *)
let drain_terminal_heads c t ~terminal =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt c.queue with
    | Some id when terminal id -> pop c t
    | _ -> continue := false
  done

let promote t ~terminal ~try_start =
  let k = Array.length t.classes in
  Array.iter (fun c -> drain_terminal_heads c t ~terminal) t.classes;
  let blocked = Array.make k false in
  let progress = ref true in
  while !progress && has_capacity t do
    progress := false;
    for off = 0 to k - 1 do
      let ci = (t.cursor + off) mod k in
      let c = t.classes.(ci) in
      if Queue.is_empty c.queue then c.deficit <- 0
      else if not blocked.(ci) then begin
        c.deficit <- min (c.deficit + c.weight) c.weight;
        let serving = ref true in
        while !serving && c.deficit > 0 && has_capacity t do
          drain_terminal_heads c t ~terminal;
          match Queue.peek_opt c.queue with
          | None ->
              c.deficit <- 0;
              serving := false
          | Some id ->
              if try_start id then begin
                pop c t;
                c.deficit <- c.deficit - 1;
                progress := true
              end
              else begin
                blocked.(ci) <- true;
                serving := false
              end
        done;
        (* Capacity ran out mid-service: resume here next tick. *)
        if not (has_capacity t) then t.cursor <- ci
      end
    done
  done
