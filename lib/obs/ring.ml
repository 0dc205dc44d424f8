(* The always-on capture sink: a fixed-capacity ring of binary-encoded
   events, one shard per domain.

   Emission path: a typed emitter writes the event's bytes (or, for a
   built event, Binary's cursor encoder does; for an event that arrives
   already encoded, its bytes are copied) straight into the shard's
   arena — one growable Bytes.t holding the retained events back to
   back — and records where it starts in a circular index (an event
   ends where the next one starts, the newest at the arena's cursor).
   No per-event allocation at all: the arena and index are reused for
   the life of the shard, so a ring that retains events across minor
   collections promotes two flat blocks once, not
   one small string per event (which is what made a string-array ring
   pay major-heap churn proportional to the event rate).  No locks, no
   atomics — the shard is reached through domain-local storage; the
   mutex only guards the shard registry (a shard registers itself from
   its DLS initialiser, once per domain per ring) and the drain-side
   iteration.

   Arena reclamation: eviction just advances [head], so dead bytes
   accumulate at the front of the arena.  Retained bytes are always the
   contiguous region [base, cursor) where [base] is the oldest retained
   event's offset — writes are sequential and eviction drops the lowest
   offsets first.  When the dead prefix outgrows the live region (plus
   slack), a push first slides the live bytes down to 0 and rebases the
   index; the eviction bytes between two compactions pay for the copy,
   so the amortized cost is O(1) per byte and arena memory stays within
   a small multiple of the retained encoding.

   Draining decodes every retained slice back to a Trace.event and
   concatenates shards in first-use order (per-shard order is FIFO).
   On one domain that equals exactly what a buffering sink would have
   recorded, minus evicted prefixes — the acceptance test pins the
   drained ring Trace_diff-equal to the JSONL sink for the same run.
   Across domains the interleaving is scheduling-dependent, like any
   per-domain capture; the engine replays its merged trace from one
   domain, so its rings hold a single shard. *)

module Trace_wire = Goalcom.Trace_wire

type shard = {
  enc : Trace_wire.enc;  (* the arena: retained events, back to back *)
  offs : int array;  (* circular index: where each event starts *)
  mutable head : int;  (* index slot of the oldest retained event *)
  mutable tail : int;  (* next slot to write; equals [head] when full *)
  mutable len : int;
  mutable evicted : int;
}

type t = {
  capacity : int;
  mutex : Mutex.t;
  shards : shard list ref;  (* first-use order *)
  slot : shard Domain.DLS.key;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  let mutex = Mutex.create () in
  let shards = ref [] in
  let slot =
    (* Runs on first access from each domain: build the shard and
       register it, so the per-event path is a bare DLS load. *)
    Domain.DLS.new_key (fun () ->
        let sh =
          {
            enc = Trace_wire.create 4096;
            offs = Array.make capacity 0;
            head = 0;
            tail = 0;
            len = 0;
            evicted = 0;
          }
        in
        Mutex.lock mutex;
        shards := !shards @ [ sh ];
        Mutex.unlock mutex;
        sh)
  in
  { capacity; mutex; shards; slot }

(* Slide the live region [base, cursor) down to 0 and rebase the
   index.  Only called with [base > 0], from [push]. *)
let compact sh base =
  let e = sh.enc in
  let retained = Trace_wire.length e - base in
  let buf = Trace_wire.bytes e in
  Bytes.blit buf base buf 0 retained;
  let cap = Array.length sh.offs in
  for k = 0 to sh.len - 1 do
    let i = sh.head + k in
    let i = if i >= cap then i - cap else i in
    Array.unsafe_set sh.offs i (Array.unsafe_get sh.offs i - base)
  done;
  Trace_wire.truncate e retained

(* Index the event just appended at [start] — by [push_sh],
   [push_encoded_sh] or a typed emitter writing through the offered
   wire — evicting and compacting when full.  The one copy of the slot
   bookkeeping every push path shares. *)
let commit sh start =
  let cap = Array.length sh.offs in
  let i = sh.tail in
  Array.unsafe_set sh.offs i start;
  sh.tail <- (if i + 1 = cap then 0 else i + 1);
  if sh.len = cap then begin
    (* Full: the write above overwrote the oldest slot ([tail] chases
       [head] once full); advance [head] past it. *)
    sh.head <- sh.tail;
    sh.evicted <- sh.evicted + 1;
    (* Dead bytes only ever grow here, so the reclamation check lives
       on the eviction path and the common non-evicting push does no
       extra work.  Compact once the dead prefix outgrows the live
       bytes (plus slack so tiny rings don't compact every eviction);
       appends that outgrow the arena while the prefix is mostly live
       are handled by the cursor's own doubling. *)
    let base = Array.unsafe_get sh.offs sh.head in
    let cursor = Trace_wire.length sh.enc in
    if base > cursor - base + 4096 then compact sh base
  end
  else sh.len <- sh.len + 1

let push_sh sh ev =
  let start = Trace_wire.length sh.enc in
  Binary.put_event sh.enc ev;
  commit sh start

(* An event some other cursor already encoded: copy its bytes in, no
   decode and no re-encode. *)
let push_encoded_sh sh b off len =
  let start = Trace_wire.length sh.enc in
  Trace_wire.put_slice sh.enc b off len;
  commit sh start

(* [k] events pushed and then evicted, their bytes never seen.  Only
   [evicted] moves: the caller's promise of [capacity] further pushes
   (Trace.encoded_sink's contract) means they evict whatever the shard
   holds now, so the slots end exactly as if the [k] had been pushed. *)
let discard_sh sh k =
  if k < 0 then invalid_arg "Ring.discard: negative count";
  sh.evicted <- sh.evicted + k

let sink t ev = push_sh (Domain.DLS.get t.slot) ev

(* The DLS lookup is the single biggest fixed cost left on the emission
   path (the encode itself is ~10ns); binding the shard once at install
   time removes it.  Sound only because the returned closure is used
   from the domain that called [domain_sink] — which is exactly the
   single-domain shape of the engine replay, the chaos capture and the
   bench harness.  The closure also offers its encoded form to Trace:
   Trace's typed emitters write straight into the shard's arena and
   commit through the shard's index, a producer replaying encoded
   events (the session engine) into exactly this sink copies bytes
   instead of decoding them, and it skips with [discard] the events the
   shard's capacity would evict. *)
let domain_sink t =
  let sh = Domain.DLS.get t.slot in
  let sink ev = push_sh sh ev in
  Goalcom.Trace.offer_encoded sink
    {
      push = push_encoded_sh sh;
      retain = t.capacity;
      discard = discard_sh sh;
      wire = Write { enc = sh.enc; commit = (fun start -> commit sh start) };
    };
  sink

(* Drain-side accessors.  These lock only the registry; they read shard
   fields without synchronisation, so call them when producers are
   quiescent (after the traced run) — the engine and CLI do. *)

let with_shards t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> f !(t.shards))

let sum f t = with_shards t (List.fold_left (fun acc sh -> acc + f sh) 0)
let length t = sum (fun sh -> sh.len) t
let evicted t = sum (fun sh -> sh.evicted) t
let domains t = with_shards t List.length

let slots t =
  with_shards t
    (List.concat_map (fun sh ->
         let cap = Array.length sh.offs in
         let buf = Trace_wire.bytes sh.enc in
         List.init sh.len (fun k ->
             let start = sh.offs.((sh.head + k) mod cap) in
             let stop =
               if k + 1 < sh.len then sh.offs.((sh.head + k + 1) mod cap)
               else Trace_wire.length sh.enc
             in
             Bytes.sub_string buf start (stop - start))))

let events t =
  List.map
    (fun slot ->
      match Binary.event_of_string slot with
      | Ok ev -> ev
      | Error e -> failwith ("Ring.events: corrupt slot: " ^ e))
    (slots t)

let clear t =
  with_shards t
    (List.iter (fun sh ->
         Trace_wire.truncate sh.enc 0;
         sh.head <- 0;
         sh.tail <- 0;
         sh.len <- 0;
         sh.evicted <- 0))
