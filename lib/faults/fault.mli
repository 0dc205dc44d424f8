(** Composable fault injection over server strategies.

    The paper's robustness story rests on one observation: a faulty
    channel composed with a server {e is just another server}, so the
    universal user need not know whether it is talking to a pristine
    printer or to one behind a lossy, reordering, crash-prone link —
    the composed strategy is simply one more member of the server
    class.  This module makes that composition first-class: a fault is
    a named wrapper [Strategy.server -> Strategy.server], and faults
    form a monoid under {!compose} with {!nop} as identity, so entire
    fault stacks can be built, named, printed, and parsed from CLI
    specs.

    Every fault draws its randomness from the per-step [Rng.t] that
    {!Goalcom.Exec.run} threads through the execution — never from a
    generator captured at construction time — so a fault stack is
    deterministic under the trial seed and independent across
    instances.

    {b Tracing.}  When a {!Goalcom.Trace} sink is installed, each fault
    activation emits a [Trace.Fault] event naming the fault and what it
    did ([detail] is ["inbound"]/["outbound"] for per-message faults,
    ["restart"], ["outage"], ["starve"] or ["garble"] for the
    server-level ones).  Rounds are stamped from the engine's ambient
    round counter ({!Goalcom.Trace.handle_round}).  Emission never
    consumes randomness, so traced and untraced runs are bit-identical.
    The purely channel-level faults ({!delay}, {!drop}, {!duplicate})
    reuse {!Goalcom_servers.Channel} wrappers and are not traced. *)

open Goalcom

type t
(** A named server-strategy transformer. *)

val name : t -> string

val apply : t -> Strategy.server -> Strategy.server
(** [apply f server] is the faulted server. *)

val make : name:string -> (Strategy.server -> Strategy.server) -> t
(** Escape hatch for custom faults; prefer the combinators below. *)

val nop : t
(** The identity fault: [apply nop server == server]. *)

val compose : t -> t -> t
(** [compose f g] applies [g] closest to the server; message flow is
    server → [g] → [f] → user outbound and the reverse inbound. *)

val stack : t list -> t
(** [stack [f1; ...; fn]] composes left to right: [f1] is outermost
    (closest to the user).  [stack [] = nop]. *)

(** {1 Message-level faults} *)

val delay : rounds:int -> t
(** Outbound latency of [rounds] rounds ({!Goalcom_servers.Channel.delayed}).
    [delay ~rounds:0 = nop].  @raise Invalid_argument on negative. *)

val drop : prob:float -> t
(** Each non-silent inbound message is lost with probability [prob]
    ({!Goalcom_servers.Channel.drop_inbound}).  [drop ~prob:0. = nop].
    @raise Invalid_argument outside [0..1]. *)

val duplicate : t
(** Every non-silent outbound message is delivered twice
    ({!Goalcom_servers.Channel.duplicate_outbound}). *)

val corrupt : alphabet:int -> prob:float -> t
(** Each non-silent message, in both directions, is garbled with
    probability [prob]: command symbols are flipped to a {e different
    valid} symbol of the [alphabet] (via the mixed-radix coding, so the
    corrupted command still parses), integers get a low bit flipped,
    texts one character, pairs/sequences one random component.
    [corrupt ~prob:0. = nop].  @raise Invalid_argument on bad args. *)

val reorder : skew:int -> t
(** Messages in each direction may overtake each other, but no message
    is lost or held more than [skew] rounds past its arrival.
    [reorder ~skew:0 = nop].  @raise Invalid_argument on negative. *)

val burst : p_enter:float -> p_exit:float -> drop_prob:float -> t
(** Gilbert–Elliott bursty loss: a two-state Markov chain (good/bad)
    shared by both directions; in the bad state each non-silent message
    is dropped with [drop_prob].  @raise Invalid_argument on
    probabilities outside [0..1]. *)

(** {1 Server-level faults} *)

val crash_restart : every:int -> t
(** Every [every] rounds the wrapped server crashes and restarts: its
    state is reset to the initial value, losing all session progress.
    @raise Invalid_argument unless [every > 0]. *)

val intermittent : ?noise:int -> on:int -> off:int -> unit -> t
(** Periodic outage: [on] rounds of normal service then [off] rounds
    down — state frozen, inbound messages lost, and the server emits
    silence (or random symbols from a [noise]-sized alphabet, if
    given).  [intermittent ~off:0 = nop].  @raise Invalid_argument on a
    non-positive [on], negative [off], or non-positive [noise]. *)

val adversary : budget:int -> alphabet:int -> t
(** Worst-case scheduler with a fault budget: each round it may spend
    one unit to either starve the server of its inbound message
    (preferred — stops progress dead) or corrupt a non-silent reply
    (misleads sensing).  Silent once the budget is exhausted.
    @raise Invalid_argument on bad args. *)

(** {1 Spec parsing}

    For CLI flags and randomised tests.  Grammar (args after [:],
    comma-separated): [nop], [delay:K], [drop:P] (alias [loss:P], the
    network-link spelling), [dup], [corrupt:P],
    [reorder:K], [burst:PENTER,PEXIT,PDROP], [crash:K],
    [intermittent:ON,OFF], [adversary:B].  Stacks join specs with [+],
    outermost first, e.g. ["corrupt:0.05+crash:60"]. *)

val of_string : alphabet:int -> string -> (t, string) result
val stack_of_string : alphabet:int -> string -> (t, string) result
