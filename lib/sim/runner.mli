(** Discrete-event simulation of one data store over a network.

    Two layers share one trace:

    - a {b manual} layer ([op]/[flush]/[deliver_msg]) giving exact control
      over the schedule — this is what the Theorem 6 and Theorem 12
      constructions use to build their adversarial executions; and
    - a {b scheduled} layer driven by a {!Net_policy.t}: [flush] enqueues
      deliveries at policy-chosen times, [advance_to]/[run_until_quiescent]
      process them.

    The runner records every do/send/receive event, producing a well-formed
    {!Haec_model.Execution.t}, and (unless disabled) collects each
    operation's visibility witness, from which {!witness_abstract} builds an
    abstract execution the run complies with by construction.

    {b Witness cost.} A store's witness names every update visible to the
    operation — for the causal stores, every update the replica has ever
    incorporated — as one summary per object: a frontier of per-origin
    counts for the MVR stores, explicit dots for the dot-set layers. The
    runner cuts each at once to the per-replica delta
    ({!Witness.fresh}), the updates this replica witnesses for the first
    time, so an MVR witness costs O(objects × replicas) plus the new
    keys, and only the delta is resolved to do indices ({!Witness.record}).
    Contract: {!witness_abstract} is exactly the abstract execution that
    resolving every full witness would give, because
    in {!Haec_spec.Abstract.create} each event sees what the previous
    event of the same replica sees, and every dropped update is already
    there. The
    delta also drives visibility-lag telemetry: each of its entries is
    one first-time (update, observer) pair.

    {b Fault injection.} A {!Fault_plan.t} adds failure modes on top of
    the paper's failure-free model: replica crashes ({!crash} /
    {!recover}, also recorded in the trace), link faults that drop
    messages until they heal, byte-level payload corruption checked by the
    {!Haec_wire.Wire.Frame} checksum, message duplication, bounded
    reordering, and permanent-loss dead links.

    {b Loss.} The runner never retransmits. Every delivery swallowed by a
    crashed destination, a faulted or dead link, or a rejected corrupt
    frame is lost for good, and the paper's "sufficiently connected"
    network (every message eventually delivered) is something the store
    protocol has to achieve itself: {!Haec_store.Anti_entropy.Make}
    inside a replica {!Stack.S}. Given a stack, the runner drives it the
    way [Haec_live.Cluster] does: it ticks every live replica each
    {!gossip_interval} and, once the network drains, keeps firing rounds
    until the stack's own [settled] predicate holds; it reads [progress],
    announces joins and leaves, and rebuilds a crashed replica with
    [recover]. A store run without a stack simply keeps whatever gaps its
    losses leave, and a crash loses nothing of its state.

    {b Dynamic membership.} The runner's [n] is an id-space capacity; the
    actual member set is an epoch-stamped {!Membership.t} view. Ids
    [0 .. initial-1] serve from time zero, the rest are a reserve pool.
    {!Make.join} brings a reserve id in: it boots empty, announces itself
    through the stack, and bootstraps over the ordinary anti-entropy
    digest/repair protocol; until its progress vector reaches the
    catch-up target captured at join time it is {e bootstrapping} and
    {!Make.op} refuses it — a refused read is unavailability, never a
    stale-causal answer. {!Make.leave} removes a member for good
    (graceful: hands off its own stream, then flushes everything;
    crash-leave: vanishes, in-flight deliveries to it are lost
    permanently). Ids are never reused. Both transitions are recorded in
    the trace ({!Haec_model.Event.Join} / [Leave]) and bump the view
    epoch. *)

open Haec_model
open Haec_spec

exception Divergence of { in_flight : int; pending : int; budget : int }
(** Raised by {!Make.run_until_quiescent} when the event budget runs out
    before the network drains: [in_flight] deliveries still queued,
    [pending] live replicas with unsent messages, out of a budget of
    [budget] deliveries. *)

type stats = {
  crashes : int;
  recoveries : int;
  dropped : int;  (** deliveries swallowed by a crash or a faulted link *)
  corrupt_rejected : int;
      (** corrupted deliveries rejected as [Malformed] by the frame check *)
  corrupt_collisions : int;
      (** corrupted frames whose checksum still verified (~2^-32 each);
          treated as loss, never delivered *)
  lost_permanent : int;
      (** deliveries lost for good: crash-swallowed, link-faulted, dead-link
          and corrupt-rejected ones. The runner retransmits none of them,
          so this counts the same deliveries as [dropped]. *)
  gossip_rounds : int;  (** gossip rounds fired at the replica stack *)
  joins : int;  (** replicas that joined mid-run *)
  leaves : int;  (** replicas that left mid-run (graceful or crash-leave) *)
}

val gossip_interval : float
(** Simulated time between the gossip rounds fired at a replica stack
    (2.0). *)

module Make (S : Haec_store.Store_intf.S) : sig
  type t

  module type STACK = Stack.S with type state = S.state

  val create :
    ?seed:int ->
    ?config:Haec_store.Store_intf.config ->
    ?record_witness:bool ->
    ?record_spans:bool ->
    ?auto_send:bool ->
    ?policy:Net_policy.t ->
    ?faults:Fault_plan.t ->
    ?stack:(module STACK) ->
    ?initial:int ->
    n:int ->
    unit ->
    t
  (** [config] (default {!Haec_store.Store_intf.default}) builds every
      replica, reserve ids included.

      [auto_send] (default [true]) flushes a replica right after any event
      that leaves a message pending (client op, or receive for non-op-driven
      stores). Without a [policy], sent messages are only recorded and
      returned — delivery is up to the caller.

      [faults] (default {!Fault_plan.none}, which injects nothing and
      draws nothing from the schedule's RNG) enables link-drop,
      corruption, duplication, reordering, and dead-link injection on
      scheduled deliveries.

      [stack] (pass [(module S)] when [S] is a {!Stack.S}) switches on
      the stack's own protocol, as the module comment describes: every
      {!gossip_interval} of simulated time, in event order relative to
      the delivery queue, the runner ticks and flushes each live replica,
      and quiescence waits for [settled], bounded by
      [run_until_quiescent]'s event budget. Without it no round fires,
      {!recover} keeps the crashed state (perfect durability), and
      {!join} is refused.

      [initial] (default [n]) makes ids [initial .. n-1] a reserve pool
      for {!join} instead of members from time zero.

      [record_spans] (default [false], implies [record_witness]) collects
      the per-op lifecycle span stream (see {!spans}); it only observes,
      so a run with spans is the run without them. With a stack,
      [Transmit] spans label sent payloads with their protocol item kinds
      ({!Haec_store.Anti_entropy.classify}). *)

  val n_replicas : t -> int

  val now : t -> float

  val op : t -> replica:int -> obj:int -> Op.t -> Op.response
  (** Execute a client operation (immediately, availability!); records the
      do event; auto-sends if configured. Raises [Invalid_argument] at a
      crashed or non-serving replica — a down replica serves no clients,
      and a bootstrapping joiner refuses clients rather than hand out
      stale-causal answers (unavailable, not wrong). *)

  val has_pending : t -> replica:int -> bool

  val flush : t -> replica:int -> Message.t option
  (** If a message is pending, send it: record the send event, schedule
      deliveries when a policy is present, and return the message. A
      crashed replica never flushes ([None]). *)

  val deliver_msg : t -> dst:int -> Message.t -> unit
  (** Manually deliver a previously sent message to [dst] (any number of
      times — the network may duplicate). Records the receive event.
      Raises [Invalid_argument] if [dst] is crashed. *)

  val crash : t -> replica:int -> unit
  (** Crash a replica: record the crash event, mark it down (no ops, no
      sends, no deliveries), and lose every in-flight delivery addressed
      to it for good (counted in [lost_permanent]). Raises
      [Invalid_argument] if already down. *)

  val recover : t -> replica:int -> unit
  (** Bring a crashed replica back: rebuild its state with the stack's
      [recover] (without a stack, keep it as it was), record the recover
      event, and flush anything it has pending. What it
      missed while down comes back only through the store's repair
      protocol. Raises [Invalid_argument] if not down. *)

  val is_down : t -> replica:int -> bool

  val join : t -> replica:int -> unit
  (** Bring a reserve id into the replica set: bump the view epoch, record
      the join event, apply the stack's [announce_join] (hello + digest
      announcement), and capture the catch-up target — the pointwise max
      of every serving member's progress vector. The joiner stays
      {e bootstrapping} (op-refusing) until ordinary digest/repair traffic
      carries its progress to the target, at which point it is promoted to
      serving ([bootstrap.latency] records the delay). Requires a
      [stack]; raises [Invalid_argument] without one, or if the id is not
      in reserve (ids are never reused). *)

  val leave : t -> replica:int -> graceful:bool -> unit
  (** Remove a member for good: bump the view epoch and record the leave
      event. Graceful: the leaver announces goodbye (the stack's
      [announce_leave]) and flushes every pending payload before
      departing. While no other staying member that is up holds the
      leaver's whole own stream (its stack [progress] entry for the
      leaver reaches the leaver's own),
      the leaver only stops serving: it stays a gossiping member, and
      departs, as above, after the delivery or recovery that completes
      the hand-off. Crash-leave
      ([graceful:false]): it vanishes mid-protocol — in-flight deliveries
      addressed to it are lost permanently and anything only it had logged
      is gone (survivor convergence is up to the repair protocol). Raises
      [Invalid_argument] if not a member or currently down. *)

  val membership : t -> Membership.t
  (** The current epoch-stamped membership view. *)

  val is_member : t -> replica:int -> bool

  val is_serving : t -> replica:int -> bool

  val bootstrap_bytes : t -> int
  (** Payload bytes delivered to bootstrapping replicas — the wire cost of
      state transfer, compared against the Theorem 12 floor by E22. *)

  val bootstrap_latency : t -> Haec_obs.Metrics.Histogram.t
  (** Join-to-serving latency, in simulated time, one observation per
      promoted joiner. *)

  val stats : t -> stats

  val metrics : t -> Haec_obs.Metrics.Registry.t
  (** Wire and visibility telemetry of the run so far, as a fresh
      registry: [wire.messages] (plus one [wire.messages.r<i>] counter per
      replica), the [wire.payload_bytes] and [wire.fanout] histograms,
      [wire.deliveries] / [wire.duplicates] / [wire.dropped] /
      [wire.corrupt_rejected] / [wire.lost_permanent] counters, the
      [visibility.lag] staleness histogram (see {!visibility_lag}), and
      [sim.ops] / [sim.crashes] / [sim.recoveries] / [sim.now]. Counters
      are copied at call time; histograms are live references into the
      runner, so a snapshot taken after further events reflects them. *)

  val visibility_lag : t -> Haec_obs.Metrics.Histogram.t
  (** Staleness histogram, in simulated time: for every update and every
      other replica, the lag from the update's do event until the first
      operation at that replica whose witness includes the update. Only
      recorded while witness collection is enabled; drive a read per
      object per replica after quiescence to capture full convergence.
      With spans off, each observation is the plain [visible - issue]
      difference; with spans on, it is exactly the component sum of the
      matching [Visible] span's {!Haec_obs.Span.breakdown}, which may
      differ from it in the last bits. *)

  val span_log : t -> Haec_obs.Span.Log.t
  (** The lifecycle span stream of the run so far, in emission order:
      [Op] (issue-to-flush) and [Transmit] spans at each send, [Flight]
      spans for every delivery/duplicate/permanent loss, [Visible] spans
      (one per witnessed (update, observer) pair, carrying the full lag
      decomposition), [Bootstrap] spans at promotion and [Repair_round]
      spans per fired gossip round. Derived from sim-time data only —
      bit-identical at any [-j]. Empty when [record_spans] is off.

      The runner records into {!Haec_obs.Span.Log} and keeps
      its own lifecycle bookkeeping in dense arrays (per-source message
      data by seq, per-(op, observer) times by [do_index * n + replica]),
      so it keeps no span record; the returned log is live —
      it grows as the run goes on — and holds no reference to the runner. *)

  val spans : t -> Haec_obs.Span.t list
  (** [Span.Log.to_list (span_log t)]: the same stream as a list. *)

  val advance_to : t -> float -> unit
  (** Process all scheduled deliveries up to the given time. *)

  val run_until_quiescent : ?max_events:int -> t -> unit
  (** Drive the network until no message is in flight, no live replica has
      a message pending and, with a [stack], the protocol has
      [settled] (Definition 17). Requires a policy. Raises {!Divergence}
      if [max_events] (default 1_000_000) deliveries are exceeded. Gossip
      rounds pause while a member is down; the run parks until
      {!recover}. *)

  val in_flight : t -> int

  val replica_state : t -> int -> S.state

  val execution : t -> Execution.t

  val messages_sent : t -> Message.t list
  (** In send order. *)

  val last_message : t -> replica:int -> Message.t option
  (** The most recent message sent by the given replica. *)

  val witness_abstract : t -> Abstract.t
  (** The witness abstract execution of the run so far, built from the
      recorded deltas (see the module comment) and validity-checked.
      Raises [Failure] if witness recording was disabled. *)

  val witness_deltas : t -> (Event.do_event -> int list -> unit) -> unit
  (** The same witness as its deltas in [H] order ({!Witness.iter}), the
      input of {!Haec_consistency.Online.feed}. Raises [Failure] if
      witness recording was disabled. *)
end
