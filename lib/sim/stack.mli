(** The replica stacks: a store under {!Haec_store.Anti_entropy.Make},
    with or without a durable image, and everything a runtime needs to
    drive and observe it. The simulator ({!Chaos}) and the live cluster
    ([Haec_live.Cluster], whose [STACK] is {!S}) build their replicas
    from these functors and nothing else.

    {!Volatile} is anti-entropy directly over the store: no crash
    durability, [recover] is the identity, and the live cluster rejects
    crash windows for it. {!Durable} layers
    {!Haec_store.Durable.Make_controlled} {e over} the anti-entropy
    wrapper, so its state image holds the whole protocol stack, and the
    log after the image records client ops, received payloads, sends and
    the control inputs ([tick], [announce_join], [announce_leave]);
    [recover] replays that log over the image. The recovered replica is
    the one that crashed: its ask table, RTT estimates, round counter
    and counters included, whenever the image was taken. What it lost is
    what was in flight to it; anti-entropy repair heals that.

    Both are built by [create config]: the one {!Store_intf.config} value
    tunes the anti-entropy layer and stays in the state, so a recovered
    replica emits as it did before the crash.

    Protocol counters are part of each replica's state
    ({!S.counters}); summing them over the replicas gives a run's
    traffic, and {!publish} names them. *)

open Haec_vclock
module Store_intf := Haec_store.Store_intf

(** What a runtime needs from a replica stack: a store extended with the
    anti-entropy pump, membership announcements, crash recovery, and
    introspection. The simulator, given a stack, and
    [Haec_live.Cluster.Make] drive a replica through these members and
    nothing else. *)
module type S = sig
  include Store_intf.S

  val tick : state -> state
  (** One gossip round ({!Haec_store.Anti_entropy.Make.tick}): a control
      input, logged by a durable stack. *)

  val settled : state array -> bool
  (** The protocol's convergence predicate over member states. *)

  val progress : state -> Vclock.t
  (** Per-origin contiguous applied prefix; drives lag measurement,
      bootstrap promotion and convergence detection. *)

  val announce_join : epoch:int -> state -> state
  (** Queue a joiner's hello and first digest
      ({!Haec_store.Anti_entropy.Make.announce_join}); a control input,
      like {!tick}. *)

  val announce_leave : epoch:int -> state -> state
  (** Queue a graceful leaver's goodbye; a control input, like {!tick}.
      A crash-leave announces nothing. *)

  val queue_depth : state -> int
  val pending_bytes : state -> int

  val log_entries : state -> int
  (** Payloads in the anti-entropy repair log ([ae.log_entries]). *)

  val log_bytes : state -> int
  (** Payload bytes in that log ([ae.log_bytes]). *)

  val counters : state -> Store_intf.gossip_stats
  (** This replica's protocol traffic ([gossip.*]); a crash recovery
      leaves it as it was at the crash. *)

  val recover : state -> state
  (** Crash recovery: volatile state discarded, rebuilt from whatever the
      stack keeps durably ({!Haec_store.Store_intf.DURABLE.recover}); the
      identity for volatile stacks, which therefore cannot run crash
      plans. *)

  val durable : bool
  (** Whether {!recover} actually survives a crash. *)
end

module Volatile (S : Store_intf.S) : S

module Durable_over (V : S) : S
(** A durable image over any volatile stack [V]: {!Durable} is
    [Durable_over (Volatile (S))]. Only [V]'s store members and control
    inputs change its state; its [recover] is not called. *)

module Durable (S : Store_intf.S) : S

val publish :
  Haec_obs.Metrics.Registry.t ->
  Store_intf.gossip_stats ->
  log_entries:int ->
  log_bytes:int ->
  log_entries_peak:int ->
  unit
(** Write a run's protocol traffic as the [gossip.*] counters (added to
    any already there) and its repair log as the [ae.log_entries] /
    [ae.log_bytes] gauges (what the replicas hold at the end of the run)
    and the [ae.log_entries_peak] gauge (the most payloads one replica's
    log held at any sample taken during the run). The one place these
    names are written: the simulator and the live cluster publish
    through it. *)
