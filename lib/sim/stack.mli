(** The replica stacks: a store under {!Haec_store.Anti_entropy.Make},
    with or without a durable image, and everything a runtime needs to
    drive and observe it. The simulator ({!Chaos}) and the live cluster
    ([Haec_live.Cluster], whose [STACK] is {!S}) build their replicas
    from these functors and nothing else.

    {!Volatile} is anti-entropy directly over the store: no crash
    durability, [recover] is the identity, and the live cluster rejects
    crash windows for it. {!Durable} layers {!Haec_store.Durable.Make}
    {e over} the anti-entropy wrapper, so
    the WAL records client ops, received payloads and sends of the whole
    protocol stack; [recover] replays them through a fresh replica, which
    resumes with exactly the state it had durably logged. Losses beyond
    that are permanent until anti-entropy repair heals them.

    Both are built by [create config]: the one {!Store_intf.config} value
    reaches the durable image (its checkpoint cadence), the anti-entropy
    layer (its tunables) and the store (its wire version), and stays in
    the state, so a recovered replica emits as it did before the crash.

    Protocol counters are part of each replica's state
    ({!S.counters}); summing them over the replicas gives a run's
    traffic, and {!publish} names them. *)

open Haec_vclock
module Store_intf := Haec_store.Store_intf

(** What a runtime needs from a replica stack: a store extended with the
    anti-entropy pump, the membership hooks, and introspection. *)
module type S = sig
  include Store_intf.S

  val tick : state -> state
  (** One gossip round ({!Haec_store.Anti_entropy.Make.tick}); unlogged
      control state. *)

  val settled : state array -> bool
  (** The protocol's convergence predicate over member states. *)

  val progress : state -> Vclock.t
  (** Per-origin contiguous applied prefix; drives lag measurement,
      bootstrap promotion and convergence detection. *)

  val hooks : state Runner.membership_hooks
  (** Hello/goodbye announcements for the simulator's dynamic
      membership; unlogged control state, like {!tick}. *)

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

module Durable (S : Store_intf.S) : S
(** Checkpoints as the config's [checkpoint_every] says: by default
    never, so the live hot path never encodes a WAL entry and recovery
    replays the WAL from genesis; the chaos harness checkpoints every
    {!Haec_store.Durable.auto_checkpoint_every} entries. *)

val publish :
  Haec_obs.Metrics.Registry.t ->
  Store_intf.gossip_stats ->
  log_entries:int ->
  log_bytes:int ->
  unit
(** Write a run's protocol traffic as the [gossip.*] counters (added to
    any already there) and its repair log as the [ae.log_entries] /
    [ae.log_bytes] gauges. The one place these names are written: the
    simulator and the live cluster publish through it. *)
