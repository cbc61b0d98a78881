(** Canonical replica stacks for the live cluster.

    Every live entry point (CLI serve, bench, tests, experiments) runs a
    store under [Anti_entropy.Make] and must adapt it to
    {!Cluster.STACK}; these two functors are that adapter, written once.

    {!Volatile} is the plain stack: anti-entropy directly over the store,
    no crash durability — [recover] is the identity and crash windows are
    rejected by the cluster. {!Durable} layers
    [Store.Durable.Make_tuned (None)] {e over} the anti-entropy wrapper,
    so the WAL records client ops, received gossip payloads, and sends of
    the whole protocol stack: [recover] replays them through a fresh
    replica and the restarted domain resumes with exactly the state it
    had durably logged — losses beyond that are permanent until
    anti-entropy repair heals them. Auto-checkpointing is off on the live
    path, so the hot path never encodes a WAL entry (a checkpoint would
    append the entries logged since the last one as an encoded chunk);
    live runs recover by replaying the WAL from genesis. *)

open Haec_vclock
module Store_intf := Haec_store.Store_intf

(** The extra surface {!Cluster.STACK} needs beyond
    [Anti_entropy.Make (S)]. *)
module type S = sig
  include Store_intf.S

  val tick : state -> state
  val settled : state array -> bool
  val progress : state -> Vclock.t
  val queue_depth : state -> int
  val pending_bytes : state -> int
  val log_entries : state -> int
  val log_bytes : state -> int
  val gossip_stats : unit -> Store_intf.gossip_stats
  val reset_gossip_stats : unit -> unit
  val recover : state -> state
  val durable : bool
end

module Volatile (S : Store_intf.S) : S

module Durable (S : Store_intf.S) : S
