open Haec_vclock
module Store_intf = Haec_store.Store_intf
module Anti_entropy = Haec_store.Anti_entropy
module Obs = Haec_obs.Metrics

module type S = sig
  include Store_intf.S

  val tick : state -> state
  val settled : state array -> bool
  val progress : state -> Vclock.t
  val announce_join : epoch:int -> state -> state
  val announce_leave : epoch:int -> state -> state
  val queue_depth : state -> int
  val pending_bytes : state -> int
  val log_entries : state -> int
  val log_bytes : state -> int
  val counters : state -> Store_intf.gossip_stats
  val recover : state -> state
  val durable : bool
end

module Volatile (S : Store_intf.S) = struct
  module AE = Anti_entropy.Make (S)
  include AE

  let progress = AE.have
  let recover st = st
  let durable = false
end

module Durable_over (V : S) : S = struct
  module DA = Haec_store.Durable.Make_controlled (V)

  (* every input is logged, control inputs included, so [recover] gives
     back the state the replica crashed with, counters and all *)
  include DA

  let settled states = V.settled (Array.map DA.inner states)
  let progress st = V.progress (DA.inner st)
  let queue_depth st = V.queue_depth (DA.inner st)
  let pending_bytes st = V.pending_bytes (DA.inner st)
  let log_entries st = V.log_entries (DA.inner st)
  let log_bytes st = V.log_bytes (DA.inner st)
  let counters st = V.counters (DA.inner st)
  let durable = true
end

module Durable (S : Store_intf.S) = Durable_over (Volatile (S))

let publish reg (g : Store_intf.gossip_stats) ~log_entries ~log_bytes ~log_entries_peak =
  let c name v = Obs.Counter.add (Obs.Registry.counter reg name) v in
  c "gossip.digests" g.digests;
  c "gossip.digest_bytes" g.digest_bytes;
  c "gossip.repairs" g.repairs;
  c "gossip.repair_bytes" g.repair_bytes;
  c "gossip.requests" g.requests;
  c "gossip.request_bytes" g.request_bytes;
  c "gossip.updates" g.updates;
  c "gossip.update_bytes" g.update_bytes;
  c "gossip.dup_payloads" g.dup_payloads;
  c "gossip.dup_updates" g.dup_updates;
  c "gossip.dup_repairs" g.dup_repairs;
  c "gossip.dup_overheard" g.dup_overheard;
  c "gossip.repair_applied" g.repair_applied;
  c "gossip.memberships" g.memberships;
  c "gossip.membership_bytes" g.membership_bytes;
  c "gossip.digest_deltas" g.digest_deltas;
  c "gossip.digests_elided" g.digests_elided;
  c "gossip.framing_bytes" g.framing_bytes;
  let g name v = Obs.Gauge.set (Obs.Registry.gauge reg name) (float_of_int v) in
  g "ae.log_entries" log_entries;
  g "ae.log_bytes" log_bytes;
  g "ae.log_entries_peak" log_entries_peak
