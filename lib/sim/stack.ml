open Haec_vclock
module Store_intf = Haec_store.Store_intf
module Anti_entropy = Haec_store.Anti_entropy
module Obs = Haec_obs.Metrics

module type S = sig
  include Store_intf.S

  val tick : state -> state
  val settled : state array -> bool
  val progress : state -> Vclock.t
  val hooks : state Runner.membership_hooks
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

  (* membership announcements are unlogged control state, like the tick *)
  let hooks =
    {
      Runner.progress;
      on_join = AE.announce_join;
      on_leave =
        (fun ~epoch ~graceful st -> if graceful then AE.announce_leave ~epoch st else st);
    }

  let recover st = st
  let durable = false
end

module Durable (S : Store_intf.S) : S = struct
  module V = Volatile (S)
  module DA = Haec_store.Durable.Make (V)
  include DA

  (* control state the protocol regenerates on its own (the gossip tick,
     membership announcements) changes under the durable image without a
     WAL entry; a recovering replica re-announces through normal gossip *)
  let lift = DA.map_inner
  let tick = lift V.tick
  let settled states = V.settled (Array.map DA.inner states)
  let progress st = V.progress (DA.inner st)

  let hooks =
    {
      Runner.progress;
      on_join = (fun ~epoch -> lift (V.hooks.on_join ~epoch));
      on_leave = (fun ~epoch ~graceful -> lift (V.hooks.on_leave ~epoch ~graceful));
    }

  let queue_depth st = V.queue_depth (DA.inner st)
  let pending_bytes st = V.pending_bytes (DA.inner st)
  let log_entries st = V.log_entries (DA.inner st)
  let log_bytes st = V.log_bytes (DA.inner st)
  let counters st = V.counters (DA.inner st)

  (* the replay re-runs every logged send, but none of them reaches the
     wire again: the recovered replica keeps the counters it crashed with *)
  let recover st = lift (V.set_counters (counters st)) (DA.recover st)
  let durable = true
end

let publish reg (g : Store_intf.gossip_stats) ~log_entries ~log_bytes =
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
  c "gossip.repair_applied" g.repair_applied;
  c "gossip.memberships" g.memberships;
  c "gossip.membership_bytes" g.membership_bytes;
  c "gossip.digest_deltas" g.digest_deltas;
  c "gossip.digests_elided" g.digests_elided;
  let g name v = Obs.Gauge.set (Obs.Registry.gauge reg name) (float_of_int v) in
  g "ae.log_entries" log_entries;
  g "ae.log_bytes" log_bytes
