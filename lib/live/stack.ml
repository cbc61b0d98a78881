open Haec_vclock
module Store_intf = Haec_store.Store_intf

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

module Volatile (S : Store_intf.S) : S = struct
  module AE = Haec_store.Anti_entropy.Make (S)
  include AE

  let progress = AE.have
  let recover st = st
  let durable = false
end

module Durable (S : Store_intf.S) : S = struct
  module AE = Haec_store.Anti_entropy.Make (S)

  module DA =
    Haec_store.Durable.Make_tuned
      (struct
        let auto_checkpoint_every = None
      end)
      (AE)

  include DA

  (* the gossip tick regenerates itself after recovery (the cluster ticks
     on a timer), so it bypasses the WAL by design *)
  let tick = DA.map_inner AE.tick
  let settled states = AE.settled (Array.map DA.inner states)
  let progress st = AE.have (DA.inner st)
  let queue_depth st = AE.queue_depth (DA.inner st)
  let pending_bytes st = AE.pending_bytes (DA.inner st)
  let log_entries st = AE.log_entries (DA.inner st)
  let log_bytes st = AE.log_bytes (DA.inner st)
  let gossip_stats = AE.gossip_stats
  let reset_gossip_stats = AE.reset_gossip_stats
  let recover = DA.recover
  let durable = true
end
