(** Live cluster runtime: N replicas on N OCaml 5 domains, exchanging
    encoded [Wire.Frame] bytes over {!Spsc} rings, driven by a
    closed-loop {!Load} generator.

    Each domain owns one replica stack ({!Haec_sim.Stack}: a store
    wrapped in [Anti_entropy.Make]) outright — states (protocol counters
    included), RNGs, histograms and event logs are never shared; the
    only cross-domain traffic is sealed frame bytes through the rings and
    small atomic snapshot cells the coordinator polls. Metrics follow the same discipline: every domain
    accumulates into its own counters and histogram, and the harvest
    merges them after [Domain.join] ({!Haec_obs.Metrics.Histogram.merge_into}),
    so the hot path carries no contended cache line.

    {b Protocol bytes, not function calls.} A replica broadcasts by
    [send]ing its stack (one anti-entropy envelope), sealing it with
    {!Haec_wire.Wire.Frame.seal} (length + CRC-32) and pushing the sealed
    bytes to every peer's ring; the receiver unseals and [receive]s. The
    live path therefore exercises the exact encoder, decoder and checksum
    the socket transport will use — a corrupted ring slot would surface
    as a [Malformed] frame, not silent divergence.

    {b Auditable.} With [capture] on, every domain timestamps its local
    events; the harvest interleaves the per-replica logs into one
    {!Haec_model.Execution.t} (ordering by wall-clock time, but never
    emitting a [receive] before its [send] — the per-replica orders and
    the send/receive matching are what well-formedness and the checkers
    consume; cross-replica timestamp skew cannot produce an invalid
    interleaving) and assembles the witness abstract execution with the
    simulator's own recorder ({!Haec_sim.Witness}): each replica keeps
    only the per-op delta of updates it witnesses for the first time,
    and the harvest resolves those deltas in merged order. The same
    causal/OCC checkers that audit simulations audit live runs.

    {b Visibility lag} (Definition 17, wall-clock): when an update is
    issued, its issue time rides in the frame that first carries it; a
    receiver that advances the sender's contiguous prefix by applying
    that frame records [now - issued_at]. This measures issue-to-applied
    latency through batching, the ring, and decode — the live analogue of
    the simulator's lag histogram. *)

open Haec_model
module Obs := Haec_obs.Metrics

module type STACK = Haec_sim.Stack.S
(** What the runtime needs from a replica stack: the one stack signature,
    which {!Haec_sim.Stack.Volatile} and {!Haec_sim.Stack.Durable} build
    (also reachable as [Live.Stack]). *)

type config = {
  replicas : int;
  seed : int;
  objects : int;
  mix : Load.mix;
  zipf : float;  (** key-skew theta; 0 = uniform *)
  duration : float;  (** load-phase wall seconds *)
  rate : float;
      (** per-replica target ops/s; [0.] = closed-loop saturation (issue
          a batch whenever the previous one is processed) *)
  batch : int;  (** client ops issued per flush *)
  gossip_interval : float;  (** wall seconds between anti-entropy ticks *)
  ring_capacity : int;
  capture : bool;
      (** record events + witnesses for trace/checker audit. Capture
          retains every event in memory — pair it with [rate] rather
          than saturation mode. *)
  faults : Haec_sim.Fault_plan.t option;
      (** fault schedule with times in {e wall seconds relative to the
          start of the load phase} (map an abstract-horizon plan with
          {!Haec_sim.Fault_plan.scaled}); crash windows require a durable
          stack, churn plans are rejected *)
  drop_p : float;
      (** uniform per-delivery drop probability on every link for the
          whole run, independent of [faults]; in [0, 1) *)
  heal_by : float;
      (** post-heal full-set convergence deadline in wall seconds,
          counted from the later of drain start and the plan's last heal;
          [0.] = automatic ([max 10 (5 * duration)], the no-fault drain
          deadline) *)
  stack : Haec_store.Store_intf.config;
      (** what every replica stack is built with: wire version,
          anti-entropy tunables, checkpoint cadence (by default
          {!Haec_store.Store_intf.default}, which never auto-checkpoints) *)
}

val default : config
(** 2 replicas, seed 42, 64 objects, register mix, uniform keys, 1s
    saturation, batch 8, 1ms gossip, 1024-slot rings, no capture, no
    faults. *)

type outcome =
  | Healed of { degraded_settled : bool }
      (** the full member set settled twice in a row within the deadline;
          [degraded_settled] records whether, while faults degraded the
          cluster, every reachable component also settled twice in a row
          — the paper's available-under-partition steady state *)
  | Diverged of string
      (** the full set missed the post-heal deadline; the string says
          what was still outstanding. With no faults this means the
          scrape timed out, not that the protocol diverged. *)

type replica_stats = {
  ops : int;  (** do events executed *)
  issued : int;  (** ops drawn from the load generator *)
  reads : int;
  updates : int;
  frames_sent : int;
  frames_recv : int;
  frames_rejected : int;  (** Malformed at unseal: corrupted in flight *)
  payload_bytes : int;  (** unsealed envelope bytes, counted once per broadcast *)
  wire_bytes : int;  (** sealed bytes pushed, counted per destination *)
  bytes_recv : int;
  stalls : int;  (** ring-full events while pushing *)
  crashes : int;  (** crash windows this replica fired *)
  crash_lost : int;  (** inbox frames discarded at restart *)
  queue_depth_peak : int;
  pending_bytes_peak : int;
  gossip : Haec_store.Store_intf.gossip_stats;
      (** this replica's protocol traffic, read from its final state
          ({!Haec_sim.Stack.S.counters}) *)
}

type result = {
  cfg : config;
  elapsed : float;  (** measured load-phase wall seconds *)
  drain_elapsed : float;
  converged : bool;  (** [outcome] is [Healed] *)
  outcome : outcome;
  availability : float;
      (** 1 - scheduled crash downtime over the load phase / (n *
          duration); 1 when no fault layer is active *)
  total_ops : int;
  total_issued : int;
  total_updates : int;
  ops_per_sec : float;  (** aggregate, over the load phase *)
  lag_ms : Obs.Histogram.t;  (** wall-clock visibility lag, milliseconds *)
  recovery_ms : Obs.Histogram.t;
      (** heal instant to full-set settle, milliseconds: one sample per
          fired crash window (or one for the plan's last heal when it
          carried no crashes); empty unless [Healed] under faults *)
  frames : int;
  payload_bytes : int;
  wire_bytes : int;
  max_payload_bytes : int;
  stalls : int;
  crashes : int;
  frames_rejected : int;
  queue_depth_peak : int;
  pending_bytes_peak : int;
  per_replica : replica_stats array;
  fault_totals : Faults.totals option;  (** aggregated injection counts *)
  fault_links : (int * int * Faults.totals) list;
      (** the non-zero links as [(src, dst, totals)] *)
  registry : Obs.Registry.t;
      (** the merged per-domain counters under [live.*] / [faults.*]
          names, including per-link [live.ring.stall.r<src>_r<dst>]
          counters, and the replicas' protocol counters and repair log
          under the [gossip.*] / [ae.*] names the simulator uses
          ({!Haec_sim.Stack.publish}) *)
  gossip : Haec_store.Store_intf.gossip_stats;
      (** the sum of the replicas' [gossip] counters *)
  trace : Execution.t option;  (** when [capture] *)
  witness : Haec_spec.Abstract.t option;
}

module Make (S : STACK) : sig
  val run : config -> result
  (** Spawn [replicas] domains, drive the load phase for [duration],
      then stop issuing and drain until every replica settles (or a
      deadline passes — see [converged]), join, and harvest.
      Raises [Invalid_argument] on a nonsensical config. *)

  val run_inline : ?ops_per_replica:int -> ?tick_every:int -> config -> result
  (** The same node code, single-domain and deterministic: replicas run
      round-robin on the calling domain under a virtual clock, each
      issuing exactly [ops_per_replica] ops (one per turn, ignoring
      [batch] and [rate]), with a gossip tick every [tick_every] rounds,
      then drain to quiescence. Capture is forced on; the result carries
      a trace and witness, and two runs with the same config are
      bit-identical — the live-vs-sim equivalence anchor.
      Raises [Failure] if quiescence is not reached (a protocol bug). *)
end
