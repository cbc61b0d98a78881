(** Chaos harness: seeded random fault schedules against a store.

    One chaos run builds the store's durable replica stack
    ({!Stack.Durable}, built with a {!Haec_store.Store_intf.config}; by
    default {!Haec_store.Store_intf.default}), draws a random
    {!Fault_plan.t} from the seed, and interleaves it with a random
    client workload: replicas crash mid-run (losing volatile state, in-flight
    deliveries, and their clients, who fail over to a live replica), links
    drop traffic until they heal, and payloads get corrupted at the byte
    level. After the horizon — when every fault has healed — the run is
    driven to quiescence, every check of {!Checks.report} runs (through
    {!Checks.validate_deltas}, given the recorded witness deltas, so
    every check runs online and no witness is built), and
    every check the store class is on the hook for (see {!level}) must
    pass:
    convergence survived the faults, corruption never got past the frame
    checksum, and recovery restored every durable update.

    The stack is [Durable(Anti_entropy(S))]: the store closes its own gaps
    over the wire. The runner retransmits nothing — every loss is
    permanent — and quiescence means the protocol's digest exchange
    converged. Combined with [~adversarial:true] plans (duplication,
    reordering, dead links), this is the paper's
    sufficiently-connected-network setting made executable.

    Everything is deterministic in the seed, so a failing outcome is
    reproducible bit-for-bit from its seed alone (the CLI also dumps the
    trace for offline replay); {!derive} + [run_plan] expose the
    seed-to-inputs mapping so the {!Shrink} delta-debugger can replay
    edited copies of a failing run's inputs. *)

open Haec_model
open Haec_spec

type level = [ `Converge | `Correct | `Causal | `Occ ]
(** Which checks the store is on the hook for, cumulatively. [`Converge]:
    well-formed, complies with its witness, and reads agree post-heal —
    every store's contract. [`Correct] (the default) adds correctness of
    the witness. [`Causal] adds causal consistency — only stores with
    causal delivery guarantee it under the re-delivery orders faults
    induce. [`Occ] adds observable causal consistency, which Theorem 6
    shows {e no} available store satisfies in all executions — chaos
    schedules reliably find the violating patterns, making [`Occ] the
    principled known-failing bar the {!Shrink} smoke test minimizes
    against. *)

type traced = {
  log : Haec_obs.Span.Log.t;
      (** the run's lifecycle span stream, read through
          {!Haec_obs.Span.Log.iter} or [to_list]; transmit spans carry
          protocol item kinds via {!Haec_store.Anti_entropy.classify},
          applied when read *)
  lag : Haec_obs.Metrics.Histogram.t;
      (** the replay's [visibility.lag]: one sample per [Visible] span,
          its breakdown total, in span order *)
  trace : Execution.t;  (** the replay's execution, equal to the run's *)
}
(** A run re-executed with spans on (see {!outcome.spans}). *)

type outcome = {
  seed : int;
  config : Haec_store.Store_intf.config;
      (** what every replica of the run was built with: the anti-entropy
          tunables *)
  plan : Fault_plan.t;
  steps : Workload.step list;  (** the client workload the run replayed *)
  require : level;
  stats : Runner.stats;
  metrics : Haec_obs.Metrics.Registry.t;
      (** the runner's wire/visibility telemetry (see {!Runner.Over.metrics})
          and, through {!Stack.publish}, the [gossip.*] traffic counters
          summed over every replica's state (items and encoded bytes,
          plus [gossip.dup_payloads], its split [gossip.dup_updates] /
          [gossip.dup_repairs] / [gossip.dup_overheard], and
          [gossip.repair_applied]; a recovery replay counts nothing)
          and the [ae.log_entries] / [ae.log_bytes] gauges — the repair
          log the members still hold at the end of the run, named as the
          live cluster names them — and [ae.log_entries_peak], the most
          payloads one member's log held, sampled after every client
          step and at the end *)
  spans : traced Lazy.t;
      (** the run's spans, recorded by replay: forcing re-executes the
          same inputs (plan, steps, seed, objects, policy, gossip interval
          and event budget) under {!config}, with
          {!Runner.Over.create}[ ~record_spans:true]. The run itself
          records no spans, so its
          [visibility.lag] in [metrics] holds plain [visible - issue]
          samples; the replay's {!traced.lag} holds the span totals. The
          replay runs no checks and keeps nothing of the run's replica
          states. *)
  exec : Execution.t;
  ops : int;  (** client operations executed (after failover) *)
  skipped : int;  (** operations dropped because nobody could serve them *)
  refused : int;
      (** operations whose home replica was churn-unavailable — a
          bootstrapping joiner (refuses reads until caught up) or a
          departed member — whether or not failover then placed them;
          E22's availability-during-churn numerator *)
  horizon : float;  (** when every healing fault had healed *)
  quiesced_at : float;
      (** simulated time at quiescence; [quiesced_at -. horizon] is the
          repair latency — how long past the last heal the system needed
          to converge (E21's metric) *)
  result : (Checks.report, string) result;
      (** [Error] when the run diverged instead of reaching quiescence *)
}

val required : level -> string list
(** The {!Checks.failures} names a store at this level is on the hook
    for. *)

val converged : outcome -> bool
(** The run quiesced and every required check passed. *)

val failures : outcome -> (string * string) list
(** [(check, reason)] pairs among the required checks; empty iff
    {!converged}. *)

val pp_outcome : Format.formatter -> outcome -> unit

val derive :
  ?n:int ->
  ?objects:int ->
  ?ops:int ->
  ?mix:Workload.mix ->
  ?adversarial:bool ->
  ?churn:bool ->
  seed:int ->
  unit ->
  Fault_plan.t * Workload.step list
(** The inputs a seed determines: the fault plan, then the workload, drawn
    from one generator in that order (the draw order is part of the
    reproducibility contract). [~adversarial] (default false) adds
    duplication, reordering, and dead-link faults to the plan;
    [~churn] (default false) adds a membership schedule — reserve ids
    joining mid-run and members leaving (see {!Fault_plan.random}). The
    workload is always drawn over the [n] initial members, after every
    plan draw, so turning either flag off reproduces the exact pre-flag
    inputs. *)

module Make (S : Haec_store.Store_intf.S) : sig
  val run_plan :
    ?objects:int ->
    ?spec_of:(int -> Spec.t) ->
    ?policy:Net_policy.t ->
    ?require:level ->
    ?recovery:[ `Anti_entropy ] ->
    ?config:Haec_store.Store_intf.config ->
    n:int ->
    plan:Fault_plan.t ->
    steps:Workload.step list ->
    seed:int ->
    unit ->
    outcome
  (** Replay explicit inputs — the entry point the shrinker minimizes
      through. [seed] seeds only the network schedule (delivery delays,
      corruption choices), not the inputs. The runner drives the stack's
      digest rounds every {!Runner.gossip_interval} and gives up as
      diverged after 200,000 events. [config] (default
      {!Haec_store.Store_intf.default}) builds every replica. A plan with churn keeps
      [n] as the {e initial} member count — the run's id space grows to
      the plan's capacity. [recovery] has one value and selects nothing:
      it is accepted so that callers naming the anti-entropy stack
      explicitly keep compiling. *)

  val run :
    ?n:int ->
    ?objects:int ->
    ?ops:int ->
    ?spec_of:(int -> Spec.t) ->
    ?mix:Workload.mix ->
    ?policy:Net_policy.t ->
    ?require:level ->
    ?recovery:[ `Anti_entropy ] ->
    ?adversarial:bool ->
    ?churn:bool ->
    ?config:Haec_store.Store_intf.config ->
    seed:int ->
    unit ->
    outcome
  (** One seeded chaos run: {!derive} then {!run_plan} (defaults: 3
      replicas, 2 objects, 40 ops, MVR spec, register mix, random-delay
      policy, [`Correct] bar, baseline faults). *)

  val run_seeds :
    ?n:int ->
    ?objects:int ->
    ?ops:int ->
    ?spec_of:(int -> Spec.t) ->
    ?mix:Workload.mix ->
    ?policy:Net_policy.t ->
    ?require:level ->
    ?recovery:[ `Anti_entropy ] ->
    ?adversarial:bool ->
    ?churn:bool ->
    ?config:Haec_store.Store_intf.config ->
    ?domains:int ->
    seeds:int list ->
    unit ->
    outcome list
  (** The same run fanned out over domains, one task per seed; outcomes
      come back in seed order and are bit-identical at any [?domains]
      (default {!Haec_util.Par.default_domains}). *)
end
