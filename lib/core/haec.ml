(** Umbrella module: the public API of the library.

    The library reproduces Attiya, Ellen and Morrison, "Limitations of
    Highly-Available Eventually-Consistent Data Stores" (PODC 2015) as an
    executable framework:

    - {!Model}: replicas, events, concrete executions, happens-before
      (paper Section 2);
    - {!Spec}: abstract executions, visibility, the Figure 1 object
      specifications, correctness (Section 3.1-3.2);
    - {!Consistency}: causal consistency, OCC, eventual-consistency
      surrogates, compliance, and exhaustive search for complying abstract
      executions (Sections 3.2-3.3, 5.1);
    - {!Store}: write-propagating store implementations and the
      counter-example stores (Sections 4, 5.3);
    - {!Sim}: the discrete-event network simulator;
    - {!Construction}: the Theorem 6 and Theorem 12 constructions
      (Sections 5.2, 6). *)

module Util = struct
  module Rng = Haec_util.Rng
  module Par = Haec_util.Par
  module Pqueue = Haec_util.Pqueue
  module Bitset = Haec_util.Bitset
  module Fqueue = Haec_util.Fqueue
  module Int_tbl = Haec_util.Int_tbl
end

module Wire = Haec_wire.Wire

module Obs = struct
  module Json = Haec_obs.Json
  module Metrics = Haec_obs.Metrics
  module Metrics_io = Haec_obs.Metrics_io
  module Span = Haec_obs.Span
  module Trace_export = Haec_obs.Trace_export
end

module Clock = struct
  module Vclock = Haec_vclock.Vclock
  module Lamport = Haec_vclock.Lamport
  module Dot = Haec_vclock.Dot
end

module Model = struct
  module Value = Haec_model.Value
  module Op = Haec_model.Op
  module Message = Haec_model.Message
  module Event = Haec_model.Event
  module Execution = Haec_model.Execution
  module Hb = Haec_model.Hb
  module Trace_io = Haec_model.Trace_io
end

module Spec = struct
  module Abstract = Haec_spec.Abstract
  module Spec = Haec_spec.Spec
end

module Consistency = struct
  module Causal = Haec_consistency.Causal
  module Occ = Haec_consistency.Occ
  module Eventual = Haec_consistency.Eventual
  module Compliance = Haec_consistency.Compliance
  module Session = Haec_consistency.Session
  module Causal_hist = Haec_consistency.Causal_hist
  module Search = Haec_consistency.Search
  module Online = Haec_consistency.Online
end

module Store = struct
  module Store_intf = Haec_store.Store_intf
  module Durable = Haec_store.Durable
  module Anti_entropy = Haec_store.Anti_entropy
  module Envelope = Haec_store.Envelope
  module Repair_plan = Haec_store.Repair_plan
  module Object_layer = Haec_store.Object_layer
  module Eager_core = Haec_store.Eager_core
  module Causal_core = Haec_store.Causal_core
  module Mvr_object = Haec_store.Mvr_object
  module Mvr_store = Haec_store.Mvr_store
  module Causal_mvr_store = Haec_store.Causal_mvr_store
  module Causal_naive_store = Haec_store.Causal_naive_store
  module Causal_reg_store = Haec_store.Causal_reg_store
  module Cops_store = Haec_store.Cops_store
  module Counter_store = Haec_store.Counter_store
  module Lww_store = Haec_store.Lww_store
  module Orset_store = Haec_store.Orset_store
  module Delayed_store = Haec_store.Delayed_store
  module Gossip_relay_store = Haec_store.Gossip_relay_store
  module Causal_orset_store = Haec_store.Causal_orset_store
  module Gsp_store = Haec_store.Gsp_store
  module State_mvr_store = Haec_store.State_mvr_store
end

module Sim = struct
  module Net_policy = Haec_sim.Net_policy
  module Fault_plan = Haec_sim.Fault_plan
  module Membership = Haec_sim.Membership
  module Runner = Haec_sim.Runner
  module Witness = Haec_sim.Witness
  module Workload = Haec_sim.Workload
  module Scenario = Haec_sim.Scenario
  module Checks = Haec_sim.Checks
  module Stack = Haec_sim.Stack
  module Chaos = Haec_sim.Chaos
  module Shrink = Haec_sim.Shrink
  module Telemetry = Haec_sim.Telemetry
end

module Live = struct
  module Spsc = Haec_live.Spsc
  module Load = Haec_live.Load
  module Cluster = Haec_live.Cluster
  module Faults = Haec_live.Faults
  module Stack = Haec_sim.Stack
end

module Viz = struct
  module Render = Haec_viz.Render
end

module Construction = struct
  module Revealing = Haec_construction.Revealing
  module Occ_gen = Haec_construction.Occ_gen
  module Theorem6 = Haec_construction.Theorem6
  module Theorem12 = Haec_construction.Theorem12
end

let version = "1.0.0"
