(** The store catalogue: one entry per store the command line names, with
    everything a command or an experiment needs to run it. [haec_cli]
    builds its [--store] choices from this table, and the chaos
    experiments (E18, E21, E22, E23) take their stores from it, so a
    store's module, workload, spec and check level are written once. *)

open Haec

type entry = {
  flag : string;  (** the [--store] value *)
  store : (module Store.Store_intf.S);
  mix : Sim.Workload.mix;  (** the simulator workload the store runs *)
  spec : Spec.Spec.t;  (** the object specification of its witness *)
  level : Sim.Chaos.level option;
      (** the checks its class guarantees under faults: causal stores are
          held to causal consistency, the LWW register only to
          convergence (its timestamp arbitration may disagree with trace
          order), every other store to witness correctness. OCC is never
          a store's level (Theorem 6). [None]: the store is not run under
          faults ([counter], [delayed], [gsp]). *)
}

val all : entry list
(** Every store, in [--store] documentation order. *)

val checked : entry list
(** The entries that have a level: the stores [chaos], [trace] and
    [serve] accept. *)

val find : string -> entry
(** The entry with this flag. Raises [Not_found] for an unknown flag. *)

val name : entry -> string
(** The store module's own name ([S.name]). *)

val chaos_seeds :
  ?adversarial:bool -> ?churn:bool -> entry -> seeds:int list -> Sim.Chaos.outcome list
(** {!Sim.Chaos.Make.run_seeds} on the entry's store, spec, mix and level,
    with every other parameter at its default. Raises [Invalid_argument]
    for an entry without a level. *)
