(** Deterministic parallel sweeps over OCaml 5 domains.

    The experiment harness, the chaos harness, and the benchmark driver
    all run hundreds of independent seeded tasks; this module fans them
    out over a hand-rolled domain pool (an atomic work index, no
    domainslib dependency) while keeping the results {e bit-identical}
    to the sequential path regardless of the domain count.

    The determinism contract, which every task must honor:

    - a task's result depends only on its input (for seed sweeps: the
      seed, through a private {!Rng.t}), never on shared mutable state
      or on wall-clock time;
    - the library's one cross-call cache (the wire scratch encoder) is
      domain-local ([Domain.DLS]), and every counter lives in the
      replica state it counts, so tasks on different domains cannot
      observe each other;
    - results land in per-task slots and are published by
      [Domain.join], so the caller reads them race-free and in input
      order.

    See DESIGN.md "Parallel sweep driver" for the full argument. *)

val available_domains : unit -> int
(** The hardware's recommended domain count. *)

val set_default_domains : int -> unit
(** Set the pool size used when [?domains] is omitted (the CLI's [-j]).
    Clamped to at least 1. *)

val default_domains : unit -> int
(** The configured default, or {!available_domains} if never set. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f arr] is [Array.map f arr], computed by [domains]
    domains (default: {!default_domains}, clamped to the array length).
    Result order matches input order; if any task raises, the exception
    of the lowest-index failing task is re-raised after all domains
    join. With [~domains:1] no domain is spawned. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

val run_seeds : ?domains:int -> seeds:int list -> (rng:Rng.t -> seed:int -> 'a) -> 'a list
(** Seed sweep: each seed gets a fresh private [Rng.create seed], so the
    per-seed results cannot depend on how seeds are interleaved across
    domains — the output equals the sequential [List.map]. *)
