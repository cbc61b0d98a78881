(** Wall-clock fault injection for the live cluster.

    A {!t} binds a {!Haec_sim.Fault_plan.t} — whose times are interpreted
    as {e wall seconds relative to the start of the load phase} — to a
    run: the coordinator calls {!start} with the load-phase origin just
    before opening the gate, and thereafter every sender interposes
    {!transform} on each sealed frame at the ring boundary. Plans
    authored against an abstract horizon (the chaos CLI's seeded
    [Fault_plan.random] schedules) are first mapped onto the run duration
    with {!Haec_sim.Fault_plan.scaled}, so [--adversarial] plans work
    unchanged.

    Fault decisions are per directed link, each with its own RNG and
    mutable counters owned by the {e source} domain — the layer shares
    nothing across domains except the immutable plan and the origin
    timestamp published before the domains start. On top of the plan, a
    uniform [drop_p] loses each delivery independently for the whole run
    (the live analogue of a lossy NIC; [Fault_plan] has no probabilistic
    drop of its own).

    Crash windows are realized by {!Cluster}: {!crash_schedule} gives a
    replica its wall-clock teardown/restart instants, and a sender
    consults the shared liveness array rather than this module. Churn
    plans are rejected — the live cluster has a fixed membership. *)

module Fault_plan := Haec_sim.Fault_plan

type t

type totals = {
  drops : int;  (** deliveries lost: link windows, dead links, [drop_p] *)
  delays : int;  (** deliveries given extra latency by a reorder window *)
  dups : int;  (** extra copies injected by a duplication window *)
  corrupts : int;  (** deliveries byte-mutated by a corruption window *)
  crash_lost : int;
      (** frames addressed to (or queued for) a crashed replica, plus
          inbox frames a restarting replica discards — the permanent
          losses only anti-entropy can heal *)
}

val make : plan:Fault_plan.t -> drop_p:float -> seed:int -> n:int -> t
(** Raises [Invalid_argument] if [drop_p] is outside [0, 1), the plan
    carries churn, or a crash/link endpoint is out of range for [n]. *)

val plan : t -> Fault_plan.t

val start : t -> t0:float -> unit
(** Bind the wall-clock origin of plan time. Must happen-before any other
    query; the cluster calls it before releasing the domain gate. *)

val transform :
  t -> src:int -> dst:int -> now:float -> string -> (float * string) list
(** The deliveries resulting from pushing [bytes] on [src -> dst] at wall
    time [now]: [[]] when dropped; otherwise one entry per copy (original
    plus duplicates), each with its release time ([> now] when delayed by
    a reorder window) and its possibly-corrupted bytes. Must be called
    only from domain [src] — it mutates that link's RNG and counters. *)

val note_crash_lost : t -> src:int -> dst:int -> unit
(** Count a frame dropped because [dst] is inside a crash window. Called
    only from domain [src] (the link's owner); frames a restarting
    receiver discards from its inbox are counted node-locally by the
    cluster instead, so no link cell ever has two writers. *)

val reachable : t -> src:int -> dst:int -> now:float -> bool
(** Whether the directed link carries frames at wall time [now]: not
    validated-dead and not inside a link-fault window. Probabilistic loss
    ([drop_p], corruption) does not count — a lossy link is still a
    link. Drives the coordinator's reachable-member-set computation. *)

val down : t -> replica:int -> now:float -> bool
(** Whether [replica] is inside a crash window at wall time [now]. *)

val crash_schedule : t -> replica:int -> (float * float) array
(** [replica]'s crash windows as wall-clock [(at, recover_at)] pairs,
    ascending. Valid only after {!start}. *)

val downtime : t -> from_:float -> until:float -> float
(** Total replica-seconds of scheduled crash downtime overlapping the
    wall interval [[from_, until)] — the numerator of the availability
    fraction. *)

val last_heal : t -> float
(** The wall time by which every healing fault has healed: crash
    recoveries, link/corruption/duplication windows, and reorder windows
    extended by their jitter (a delayed frame can land that much after
    the window closes). Dead links never heal and do not extend it. At
    least the load-phase origin. *)

val totals : t -> totals
(** Aggregated over all links. Call after the domains have joined. *)
