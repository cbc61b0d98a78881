(** Timed fault schedules for the simulator.

    A plan describes, against one run's virtual clock, which faults strike
    and when every one of them has healed. The runner retransmits nothing:
    every delivery a fault swallows is lost for good, and only the store's
    own repair protocol (anti-entropy) brings its content back.

    - {b crash windows}: replica [r] crashes at [at], losing its volatile
      state and every in-flight delivery addressed to it, and recovers from
      durable state at [recover_at];
    - {b link faults}: messages from [src] to [dst] whose delivery would
      fall inside the window are dropped by the network; the link carries
      traffic again once the window closes ("drops that heal");
    - {b corruption}: while active, each delivery is corrupted at the byte
      level with probability [p]; the checksummed transport envelope
      ({!Haec_wire.Wire.Frame}) must reject every such delivery as
      [Malformed], which loses it;
    - {b duplication}: while active, each delivery is additionally
      delivered [copies] extra times with probability [dup_p] — exactly-once
      transport is a fiction, so stores must deduplicate;
    - {b reordering}: while active, each delivery independently receives an
      extra latency in [0, jitter), so messages overtake each other within a
      bounded window;
    - {b dead links}: messages from [src] to [dst] at or after [from_] are
      lost, and the link never heals. Only a wire protocol (anti-entropy
      repair routed through live links) can converge such a run, so
      validation insists the undirected graph of replica pairs with both
      directions alive stays connected — the paper's
      sufficiently-connected-network assumption (Section 2).

    All healing faults heal strictly before [horizon], so a run driven past
    the horizon and then to quiescence must converge — that is the chaos
    harness's acceptance bar, met by the store's own repair protocol.

    A plan may additionally carry a {b churn} schedule: the replica set
    itself changes. Ids [0 .. initial-1] are members from time zero, ids
    [initial .. capacity-1] a reserve pool; a {!join_event} brings a
    reserve id in (booting empty, bootstrapped over anti-entropy), a
    {!leave_event} removes a member for good — gracefully (it flushes
    first) or as a crash-leave (it vanishes; repair is up to the
    survivors). Validation keeps churn runs convergeable: at least two
    members at all times, crash windows entirely inside their replica's
    membership, ids never reused, and every member set the run passes
    through stays connected over the dead links — a join must not need a
    validated-dead link to reach the others, and a leave must not sever
    the survivors' only relay path. *)

open Haec_util

type crash_window = { replica : int; at : float; recover_at : float }

type link_fault = { src : int; dst : int; from_ : float; until : float }

type corruption = { p : float; from_ : float; until : float }

type dup_window = { dup_p : float; copies : int; from_ : float; until : float }

type reorder_window = { jitter : float; from_ : float; until : float }

type dead_link = { src : int; dst : int; from_ : float }

type join_event = { replica : int; at : float }

type leave_event = { replica : int; at : float; graceful : bool }

type churn = {
  initial : int;  (** members at time zero: ids [0 .. initial-1] *)
  capacity : int;  (** the whole id space, reserve pool included *)
  joins : join_event list;
  leaves : leave_event list;
}

type t = {
  crashes : crash_window list;
  links : link_fault list;
  corruption : corruption option;
  dup : dup_window option;
  reorder : reorder_window option;
  dead : dead_link list;
  churn : churn option;
  horizon : float;
}

val none : t
(** The empty plan: no faults, horizon 0. *)

val make :
  ?crashes:crash_window list ->
  ?links:link_fault list ->
  ?corruption:corruption ->
  ?dup:dup_window ->
  ?reorder:reorder_window ->
  ?dead:dead_link list ->
  ?churn:churn ->
  ?n:int ->
  horizon:float ->
  unit ->
  t
(** Validates the plan: positive windows, per-replica crash windows
    disjoint, every healing fault healed by [horizon]. Dead links
    additionally require [~n] (the replica count) so the
    sufficiently-connected check can run: endpoints must be in range and
    the undirected graph of pairs with both directions alive must be
    connected. With [~churn], [~n] (if given) must equal the churn
    capacity, and the churn invariants of the module comment are enforced
    — including per-member-set connectivity over the dead links. Raises
    [Invalid_argument] otherwise. *)

val random :
  Rng.t ->
  n:int ->
  horizon:float ->
  ?max_crashes:int ->
  ?max_links:int ->
  ?corrupt_p:float ->
  ?adversarial:bool ->
  ?churn:bool ->
  unit ->
  t
(** A seeded random plan: up to [max_crashes] crash windows (at most one
    per replica), up to [max_links] link faults, and with probability 0.7 a
    corruption window with per-delivery probability [corrupt_p]
    (default 0.15). With [~adversarial:true] (default false) the plan may
    additionally carry a duplication window, a reordering window, and up to
    [n] dead links admitted only while the network stays sufficiently
    connected. With [~churn:true] (default false), [n] is the {e initial}
    member count: the plan gains 1–2 reserve ids that join mid-run and up
    to two leaves (graceful or crash-leave, drawn from replicas without a
    crash window plus the joined reserves, admitted greedily while the
    member sets stay connected). Deterministic in the generator state; the
    adversarial draws are consumed strictly after the baseline ones and
    the churn draws strictly after the adversarial ones, so for any
    generator state the [~adversarial:false ~churn:false] plan is
    bit-identical to the plan this function produced before either
    existed. *)

type event = {
  at : float;
  what : [ `Crash of int | `Recover of int | `Join of int | `Leave of int * bool ];
}

val events : t -> event list
(** Crash, recover, join, and leave instants, sorted by time. [`Leave
    (r, graceful)] distinguishes a graceful leave from a crash-leave. *)

val link_dropped : t -> src:int -> dst:int -> at:float -> float option
(** If a delivery on [src -> dst] at time [at] falls in a link fault
    window, the time at which that window heals. *)

val link_dead : t -> src:int -> dst:int -> at:float -> bool
(** Whether [src -> dst] is permanently dead at time [at]. *)

val corruption_p : t -> now:float -> float
(** The per-delivery corruption probability in force at [now] (0 outside
    any corruption window). *)

val duplication : t -> now:float -> (float * int) option
(** [(dup_p, copies)] if a duplication window is in force at [now]. *)

val reorder_jitter : t -> now:float -> float
(** The reordering jitter bound in force at [now] (0 outside any
    reordering window: deliveries keep their nominal latency). *)

val active : t -> now:float -> bool
(** Whether any fault can still strike at or after [now]. A plan with dead
    links is active forever. *)

val scaled : t -> factor:float -> t
(** Every time field (window bounds, recovery instants, churn instants,
    the reorder jitter, the horizon) multiplied by [factor] > 0. Scaling
    preserves validity, so this is how a plan authored against an abstract
    horizon is mapped onto a live run's wall-clock duration: [scaled plan
    ~factor:(duration /. plan.horizon)] makes the plan span the load
    phase in seconds. Raises [Invalid_argument] on a non-positive or
    non-finite factor. *)

val partition_links : a:int list -> b:int list -> from_:float -> until:float -> link_fault list
(** The link faults realizing a full bidirectional partition between
    replica groups [a] and [b] over [\[from_, until)]: one fault per
    directed cross pair. Feed the result to {!make}, which will reject
    windows that never heal. Raises [Invalid_argument] if either side is
    empty, the sides intersect, or the window is empty. *)

val mutate : Rng.t -> string -> string
(** A random byte-level mutation: flip a byte, truncate, append garbage,
    or zero a short run. Never the identity: the one shape that could
    return its input unchanged (zeroing an already-zero run) falls back to
    a byte flip, so the result always differs from the input. *)

val pp : Format.formatter -> t -> unit
