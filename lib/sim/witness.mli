(** Witness recording as per-replica visibility deltas — the one
    recorder behind {!Runner.Make.witness_abstract} and the live
    cluster's capture.

    A store's {!Haec_store.Store_intf.witness} names every update visible
    to an operation, which for the causal stores is every update the
    replica has ever incorporated (as one frontier per object). The
    witness abstract execution does
    not need that: {!Haec_spec.Abstract.create} unions each event's row
    with the row of the previous event at the same replica (conditions
    (1) and (2) of Definition 4), so an event only has to contribute the
    updates its replica had not already witnessed at an earlier do
    event. Recording proceeds in two stages:

    - {b at the replica}, a {!seen} filter strips a witness down to the
      [(obj, dot)] keys this replica sees for the first time ({!fresh});
    - {b in execution order}, {!record} resolves those keys against the
      dots earlier do events issued and collects the [(i, j)] visibility
      edges.

    Because the filter also marks the replica's own update dots,
    its own earlier updates never reappear — program order covers them.
    The resulting {!abstract} is exactly the one obtained by resolving
    every full witness: a key dropped from event [j]'s witness was in
    the witness of some earlier event at the same replica, hence already
    in [j]'s inherited row. The per-replica delta is also exactly the
    set of "first time this observer witnesses update [i]" pairs that
    visibility-lag telemetry needs. *)

open Haec_model

(** {2 Per replica} *)

type seen
(** The keys one replica has witnessed or issued so far: per (object,
    origin) a high-water count, below which every seq is seen, and a
    table of the seen seqs above it. A key that extends the prefix
    absorbs the table entries it makes contiguous, so for stores whose
    per-object dots are contiguous per origin (every MVR store) the
    table stays empty and [seen] costs one count per (object, origin). *)

val seen : unit -> seen

type delta = {
  keys : (int * Haec_vclock.Dot.t) list;
      (** the [(obj, dot)] keys this replica sees for the first time *)
  self : Haec_vclock.Dot.t option;  (** the operation's own update dot *)
}
(** One operation's witness cut to what is new at its replica. *)

val no_delta : delta

val fresh : seen -> obj:int -> Haec_store.Store_intf.witness -> delta
(** [fresh s ~obj w] is the keys of
    {!Haec_store.Store_intf.visible_keys}[ w] that [s] has not seen, in
    that order and without repeats, and marks them seen; it then marks
    the operation's own update [(obj, self)]. [self] is passed through.
    A frontier costs one comparison per origin plus one step per new
    key, never an enumeration of what was seen before. Dot seqs start
    at 1. *)

(** {2 In execution order} *)

type t
(** The do events recorded so far, their self dots in a table keyed on
    [(obj, dot)] with a monomorphic hash, and the visibility edges
    resolved from their deltas. *)

val create : unit -> t

val record : t -> ?on_new:(int -> int -> unit) -> Event.do_event -> delta -> unit
(** [record t d w] appends do event [d] at index [j], the number of do
    events recorded before it. Each
    key of [w.keys] (a {!fresh} delta) that resolves to an earlier do
    event [i] adds the edge [(i, j)] and calls [on_new i obj]; keys no
    earlier event issued are ignored. Then [w.self], if any, is
    registered as [d]'s dot on [d.obj]. *)

val event : t -> int -> Event.do_event
(** The [i]th recorded do event. *)

val iter : t -> (Event.do_event -> int list -> unit) -> unit
(** [iter t f] calls [f d delta] for every recorded do event in [H]
    order, where [delta] holds the indices of the earlier do events its
    {!fresh} delta resolved to, in no particular order: the input
    {!Haec_consistency.Online.feed} takes. *)

val abstract : t -> n:int -> Haec_spec.Abstract.t
(** The witness abstract execution over the recorded do events
    ({!Haec_spec.Abstract.create}, validity checked). *)
