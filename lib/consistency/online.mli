(** Online checking of correctness, causal consistency, OCC and eventual
    consistency over witness deltas.

    The batch checks build an operation context per do event: for the
    witness, {!Haec_spec.Spec.check_correct} (Definition 8); for causal
    consistency, the same over {!Haec_spec.Abstract.transitive_closure}
    (Definition 12, checked as "the closure is still correct"). This
    checker gives the same two verdicts from one pass in [H] order. It
    is fed each do event with its {e delta}: the events newly visible to
    it beyond its replica's previous event and that event's row. That is
    what {!Haec_sim.Witness} records. The row of [e] is then
    [row(prev) ∪ {prev} ∪ delta(e)].

    {b Closed pasts are vectors.} By condition (1) of Definition 4, the
    closed past of an event, restricted to one replica, is a prefix of
    that replica's events. So it is one count per replica, and
    [closed(e) = closed(prev) ∪ {prev} ∪ ⋃_{i ∈ delta(e)} (closed(i) ∪ {i})].
    The events entering a replica's closed contexts at [e] are enumerated
    from per-replica event lists.

    {b Raw rows need exceptions.} The raw witness is not transitive, so a
    raw row is not a prefix. Restricted to the updates on one object, it
    is kept as a per-origin prefix count plus the members above it (the
    "vector plus exceptions" summary Theorem 12 says causal metadata
    cannot beat asymptotically). Each update keeps its raw row and its
    closed vector from issue time, for later domination tests.

    {b One fold per specification shape}, per (replica, object) and per
    path, dispatched on {!Haec_spec.Spec.shape}: the register keeps the
    context write with the highest [H] index; the MVR keeps the union of
    its context writes' rows and the writes outside it; the OR-set does
    the same per value, for removes and the adds they do not hide; the
    counter keeps a count. Because the raw witness is not transitive, a
    raw write hidden by a dominated write is still hidden, which is why
    the folds test against the union of rows and not only the frontier.
    [apply] is never called. A fold stops at its check's first failure;
    the closed vectors and the raw rows are kept for every event, since
    OCC and eventual consistency read them.

    {b OCC from closed pasts.} {!occ} resolves the multi-value reads at
    the end, when every event's closed past is known (a read may return a
    value written later in [H]). For a returned pair, side [wi] needs an
    update [wi'] on another object in [past(other) \ past(wi)] whose past
    holds every update on its object in [past(wi)]. Pasts are
    down-closed, so that is, per replica, the last such update below
    [past(wi)]. Along one replica's updates on an object pasts grow, so
    the condition is monotone and the last update below [past(other)]
    decides for that replica. Each pair costs O(objects · n² · log u)
    for [u] updates per (replica, object); no visibility row is read.

    {b Eventual from raw rows.} With [quiescent_at], each later event
    compares its replica's raw row on its object, per origin, with the
    count of that origin's updates on the object fed before
    [quiescent_at]: O(n) per post-quiescence event.

    {b Contract.} For any abstract execution [a] fed its deltas in [H]
    order, {!correct} equals [Spec.check_correct ~spec_of a], and
    {!causal} equals that check on [Abstract.transitive_closure a] with
    its message prefixed by ["closed witness incorrect: "]: the same
    [Ok]/[Error], the same first failing event and the same message.
    Each reports its own first failure. {!occ} equals
    [Occ.check (Abstract.transitive_closure a)] — the same violations in
    the same order, or the same [Error] for a value written twice or
    never — and {!eventual} equals
    [Eventual.check_visible_from a ~quiescent_at], message included.

    {b Cost.} O(n) per do event plus O(n) per delta entry for the closed
    vectors; each update enters each replica's contexts once per path;
    MVR and OR-set domination unions one row and filters the surviving
    writes. Memory is O(n) per event, plus the raw rows' exceptions. *)

open Haec_model
open Haec_spec

type t

val create : ?quiescent_at:int -> n:int -> spec_of:(int -> Spec.t) -> unit -> t
(** A checker for executions over replicas [0 .. n-1]. [spec_of] maps
    object ids to specifications, as in {!Haec_spec.Spec.check_correct}.
    [quiescent_at] is the [H] index from which the execution is
    post-quiescence, as in {!Eventual.check_visible_from}; by default no
    event is, and {!eventual} holds vacuously. *)

val feed : t -> Event.do_event -> int list -> unit
(** [feed t d delta] appends do event [d] at index [length t]. [delta]
    holds the indices of earlier events newly visible to [d]; members
    its replica's previous event already saw are ignored. Raises
    [Invalid_argument] if [d]'s replica or an index is out of range. *)

val correct : t -> (unit, string) result
(** Correctness of the witness fed so far. *)

val causal : t -> (unit, string) result
(** Correctness of its transitive closure. *)

val occ : t -> (Occ.violation list, string) result
(** The OCC violations of its transitive closure, as {!Occ.check}. Costs
    O(objects · n² · log) per returned pair; call it once the execution
    is fed. *)

val eventual : t -> (unit, string) result
(** Every update fed before [quiescent_at] is visible to every later
    event on its object. *)

val length : t -> int
(** Do events fed so far. *)

val iter_deltas : Abstract.t -> (Event.do_event -> int list -> unit) -> unit
(** The deltas of an abstract execution, in [H] order: for each event
    [j], the members of its row outside its replica's previous event and
    that event's row, computed as [row(j) \ row(prev) \ {prev}] a word
    at a time. Costs O(m²/63) words for [m] events; for executions that
    were not recorded as deltas. *)

val check : spec_of:(int -> Spec.t) -> Abstract.t -> (unit, string) result * (unit, string) result
(** [(correct, causal)] of [a], fed through {!iter_deltas}. *)
