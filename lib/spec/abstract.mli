(** Abstract executions [(H, vis)] (Definition 4).

    [H] is a finite total order of [do] events; [vis] is an acyclic
    visibility relation. Events are addressed by their index in [H].

    Conditions (1) and (2) of Definition 4 (same-replica precedence
    implies visibility; visibility persists at a replica) make the events
    of one replica that see an event [i] a suffix of that replica's
    events. So vis is stored as its first member: a table of [n] ints per
    event, [fv(i, r)], the first do event at replica [r] that sees [i]
    ([max_int] if none does), and [vis i j] iff [fv(i, replica j) <= j].
    An execution of [N] events over [n] replicas takes [N·n] words, where
    one visibility bit per pair would take [N²] bits. The representation
    is immutable from the outside.

    Costs below are for [N] events over [n] replicas. *)

open Haec_util
open Haec_model

type t

val create : n:int -> Event.do_event array -> vis:(int * int) list -> t
(** [create ~n h ~vis] builds the abstract execution from the given
    visibility edges. Conditions (1) and (2) of Definition 4 (same-replica
    precedence implies visibility; visibility persists at a replica) hold in
    every abstract execution, so the given edges are closed under them
    automatically; condition (3) (visibility respects the order of [H]) is
    validated and raises [Invalid_argument] if violated. Every replica
    must be in [0, n).

    Cost: O(N·n + edges). *)

val create_unchecked : n:int -> Event.do_event array -> vis:(int * int) list -> t
(** Same closure, but skips the condition (3) validation. O(N·n + edges). *)

val of_deltas : n:int -> Event.do_event array -> delta:(int -> int list) -> t
(** [of_deltas ~n h ~delta] is [create ~n h ~vis] for the edges [(i, j)]
    with [i] in [delta j], read without building the edge list.
    O(N·n + edges). *)

val check_valid : t -> (unit, string) result
(** Condition (3): no event is visible to itself or to an earlier one.
    The error names the least such [j], then the least [i], as
    ["vis (i,j) does not respect H order"]. (1) and (2) hold by
    construction. Cost: O(N·n). *)

val n_replicas : t -> int
(** O(1), like {!length} and {!event}. *)

val length : t -> int

val event : t -> int -> Event.do_event

val events : t -> Event.do_event array
(** Fresh copy of [H]. O(N). *)

val vis : t -> int -> int -> bool
(** [vis a i j] iff event [i] is visible to event [j]. O(1). *)

val first_vis : t -> int -> int -> int
(** [first_vis a i r] is [fv(i, r)]: the first do event at replica [r]
    that sees event [i], [max_int] if none does. O(1). *)

val vis_preds : t -> int -> int list
(** All [i] with [vis a i j], ascending. O(N). *)

val vis_row : t -> int -> Bitset.t
(** The set [{i | vis a i j}] as a fresh bitset, for the reference
    algorithms that work on rows. O(N). *)

val vis_pairs : t -> (int * int) list
(** Every [(i, j)] with [vis a i j], by [j] then [i]. O(N²). *)

val prefix : t -> int -> t
(** [prefix a m]: the first [m] events with vis restricted (Definition 5).
    O(m·n). *)

val equal_equivalent : t -> t -> bool
(** Equivalence (Section 3.2): same per-replica sequences of do events.
    O(N·n). *)

val restrict_object : t -> int -> t * int array
(** [restrict_object a o] is [A|o] together with the map from new indices
    to original indices. Cost: O(N) to find the [m] events on [o], then
    O(m²) tests to project vis onto them. *)

val context : t -> int -> t * int
(** [context a e] is the operation context [ctxt(A, e)] of Definition 7 —
    an abstract execution over the events of [V_e] — together with the
    index of [e] inside it ([e] is always its last event).

    Cost: O(e) to collect the [m] members, then O(m²) tests to project
    vis onto them, independent of how many events [a] holds beyond [e]. *)

val is_transitive : t -> bool
(** Causal consistency of the visibility relation (Definition 12): [a]
    equals its {!transitive_closure}. O(N·n²); [a] must be valid. *)

val transitive_closure : t -> t
(** Same [H], vis replaced by its transitive closure.

    Whatever sees an event transitively also sees that event's
    same-replica predecessors, so the closed table is
    [fvc(i, r) = min(fv(i, r), min over s of fvc(fv(i, s), r))], one
    descending pass over [H]. Cost: O(N·n²). [a] must be valid
    ({!check_valid}). *)

val add_vis : t -> (int * int) list -> t
(** A copy with additional visibility edges (re-validated).
    O(N·n + edges). *)

val pp : Format.formatter -> t -> unit
(** Each event with its visible predecessors. O(N²). *)
