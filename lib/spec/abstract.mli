(** Abstract executions [(H, vis)] (Definition 4).

    [H] is a finite total order of [do] events; [vis] is an acyclic
    visibility relation. Events are addressed by their index in [H].
    The representation is immutable from the outside; visibility rows are
    bitsets so that transitive closures and the OCC check stay cheap. *)

open Haec_util
open Haec_model

type t

val create : n:int -> Event.do_event array -> vis:(int * int) list -> t
(** [create ~n h ~vis] builds the abstract execution from the given
    visibility edges. Conditions (1) and (2) of Definition 4 (same-replica
    precedence implies visibility; visibility persists at a replica) hold in
    every abstract execution, so the given edges are closed under them
    automatically; condition (3) (visibility respects the order of [H]) is
    validated and raises [Invalid_argument] if violated. *)

val create_unchecked : n:int -> Event.do_event array -> vis:(int * int) list -> t
(** Same closure, but skips the condition (3) validation. *)

val check_valid : t -> (unit, string) result

val n_replicas : t -> int

val length : t -> int

val event : t -> int -> Event.do_event

val events : t -> Event.do_event array
(** Fresh copy of [H]. *)

val vis : t -> int -> int -> bool
(** [vis a i j] iff event [i] is visible to event [j]. *)

val vis_preds : t -> int -> int list
(** All [i] with [vis a i j], ascending. *)

val vis_row : t -> int -> Bitset.t
(** The set [{i | vis a i j}] as a fresh bitset. *)

val vis_pairs : t -> (int * int) list

val prefix : t -> int -> t
(** [prefix a m]: the first [m] events with vis restricted (Definition 5). *)

val equal_equivalent : t -> t -> bool
(** Equivalence (Section 3.2): same per-replica sequences of do events. *)

val restrict_object : t -> int -> t * int array
(** [restrict_object a o] is [A|o] together with the map from new indices
    to original indices. Cost: O(N) to find the [m] events on [o], then
    O(m²) bit tests. *)

val context : t -> int -> t * int
(** [context a e] is the operation context [ctxt(A, e)] of Definition 7 —
    an abstract execution over the events of [V_e] — together with the
    index of [e] inside it ([e] is always its last event).

    Cost: O(e) to collect the [m] members, then O(m²) bit tests to project
    vis onto them, independent of how many events [a] holds beyond [e]. *)

val is_transitive : t -> bool
(** Causal consistency of the visibility relation (Definition 12). *)

val transitive_closure : t -> t
(** Same [H], vis replaced by its transitive closure.

    Cost: one ascending pass over [H]. Each of the [N] rows starts from
    the closed row of its replica's previous event and visits only the
    members outside it (for a witness, about its delta), newest first,
    unioning the closed row of each not yet reached, at O(N/63) words
    per union. *)

val add_vis : t -> (int * int) list -> t
(** A copy with additional visibility edges (re-validated). *)

val writes_visible_to : t -> int -> int list
(** Indices of update events on the same object visible to event [j]. *)

val pp : Format.formatter -> t -> unit
