(** Eventual consistency on finite prefixes.

    Definition 13 quantifies over infinite abstract executions: every event
    is invisible to only finitely many later same-object events. On the
    finite executions we can actually run, we use the paper's own
    finite-execution characterization for write-propagating stores
    (Definition 17 / Lemma 3 / Corollary 4): after the execution is driven
    to quiescence, every operation must be visible to subsequent same-object
    operations, and reads agree across replicas. *)

open Haec_model
open Haec_spec

val check_visible_from : Abstract.t -> quiescent_at:int -> (unit, string) result
(** Every update event with index [< quiescent_at] must be visible to every
    same-object event with index [>= quiescent_at]. This is the visibility
    half of the Corollary 4 surrogate. *)

val not_visible : update:int -> event:int -> obj:int -> string
(** The message {!check_visible_from} reports for its first miss, the
    least [(update, event)] pair. *)

val is_visible_from : Abstract.t -> quiescent_at:int -> bool

val invisibility_count : Abstract.t -> int -> int
(** [invisibility_count a e]: how many later same-object events do not see
    event [e]. Definition 13 demands this be finite for each [e] in an
    infinite execution; on prefixes it is a diagnostic. *)

val check_reads_agree : Execution.t -> suffix:int -> (unit, string) result
(** The read-agreement half of Lemma 3: among the last [suffix] events,
    reads of the same object must return the same response at every
    replica. Used after the simulator drives a run to quiescence and
    appends one read per object per replica. *)
