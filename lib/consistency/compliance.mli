(** Compliance between concrete and abstract executions (Definition 9).

    Execution [α] complies with abstract execution [A] iff for every
    replica, the do events of [α] at that replica equal [H] restricted to
    that replica — same objects, operations and responses, in the same
    order. *)

open Haec_model
open Haec_spec

val check : Execution.t -> Abstract.t -> (unit, string) result

val check_sequences : Execution.t -> Event.do_event list array -> (unit, string) result
(** [check_sequences exec hs]: the same check against [H] given as its
    per-replica projections, [hs.(r)] holding replica [r]'s do events in
    order, so [H] need not be held as an abstract execution. The replica
    count is [Array.length hs]. *)

val complies : Execution.t -> Abstract.t -> bool

val abstract_of_execution : Execution.t -> vis:(int * int) list -> Abstract.t
(** Build an abstract execution that [exec] complies with by construction:
    [H] is the do events of [exec] in execution order, [vis] is given in
    terms of do-event positions (0-based, execution order). *)

val do_count : Execution.t -> int
