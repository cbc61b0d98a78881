(** Replicated object specifications (Figure 1).

    A specification is a function from an operation context (Definition 7)
    to the response the operation must return. The three specifications of
    Figure 1 — sequential read/write register, multi-valued register, and
    observed-remove set — are provided, plus an op-based counter as an
    extension exercising the same machinery on a different shape of object. *)

open Haec_model

(** Which Figure 1 object a specification describes. The batch checkers
    only ever call [apply]; the online checker
    ({!Haec_consistency.Online}) folds each shape incrementally instead,
    so it dispatches on this and never calls [apply]. *)
type shape = Register | Mvr | Orset | Counter

type t = {
  name : string;
  apply : ctx:Abstract.t -> target:int -> Op.response;
      (** [apply ~ctx ~target] computes [f_o(ctxt)] where [ctx] is the
          operation-context abstract execution and [target] the index of the
          operation being specified within it (always the last event). *)
  shape : shape;
      (** the specification [apply] implements; a wrapper that only
          instruments [apply] keeps it *)
}

val rw_register : t
(** Figure 1a: a read returns the value of the last write in [H']
    (last-writer-wins over the context's total order). *)

val mvr : t
(** Figure 1b: a read returns the set of values of writes in the context
    not visible to any later write (currently conflicting writes). *)

val orset : t
(** Figure 1c: a read returns values with an add not visible to any remove
    of the same value ("add wins" under concurrency). *)

val counter : t
(** Extension: reads return the number of [Add] minus [Remove] events in
    the context, as a singleton [Int]. *)

val response_in : t -> Abstract.t -> int -> Op.response
(** [response_in spec a e]: the response required of event [e] of abstract
    execution [a], i.e. [spec] applied to [ctxt(a, e)]. *)

val check_event : t -> Abstract.t -> int -> (unit, string) result
(** Does event [e]'s recorded response match the specification? *)

val mismatch : int -> Event.do_event -> expected:Op.response -> string
(** [mismatch e d ~expected]: the message {!check_event} reports when
    event [e] (the do event [d]) recorded [d.rval] instead of [expected]. *)

val check_correct : spec_of:(int -> t) -> Abstract.t -> (unit, string) result
(** Correctness (Definition 8): every event's response matches the
    specification of its object. [spec_of] maps object ids to specs. *)

val is_correct : spec_of:(int -> t) -> Abstract.t -> bool

val with_correct_responses : spec_of:(int -> t) -> Abstract.t -> Abstract.t
(** The same [(H, vis)] with every response replaced by the one the
    specification dictates. Used by generators that fix the visibility
    structure first and derive the responses from it. *)
