(** One-stop validation of a simulated run.

    Bundles the paper's properties as applied to a finished run: structural
    well-formedness (Definition 1), compliance with the witness abstract
    execution (Definition 9), correctness of that execution (Definition 8),
    causal consistency (Definition 12), OCC (Definition 18), and the
    finite-execution eventual-consistency surrogate (Corollary 4).

    Two entry points build the same {!report}:
    - {!validate} computes every check in batch over the witness
      abstract execution. It is the reference, and [audit], [replay],
      [serve --check], the experiment harness and the tests use it.
    - {!validate_online} computes [correct] and [causal] with
      {!Haec_consistency.Online} from the witness deltas, in one pass
      with per-replica state, and the other four checks exactly as
      {!validate} does. {!Chaos} uses it for every seed. *)

open Haec_model
open Haec_spec

type report = {
  well_formed : (unit, string) result;
  complies : (unit, string) result;
  correct : (unit, string) result;
  causal : (unit, string) result;
      (** correctness of the transitive closure of the witness: the closure
          is causally consistent by construction and still complies, so the
          run complies with a correct causally consistent abstract execution
          iff this holds. A causal anomaly (effect exposed before its cause)
          surfaces as a closed context contradicting a recorded response. *)
  occ : (unit, string) result;
      (** Definition 18 violations of the closed witness *)
  eventual : (unit, string) result;
}

val all_ok : report -> bool

val failures : report -> (string * string) list
(** [(check, reason)] for each failed check. *)

val pp_report : Format.formatter -> report -> unit

val validate :
  ?spec_of:(int -> Spec.t) ->
  ?quiescent_at:int ->
  Execution.t ->
  Abstract.t ->
  report
(** [validate exec witness] runs all checks. [spec_of] defaults to the MVR
    specification for every object. [quiescent_at] is the H index from
    which the execution is post-quiescence (defaults to [length], making
    the eventual check vacuous). *)

val validate_online :
  ?spec_of:(int -> Spec.t) ->
  ?quiescent_at:int ->
  Execution.t ->
  Abstract.t ->
  deltas:((Event.do_event -> int list -> unit) -> unit) ->
  report
(** [validate_online exec witness ~deltas]: the report {!validate} gives,
    field by field, where [deltas f] calls [f] on [witness]'s do events
    in [H] order with their deltas ({!Runner.Make.witness_deltas}, or
    {!Haec_consistency.Online.iter_deltas} for a witness that was not
    recorded as deltas). Raises [Invalid_argument] if [deltas] yields a
    different number of events than [witness] holds. *)
