(** One-stop validation of a simulated run.

    Bundles the paper's properties as applied to a finished run: structural
    well-formedness (Definition 1), compliance with the witness abstract
    execution (Definition 9), correctness of that execution (Definition 8),
    causal consistency (Definition 12), OCC (Definition 18), and the
    finite-execution eventual-consistency surrogate (Corollary 4).

    One path computes every report. [correct] and [causal] come from
    {!Haec_consistency.Online}, fed the witness deltas in [H] order: one
    pass with per-replica state, no operation context per do event. A
    caller that recorded the deltas passes them ([Chaos.run_plan] and
    [simulate], through {!Runner.Make.witness_deltas}); every other
    caller ([audit], [replay], [serve --check], the experiment harness)
    gets them from the witness rows by
    {!Haec_consistency.Online.iter_deltas}. [well-formed], [complies],
    [occ] (over the transitive closure) and [eventual] are computed over
    the witness directly. The batch {!Haec_spec.Spec.check_correct} on
    the witness and on its closure gives the same report field by field
    and is the reference the tests hold this one to. *)

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
  ?deltas:((Event.do_event -> int list -> unit) -> unit) ->
  Execution.t ->
  Abstract.t ->
  report
(** [validate exec witness] runs all checks. [spec_of] defaults to the MVR
    specification for every object. [quiescent_at] is the H index from
    which the execution is post-quiescence (defaults to [length], making
    the eventual check vacuous). [deltas f] calls [f] on [witness]'s do
    events in [H] order with their deltas ({!Runner.Make.witness_deltas});
    it defaults to {!Haec_consistency.Online.iter_deltas} [witness].
    Raises [Invalid_argument] if [deltas] yields a different number of
    events than [witness] holds. *)
