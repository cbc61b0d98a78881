(** One-stop validation of a simulated run.

    Bundles the paper's properties as applied to a finished run: structural
    well-formedness (Definition 1), compliance with the witness abstract
    execution (Definition 9), correctness of that execution (Definition 8),
    causal consistency (Definition 12), OCC (Definition 18), and the
    finite-execution eventual-consistency surrogate (Corollary 4).

    One core computes every report, from one
    {!Haec_consistency.Online} pass over the witness deltas in [H] order:
    [correct], [causal], [occ] (over the closed pasts, never a
    transitive closure) and [eventual] (over the raw witness) with
    per-replica state, and [complies] from the do events fed per
    replica. No check reads a visibility row. A caller that recorded
    the deltas calls {!validate_deltas} ([Chaos.run_plan], [simulate]
    and the experiment harness, through {!Runner.Make.witness_deltas})
    and never builds the witness; every other caller ([audit], [replay],
    [serve --check]) calls {!validate}, which reads the deltas
    off the witness's first-visibility table by
    {!Haec_consistency.Online.iter_deltas}. The
    batch checkers of [Haec_spec] and [Haec_consistency] (operation
    contexts over the witness and its closure, OCC over the closure, a
    scan of the witness for eventual visibility, compliance against
    [H]) give the same report field by field and are the reference the
    tests hold this one to. *)

open Haec_model
open Haec_spec

type occ =
  | Occ_holds
  | Occ_violated of string
      (** Definition 18 violations of the closed witness: the count and
          the first [(read, w0, w1)] without witnesses *)
  | Occ_not_applicable of string
      (** a read returned a value no write, or several, wrote: why, and
          ["no writes"] when the run has none (an OR-set's) *)

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
  occ : occ;
  eventual : (unit, string) result;
}

val occ_text : occ -> string
(** ["ok"], the violations, or ["n/a (why)"]. *)

val failures : report -> (string * string) list
(** [(check, reason)] for each check that did not pass: a failed check,
    or OCC that does not apply, whose reason is its {!occ_text}. *)

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
    the eventual check vacuous). The deltas are read off [witness] by
    {!Haec_consistency.Online.iter_deltas}. *)

val validate_deltas :
  ?spec_of:(int -> Spec.t) ->
  ?quiescent_at:int ->
  n:int ->
  deltas:((Event.do_event -> int list -> unit) -> unit) ->
  Execution.t ->
  report
(** The same report from the deltas alone, over replicas [0 .. n-1]:
    [validate exec witness] is [validate_deltas ~n:(Abstract.n_replicas
    witness) ~deltas:(Online.iter_deltas witness) exec]. No abstract
    execution is built. *)
