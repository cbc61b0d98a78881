(* Shared shorthand for the test suite. *)

open Haec

module Value = Model.Value
module Op = Model.Op
module Event = Model.Event
module Execution = Model.Execution
module Message = Model.Message
module Hb = Model.Hb
module Abstract = Spec.Abstract
module Specf = Spec.Spec
module Causal = Consistency.Causal
module Occ = Consistency.Occ
module Eventual = Consistency.Eventual
module Compliance = Consistency.Compliance
module Search = Consistency.Search
module Rng = Util.Rng

let vi n = Value.Int n

(* do-event constructors *)
let w_ replica obj v = { Event.replica; obj; op = Op.Write (vi v); rval = Op.Ok }

let rd_ replica obj vs = { Event.replica; obj; op = Op.Read; rval = Op.vals (List.map vi vs) }

let add_ replica obj v = { Event.replica; obj; op = Op.Add (vi v); rval = Op.Ok }

let rm_ replica obj v = { Event.replica; obj; op = Op.Remove (vi v); rval = Op.Ok }

let mvr_spec (_ : int) = Specf.mvr

let orset_spec (_ : int) = Specf.orset

let check_response = Alcotest.testable Op.pp_response Op.equal_response

let resp vs = Op.vals (List.map vi vs)

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* run an alcotest case *)
let tc name f = Alcotest.test_case name `Quick f

let check_ok name = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

(* The batch verdicts [Consistency.Online.check] must reproduce exactly. *)
let batch_verdicts ~spec_of a =
  ( Specf.check_correct ~spec_of a,
    match Specf.check_correct ~spec_of (Abstract.transitive_closure a) with
    | Ok () -> Ok ()
    | Error m -> Error ("closed witness incorrect: " ^ m) )

(* The batch report [Sim.Checks.validate] must reproduce field by field:
   [correct] and [causal] from one operation context per do event, over
   the witness and over its transitive closure, and the other four
   checks as [validate] computes them. *)
let batch_report ?(spec_of = mvr_spec) ?quiescent_at exec witness =
  let quiescent_at = Option.value quiescent_at ~default:(Abstract.length witness) in
  let correct, causal = batch_verdicts ~spec_of witness in
  {
    Sim.Checks.well_formed = Execution.check_well_formed exec;
    complies = Compliance.check exec witness;
    correct;
    causal;
    occ =
      (match Occ.check (Abstract.transitive_closure witness) with
      | Error m -> Error ("occ check unsupported: " ^ m)
      | Ok [] -> Ok ()
      | Ok (v :: _ as vs) ->
        Error
          (Printf.sprintf "%d OCC violations; first: read %d over writes (%d,%d)"
             (List.length vs) v.Occ.read v.Occ.w0 v.Occ.w1));
    eventual = Eventual.check_visible_from witness ~quiescent_at;
  }

(* The same execution with one event's response replaced by a different
   one. *)
let perturb_response rng a =
  let h = Abstract.events a in
  let e = Rng.int rng (Array.length h) in
  let d = h.(e) in
  let rval =
    match d.Event.rval with
    | Op.Ok -> Op.vals []
    | Op.Vals [] -> Op.vals [ vi 999 ]
    | Op.Vals (_ :: rest) -> if Rng.bool rng then Op.Vals rest else Op.Ok
  in
  h.(e) <- { d with Event.rval };
  Abstract.create ~n:(Abstract.n_replicas a) h ~vis:(Abstract.vis_pairs a)
