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
      | Error m ->
        let write i = match (Abstract.event witness i).Event.op with Op.Write _ -> true | _ -> false in
        Sim.Checks.Occ_not_applicable
          (if List.exists write (List.init (Abstract.length witness) Fun.id) then m
           else "no writes")
      | Ok [] -> Occ_holds
      | Ok (v :: _ as vs) ->
        Occ_violated
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

(* The dense representation [Abstract] used before its first-visibility
   table, frozen as the reference the table must agree with: one bitset
   row of visible predecessors per event. Kept verbatim but for
   [iter_deltas], the row diff [Online.iter_deltas] used to compute, whose
   word-wise [Bitset.diff_into] left the library with it. *)
module Dense_abstract = struct
  module Bitset = Util.Bitset

  type t = { n : int; h : Event.do_event array; rows : Bitset.t array }

  let length t = Array.length t.h

  let events t = Array.copy t.h

  let vis t i j = Bitset.get t.rows.(j) i

  let vis_preds t j = Bitset.to_list t.rows.(j)

  let vis_row t j = Bitset.copy t.rows.(j)

  let vis_pairs t =
    let acc = ref [] in
    for j = Array.length t.h - 1 downto 0 do
      List.iter (fun i -> acc := (i, j) :: !acc) (List.rev (vis_preds t j))
    done;
    !acc

  let check_valid t =
    let len = Array.length t.h in
    let exception Bad of string in
    let last_at = Hashtbl.create 8 in
    try
      for j = 0 to len - 1 do
        (match Bitset.min_elt_from t.rows.(j) j with
        | Some i -> raise (Bad (Printf.sprintf "vis (%d,%d) does not respect H order" i j))
        | None -> ());
        let r = t.h.(j).Event.replica in
        (match Hashtbl.find_opt last_at r with
        | Some i ->
          if not (Bitset.get t.rows.(j) i) then
            raise (Bad (Printf.sprintf "same-replica events %d,%d not vis-related" i j));
          if not (Bitset.is_subset t.rows.(i) t.rows.(j)) then
            raise (Bad (Printf.sprintf "visibility not persistent between %d and %d" i j))
        | None -> ());
        Hashtbl.replace last_at r j
      done;
      Ok ()
    with Bad m -> Error m

  let create_unchecked ~n h ~vis =
    if n <= 0 then invalid_arg "Abstract.create: n must be positive";
    let len = Array.length h in
    let rows = Array.init len (fun _ -> Bitset.create len) in
    List.iter
      (fun (i, j) ->
        if i < 0 || i >= len || j < 0 || j >= len then
          invalid_arg "Abstract.create: vis index out of range";
        Bitset.set rows.(j) i)
      vis;
    let last_at = Hashtbl.create 8 in
    Array.iteri
      (fun j (d : Event.do_event) ->
        (match Hashtbl.find_opt last_at d.Event.replica with
        | Some i ->
          Bitset.set rows.(j) i;
          Bitset.union_into ~dst:rows.(j) rows.(i)
        | None -> ());
        Hashtbl.replace last_at d.Event.replica j)
      h;
    { n; h = Array.copy h; rows }

  let create ~n h ~vis =
    let t = create_unchecked ~n h ~vis in
    match check_valid t with
    | Ok () -> t
    | Error m -> invalid_arg ("Abstract.create: " ^ m)

  let prefix t m =
    if m < 0 || m > Array.length t.h then invalid_arg "Abstract.prefix";
    let h = Array.sub t.h 0 m in
    let rows =
      Array.init m (fun j ->
          let row = Bitset.create m in
          Bitset.iter t.rows.(j) (fun i -> if i < m then Bitset.set row i);
          row)
    in
    { n = t.n; h; rows }

  let restrict t idx =
    let m = Array.length idx in
    let h = Array.map (fun old_i -> t.h.(old_i)) idx in
    let rows =
      Array.init m (fun new_j ->
          let row = Bitset.create m in
          let full = t.rows.(idx.(new_j)) in
          for new_i = 0 to new_j - 1 do
            if Bitset.get full idx.(new_i) then Bitset.set row new_i
          done;
          row)
    in
    { n = t.n; h; rows }

  let restrict_object t o =
    let acc = ref [] in
    Array.iteri (fun i d -> if d.Event.obj = o then acc := i :: !acc) t.h;
    let idx = Array.of_list (List.rev !acc) in
    (restrict t idx, idx)

  let context t e =
    let o = t.h.(e).Event.obj in
    let members = ref [] in
    for i = e - 1 downto 0 do
      if t.h.(i).Event.obj = o && Bitset.get t.rows.(e) i then members := i :: !members
    done;
    let idx = Array.of_list (!members @ [ e ]) in
    let sub = restrict t idx in
    (sub, Array.length idx - 1)

  let is_transitive t =
    let len = Array.length t.h in
    let ok = ref true in
    for j = 0 to len - 1 do
      Bitset.iter t.rows.(j) (fun i ->
          if not (Bitset.is_subset t.rows.(i) t.rows.(j)) then ok := false)
    done;
    !ok

  let transitive_closure t =
    let len = Array.length t.h in
    let rows = Array.map Bitset.copy t.rows in
    let last_at = Hashtbl.create 8 in
    let fresh = Bitset.create len in
    for j = 0 to len - 1 do
      let r = t.h.(j).Event.replica in
      Bitset.copy_into ~dst:fresh t.rows.(j);
      let reached =
        match Hashtbl.find_opt last_at r with
        | Some p when Bitset.get t.rows.(j) p ->
          let reached = Bitset.copy rows.(p) in
          Bitset.set reached p;
          Bitset.iter reached (Bitset.clear fresh);
          reached
        | Some _ | None -> Bitset.create len
      in
      Bitset.iter_rev fresh (fun i ->
          if not (Bitset.get reached i) then Bitset.union_into ~dst:reached rows.(i));
      Bitset.union_into ~dst:rows.(j) reached;
      Hashtbl.replace last_at r j
    done;
    { t with rows }

  let add_vis t pairs = create ~n:t.n t.h ~vis:(vis_pairs t @ pairs)

  (* [row(j) \ row(prev) \ {prev}] per event, in H order *)
  let iter_deltas t f =
    let last = Hashtbl.create 8 in
    let delta = Bitset.create (Array.length t.h) in
    for j = 0 to Array.length t.h - 1 do
      let d = t.h.(j) in
      Bitset.copy_into ~dst:delta t.rows.(j);
      (match Hashtbl.find_opt last d.Event.replica with
      | Some p ->
        Bitset.iter t.rows.(p) (Bitset.clear delta);
        Bitset.clear delta p
      | None -> ());
      Hashtbl.replace last d.Event.replica j;
      f d (Bitset.to_list delta)
    done
end
