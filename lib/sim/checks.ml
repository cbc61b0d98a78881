open Haec_model
open Haec_spec
open Haec_consistency

type occ = Occ_holds | Occ_violated of string | Occ_not_applicable of string

type report = {
  well_formed : (unit, string) result;
  complies : (unit, string) result;
  correct : (unit, string) result;
  causal : (unit, string) result;
  occ : occ;
  eventual : (unit, string) result;
}

let occ_text = function
  | Occ_holds -> "ok"
  | Occ_violated m -> m
  | Occ_not_applicable why -> "n/a (" ^ why ^ ")"

let failures r =
  List.filter_map
    (fun (name, res) -> match res with Ok () -> None | Error m -> Some (name, m))
    [
      ("well-formed", r.well_formed);
      ("complies", r.complies);
      ("correct", r.correct);
      ("causal", r.causal);
      ("occ", if r.occ = Occ_holds then Ok () else Error (occ_text r.occ));
      ("eventual", r.eventual);
    ]

let pp_report ppf r =
  match failures r with
  | [] -> Format.pp_print_string ppf "all checks passed"
  | fs ->
    Format.fprintf ppf "@[<v>";
    List.iter (fun (name, m) -> Format.fprintf ppf "%s: %s@," name m) fs;
    Format.fprintf ppf "@]"

(* Definition 18 is stated over writes: a run whose reads return values
   no single write wrote (an OR-set's adds, or a value written twice) is
   outside what OCC can judge, which is not a violation. *)
let occ_verdict exec = function
  | Ok [] -> Occ_holds
  | Ok (v :: _ as vs) ->
    Occ_violated
      (Printf.sprintf "%d OCC violations; first: read %d over writes (%d,%d)"
         (List.length vs) v.Occ.read v.Occ.w0 v.Occ.w1)
  | Error m ->
    let is_write (_, (d : Event.do_event)) = match d.op with Op.Write _ -> true | _ -> false in
    Occ_not_applicable
      (if List.exists is_write (Execution.do_events exec) then m else "no writes")

(* The one core: every check from one [Online] pass over the deltas,
   with each replica's fed do events kept for compliance. *)
let validate_deltas ?(spec_of = fun _ -> Spec.mvr) ?quiescent_at ~n ~deltas exec =
  let online = Online.create ?quiescent_at ~n ~spec_of () in
  let fed = Array.make n [] in
  deltas (fun (d : Event.do_event) delta ->
      Online.feed online d delta;
      fed.(d.Event.replica) <- d :: fed.(d.Event.replica));
  {
    well_formed = Execution.check_well_formed exec;
    complies = Compliance.check_sequences exec (Array.map List.rev fed);
    correct = Online.correct online;
    causal = Online.causal online;
    occ = occ_verdict exec (Online.occ online);
    eventual = Online.eventual online;
  }

let validate ?spec_of ?quiescent_at exec witness =
  validate_deltas ?spec_of ?quiescent_at ~n:(Abstract.n_replicas witness)
    ~deltas:(Online.iter_deltas witness) exec
