open Haec_model
open Haec_spec
open Haec_consistency

type report = {
  well_formed : (unit, string) result;
  complies : (unit, string) result;
  correct : (unit, string) result;
  causal : (unit, string) result;
  occ : (unit, string) result;
  eventual : (unit, string) result;
}

let all_ok r =
  let ok = function Ok () -> true | Error _ -> false in
  ok r.well_formed && ok r.complies && ok r.correct && ok r.causal && ok r.occ
  && ok r.eventual

let failures r =
  List.filter_map
    (fun (name, res) -> match res with Ok () -> None | Error m -> Some (name, m))
    [
      ("well-formed", r.well_formed);
      ("complies", r.complies);
      ("correct", r.correct);
      ("causal", r.causal);
      ("occ", r.occ);
      ("eventual", r.eventual);
    ]

let pp_report ppf r =
  match failures r with
  | [] -> Format.pp_print_string ppf "all checks passed"
  | fs ->
    Format.fprintf ppf "@[<v>";
    List.iter (fun (name, m) -> Format.fprintf ppf "%s: %s@," name m) fs;
    Format.fprintf ppf "@]"

let occ_result = function
  | Error m -> Error ("occ check unsupported: " ^ m)
  | Ok [] -> Ok ()
  | Ok (v :: _ as vs) ->
    Error
      (Printf.sprintf "%d OCC violations; first: read %d over writes (%d,%d)"
         (List.length vs) v.Occ.read v.Occ.w0 v.Occ.w1)

(* The one core: every check from one [Online] pass over the deltas,
   with each replica's fed do events kept for compliance. Returns how
   many events were fed. *)
let run ~spec_of ?quiescent_at ~n ~deltas exec =
  let online = Online.create ?quiescent_at ~n ~spec_of () in
  let fed = Array.make n [] in
  deltas (fun (d : Event.do_event) delta ->
      Online.feed online d delta;
      fed.(d.Event.replica) <- d :: fed.(d.Event.replica));
  ( Online.length online,
    {
      well_formed = Execution.check_well_formed exec;
      complies = Compliance.check_sequences exec (Array.map List.rev fed);
      correct = Online.correct online;
      causal = Online.causal online;
      occ = occ_result (Online.occ online);
      eventual = Online.eventual online;
    } )

let validate_deltas ?(spec_of = fun _ -> Spec.mvr) ?quiescent_at ~n ~deltas exec =
  snd (run ~spec_of ?quiescent_at ~n ~deltas exec)

let validate ?(spec_of = fun _ -> Spec.mvr) ?quiescent_at ?deltas exec witness =
  let deltas = match deltas with Some d -> d | None -> Online.iter_deltas witness in
  let fed, report = run ~spec_of ?quiescent_at ~n:(Abstract.n_replicas witness) ~deltas exec in
  if fed <> Abstract.length witness then
    invalid_arg "Checks.validate: deltas and witness differ in length";
  report
