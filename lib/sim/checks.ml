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

let occ_result witness =
  match Occ.check witness with
  | Error m -> Error ("occ check unsupported: " ^ m)
  | Ok [] -> Ok ()
  | Ok (v :: _ as vs) ->
    Error
      (Printf.sprintf "%d OCC violations; first: read %d over writes (%d,%d)"
         (List.length vs) v.Occ.read v.Occ.w0 v.Occ.w1)

let closed_incorrect = function
  | Ok () -> Ok ()
  | Error m -> Error ("closed witness incorrect: " ^ m)

(* The checks both entry points compute alike; [correct] and [causal]
   receive the closure OCC needs anyway. *)
let assemble ~quiescent_at exec witness ~correct ~causal =
  let quiescent_at =
    match quiescent_at with Some q -> q | None -> Abstract.length witness
  in
  let closed = Abstract.transitive_closure witness in
  {
    well_formed = Execution.check_well_formed exec;
    complies = Compliance.check exec witness;
    correct = correct ();
    causal = causal closed;
    occ = occ_result closed;
    eventual = Eventual.check_visible_from witness ~quiescent_at;
  }

let spec_or_mvr = function Some f -> f | None -> fun _ -> Spec.mvr

let validate ?spec_of ?quiescent_at exec witness =
  let spec_of = spec_or_mvr spec_of in
  (* The raw witness is never transitive: reads carry no dots, so a remote
     event cannot directly witness a read that program order nevertheless
     makes visible. The run is causally consistent iff the *transitive
     closure* of the witness — which is causal by construction and still
     complies — remains correct: a causal anomaly (an effect exposed
     without its cause) makes some closed context contradict a recorded
     response, exactly as in the paper's Figure 2 inference. *)
  assemble ~quiescent_at exec witness
    ~correct:(fun () -> Spec.check_correct ~spec_of witness)
    ~causal:(fun closed -> closed_incorrect (Spec.check_correct ~spec_of closed))

let validate_online ?spec_of ?quiescent_at exec witness ~deltas =
  let online = Online.create ~n:(Abstract.n_replicas witness) ~spec_of:(spec_or_mvr spec_of) in
  deltas (Online.feed online);
  if Online.length online <> Abstract.length witness then
    invalid_arg "Checks.validate_online: deltas and witness differ in length";
  assemble ~quiescent_at exec witness
    ~correct:(fun () -> Online.correct online)
    ~causal:(fun _ -> Online.causal online)
