(* The first-visibility table of [Abstract] against the dense bitset rows
   it replaced ([Helpers.Dense_abstract]): the same execution built both
   ways must answer every query alike, on random edge sets (valid or not,
   causal or not), on the witnesses of chaos runs of five store classes,
   and on live captures. *)

open Helpers
open Haec
module D = Dense_abstract
module Online = Consistency.Online
module Store_intf = Store.Store_intf
module W = Test_witness

let collect iter =
  let acc = ref [] in
  iter (fun d delta -> acc := (d, delta) :: !acc);
  List.rev !acc

let fail name what = Alcotest.failf "%s: %s differs from the dense rows" name what

(* events, vis pairs and validity: enough for a derived execution *)
let same_shape name a d =
  if Abstract.events a <> D.events d then fail name "H";
  if Abstract.vis_pairs a <> D.vis_pairs d then fail name "vis_pairs";
  if Abstract.check_valid a <> D.check_valid d then fail name "check_valid"

let agree name a d =
  let len = Abstract.length a in
  if len <> D.length d then fail name "length";
  same_shape name a d;
  for j = 0 to len - 1 do
    for i = 0 to len - 1 do
      if Abstract.vis a i j <> D.vis d i j then fail name (Printf.sprintf "vis %d %d" i j)
    done;
    if Abstract.vis_preds a j <> D.vis_preds d j then fail name "vis_preds";
    if not (Util.Bitset.equal (Abstract.vis_row a j) (D.vis_row d j)) then fail name "vis_row"
  done;
  if collect (Online.iter_deltas a) <> collect (D.iter_deltas d) then fail name "iter_deltas";
  List.iter
    (fun m ->
      same_shape (Printf.sprintf "%s prefix %d" name m) (Abstract.prefix a m) (D.prefix d m))
    [ 0; len / 3; len / 2; len ];
  for e = 0 to len - 1 do
    let ca, ta = Abstract.context a e and cd, td = D.context d e in
    if ta <> td then fail name "context target";
    same_shape (Printf.sprintf "%s context %d" name e) ca cd
  done;
  let objects =
    Array.fold_left (fun m (x : Event.do_event) -> max m (x.Event.obj + 1)) 0 (Abstract.events a)
  in
  for o = 0 to objects - 1 do
    let ra, ia = Abstract.restrict_object a o and rd, id = D.restrict_object d o in
    if ia <> id then fail name "restrict_object indices";
    same_shape (Printf.sprintf "%s object %d" name o) ra rd
  done;
  (* the closure is defined on valid executions *)
  if Abstract.check_valid a = Ok () then begin
    if Abstract.is_transitive a <> D.is_transitive d then fail name "is_transitive";
    same_shape (name ^ " closure") (Abstract.transitive_closure a) (D.transitive_closure d)
  end

(* ---------- random edge sets ---------- *)

(* [back] is the chance that an edge points backwards or at itself *)
let random_edges ~back seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 4 in
  let len = Rng.int rng 24 in
  let h =
    Array.init len (fun k ->
        let replica = Rng.int rng n and obj = Rng.int rng 3 in
        if Rng.bool rng then w_ replica obj k else rd_ replica obj [])
  in
  let vis = ref [] in
  for j = 0 to len - 1 do
    for i = 0 to len - 1 do
      if i < j && Rng.chance rng 0.25 then vis := (i, j) :: !vis
      else if i >= j && Rng.chance rng back then vis := (i, j) :: !vis
    done
  done;
  (n, h, !vis)

let prop_random ~back label =
  q ~count:300 ("dense rows: " ^ label) QCheck2.Gen.int (fun seed ->
      let n, h, vis = random_edges ~back seed in
      let name = Printf.sprintf "%s seed %d" label seed in
      agree name (Abstract.create_unchecked ~n h ~vis) (D.create_unchecked ~n h ~vis);
      (* create raises the same error, or builds agreeing executions *)
      (match Abstract.create ~n h ~vis with
      | exception Invalid_argument m -> (
        match D.create ~n h ~vis with
        | _ -> Alcotest.failf "%s: only the table rejects: %s" name m
        | exception Invalid_argument m' ->
          if m <> m' then Alcotest.failf "%s: %S against %S" name m m')
      | a ->
        let d = D.create ~n h ~vis in
        (* causal: the closure of a valid execution, and edges added to it *)
        agree (name ^ " closed") (Abstract.transitive_closure a) (D.transitive_closure d);
        let len = Array.length h in
        if len >= 2 then begin
          let more = List.filter (fun (i, j) -> i < j) [ (0, len - 1); (len / 2, len - 1) ] in
          agree (name ^ " add_vis") (Abstract.add_vis a more) (D.add_vis d more)
        end);
      true)

(* ---------- chaos witnesses ---------- *)

(* The witness the runner builds against the dense rows built from its
   recorded deltas, which is how the witness was assembled before. *)
let chaos (module S : Store_intf.S) ~mix () =
  let module Dr = W.Drive (S) in
  List.iter
    (fun (churn, seed) ->
      let sim = Dr.run ~mix ~churn ~spans:false ~seed in
      let a = Dr.R.witness_abstract sim in
      let edges = ref [] and j = ref 0 in
      Dr.R.witness_deltas sim (fun _ delta ->
          List.iter (fun i -> edges := (i, !j) :: !edges) delta;
          incr j);
      let d = D.create ~n:(Abstract.n_replicas a) (Abstract.events a) ~vis:!edges in
      agree (Printf.sprintf "%s seed %d%s" S.name seed (if churn then " churn" else "")) a d)
    [ (false, 1); (false, 2); (true, 1) ]

(* ---------- live captures ---------- *)

(* run_inline: the capture against the dense rows of the full-list
   assembly of every witness its stores reported *)
let inline_capture () =
  let module C =
    Live.Cluster.Make (Sim.Stack.Volatile (W.Recording (Store.Causal_mvr_store)))
  in
  List.iter
    (fun seed ->
      Hashtbl.reset W.logs;
      let cfg =
        { Live.Cluster.default with replicas = 3; seed; objects = 16; zipf = 0.99 }
      in
      let a = Option.get (C.run_inline ~ops_per_replica:60 cfg).Live.Cluster.witness in
      let vis, _ = W.reference_edges (Abstract.events a) in
      agree (Printf.sprintf "run_inline seed %d" seed) a
        (D.create ~n:3 (Abstract.events a) ~vis))
    [ 1; 2 ]

(* two domains: the stores' witnesses are not recorded from both at
   once, so the dense rows take the capture's own vis, and every query
   derived from it must agree *)
let two_domain_capture () =
  let module C = Live.Cluster.Make (Sim.Stack.Volatile (Store.Causal_mvr_store)) in
  let cfg =
    {
      Live.Cluster.default with
      replicas = 2;
      seed = 5;
      objects = 8;
      duration = 0.05;
      rate = 4_000.0;
      batch = 4;
      gossip_interval = 0.0005;
      capture = true;
    }
  in
  let a = Option.get (C.run cfg).Live.Cluster.witness in
  Alcotest.(check bool) "captured some events" true (Abstract.length a > 0);
  agree "two domains" a
    (D.create ~n:2 (Abstract.events a) ~vis:(Abstract.vis_pairs a))

let suite =
  ( "fv-table",
    [
      prop_random ~back:0.0 "forward edges";
      prop_random ~back:0.04 "back and self edges";
      tc "chaos witnesses: causal MVR"
        (chaos (module Store.Causal_mvr_store) ~mix:Sim.Workload.register_mix);
      tc "chaos witnesses: causal OR-set"
        (chaos (module Store.Causal_orset_store) ~mix:Sim.Workload.orset_mix);
      tc "chaos witnesses: LWW" (chaos (module Store.Lww_store) ~mix:Sim.Workload.register_mix);
      tc "chaos witnesses: COPS" (chaos (module Store.Cops_store) ~mix:Sim.Workload.register_mix);
      tc "chaos witnesses: delayed-read"
        (chaos (module Store.Delayed_store.K3) ~mix:Sim.Workload.register_mix);
      tc "live: run_inline captures" inline_capture;
      tc "live: a two-domain capture" two_domain_capture;
    ] )
