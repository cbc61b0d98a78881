(* Property tests over the abstract-execution structure itself, plus viz
   smoke tests and larger soak runs. *)

open Helpers
open Haec
module A = Abstract
module Op = Model.Op

(* random valid abstract execution from a seed: register writes and reads,
   or with [~set:true] adds, removes and reads over a small value pool *)
let random_ae ?(set = false) ?(max_len = 8) seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 3 in
  let len = 3 + Rng.int rng max_len in
  let counter = ref 0 in
  let h =
    Array.init len (fun _ ->
        let replica = Rng.int rng n in
        let obj = Rng.int rng 3 in
        if set then
          match Rng.int rng 3 with
          | 0 -> add_ replica obj (Rng.int rng 3)
          | 1 -> rm_ replica obj (Rng.int rng 3)
          | _ -> rd_ replica obj []
        else if Rng.bool rng then begin
          incr counter;
          w_ replica obj !counter
        end
        else rd_ replica obj [])
  in
  let vis = ref [] in
  for j = 0 to len - 1 do
    for i = 0 to j - 1 do
      if Rng.chance rng 0.3 then vis := (i, j) :: !vis
    done
  done;
  let spec_of = if set then orset_spec else mvr_spec in
  Specf.with_correct_responses ~spec_of (A.create ~n h ~vis:!vis)

(* ---------- references for the checker's core ---------- *)

(* Definition 7 read off [vis_pairs]: ctxt(a, e) holds the same-object
   events visible to [e], then [e], with vis restricted to them. [context]
   must give exactly these events and pairs. *)
let context_matches_definition a e =
  let ctx, target = A.context a e in
  let o = (A.event a e).Model.Event.obj in
  let members =
    List.filter (fun i -> (A.event a i).Model.Event.obj = o) (A.vis_preds a e) @ [ e ]
  in
  let pos = List.mapi (fun p i -> (i, p)) members in
  let expected =
    List.filter_map
      (fun (i, j) ->
        match (List.assoc_opt i pos, List.assoc_opt j pos) with
        | Some p, Some q -> Some (p, q)
        | _ -> None)
      (A.vis_pairs a)
  in
  target = List.length members - 1
  && A.length ctx = List.length members
  && List.for_all (fun (i, p) -> A.event ctx p = A.event a i) pos
  && List.sort compare (A.vis_pairs ctx) = List.sort compare expected

(* the closure as a naive fixpoint: add (i, k) for every (i, j), (j, k)
   until nothing changes *)
let naive_closure_pairs a =
  let len = A.length a in
  let m = Array.make_matrix len len false in
  List.iter (fun (i, j) -> m.(i).(j) <- true) (A.vis_pairs a);
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to len - 1 do
      for j = 0 to len - 1 do
        if m.(i).(j) then
          for k = 0 to len - 1 do
            if m.(j).(k) && not m.(i).(k) then begin
              m.(i).(k) <- true;
              changed := true
            end
          done
      done
    done
  done;
  let acc = ref [] in
  for j = len - 1 downto 0 do
    for i = len - 1 downto 0 do
      if m.(i).(j) then acc := (i, j) :: !acc
    done
  done;
  List.sort compare !acc

let closure_matches_naive a =
  List.sort compare (A.vis_pairs (A.transitive_closure a)) = naive_closure_pairs a

(* Figure 1b and 1c read as written: one vis test per pair of events *)
let reference_mvr ctx target =
  let values = ref [] in
  for e1 = 0 to target - 1 do
    match (A.event ctx e1).Model.Event.op with
    | Op.Write v ->
      let dominated = ref false in
      for e2 = e1 + 1 to target - 1 do
        match (A.event ctx e2).Model.Event.op with
        | Op.Write _ -> if A.vis ctx e1 e2 then dominated := true
        | Op.Read | Op.Add _ | Op.Remove _ -> ()
      done;
      if not !dominated then values := v :: !values
    | Op.Read | Op.Add _ | Op.Remove _ -> ()
  done;
  Op.vals !values

let reference_orset ctx target =
  let values = ref [] in
  for e1 = 0 to target - 1 do
    match (A.event ctx e1).Model.Event.op with
    | Op.Add v ->
      let removed = ref false in
      for e2 = e1 + 1 to target - 1 do
        match (A.event ctx e2).Model.Event.op with
        | Op.Remove v' ->
          if Model.Value.equal v v' && A.vis ctx e1 e2 then removed := true
        | Op.Read | Op.Write _ | Op.Add _ -> ()
      done;
      if not !removed then values := v :: !values
    | Op.Read | Op.Write _ | Op.Remove _ -> ()
  done;
  Op.vals !values

(* every read of [a] gets the reference's response from [spec] *)
let reads_match_reference (spec : Specf.t) reference a =
  let ok = ref true in
  for e = 0 to A.length a - 1 do
    if (A.event a e).Model.Event.op = Op.Read then begin
      let ctx, target = A.context a e in
      if not (Op.equal_response (spec.apply ~ctx ~target) (reference ctx target)) then
        ok := false
    end
  done;
  !ok

(* one audit of [a] and of its closure against every reference *)
let core_matches_references (spec, reference) a =
  let closed = A.transitive_closure a in
  let contexts_ok x =
    let ok = ref true in
    for e = 0 to A.length x - 1 do
      if not (context_matches_definition x e) then ok := false
    done;
    !ok
  in
  closure_matches_naive a
  && contexts_ok a && contexts_ok closed
  && reads_match_reference spec reference a
  && reads_match_reference spec reference closed

let seed_gen = QCheck2.Gen.int_range 0 50_000

let prop_create_valid =
  q ~count:150 "create output passes check_valid" seed_gen (fun seed ->
      match A.check_valid (random_ae seed) with Ok () -> true | Error _ -> false)

let prop_prefix_valid =
  q ~count:150 "prefixes are valid abstract executions" seed_gen (fun seed ->
      let a = random_ae seed in
      let ok = ref true in
      for m = 0 to A.length a do
        match A.check_valid (A.prefix a m) with Ok () -> () | Error _ -> ok := false
      done;
      !ok)

let prop_closure_idempotent =
  q ~count:150 "transitive closure idempotent and monotone" seed_gen (fun seed ->
      let a = random_ae seed in
      let c = A.transitive_closure a in
      let cc = A.transitive_closure c in
      A.is_transitive c
      && A.vis_pairs c = A.vis_pairs cc
      && List.for_all (fun (i, j) -> A.vis c i j) (A.vis_pairs a))

let prop_prefix_of_causal_causal =
  q ~count:150 "prefix of a causally consistent execution is causal" seed_gen (fun seed ->
      let a = A.transitive_closure (random_ae seed) in
      let ok = ref true in
      for m = 0 to A.length a do
        if not (Causal.is_causally_consistent (A.prefix a m)) then ok := false
      done;
      !ok)

let prop_context_shape =
  q ~count:150 "operation contexts: same object, target last, vis subset" seed_gen
    (fun seed ->
      let a = random_ae seed in
      let ok = ref true in
      for e = 0 to A.length a - 1 do
        if not (context_matches_definition a e) then ok := false
      done;
      !ok)

let prop_core_matches_references =
  q ~count:150 "closure, contexts and mvr/orset reads match their references" seed_gen
    (fun seed ->
      core_matches_references (Specf.mvr, reference_mvr) (random_ae seed)
      && core_matches_references (Specf.orset, reference_orset) (random_ae ~set:true seed))

let test_core_matches_references_on_witnesses () =
  (* causal runs: witnesses whose closures differ from them (reads carry
     no dots), with contexts far larger than the random executions' *)
  let witness (module S : Store.Store_intf.S) mix seed =
    let module R = Sim.Runner.Make (S) in
    let rng = Rng.create seed in
    let sim = R.create ~seed ~n:3 ~policy:(Sim.Net_policy.lossy ()) () in
    let steps = Sim.Workload.generate ~rng ~n:3 ~objects:2 ~ops:80 mix in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    R.witness_abstract sim
  in
  for seed = 1 to 3 do
    let check name store mix spec =
      if not (core_matches_references spec (witness store mix seed)) then
        Alcotest.failf "seed %d: %s witness differs from the references" seed name
    in
    check "causal mvr" (module Store.Causal_mvr_store) Sim.Workload.register_mix
      (Specf.mvr, reference_mvr);
    check "causal orset" (module Store.Causal_orset_store) Sim.Workload.orset_mix
      (Specf.orset, reference_orset)
  done

(* ---------- OCC against its nested-loop reference ---------- *)

(* Definition 18 searched as written: every candidate w0' against every
   candidate w1', condition 4 by a scan over all writes. [Occ] must return
   exactly the same violations and witness pairs. *)
module Occ_reference = struct
  let writes_of_values a ~obj vs =
    let find v =
      let hits = ref [] in
      for i = 0 to A.length a - 1 do
        let d = A.event a i in
        match d.Model.Event.op with
        | Op.Write v' when d.Model.Event.obj = obj && Model.Value.equal v v' ->
          hits := i :: !hits
        | Op.Write _ | Op.Read | Op.Add _ | Op.Remove _ -> ()
      done;
      match !hits with
      | [ i ] -> Ok i
      | [] -> Error (Format.asprintf "no write of value %a" Model.Value.pp v)
      | _ -> Error (Format.asprintf "multiple writes of value %a" Model.Value.pp v)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest -> ( match find v with Ok i -> go (i :: acc) rest | Error _ as e -> e)
    in
    go [] vs

  let all_writes a =
    List.filter (fun i -> Op.is_update (A.event a i).Model.Event.op) (List.init (A.length a) Fun.id)

  let valid_witnesses a ~obj ~writes ~w0 ~w1 ~w0' ~w1' =
    let cond_for wi wi' =
      let oi' = (A.event a wi').Model.Event.obj in
      oi' <> obj
      && A.vis a wi' (if wi = w0 then w1 else w0)
      && (not (A.vis a wi' wi))
      && List.for_all
           (fun w ->
             let d = A.event a w in
             if d.Model.Event.obj = oi' && A.vis a w wi then A.vis a w wi' else true)
           writes
    in
    (A.event a w0').Model.Event.obj <> (A.event a w1').Model.Event.obj
    && cond_for w0 w0' && cond_for w1 w1'

  let witnesses_for a ~read ~w0 ~w1 =
    let obj = (A.event a read).Model.Event.obj in
    let writes = all_writes a in
    let cands_w1' = List.filter (fun w -> A.vis a w w0) writes in
    let cands_w0' = List.filter (fun w -> A.vis a w w1) writes in
    let rec search = function
      | [] -> None
      | w0' :: rest ->
        let rec inner = function
          | [] -> search rest
          | w1' :: rest' ->
            if valid_witnesses a ~obj ~writes ~w0 ~w1 ~w0' ~w1' then Some (w0', w1')
            else inner rest'
        in
        inner cands_w1'
    in
    search cands_w0'

  let check a =
    let exception Unsupported of string in
    try
      let violations = ref [] in
      for r = 0 to A.length a - 1 do
        let d = A.event a r in
        match (d.Model.Event.op, d.Model.Event.rval) with
        | Op.Read, Op.Vals vs when List.length vs >= 2 -> (
          match writes_of_values a ~obj:d.Model.Event.obj vs with
          | Error m -> raise (Unsupported m)
          | Ok ws ->
            let rec pairs = function
              | [] -> ()
              | w0 :: rest ->
                List.iter
                  (fun w1 ->
                    match witnesses_for a ~read:r ~w0 ~w1 with
                    | Some _ -> ()
                    | None -> violations := (r, w0, w1) :: !violations)
                  rest;
                pairs rest
            in
            pairs ws)
        | _ -> ()
      done;
      Ok (List.rev !violations)
    with Unsupported m -> Error m
end

(* [check] agrees with the reference, and so does [witnesses_for] on the
   ordered pairs [pairs_of a r] for every read [r] *)
let occ_matches_reference ~pairs_of a =
  let triples = List.map (fun v -> (v.Occ.read, v.Occ.w0, v.Occ.w1)) in
  Result.map triples (Occ.check a) = Occ_reference.check a
  && List.for_all
       (fun r ->
         (A.event a r).Model.Event.op <> Op.Read
         || List.for_all
              (fun (w0, w1) ->
                Occ.witnesses_for a ~read:r ~w0 ~w1
                = Occ_reference.witnesses_for a ~read:r ~w0 ~w1)
              (pairs_of a r))
       (List.init (A.length a) Fun.id)

(* every ordered pair of updates, equal ones included *)
let all_update_pairs a _ =
  let ws = Occ_reference.all_writes a in
  List.concat_map (fun w0 -> List.map (fun w1 -> (w0, w1)) ws) ws

(* both orders of every pair of writes the read returned *)
let returned_pairs a r =
  let d = A.event a r in
  match d.Model.Event.rval with
  | Op.Vals vs -> (
    match Occ_reference.writes_of_values a ~obj:d.Model.Event.obj vs with
    | Ok ws ->
      List.concat_map
        (fun w0 -> List.filter_map (fun w1 -> if w0 = w1 then None else Some (w0, w1)) ws)
        ws
    | Error _ -> [])
  | Op.Ok -> []

let prop_occ_matches_reference =
  q ~count:300 "OCC check and witnesses match the nested-loop reference" seed_gen
    (fun seed ->
      let a = random_ae seed in
      occ_matches_reference ~pairs_of:all_update_pairs a
      && occ_matches_reference ~pairs_of:all_update_pairs (A.transitive_closure a))

(* A causal-MVR store under anti-entropy recovery and an adversarial fault
   plan (crashes with durable replay, drops, duplication, reordering, dead
   links), driven like a chaos run; returns the closed witness. *)
module Durable_ae = Sim.Stack.Durable (Store.Causal_mvr_store)

module R_ae = Sim.Runner.Make (Durable_ae)

let adversarial_closed_witness ~n ~objects ~ops seed =
  let plan, steps = Sim.Chaos.derive ~n ~objects ~ops ~adversarial:true ~seed () in
  let sim =
    R_ae.create ~seed ~config:Store.Store_intf.default ~n
      ~policy:(Sim.Net_policy.random_delay ()) ~faults:plan ~stack:(module Durable_ae) ()
  in
  let faults = ref (Sim.Fault_plan.events plan) in
  let rec fire_up_to time =
    match !faults with
    | { Sim.Fault_plan.at; what } :: rest when at <= time ->
      faults := rest;
      R_ae.advance_to sim at;
      (match what with
      | `Crash r -> R_ae.crash sim ~replica:r
      | `Recover r -> R_ae.recover sim ~replica:r
      | `Join _ | `Leave _ -> Alcotest.fail "no churn in this plan");
      fire_up_to time
    | _ -> ()
  in
  List.iter
    (fun (s : Sim.Workload.step) ->
      fire_up_to s.at;
      R_ae.advance_to sim s.at;
      (* a client whose home is down fails over to the next live replica *)
      match
        List.find_opt
          (fun replica -> not (R_ae.is_down sim ~replica))
          (List.init n (fun k -> (s.replica + k) mod n))
      with
      | Some replica -> ignore (R_ae.op sim ~replica ~obj:s.obj s.op)
      | None -> ())
    steps;
  fire_up_to plan.Sim.Fault_plan.horizon;
  R_ae.advance_to sim plan.Sim.Fault_plan.horizon;
  R_ae.run_until_quiescent sim;
  for obj = 0 to objects - 1 do
    for replica = 0 to n - 1 do
      ignore (R_ae.op sim ~replica ~obj Op.Read)
    done
  done;
  A.transitive_closure (R_ae.witness_abstract sim)

let test_occ_matches_reference_on_adversarial_runs () =
  let violations = ref 0 in
  for seed = 1 to 6 do
    let closed = adversarial_closed_witness ~n:4 ~objects:4 ~ops:80 seed in
    if not (occ_matches_reference ~pairs_of:returned_pairs closed) then
      Alcotest.failf "seed %d: OCC differs from the reference" seed;
    match Occ.check closed with
    | Ok vs -> violations := !violations + List.length vs
    | Error m -> Alcotest.failf "seed %d: %s" seed m
  done;
  (* failing verdicts are exercised, not just vacuous passes *)
  Alcotest.(check bool) "some OCC violations" true (!violations > 0)

let prop_correctness_stable_under_closure_of_correct_runs =
  (* with_correct_responses after closure yields a correct causal AE *)
  q ~count:100 "closure + recomputed responses is correct and causal" seed_gen (fun seed ->
      let a = A.transitive_closure (random_ae seed) in
      let a = Specf.with_correct_responses ~spec_of:mvr_spec a in
      Specf.is_correct ~spec_of:mvr_spec a && Causal.is_causally_consistent a)

let prop_equivalence_laws =
  q ~count:100 "equivalence: reflexive and insensitive to cross-replica interleaving"
    seed_gen (fun seed ->
      let a = random_ae seed in
      if not (A.equal_equivalent a a) then false
      else begin
        (* stable-sort H by replica: preserves per-replica order *)
        let evs = Array.to_list (A.events a) in
        let sorted =
          List.stable_sort
            (fun (d1 : Model.Event.do_event) d2 ->
              Int.compare d1.Model.Event.replica d2.Model.Event.replica)
            evs
        in
        let b = A.create ~n:(A.n_replicas a) (Array.of_list sorted) ~vis:[] in
        A.equal_equivalent a b
      end)

(* ---------- viz smoke ---------- *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_render_abstract () =
  let a = random_ae 3 in
  let dot = Viz.Render.abstract_to_dot ~title:"t" a in
  Alcotest.(check bool) "digraph" true (String.length dot > 20);
  Alcotest.(check bool) "has lane" true (contains dot "subgraph cluster_")

let test_render_execution () =
  let module R = Sim.Runner.Make (Store.Mvr_store) in
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  R.run_until_quiescent sim;
  let dot = Viz.Render.execution_to_dot (R.execution sim) in
  Alcotest.(check bool) "message edge drawn" true
    (contains dot "color=red")

(* ---------- the online checker against the batch checks ---------- *)

module Online = Consistency.Online

let specs = [ Specf.rw_register; Specf.mvr; Specf.orset; Specf.counter ]

let online_agrees ~spec_of a =
  let online = Online.check ~spec_of a and expected = batch_verdicts ~spec_of a in
  if online <> expected then begin
    let show = function Ok () -> "ok" | Error m -> m in
    QCheck2.Test.fail_reportf "online (%s | %s) vs batch (%s | %s) on@.%a"
      (show (fst online)) (show (snd online)) (show (fst expected)) (show (snd expected))
      A.pp a
  end;
  true

let prop_online_matches_batch =
  q ~count:300 "online correct/causal verdicts equal the batch checks" seed_gen (fun seed ->
      let rng = Rng.create (seed + 7) in
      List.for_all
        (fun (set, max_len) ->
          let a = random_ae ~set ~max_len seed in
          (* every shape alone, and all four side by side on three objects *)
          let mixed o = List.nth specs (o mod 4) in
          List.for_all
            (fun spec_of ->
              let derived = Specf.with_correct_responses ~spec_of a in
              List.for_all
                (fun x -> online_agrees ~spec_of x && online_agrees ~spec_of (A.transitive_closure x))
                [ derived; perturb_response rng derived ])
            (mixed :: List.map (fun s _ -> s) specs))
        [ (false, 8); (true, 8); (false, 40); (true, 40) ])

(* [a] with one write's value replaced by an earlier write's on the same
   object, when there is one: reads of that value then name two writes,
   which OCC cannot check. *)
let rewrite_duplicate rng a =
  let h = A.events a in
  let writes =
    List.filter
      (fun j -> match h.(j).Model.Event.op with Op.Write _ -> true | _ -> false)
      (List.init (Array.length h) Fun.id)
  in
  let pairs =
    List.concat_map
      (fun j ->
        List.filter_map
          (fun i ->
            if i < j && h.(i).Model.Event.obj = h.(j).Model.Event.obj then Some (i, j) else None)
          writes)
      writes
  in
  match pairs with
  | [] -> a
  | _ ->
    let i, j = List.nth pairs (Rng.int rng (List.length pairs)) in
    h.(j) <- { (h.(j)) with Model.Event.op = h.(i).Model.Event.op };
    A.create ~n:(A.n_replicas a) h ~vis:(A.vis_pairs a)

(* [Online.occ] and [Online.eventual] against [Occ.check] on the closure
   and [Eventual.check_visible_from] on the raw witness *)
let online_occ_eventual_agree ~spec_of ~quiescent_at a =
  let t = Online.create ~quiescent_at ~n:(A.n_replicas a) ~spec_of () in
  Online.iter_deltas a (Online.feed t);
  let occ = Occ.check (A.transitive_closure a)
  and eventual = Eventual.check_visible_from a ~quiescent_at in
  if Online.occ t <> occ || Online.eventual t <> eventual then begin
    let show_occ = function
      | Ok vs -> Printf.sprintf "%d violations" (List.length vs)
      | Error m -> m
    and show = function Ok () -> "ok" | Error m -> m in
    QCheck2.Test.fail_reportf "online (%s | %s) vs batch (%s | %s), quiescent_at %d, on@.%a"
      (show_occ (Online.occ t)) (show (Online.eventual t)) (show_occ occ) (show eventual)
      quiescent_at A.pp a
  end;
  true

let prop_online_occ_eventual_match_batch =
  q ~count:300 "online OCC and eventual verdicts equal the batch checks" seed_gen (fun seed ->
      let rng = Rng.create (seed + 11) in
      List.for_all
        (fun (set, max_len) ->
          let a = random_ae ~set ~max_len seed in
          let spec_of = if set then orset_spec else mvr_spec in
          let derived = Specf.with_correct_responses ~spec_of a in
          List.for_all
            (fun x ->
              let quiescent_at = Rng.int rng (A.length x + 2) - 1 in
              online_occ_eventual_agree ~spec_of ~quiescent_at x
              && online_occ_eventual_agree ~spec_of ~quiescent_at (A.transitive_closure x))
            [ derived; perturb_response rng derived; rewrite_duplicate rng derived ])
        [ (false, 8); (true, 8); (false, 40); (true, 40) ])

(* ---------- soak: larger randomized runs ---------- *)

let soak (name, run) = tc ("soak: " ^ name) run

let soak_mvr () =
  let module R = Sim.Runner.Make (Store.Mvr_store) in
  let rng = Rng.create 8888 in
  let sim = R.create ~seed:8888 ~n:6 ~policy:(Sim.Net_policy.lossy ~drop_p:0.3 ()) () in
  let steps = Sim.Workload.generate ~rng ~n:6 ~objects:6 ~ops:400 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  let witness = R.witness_abstract sim in
  check_ok "correct" (Specf.check_correct ~spec_of:mvr_spec witness);
  check_ok "complies" (Compliance.check (R.execution sim) witness)

let soak_causal () =
  let module R = Sim.Runner.Make (Store.Causal_mvr_store) in
  let rng = Rng.create 9999 in
  let sim =
    R.create ~seed:9999 ~n:5
      ~policy:(Sim.Net_policy.partitioned ~groups:(fun r -> r mod 2) ~heal_at:120.0 ())
      ()
  in
  let steps = Sim.Workload.generate ~rng ~n:5 ~objects:5 ~ops:400 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  let witness = R.witness_abstract sim in
  check_ok "correct" (Specf.check_correct ~spec_of:mvr_spec witness);
  check_ok "causal"
    (Specf.check_correct ~spec_of:mvr_spec (A.transitive_closure witness))

let soak_theorem12_large () =
  let module T12 = Construction.Theorem12.Make (Store.Causal_mvr_store) in
  let run = T12.run_random (Rng.create 4242) ~n:12 ~s:11 ~k:256 in
  Alcotest.(check bool) "large decode ok" true run.T12.ok

let suite =
  ( "abstract-props",
    [
      prop_create_valid;
      prop_prefix_valid;
      prop_closure_idempotent;
      prop_prefix_of_causal_causal;
      prop_context_shape;
      prop_correctness_stable_under_closure_of_correct_runs;
      prop_equivalence_laws;
      tc "render abstract execution" test_render_abstract;
      tc "render execution" test_render_execution;
      soak ("mvr 400 ops, 6 replicas, lossy", soak_mvr);
      soak ("causal 400 ops, partition", soak_causal);
      soak ("theorem12 n=12 k=256", soak_theorem12_large);
      prop_core_matches_references;
      tc "checker core matches references on causal witnesses"
        test_core_matches_references_on_witnesses;
      prop_occ_matches_reference;
      tc "OCC matches its reference on adversarial anti-entropy runs"
        test_occ_matches_reference_on_adversarial_runs;
      prop_online_matches_batch;
      prop_online_occ_eventual_match_batch;
    ] )
