(* Property tests over the abstract-execution structure itself, plus viz
   smoke tests and larger soak runs. *)

open Helpers
open Haec
module A = Abstract
module Op = Model.Op

(* random valid abstract execution from a seed: register writes and reads,
   or with [~set:true] adds, removes and reads over a small value pool *)
let random_ae ?(set = false) seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 3 in
  let len = 3 + Rng.int rng 8 in
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
    ] )
