(* The per-replica delta witness recorder ({!Sim.Witness}) against the
   full-list assembly it replaced. The reference below resolves every
   operation's complete witness, exactly as [Runner.witness_abstract]
   and [Cluster.assemble] used to, and replays the runner's former
   first-witnessing bookkeeping for the lag histogram and [Visible]
   spans. A recording store wrapper captures each witness the runner or
   the live capture forces, so both sides see the same witnesses. *)

open Haec
module Store_intf = Store.Store_intf
module Runner = Sim.Runner
module Fault_plan = Sim.Fault_plan
module Abstract = Spec.Abstract
module Event = Model.Event
module Span = Obs.Span
module Histogram = Obs.Metrics.Histogram

(* ---------- the reference ---------- *)

(* Every witness forced through the wrapper, per replica, newest first.
   Durable recovery replays ops without forcing theirs, so each replica's
   log lines up with its do events in program order. *)
let logs : (int, Store_intf.witness list) Hashtbl.t = Hashtbl.create 8

let taken replica = List.rev (Option.value (Hashtbl.find_opt logs replica) ~default:[])

module Recording (S : Store_intf.S) : Store_intf.S = struct
  type state = { me : int; inner : S.state }

  let name = S.name
  let invisible_reads = S.invisible_reads
  let op_driven = S.op_driven
  let init ~n ~me = { me; inner = S.init ~n ~me }

  let do_op t ~obj op =
    let inner, rval, w = S.do_op t.inner ~obj op in
    let w =
      lazy
        (let w = Lazy.force w in
         Hashtbl.replace logs t.me (w :: Option.value (Hashtbl.find_opt logs t.me) ~default:[]);
         w)
    in
    ({ t with inner }, rval, w)

  let has_pending t = S.has_pending t.inner

  let send t =
    let inner, payload = S.send t.inner in
    ({ t with inner }, payload)

  let receive t ~sender payload = { t with inner = S.receive t.inner ~sender payload }
end

(* The full-list assembly over [dos] (in H order): the abstract execution
   from every witness resolved against the final dot table, and the
   (update, observer) pairs in the order the runner first saw each, with
   dots resolved as of the observing operation. *)
let reference ~n (dos : Event.do_event array) =
  let pending = Hashtbl.create 8 in
  let wits =
    Array.map
      (fun (d : Event.do_event) ->
        let r = d.Event.replica in
        match Option.value (Hashtbl.find_opt pending r) ~default:(taken r) with
        | w :: rest ->
          Hashtbl.replace pending r rest;
          w
        | [] -> Alcotest.failf "replica %d has more do events than witnesses" r)
      dos
  in
  let self_key j = Option.map (fun dot -> (dos.(j).Event.obj, dot)) wits.(j).Store_intf.self in
  let final = Hashtbl.create 64 in
  Array.iteri (fun j _ -> Option.iter (fun k -> Hashtbl.replace final k j) (self_key j)) dos;
  let vis = ref [] in
  Array.iteri
    (fun j (w : Store_intf.witness) ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt final key with
          | Some i when i <> j -> vis := (i, j) :: !vis
          | Some _ | None -> ())
        w.visible)
    wits;
  let so_far = Hashtbl.create 64 and first_seen = Hashtbl.create 256 and firsts = ref [] in
  Array.iteri
    (fun j (d : Event.do_event) ->
      let observer = d.Event.replica in
      List.iter
        (fun key ->
          match Hashtbl.find_opt so_far key with
          | Some i
            when dos.(i).Event.replica <> observer && not (Hashtbl.mem first_seen (i, observer)) ->
            Hashtbl.add first_seen (i, observer) ();
            firsts := (i, observer) :: !firsts
          | Some _ | None -> ())
        wits.(j).Store_intf.visible;
      Option.iter (fun k -> Hashtbl.replace so_far k j) (self_key j))
    dos;
  (Abstract.create ~n dos ~vis:!vis, List.rev !firsts)

let pairs = Alcotest.(list (pair int int))

let histogram_of f visible =
  let h = Histogram.create () in
  List.iter (fun v -> Histogram.observe h (f v)) visible;
  h

let check_histogram name expected got =
  Alcotest.(check int) (name ^ ": count") (Histogram.count expected) (Histogram.count got);
  (* same observations in the same order: equal buckets, bit-equal sum *)
  Alcotest.(check bool) (name ^ ": identical") true (expected = got)

(* ---------- simulator ---------- *)

let md5 x = Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

module Drive (S : Store_intf.S) = struct
  module St =
    Sim.Stack.Durable_every
      (struct
        let auto_checkpoint_every = Some Store.Durable.auto_checkpoint_every
      end)
      (Recording (S))

  module R = Runner.Make (St)

  (* [Chaos.run_plan]'s schedule on its default stack, keeping the runner
     for its witness *)
  let run ~mix ~churn ~spans ~seed =
    let n, objects, ops = if churn then (3, 3, 60) else (4, 4, 80) in
    let plan, steps = Sim.Chaos.derive ~n ~objects ~ops ~mix ~adversarial:true ~churn ~seed () in
    let capacity, initial =
      match plan.Fault_plan.churn with
      | None -> (n, n)
      | Some c -> (c.Fault_plan.capacity, c.Fault_plan.initial)
    in
    Hashtbl.reset logs;
    let sim =
      R.create ~seed ~n:capacity ~initial ~hooks:St.hooks ~record_spans:spans
        ~classify:Store.Anti_entropy.classify ~policy:(Sim.Net_policy.random_delay ())
        ~faults:plan
        ~gossip:(2.0, St.tick, St.settled)
        ~recover_state:(fun ~replica:_ -> St.recover)
        ()
    in
    let serving r = R.is_serving sim ~replica:r && not (R.is_down sim ~replica:r) in
    let faults = ref (Fault_plan.events plan) in
    let rec fire_up_to time =
      match !faults with
      | { Fault_plan.at; what } :: rest when at <= time ->
        faults := rest;
        R.advance_to sim at;
        (match what with
        | `Crash r -> R.crash sim ~replica:r
        | `Recover r -> R.recover sim ~replica:r
        | `Join r -> R.join sim ~replica:r
        | `Leave (r, graceful) -> R.leave sim ~replica:r ~graceful);
        fire_up_to time
      | _ -> ()
    in
    List.iter
      (fun (s : Sim.Workload.step) ->
        fire_up_to s.at;
        R.advance_to sim s.at;
        match List.find_opt serving (List.init capacity (fun k -> (s.replica + k) mod capacity)) with
        | Some replica -> ignore (R.op sim ~replica ~obj:s.obj s.op)
        | None -> ())
      steps;
    fire_up_to plan.Fault_plan.horizon;
    R.advance_to sim plan.Fault_plan.horizon;
    R.run_until_quiescent ~max_events:200_000 sim;
    List.iter
      (fun replica ->
        if serving replica then
          for obj = 0 to objects - 1 do
            ignore (R.op sim ~replica ~obj Model.Op.Read)
          done)
      (Sim.Membership.members (R.membership sim));
    sim

  let visible sim = List.filter_map (function Span.Visible v -> Some v | _ -> None) (R.spans sim)

  (* One seed with spans on, checked against the reference, then again
     with spans off: the same run, whose lag samples are the plain
     visible-minus-issue differences of the same (update, observer)
     pairs. Returns the spans-on runner. *)
  let check ~mix ~churn ~seed =
    let sim = run ~mix ~churn ~spans:true ~seed in
    let wit = R.witness_abstract sim in
    let expected, firsts = reference ~n:(R.n_replicas sim) (Abstract.events wit) in
    let name = Printf.sprintf "%s seed %d%s" S.name seed (if churn then " churn" else "") in
    Alcotest.check pairs (name ^ ": vis pairs") (Abstract.vis_pairs expected) (Abstract.vis_pairs wit);
    let vs = visible sim in
    Alcotest.check pairs (name ^ ": Visible spans")
      firsts (List.map (fun v -> (v.Span.v_op, v.Span.v_observer)) vs);
    check_histogram (name ^ ": lag") (histogram_of (fun v -> (Span.breakdown v).total) vs)
      (R.visibility_lag sim);
    let plain = run ~mix ~churn ~spans:false ~seed in
    Alcotest.check pairs (name ^ ": spans off, vis pairs") (Abstract.vis_pairs wit)
      (Abstract.vis_pairs (R.witness_abstract plain));
    check_histogram (name ^ ": spans off, lag")
      (histogram_of (fun v -> v.Span.visible_at -. v.Span.issue_at) vs)
      (R.visibility_lag plain);
    sim
end

let sim_equivalence (module S : Store_intf.S) ~mix () =
  let module D = Drive (S) in
  let crashes = ref 0 and joins = ref 0 and leaves = ref 0 and seen = ref 0 in
  List.iter
    (fun churn ->
      List.iter
        (fun seed ->
          let sim = D.check ~mix ~churn ~seed in
          let st = D.R.stats sim in
          crashes := !crashes + st.Runner.crashes;
          joins := !joins + st.Runner.joins;
          leaves := !leaves + st.Runner.leaves;
          seen := !seen + List.length (D.visible sim))
        [ 1; 2; 3 ])
    [ false; true ];
  (* the runs must exercise what the delta has to survive *)
  Alcotest.(check bool) "crash/recover exercised" true (!crashes > 0);
  Alcotest.(check bool) "churn exercised" true (!joins > 0 && !leaves > 0);
  Alcotest.(check bool) "remote updates witnessed" true (!seen > 0)

(* Fingerprints (MD5 of the marshalled vis pairs, span stream and lag
   histogram) recorded with the full-list assembly, before the delta
   recorder: the span stream is unchanged event for event, not only its
   Visible spans. A deliberate change to spans, fault plans or stores
   moves these; regenerate them then. The span fingerprints of three runs
   were regenerated when the anti-entropy log began trimming at the
   stable prefix: a request or push below the floor is answered from the
   floor, so twelve repair Transmit spans carry fewer payloads; every
   other span, the vis pairs and the lag histogram are unchanged. *)
let golden () =
  let module D = Drive (Store.Causal_mvr_store) in
  List.iter
    (fun (churn, seed, vis, spans, lag) ->
      let sim = D.run ~mix:Sim.Workload.register_mix ~churn ~spans:true ~seed in
      let name = Printf.sprintf "seed %d%s" seed (if churn then " churn" else "") in
      Alcotest.(check string) (name ^ ": vis pairs") vis
        (md5 (Abstract.vis_pairs (D.R.witness_abstract sim)));
      Alcotest.(check string) (name ^ ": spans") spans (md5 (D.R.spans sim));
      Alcotest.(check string) (name ^ ": lag") lag (md5 (D.R.visibility_lag sim)))
    [
      ( false, 1, "fcd59c664ba3b40857a14b3442426958", "473f3c124a54f2d630a47f609cbda036",
        "9612d7b16a07e55ea5aa8f1df761f29d" );
      ( true, 1, "05738b7c7799ec36ed894261f3e92efd", "378b074d2c944912dc2caa3f921bf643",
        "21e571959a0acd14289374ac15d2607c" );
      ( false, 2, "9f87975fbff620ef31259a9c51fb0ba3", "b06a572b9404b9fb8a6a55798f4cff55",
        "953ac0060f4bad77586f8e9e4e801c33" );
      ( true, 2, "38e81d91c0b09264608e4822b431d566", "ce094675d53ffcc993ed2e4581a02d01",
        "8f41ac2a4bb43116858b9643accb4e1c" );
    ]

(* ---------- live capture ---------- *)

let live_equivalence (module S : Store_intf.S) ~mix () =
  let module C = Live.Cluster.Make (Sim.Stack.Volatile (Recording (S))) in
  List.iter
    (fun seed ->
      Hashtbl.reset logs;
      let cfg = { Live.Cluster.default with replicas = 3; seed; objects = 16; zipf = 0.99; mix } in
      let r = C.run_inline ~ops_per_replica:60 cfg in
      let wit = Option.get r.Live.Cluster.witness in
      let expected, _ = reference ~n:3 (Abstract.events wit) in
      Alcotest.check pairs
        (Printf.sprintf "%s seed %d: vis pairs" S.name seed)
        (Abstract.vis_pairs expected) (Abstract.vis_pairs wit))
    [ 1; 2; 3 ]

(* ---------- the online checker on recorded deltas ---------- *)

module Checks = Sim.Checks
module Online = Consistency.Online

let failures = Alcotest.(list (pair string string))

(* [Checks.validate] must equal [Helpers.batch_report] field by field;
   a report's failures list names every field that is not [Ok], with its
   message, so equal lists are equal reports. Also compared per chaos
   level, as [Chaos.failures] filters them. *)
let same_report name ~online ~batch =
  Alcotest.check failures name (Checks.failures batch) (Checks.failures online);
  List.iter
    (fun level ->
      let keep r = List.filter (fun (c, _) -> List.mem c (Sim.Chaos.required level)) (Checks.failures r) in
      Alcotest.check failures name (keep batch) (keep online))
    [ `Converge; `Correct; `Causal; `Occ ]

let online_on_chaos (module S : Store_intf.S) ~mix ~spec () =
  let module D = Drive (S) in
  let spec_of _ = spec in
  let verdicts = ref [] in
  for seed = 1 to 12 do
    let sim = D.run ~mix ~churn:false ~spans:false ~seed in
    let exec = D.R.execution sim and wit = D.R.witness_abstract sim in
    let batch = Helpers.batch_report ~spec_of exec wit in
    let name = Printf.sprintf "%s seed %d" S.name seed in
    same_report name ~batch
      ~online:(Checks.validate ~spec_of ~deltas:(D.R.witness_deltas sim) exec wit);
    same_report (name ^ " (deltas from rows)") ~batch ~online:(Checks.validate ~spec_of exec wit);
    verdicts := (batch.Checks.correct, batch.Checks.causal) :: !verdicts
  done;
  !verdicts

let online_chaos_stores () =
  let runs =
    List.concat_map
      (fun (store, mix, spec) -> online_on_chaos store ~mix ~spec ())
      [
        ((module Store.Mvr_store : Store_intf.S), Sim.Workload.register_mix, Spec.Spec.mvr);
        ((module Store.Causal_mvr_store), Sim.Workload.register_mix, Spec.Spec.mvr);
        ((module Store.Orset_store), Sim.Workload.orset_mix, Spec.Spec.orset);
        ((module Store.Lww_store), Sim.Workload.register_mix, Spec.Spec.rw_register);
        ((module Store.Delayed_store.K3), Sim.Workload.register_mix, Spec.Spec.mvr);
      ]
  in
  (* both verdicts of both checks must occur, or the comparison is idle *)
  let has p = List.exists p runs in
  Alcotest.(check bool) "some run correct" true (has (fun (c, _) -> Result.is_ok c));
  Alcotest.(check bool) "some run incorrect" true (has (fun (c, _) -> Result.is_error c));
  Alcotest.(check bool) "some run causal" true (has (fun (_, c) -> Result.is_ok c));
  Alcotest.(check bool) "some run not causal" true (has (fun (_, c) -> Result.is_error c))

(* The execution whose only events are [a]'s do events, in [H] order: it
   complies with [a], so the whole report of an abstract execution can be
   compared, not only its two verdicts. *)
let exec_of a =
  Model.Execution.of_list ~n:(Abstract.n_replicas a)
    (List.map (fun d -> Event.Do d) (Array.to_list (Abstract.events a)))

let online_occ_gen () =
  let rng = Util.Rng.create 17 in
  for k = 1 to 20 do
    let a = Construction.Occ_gen.generate rng ~n:(3 + (k mod 3)) ~size_hint:(10 + k) in
    List.iter
      (fun (what, a) ->
        let spec_of _ = Spec.Spec.mvr and exec = exec_of a in
        same_report (Printf.sprintf "Occ_gen execution %d (%s)" k what)
          ~batch:(Helpers.batch_report ~spec_of exec a) ~online:(Checks.validate ~spec_of exec a))
      [ ("as generated", a); ("perturbed", Helpers.perturb_response rng a) ]
  done

let online_run_inline () =
  let module C = Live.Cluster.Make (Sim.Stack.Volatile (Store.Causal_mvr_store)) in
  let cfg =
    { Live.Cluster.default with replicas = 3; seed = 4; objects = 16; zipf = 0.99;
      mix = Live.Load.register_mix }
  in
  let r = C.run_inline ~ops_per_replica:80 cfg in
  let exec = Option.get r.Live.Cluster.trace and wit = Option.get r.Live.Cluster.witness in
  same_report "run_inline capture" ~batch:(Helpers.batch_report exec wit)
    ~online:(Checks.validate exec wit)

(* The reference for [Online.iter_deltas]: the same deltas from one
   [Abstract.vis] test per pair of events. *)
let reference_deltas a =
  let last = Hashtbl.create 8 and acc = ref [] in
  for j = 0 to Abstract.length a - 1 do
    let d = Abstract.event a j in
    let prev = Hashtbl.find_opt last d.Event.replica in
    let fresh i =
      match prev with Some p -> i <> p && not (Abstract.vis a i p) | None -> true
    in
    let delta = ref [] in
    for i = j - 1 downto 0 do
      if Abstract.vis a i j && fresh i then delta := i :: !delta
    done;
    Hashtbl.replace last d.Event.replica j;
    acc := (d, !delta) :: !acc
  done;
  List.rev !acc

(* A recorded delta lists its members in the order the store reported
   them, so deltas are compared as sets. *)
let collect iter =
  let acc = ref [] in
  iter (fun d delta -> acc := (d, List.sort compare delta) :: !acc);
  List.rev !acc

let deltas_of (module S : Store_intf.S) ~mix () =
  let module D = Drive (S) in
  List.iter
    (fun churn ->
      for seed = 1 to 4 do
        let sim = D.run ~mix ~churn ~spans:false ~seed in
        let wit = D.R.witness_abstract sim in
        let name = Printf.sprintf "%s seed %d%s" S.name seed (if churn then " churn" else "") in
        let words = collect (Online.iter_deltas wit) in
        if words <> reference_deltas wit then
          Alcotest.failf "%s: word-wise deltas differ from the bit-test reference" name;
        if words <> collect (D.R.witness_deltas sim) then
          Alcotest.failf "%s: word-wise deltas differ from the recorded deltas" name
      done)
    [ false; true ]

let deltas_match () =
  deltas_of (module Store.Causal_mvr_store) ~mix:Sim.Workload.register_mix ();
  deltas_of (module Store.Causal_orset_store) ~mix:Sim.Workload.orset_mix ();
  deltas_of (module Store.Lww_store) ~mix:Sim.Workload.register_mix ();
  deltas_of (module Store.Cops_store) ~mix:Sim.Workload.register_mix ();
  deltas_of (module Store.Delayed_store.K3) ~mix:Sim.Workload.register_mix ()

let store name (module S : Store_intf.S) ~mix =
  Alcotest.test_case ("sim: " ^ name ^ " deltas match the full-list assembly") `Quick
    (sim_equivalence (module S) ~mix)

let suite =
  ( "witness",
    [
      store "causal MVR" (module Store.Causal_mvr_store) ~mix:Sim.Workload.register_mix;
      store "causal OR-set" (module Store.Causal_orset_store) ~mix:Sim.Workload.orset_mix;
      store "LWW" (module Store.Lww_store) ~mix:Sim.Workload.register_mix;
      store "COPS" (module Store.Cops_store) ~mix:Sim.Workload.register_mix;
      store "delayed-read" (module Store.Delayed_store.K3) ~mix:Sim.Workload.register_mix;
      Alcotest.test_case "sim: span stream and lag match the full-list runner" `Quick golden;
      Alcotest.test_case "live: run_inline deltas match the full-list assembly" `Quick
        (fun () ->
          live_equivalence (module Store.Causal_mvr_store) ~mix:Live.Load.register_mix ();
          live_equivalence (module Store.Causal_orset_store) ~mix:Live.Load.orset_mix ();
          live_equivalence (module Store.Cops_store) ~mix:Live.Load.register_mix ());
      Alcotest.test_case "online: chaos-schedule runs give the batch reports" `Quick
        online_chaos_stores;
      Alcotest.test_case "online: Occ_gen executions give the batch verdicts" `Quick
        online_occ_gen;
      Alcotest.test_case "online: a run_inline capture gives the batch report" `Quick
        online_run_inline;
      Alcotest.test_case "online: word-wise deltas equal the bit-test and recorded deltas" `Quick
        deltas_match;
    ] )
