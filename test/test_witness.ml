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
module Vclock = Clock.Vclock
module Dot = Clock.Dot

(* ---------- the reference ---------- *)

(* Every witness forced through the wrapper, per replica, newest first,
   with the object of its operation. Durable recovery replays ops without
   forcing theirs, so each replica's log lines up with its do events in
   program order. *)
let logs : (int, (int * Store_intf.witness) list) Hashtbl.t = Hashtbl.create 8

let taken_on replica = List.rev (Option.value (Hashtbl.find_opt logs replica) ~default:[])

let taken replica = List.map snd (taken_on replica)

module Recording (S : Store_intf.S) : Store_intf.S = struct
  type state = { me : int; inner : S.state }

  let name = S.name
  let invisible_reads = S.invisible_reads
  let op_driven = S.op_driven
  let create cfg ~n ~me = { me; inner = S.create cfg ~n ~me }
  let init = create Store_intf.default

  let do_op t ~obj op =
    let inner, rval, w = S.do_op t.inner ~obj op in
    let w =
      lazy
        (let w = Lazy.force w in
         Hashtbl.replace logs t.me
           ((obj, w) :: Option.value (Hashtbl.find_opt logs t.me) ~default:[]);
         w)
    in
    ({ t with inner }, rval, w)

  let has_pending t = S.has_pending t.inner

  let send t =
    let inner, payload = S.send t.inner in
    ({ t with inner }, payload)

  let receive t ~sender payload = { t with inner = S.receive t.inner ~sender payload }
end

(* The full-list assembly over [dos] (in H order): the visibility edges
   from every witness resolved against the final dot table, and the
   (update, observer) pairs in the order the runner first saw each, with
   dots resolved as of the observing operation. *)
let reference_edges (dos : Event.do_event array) =
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
        (Store_intf.visible_keys w))
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
        (Store_intf.visible_keys wits.(j));
      Option.iter (fun k -> Hashtbl.replace so_far k j) (self_key j))
    dos;
  (!vis, List.rev !firsts)

(* ... and the abstract execution they give *)
let reference ~n dos =
  let vis, firsts = reference_edges dos in
  (Abstract.create ~n dos ~vis, firsts)

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

module Drive_stack (St : Sim.Stack.S) = struct
  module R = Runner.Make (St)

  (* [Chaos.run_plan]'s schedule on the stack [St], keeping the runner
     for its witness, and the H index of the first audit read.
     [~object_major:true] issues the audit reads object by object, in
     [Chaos.run_plan]'s order, so the two runs are the same execution.
     [?size] is [(n, objects, ops)]. *)
  let run_q ?(object_major = false) ?size ~mix ~churn ~spans ~seed () =
    let n, objects, ops =
      match size with Some size -> size | None -> if churn then (3, 3, 60) else (4, 4, 80)
    in
    let plan, steps = Sim.Chaos.derive ~n ~objects ~ops ~mix ~adversarial:true ~churn ~seed () in
    let capacity, initial =
      match plan.Fault_plan.churn with
      | None -> (n, n)
      | Some c -> (c.Fault_plan.capacity, c.Fault_plan.initial)
    in
    Hashtbl.reset logs;
    let sim =
      R.create ~seed ~config:Store.Store_intf.default ~n:capacity ~initial ~record_spans:spans
        ~policy:(Sim.Net_policy.random_delay ()) ~faults:plan ~stack:(module St) ()
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
    let quiescent_at = List.length (Model.Execution.do_events (R.execution sim)) in
    let readers = List.filter serving (Sim.Membership.members (R.membership sim)) in
    let read replica obj = ignore (R.op sim ~replica ~obj Model.Op.Read) in
    if object_major then
      for obj = 0 to objects - 1 do
        List.iter (fun replica -> read replica obj) readers
      done
    else List.iter (fun replica -> for obj = 0 to objects - 1 do read replica obj done) readers;
    (sim, quiescent_at)

  let run ~mix ~churn ~spans ~seed = fst (run_q ~mix ~churn ~spans ~seed ())

  let visible sim = List.filter_map (function Span.Visible v -> Some v | _ -> None) (R.spans sim)

  (* One seed with spans on, checked against the reference, then again
     with spans off: the same run, whose lag samples are the plain
     visible-minus-issue differences of the same (update, observer)
     pairs. Returns the spans-on runner. *)
  let check ~mix ~churn ~seed =
    let sim = run ~mix ~churn ~spans:true ~seed in
    let wit = R.witness_abstract sim in
    let expected, firsts = reference ~n:(R.n_replicas sim) (Abstract.events wit) in
    let name = Printf.sprintf "%s seed %d%s" St.name seed (if churn then " churn" else "") in
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

(* the default chaos stack, its store's witnesses recorded *)
module Drive (S : Store_intf.S) = Drive_stack (Sim.Stack.Durable (Recording (S)))

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
   other span, the vis pairs and the lag histogram are unchanged. All
   twelve were regenerated when anti-entropy became pull-only: no replica
   pushes a repair on seeing a digest any more, so repairs leave at other
   times and to fewer replicas, and the visibility every later operation
   sees moves with them. They were regenerated again when repair requests
   became bounded at the asker's first held payload and re-asks were
   timed by measured round trips: repairs carry fewer payloads and
   leave in other rounds (seed 2 without churn keeps its vis pairs and
   lag histogram; only its span stream moved). Three runs' fingerprints
   moved again when a durable replica began recovering from a state
   image: it keeps the control state it had at the last image (ask
   table, RTT estimates, round counter) instead of restarting it, so it
   gossips and asks at other times after a crash (seed 1 with churn is
   unchanged). Two runs moved when a gap came to have one ask
   outstanding, rotated over the peers that can fill it, instead of one
   ask per peer whose digest shows it: fewer requests and repairs leave,
   to other peers. Seed 1 without churn moved in all three; seed 2 with
   churn kept its vis pairs, and its span stream and lag histogram
   moved. Seed 1 with churn and seed 2 without are unchanged. All four
   runs moved when an ask came to stay open until its answer arrives or
   its window is filled, instead of closing on any progress: fewer
   re-asks and repairs leave, in other rounds. Seed 2 with churn kept
   its vis pairs; every other fingerprint moved. Adding the ask's window
   end to the ask table alone, with the old rule, moves none of them.
   All four runs moved again when a durable recovery came to replay the
   gossip tick and the membership announcements, and a corrupted
   delivery's mutation to draw from a stream split off the schedule's:
   a recovered replica asks and gossips as the crashed one would have,
   whenever its last image was taken. Only the four span fingerprints
   moved when the v2 envelope header shrank to one byte and causal
   records stopped sending their seq: spans hash the transmitted
   payloads, and nothing else changed. *)
let golden () =
  let module D = Drive (Store.Causal_mvr_store) in
  let fingerprints (churn, seed) =
    let sim = D.run ~mix:Sim.Workload.register_mix ~churn ~spans:true ~seed in
    ( Printf.sprintf "seed %d%s" seed (if churn then " churn" else ""),
      [
        ("vis pairs", md5 (Abstract.vis_pairs (D.R.witness_abstract sim)));
        ("spans", md5 (D.R.spans sim));
        ("lag", md5 (D.R.visibility_lag sim));
      ] )
  in
  (* one check over all twelve, so a failure prints every fingerprint *)
  Alcotest.(check (list (pair string (list (pair string string)))))
    "fingerprints"
    [
      ( "seed 1",
        [
          ("vis pairs", "a7788d4cf62d33e8b6b6358b5ebe17cb");
          ("spans", "caa95e8da5086b4917a85fcd6e391899");
          ("lag", "4ea19d4d1b9a1a487c799db4fecfc573");
        ] );
      ( "seed 1 churn",
        [
          ("vis pairs", "e46c46514440382eef92659719c64e7d");
          ("spans", "e365c732a967c87203628020f43c2da3");
          ("lag", "892df7153a88217324ab2a8741aa5cdf");
        ] );
      ( "seed 2",
        [
          ("vis pairs", "dee832faa6e18a9ad06586b682338708");
          ("spans", "12e153b60452cf6e2c4a58a5ea63c762");
          ("lag", "3634c0d5902716e83669ced4c6599227");
        ] );
      ( "seed 2 churn",
        [
          ("vis pairs", "66f7ba7729e2c9c90a8c9bab06f48170");
          ("spans", "837e600009ae4e88bcd23bb5fac43154");
          ("lag", "890730a3a5f2a1b1acb9000a38a13e64");
        ] );
    ]
    (List.map fingerprints [ (false, 1); (true, 1); (false, 2); (true, 2) ])

(* ---------- frontier witnesses ---------- *)

(* The per-replica filter [Witness.fresh] replaced: every key of the
   expanded witness not seen before, in order, each marked seen; then the
   operation's own dot. *)
let reference_fresh seen ~obj (w : Store_intf.witness) =
  let keys =
    List.filter
      (fun key ->
        (not (Hashtbl.mem seen key))
        && begin
             Hashtbl.add seen key ();
             true
           end)
      (Store_intf.visible_keys w)
  in
  Option.iter (fun dot -> Hashtbl.replace seen (obj, dot) ()) w.Store_intf.self;
  keys

(* Feed one replica's witnesses to both filters; they must agree key for
   key, in order. *)
let same_fresh name witnesses =
  let seen = Sim.Witness.seen () and reference = Hashtbl.create 64 in
  List.iteri
    (fun k (obj, w) ->
      let got = Sim.Witness.fresh seen ~obj w in
      let expected = reference_fresh reference ~obj w in
      if got.Sim.Witness.keys <> expected then
        Alcotest.failf "%s, witness %d: fresh gives %d keys, the list filter %d" name k
          (List.length got.Sim.Witness.keys) (List.length expected);
      if got.Sim.Witness.self <> w.Store_intf.self then
        Alcotest.failf "%s, witness %d: self not passed through" name k)
    witnesses

(* Every store class, chaos schedules with crashes and churn: the
   frontier filter equals the list filter over [visible_keys]. *)
let frontier_equivalence () =
  let stores =
    let reg = Sim.Workload.register_mix and set = Sim.Workload.orset_mix in
    [
      ((module Store.Mvr_store : Store_intf.S), reg);
      ((module Store.Causal_mvr_store), reg);
      ((module Store.Cops_store), reg);
      ((module Store.State_mvr_store), reg);
      ((module Store.Gossip_relay_store), reg);
      ((module Store.Causal_naive_store), reg);
      ((module Store.Delayed_store.K3), reg);
      ((module Store.Lww_store), reg);
      ((module Store.Causal_reg_store), reg);
      ((module Store.Orset_store), set);
      ((module Store.Causal_orset_store), set);
      ((module Store.Counter_store.Eager), set);
      ((module Store.Counter_store.Causal), set);
      ((module Store.Gsp_store), reg);
    ]
  in
  let keys = ref 0 in
  List.iter
    (fun ((module S : Store_intf.S), mix) ->
      let module D = Drive (S) in
      List.iter
        (fun churn ->
          List.iter
            (fun seed ->
              (try ignore (D.run ~mix ~churn ~spans:false ~seed)
               with Runner.Divergence _ -> ());
              Hashtbl.iter
                (fun replica _ ->
                  let ws = taken_on replica in
                  List.iter
                    (fun (_, w) -> keys := !keys + List.length (Store_intf.visible_keys w))
                    ws;
                  same_fresh
                    (Printf.sprintf "%s seed %d%s replica %d" S.name seed
                       (if churn then " churn" else "") replica)
                    ws)
                logs)
            [ 1; 2; 3 ])
        [ false; true ])
    stores;
  Alcotest.(check bool) "witnesses name keys" true (!keys > 0)

let summary ?(frontier = [||]) ?(extras = []) obj =
  {
    Store_intf.obj;
    frontier = (if frontier = [||] then None else Some (Vclock.of_array frontier));
    extras = List.map (fun (replica, seq) -> Dot.make ~replica ~seq) extras;
  }

let keys_of = List.map (fun (obj, (d : Dot.t)) -> (obj, d.Dot.replica, d.Dot.seq))

(* Hand-made witnesses through both filters, with the keys [fresh] must
   give spelled out. *)
let fresh_cases name steps =
  let seen = Sim.Witness.seen () and reference = Hashtbl.create 8 in
  List.iteri
    (fun k (obj, w, expected) ->
      let what = Printf.sprintf "%s, step %d" name k in
      Alcotest.(check (list (triple int int int)))
        what expected
        (keys_of (Sim.Witness.fresh seen ~obj w).Sim.Witness.keys);
      Alcotest.(check (list (triple int int int)))
        (what ^ ": list filter") expected
        (keys_of (reference_fresh reference ~obj w)))
    steps

let extra_then_frontier () =
  let w visible = { Store_intf.visible; self = None } in
  fresh_cases "extra then frontier"
    [
      (0, w [ summary 0 ~extras:[ (1, 2) ] ], [ (0, 1, 2) ]);
      (* the frontier covers the extra: only the gap's sides are new *)
      (0, w [ summary 0 ~frontier:[| 0; 3 |] ], [ (0, 1, 1); (0, 1, 3) ]);
      (0, w [ summary 0 ~frontier:[| 0; 3 |] ~extras:[ (1, 2); (1, 5) ] ], [ (0, 1, 5) ]);
      (* another object keeps its own counts *)
      (0, w [ summary 1 ~frontier:[| 0; 2 |]; summary 0 ~frontier:[| 1; 5 |] ],
        [ (1, 1, 1); (1, 1, 2); (0, 0, 1); (0, 1, 4) ]);
      (0, w [ summary 0 ~frontier:[| 1; 6 |] ~extras:[ (1, 2) ] ], [ (0, 1, 6) ]);
    ]

let self_above_high_water () =
  let w ?self visible =
    { Store_intf.visible; self = Option.map (fun seq -> Dot.make ~replica:0 ~seq) self }
  in
  fresh_cases "self above the high-water count"
    [
      (2, w ~self:3 [], []);
      (* the self dot (0, 3) stays seen while the frontier passes it *)
      (2, w [ summary 2 ~frontier:[| 4 |] ], [ (2, 0, 1); (2, 0, 2); (2, 0, 4) ]);
      (2, w ~self:6 [ summary 2 ~frontier:[| 4 |] ], []);
      (2, w [ summary 2 ~frontier:[| 7 |] ~extras:[ (0, 6); (0, 9) ] ],
        [ (2, 0, 5); (2, 0, 7); (2, 0, 9) ]);
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

let occ = Alcotest.testable (fun ppf o -> Fmt.string ppf (Checks.occ_text o)) ( = )

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

(* Both verdicts of each named check occur among [reports], or the
   comparison is idle. *)
let both_verdicts reports names =
  List.iter
    (fun name ->
      let failed r = List.mem_assoc name (Checks.failures r) in
      Alcotest.(check bool) ("some run passes " ^ name) true
        (List.exists (fun r -> not (failed r)) reports);
      Alcotest.(check bool) ("some run fails " ^ name) true (List.exists failed reports))
    names

let online_on_chaos (module S : Store_intf.S) ~mix ~spec () =
  let module D = Drive (S) in
  let spec_of _ = spec in
  List.init 12 (fun k ->
      let seed = k + 1 in
      let sim, quiescent_at = D.run_q ~mix ~churn:false ~spans:false ~seed () in
      let exec = D.R.execution sim and wit = D.R.witness_abstract sim in
      let batch = Helpers.batch_report ~spec_of ~quiescent_at exec wit in
      let name = Printf.sprintf "%s seed %d" S.name seed in
      same_report name ~batch
        ~online:
          (Checks.validate_deltas ~spec_of ~quiescent_at ~n:(D.R.n_replicas sim)
             ~deltas:(D.R.witness_deltas sim) exec);
      same_report (name ^ " (deltas from rows)") ~batch
        ~online:(Checks.validate ~spec_of ~quiescent_at exec wit);
      batch)

let online_chaos_stores () =
  let reports =
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
  both_verdicts reports [ "correct"; "causal"; "occ"; "eventual" ]

(* The known-failing target: [Chaos.run_plan] on the eager MVR store at
   [`Occ], whose OCC verdict must be the batch one over the same run's
   witness, rebuilt by [Drive]. *)
let online_occ_sweep () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let module D = Drive (Store.Mvr_store) in
  let mix = Sim.Workload.register_mix in
  let reports =
    List.init 8 (fun k ->
        let seed = k + 1 in
        let o = C.run ~n:4 ~objects:4 ~ops:80 ~mix ~adversarial:true ~require:`Occ ~seed () in
        let sim, quiescent_at =
          D.run_q ~object_major:true ~mix ~churn:false ~spans:false ~seed ()
        in
        let exec = D.R.execution sim in
        let name = Printf.sprintf "mvr-eager seed %d at `Occ" seed in
        if Model.Execution.do_events exec <> Model.Execution.do_events o.Sim.Chaos.exec then
          Alcotest.failf "%s: the rebuilt run differs from the chaos run" name;
        let batch = Helpers.batch_report ~quiescent_at exec (D.R.witness_abstract sim) in
        (match o.Sim.Chaos.result with
        | Ok r -> Alcotest.check occ name batch.Checks.occ r.Checks.occ
        | Error m -> Alcotest.failf "%s: %s" name m);
        batch)
  in
  Alcotest.(check bool) "some seed fails occ" true
    (List.exists (fun r -> List.mem_assoc "occ" (Checks.failures r)) reports)

(* OCC that cannot run is not a violation: an OR-set run has adds and no
   writes, so its verdict is n/a — a failure only where OCC is required —
   while the eager MVR store's violations stay violations. *)
let occ_not_applicable_is_not_a_violation () =
  let module Orset = Sim.Chaos.Make (Store.Orset_store) in
  let orset require =
    Orset.run ~spec_of:(fun _ -> Spec.Spec.orset) ~mix:Sim.Workload.orset_mix ~require
      ~seed:1 ()
  in
  (match (orset `Occ).Sim.Chaos.result with
  | Ok r -> Alcotest.check occ "or-set" (Checks.Occ_not_applicable "no writes") r.Checks.occ
  | Error m -> Alcotest.failf "or-set run: %s" m);
  Alcotest.check failures "a required n/a fails the run" [ ("occ", "n/a (no writes)") ]
    (List.filter (fun (c, _) -> c = "occ") (Sim.Chaos.failures (orset `Occ)));
  Alcotest.check failures "an unrequired n/a does not" []
    (List.filter (fun (c, _) -> c = "occ") (Sim.Chaos.failures (orset `Correct)));
  let module Mvr = Sim.Chaos.Make (Store.Mvr_store) in
  let violated seed =
    match (Mvr.run ~n:4 ~objects:4 ~ops:80 ~adversarial:true ~require:`Occ ~seed ()).result with
    | Ok { Checks.occ = Checks.Occ_violated _; _ } -> true
    | Ok _ | Error _ -> false
  in
  Alcotest.(check bool) "an eager MVR seed violates OCC" true
    (List.exists violated (List.init 8 succ))

(* The execution whose only events are [a]'s do events, in [H] order: it
   complies with [a], so the whole report of an abstract execution can be
   compared, not only its two verdicts. *)
let exec_of a =
  Model.Execution.of_list ~n:(Abstract.n_replicas a)
    (List.map (fun d -> Event.Do d) (Array.to_list (Abstract.events a)))

let same_abstract ?quiescent_at name a =
  let spec_of _ = Spec.Spec.mvr and exec = exec_of a in
  let batch = Helpers.batch_report ~spec_of ?quiescent_at exec a in
  same_report name ~batch ~online:(Checks.validate ~spec_of ?quiescent_at exec a);
  batch

let online_occ_gen () =
  let rng = Util.Rng.create 17 in
  let reports =
    List.concat
      (List.init 20 (fun k ->
           let k = k + 1 and n = 3 + (k mod 3) in
           let a = Construction.Occ_gen.generate rng ~n ~size_hint:(10 + k) in
           let planted =
             Construction.Occ_gen.planted rng ~n ~groups:(1 + (k mod 3)) ~readers:(1 + (k mod 2)) ()
           in
           List.map
             (fun (what, a) ->
               let quiescent_at = k mod (Abstract.length a + 1) in
               same_abstract ~quiescent_at (Printf.sprintf "Occ_gen execution %d (%s)" k what) a)
             [
               ("as generated", a);
               ("perturbed", Helpers.perturb_response rng a);
               ("planted", planted);
               ("planted, perturbed", Helpers.perturb_response rng planted);
               (* the first gadget's shared object alone: no witnesses left *)
               ("planted, one object", fst (Abstract.restrict_object planted 0));
             ]))
  in
  both_verdicts reports [ "correct"; "occ"; "eventual" ]

(* OCC outside its checkable class, and values written later in H: the
   same [Error] message, or the same verdict, as the batch check. *)
let online_occ_unsupported () =
  let open Helpers in
  let case name h ~vis expected =
    let batch = same_abstract name (Abstract.create ~n:3 h ~vis) in
    Alcotest.check occ name expected batch.Checks.occ
  in
  case "a value written twice"
    [| w_ 0 0 1; w_ 1 0 1; w_ 1 0 2; rd_ 2 0 [ 1; 2 ] |]
    ~vis:[ (0, 3); (1, 3); (2, 3) ]
    (Checks.Occ_not_applicable "multiple writes of value 1");
  case "a value never written"
    [| w_ 0 0 1; rd_ 2 0 [ 1; 7 ] |]
    ~vis:[ (0, 1) ]
    (Checks.Occ_not_applicable "no write of value 7");
  (* Figure 3c after the read: each writer's side write is the witness
     the other side needs *)
  case "values written later in H"
    [| rd_ 2 0 [ 1; 2 ]; w_ 0 1 3; w_ 1 2 4; w_ 0 0 1; w_ 1 0 2 |]
    ~vis:[] Checks.Occ_holds;
  case "values written later in H, witnesses seen"
    [| rd_ 2 0 [ 1; 2 ]; w_ 0 1 3; w_ 1 2 4; w_ 0 0 1; w_ 1 0 2 |]
    ~vis:[ (1, 4); (2, 3) ]
    (Checks.Occ_violated "1 OCC violations; first: read 0 over writes (3,4)");
  case "the first unsupported read wins"
    [| w_ 0 0 1; w_ 1 0 2; rd_ 2 0 [ 1; 2 ]; rd_ 2 0 [ 1; 9 ]; rd_ 2 1 [ 8; 9 ] |]
    ~vis:[ (0, 2); (1, 2) ]
    (Checks.Occ_not_applicable "no write of value 9")

(* [correct] and [causal] fail at event 0, and the later reads return
   two concurrent writes without witnesses. The pasts and raw rows that
   OCC and eventual read must outlive those failures. *)
let online_verdicts_decoupled () =
  let open Helpers in
  let a =
    Abstract.create ~n:3
      [| rd_ 0 2 [ 5 ]; w_ 0 0 1; w_ 1 0 2; rd_ 2 0 [ 1; 2 ]; rd_ 1 0 [ 1; 2 ] |]
      ~vis:[ (1, 3); (2, 3); (1, 4) ]
  in
  let r = same_abstract ~quiescent_at:3 "decoupled verdicts" a in
  let is_error = function Ok () -> false | Error _ -> true in
  Alcotest.(check bool) "correct fails" true (is_error r.Checks.correct);
  Alcotest.(check bool) "causal fails" true (is_error r.Checks.causal);
  Alcotest.check occ "occ"
    (Checks.Occ_violated "2 OCC violations; first: read 3 over writes (1,2)") r.Checks.occ;
  Alcotest.(check (result unit string)) "eventual" (Ok ()) r.Checks.eventual

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
        let table = collect (Online.iter_deltas wit) in
        if table <> reference_deltas wit then
          Alcotest.failf "%s: table deltas differ from the bit-test reference" name;
        if table <> collect (D.R.witness_deltas sim) then
          Alcotest.failf "%s: table deltas differ from the recorded deltas" name
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

(* ---------- payload bytes steer nothing ---------- *)

(* [V] with every payload it sends padded by [k] zero bytes, stripped
   again on receive: under {!Sim.Stack.Durable_over}, the durable log and
   the frames the runner seals and corrupts carry the padding, and the
   replica protocol never sees it. *)
module Padded (K : sig
  val k : int
end)
(V : Sim.Stack.S) : Sim.Stack.S = struct
  include V

  let pad = String.make K.k '\000'

  let send t =
    let t, payload = V.send t in
    (t, payload ^ pad)

  let receive t ~sender payload =
    V.receive t ~sender (String.sub payload 0 (String.length payload - K.k))
end

let counts_bytes name =
  let rec from i =
    i + 5 <= String.length name && (String.sub name i 5 = "bytes" || from (i + 1))
  in
  from 0

(* What a run did, byte counts left out: the runner's fault counters, its
   metrics whose names do not count bytes (the lag histogram among them),
   the protocol counters summed over every replica with their byte
   fields zeroed, the witness deltas, and the execution's length. *)
module Observe (St : Sim.Stack.S) = struct
  module D = Drive_stack (St)

  let run ~seed =
    let sim, _ =
      D.run_q ~size:(4, 8, 400) ~mix:Sim.Workload.register_mix ~churn:false ~spans:false ~seed ()
    in
    let metrics =
      List.filter
        (fun (name, _) -> not (counts_bytes name))
        (Obs.Metrics.Registry.to_list (D.R.metrics sim))
    in
    let gossip =
      let g =
        List.fold_left
          (fun acc r -> Store_intf.add_gossip_stats acc (St.counters (D.R.replica_state sim r)))
          (Store_intf.fresh_gossip_stats ())
          (List.init (D.R.n_replicas sim) Fun.id)
      in
      {
        g with
        Store_intf.digest_bytes = 0;
        repair_bytes = 0;
        request_bytes = 0;
        update_bytes = 0;
        membership_bytes = 0;
        framing_bytes = 0;
      }
    in
    ( D.R.stats sim,
      metrics,
      gossip,
      collect (D.R.witness_deltas sim),
      Model.Execution.length (D.R.execution sim) )
end

(* Seeds of the sim-chaos shape (causal MVR, 4 replicas, 8 objects, 400
   ops, adversarial faults) whose plans crash a replica and open a
   corruption window. Padding every payload changes the bytes the durable
   log folds, and so when it re-images, and the frames corruption
   mangles; neither may move anything but a byte count. *)
let padding_steers_nothing () =
  let module Plain = Observe (Sim.Stack.Durable (Store.Causal_mvr_store)) in
  let padded k =
    let module St =
      Sim.Stack.Durable_over
        (Padded
           (struct
             let k = k
           end)
           (Sim.Stack.Volatile (Store.Causal_mvr_store))) in
    let module P = Observe (St) in
    P.run
  in
  let seeds =
    List.filter
      (fun seed ->
        let plan, _ = Sim.Chaos.derive ~n:4 ~objects:8 ~ops:400 ~adversarial:true ~seed () in
        plan.Fault_plan.crashes <> [] && plan.Fault_plan.corruption <> None)
      (List.init 20 (fun i -> i + 1))
  in
  let recovered = ref 0 and rejected = ref 0 in
  List.iter
    (fun seed ->
      let stats, metrics, gossip, deltas, events = Plain.run ~seed in
      recovered := !recovered + stats.Runner.recoveries;
      rejected := !rejected + stats.Runner.corrupt_rejected;
      List.iter
        (fun k ->
          let name what = Printf.sprintf "seed %d, %d bytes of padding: %s" seed k what in
          let stats', metrics', gossip', deltas', events' = padded k ~seed in
          Alcotest.(check bool) (name "runner counters") true (stats = stats');
          Alcotest.(check (list string)) (name "metric names") (List.map fst metrics)
            (List.map fst metrics');
          List.iter2
            (fun (metric, a) (_, b) -> Alcotest.(check bool) (name metric) true (a = b))
            metrics metrics';
          Alcotest.(check bool) (name "protocol counters") true (gossip = gossip');
          Alcotest.(check bool) (name "witness deltas") true (deltas = deltas');
          Alcotest.(check int) (name "events") events events')
        [ 1; 29 ])
    seeds;
  (* the seeds must exercise both paths *)
  Alcotest.(check bool) "some seeds chosen" true (List.length seeds >= 2);
  Alcotest.(check bool) "crash recoveries exercised" true (!recovered > 0);
  Alcotest.(check bool) "corrupt frames exercised" true (!rejected > 0)

let suite =
  ( "witness",
    [
      store "causal MVR" (module Store.Causal_mvr_store) ~mix:Sim.Workload.register_mix;
      store "causal OR-set" (module Store.Causal_orset_store) ~mix:Sim.Workload.orset_mix;
      store "LWW" (module Store.Lww_store) ~mix:Sim.Workload.register_mix;
      store "COPS" (module Store.Cops_store) ~mix:Sim.Workload.register_mix;
      store "delayed-read" (module Store.Delayed_store.K3) ~mix:Sim.Workload.register_mix;
      Alcotest.test_case "sim: span stream and lag match the full-list runner" `Quick golden;
      Alcotest.test_case "sim: padding every payload moves only byte counts" `Quick
        padding_steers_nothing;
      Alcotest.test_case "frontier: fresh equals the list filter for every store class" `Quick
        frontier_equivalence;
      Alcotest.test_case "frontier: a dot seen as an extra, then covered" `Quick
        extra_then_frontier;
      Alcotest.test_case "frontier: a self dot above the high-water count" `Quick
        self_above_high_water;
      Alcotest.test_case "live: run_inline deltas match the full-list assembly" `Quick
        (fun () ->
          live_equivalence (module Store.Causal_mvr_store) ~mix:Live.Load.register_mix ();
          live_equivalence (module Store.Causal_orset_store) ~mix:Live.Load.orset_mix ();
          live_equivalence (module Store.Cops_store) ~mix:Live.Load.register_mix ());
      Alcotest.test_case "online: chaos-schedule runs give the batch reports" `Quick
        online_chaos_stores;
      Alcotest.test_case "online: Occ_gen executions give the batch verdicts" `Quick
        online_occ_gen;
      Alcotest.test_case "online: the known-failing OCC chaos target gives the batch verdict"
        `Quick online_occ_sweep;
      Alcotest.test_case "online: unsupported OCC cases give the batch message" `Quick
        online_occ_unsupported;
      Alcotest.test_case "online: OCC without writes is n/a, not a violation" `Quick
        occ_not_applicable_is_not_a_violation;
      Alcotest.test_case "online: OCC and eventual outlive correct/causal failures" `Quick
        online_verdicts_decoupled;
      Alcotest.test_case "online: a run_inline capture gives the batch report" `Quick
        online_run_inline;
      Alcotest.test_case "online: table deltas equal the bit-test and recorded deltas" `Quick
        deltas_match;
    ] )
