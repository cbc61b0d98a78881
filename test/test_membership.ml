(* Dynamic membership: the epoch-stamped view, runner join/leave with
   anti-entropy bootstrap, the serving gate, churn chaos convergence, and
   the churn-aware shrinker. *)

open Helpers
open Haec
module Fault_plan = Sim.Fault_plan
module Membership = Sim.Membership
module Vclock = Clock.Vclock
module Trace_io = Model.Trace_io
module St = Sim.Stack.Volatile (Store.Mvr_store)
module R = Sim.Runner.Over (St)

(* ---------- the view, by itself ---------- *)

let test_view_transitions () =
  let m = Membership.create ~capacity:5 ~initial:3 in
  Alcotest.(check int) "epoch starts at zero" 0 (Membership.epoch m);
  Alcotest.(check (list int)) "initial members" [ 0; 1; 2 ] (Membership.members m);
  Alcotest.(check bool) "reserve is not a member" false (Membership.is_member m 3);
  let m = Membership.join m 3 in
  Alcotest.(check int) "join bumps the epoch" 1 (Membership.epoch m);
  Alcotest.(check bool) "joiner is a member" true (Membership.is_member m 3);
  Alcotest.(check bool) "joiner not yet serving" false (Membership.is_serving m 3);
  Alcotest.(check (list int)) "serving excludes the joiner" [ 0; 1; 2 ]
    (Membership.serving m);
  let m = Membership.promote m 3 in
  Alcotest.(check int) "promotion is epoch-neutral" 1 (Membership.epoch m);
  Alcotest.(check bool) "promoted joiner serves" true (Membership.is_serving m 3);
  let m = Membership.leave m 0 in
  Alcotest.(check int) "leave bumps the epoch" 2 (Membership.epoch m);
  Alcotest.(check bool) "departed is not a member" false (Membership.is_member m 0);
  Alcotest.(check (list int)) "members after churn" [ 1; 2; 3 ] (Membership.members m);
  Alcotest.(check int) "n_members" 3 (Membership.n_members m)

let test_view_errors () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let m = Membership.create ~capacity:4 ~initial:2 in
  (* only reserves join *)
  bad (fun () -> Membership.join m 0);
  (* a departed id never rejoins *)
  let m' = Membership.leave (Membership.join m 2) 2 in
  bad (fun () -> Membership.join m' 2);
  (* only members leave *)
  bad (fun () -> Membership.leave m 3)

(* ---------- runner join: bootstrap, serving gate, promotion ---------- *)

let make_sim ?(seed = 1) ?auto_send ?(initial = 3) ~n () =
  R.create ~seed ?auto_send ~policy:(Sim.Net_policy.random_delay ())
    ~initial ~n ()

(* Only a wire repair protocol can fill an empty joiner, and only a
   stack's progress tells when a graceful leaver has handed off its
   stream: a runner over a bare store refuses both before it touches the
   view. A crash-leave hands nothing off, so it still departs. *)
module Bare = Sim.Runner.Make (Store.Mvr_store)

let test_join_needs_a_stack () =
  let sim = Bare.create ~policy:(Sim.Net_policy.random_delay ()) ~initial:2 ~n:3 () in
  let members () = Membership.members (Bare.membership sim) in
  let epoch () = Membership.epoch (Bare.membership sim) in
  (match Bare.join sim ~replica:2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a bare runner accepted a join");
  Alcotest.(check bool) "the reserve stays out" false (Bare.is_member sim ~replica:2);
  Alcotest.(check int) "the epoch did not move" 0 (epoch ());
  ignore (Bare.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  (match Bare.leave sim ~replica:0 ~graceful:true with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a bare runner accepted a graceful leave");
  Alcotest.(check (list int)) "the graceful leaver stays" [ 0; 1 ] (members ());
  Alcotest.(check bool) "and keeps serving" true (Bare.is_serving sim ~replica:0);
  Alcotest.(check int) "the epoch still did not move" 0 (epoch ());
  Bare.leave sim ~replica:0 ~graceful:false;
  Alcotest.(check (list int)) "a crash-leave departs" [ 1 ] (members ());
  Alcotest.(check int) "and bumps the epoch" 1 (epoch ());
  Alcotest.(check int) "one leave counted" 1 (Bare.stats sim).Sim.Runner.leaves

let test_join_bootstrap_gate () =
  let sim = make_sim ~initial:2 ~n:3 () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  ignore (R.op sim ~replica:1 ~obj:1 (Op.Write (vi 2)));
  R.run_until_quiescent sim;
  (* the reserve id serves nobody before it joins *)
  Alcotest.(check bool) "reserve not a member" false (R.is_member sim ~replica:2);
  (match R.op sim ~replica:2 ~obj:0 Op.Read with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a reserve replica served a read");
  R.join sim ~replica:2;
  Alcotest.(check bool) "joiner is a member" true (R.is_member sim ~replica:2);
  Alcotest.(check bool) "joiner boots bootstrapping" false
    (R.is_serving sim ~replica:2);
  Alcotest.(check int) "join bumped the epoch" 1
    (Membership.epoch (R.membership sim));
  (* the gate: a bootstrapping joiner refuses reads — unavailable, never
     stale-causal *)
  (match R.op sim ~replica:2 ~obj:0 Op.Read with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a bootstrapping replica served a read");
  R.run_until_quiescent sim;
  Alcotest.(check bool) "promoted once caught up" true (R.is_serving sim ~replica:2);
  Alcotest.(check bool) "state transfer cost bytes on the wire" true
    (R.bootstrap_bytes sim > 0);
  Alcotest.(check int) "one bootstrap latency observation" 1
    (Obs.Metrics.Histogram.count (R.bootstrap_latency sim));
  Alcotest.(check int) "join counted" 1 (R.stats sim).Sim.Runner.joins;
  (* the promoted joiner answers, and agrees with the old members *)
  let r2 = R.op sim ~replica:2 ~obj:0 Op.Read in
  let r0 = R.op sim ~replica:0 ~obj:0 Op.Read in
  Alcotest.check check_response "joiner reads what the members read" r0 r2

let test_graceful_leave_flushes () =
  let sim = make_sim ~seed:2 ~auto_send:false ~n:3 () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 7)));
  Alcotest.(check bool) "update still pending at the leaver" true
    (R.has_pending sim ~replica:0);
  (* a graceful leave flushes everything before departing *)
  R.leave sim ~replica:0 ~graceful:true;
  Alcotest.(check bool) "leaver departed" false (R.is_member sim ~replica:0);
  Alcotest.(check int) "leave counted" 1 (R.stats sim).Sim.Runner.leaves;
  (match R.op sim ~replica:0 ~obj:0 Op.Read with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a departed replica served a read");
  R.run_until_quiescent sim;
  let r1 = R.op sim ~replica:1 ~obj:0 Op.Read in
  let r2 = R.op sim ~replica:2 ~obj:0 Op.Read in
  Alcotest.check check_response "survivor 1 got the farewell flush" (resp [ 7 ]) r1;
  Alcotest.check check_response "survivor 2 got the farewell flush" (resp [ 7 ]) r2;
  check_ok "trace well-formed" (Model.Execution.check_well_formed (R.execution sim))

(* Seed 190 of the gossip-relay churn sweep: R2 leaves gracefully while
   it is the only holder of its own seq 13 (every ask for it was lost on
   the wire). Departing then would take the update with it and fail
   [eventual]; the leaver must wait until a survivor holds its stream. *)
let test_graceful_leave_hands_off () =
  (* by hand: the leaver's update is in flight, held by nobody else *)
  let sim = make_sim ~seed:2 ~n:3 () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 7)));
  R.leave sim ~replica:0 ~graceful:true;
  Alcotest.(check bool) "leaver stops serving" false (R.is_serving sim ~replica:0);
  Alcotest.(check bool) "leaver still a member" true (R.is_member sim ~replica:0);
  Alcotest.(check int) "no leave yet" 0 (R.stats sim).Sim.Runner.leaves;
  (match R.op sim ~replica:0 ~obj:0 Op.Read with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a leaving replica served a read");
  R.run_until_quiescent sim;
  Alcotest.(check bool) "leaver departed" false (R.is_member sim ~replica:0);
  Alcotest.(check int) "leave counted" 1 (R.stats sim).Sim.Runner.leaves;
  Alcotest.check check_response "survivor holds the stream" (resp [ 7 ])
    (R.op sim ~replica:1 ~obj:0 Op.Read);
  check_ok "trace well-formed" (Model.Execution.check_well_formed (R.execution sim));
  let module C = Sim.Chaos.Make (Store.Gossip_relay_store) in
  let o = C.run ~require:`Correct ~adversarial:true ~churn:true ~seed:190 () in
  Alcotest.(check bool) "a replica left gracefully" true
    (List.exists
       (fun (l : Fault_plan.leave_event) -> l.Fault_plan.graceful)
       (Option.get o.Sim.Chaos.plan.Fault_plan.churn).Fault_plan.leaves);
  if not (Sim.Chaos.converged o) then Alcotest.failf "%a" Sim.Chaos.pp_outcome o

let test_crash_leave_survivors_converge () =
  let sim = make_sim ~seed:3 ~n:3 () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  ignore (R.op sim ~replica:1 ~obj:0 (Op.Write (vi 2)));
  ignore (R.op sim ~replica:2 ~obj:1 (Op.Write (vi 3)));
  (* replica 1 vanishes mid-protocol: no goodbye, in-flight deliveries to
     it are lost for good *)
  R.leave sim ~replica:1 ~graceful:false;
  R.run_until_quiescent sim;
  List.iter
    (fun obj ->
      let r0 = R.op sim ~replica:0 ~obj Op.Read in
      let r2 = R.op sim ~replica:2 ~obj Op.Read in
      Alcotest.check check_response
        (Printf.sprintf "survivors agree on object %d" obj)
        r0 r2)
    [ 0; 1 ];
  check_ok "trace well-formed" (Model.Execution.check_well_formed (R.execution sim))

(* Join and Leave ride the v3 trace format: a churned run's execution
   survives the binary roundtrip event-for-event, initial member count
   included. *)
let test_trace_roundtrip_with_churn () =
  let sim = make_sim ~seed:4 ~initial:2 ~n:3 () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 5)));
  R.join sim ~replica:2;
  R.run_until_quiescent sim;
  R.leave sim ~replica:0 ~graceful:true;
  R.run_until_quiescent sim;
  let exec = R.execution sim in
  let events = Model.Execution.events exec in
  let is_join = function Event.Join _ -> true | _ -> false in
  let is_leave = function Event.Leave _ -> true | _ -> false in
  Alcotest.(check bool) "trace records the join" true (List.exists is_join events);
  Alcotest.(check bool) "trace records the leave" true (List.exists is_leave events);
  let exec' = Trace_io.of_string (Trace_io.to_string exec) in
  Alcotest.(check int) "initial members survive the roundtrip"
    (Model.Execution.initial_members exec)
    (Model.Execution.initial_members exec');
  Alcotest.(check (list string)) "events survive the roundtrip"
    (List.map (Format.asprintf "%a" Event.pp) events)
    (List.map (Format.asprintf "%a" Event.pp) (Model.Execution.events exec'))

(* ---------- churn chaos ---------- *)

(* The churn draws come strictly after every other draw: a churned plan
   from the same seed shares every baseline and adversarial field
   byte-for-byte, so frozen baselines stay frozen. *)
let test_churn_extends_adversarial () =
  List.iter
    (fun seed ->
      let base =
        Fault_plan.random (Util.Rng.create seed) ~n:3 ~horizon:50.0
          ~adversarial:true ()
      in
      let churned =
        Fault_plan.random (Util.Rng.create seed) ~n:3 ~horizon:50.0
          ~adversarial:true ~churn:true ()
      in
      Alcotest.(check bool) "same crash windows" true
        (base.Fault_plan.crashes = churned.Fault_plan.crashes);
      Alcotest.(check bool) "same link faults" true
        (base.Fault_plan.links = churned.Fault_plan.links);
      Alcotest.(check bool) "same corruption / dup / reorder windows" true
        (base.Fault_plan.corruption = churned.Fault_plan.corruption
        && base.Fault_plan.dup = churned.Fault_plan.dup
        && base.Fault_plan.reorder = churned.Fault_plan.reorder);
      Alcotest.(check bool) "same dead links" true
        (base.Fault_plan.dead = churned.Fault_plan.dead);
      Alcotest.(check bool) "baseline carries no churn" true
        (base.Fault_plan.churn = None);
      match churned.Fault_plan.churn with
      | None -> Alcotest.fail "churned plan lost its churn schedule"
      | Some c ->
        Alcotest.(check int) "initial member count preserved" 3 c.Fault_plan.initial;
        Alcotest.(check bool) "at least one join drawn" true
          (c.Fault_plan.joins <> []))
    (List.init 20 (fun i -> i + 1))

(* Churn needs no opt-in: the default chaos stack already bootstraps
   joiners over anti-entropy. *)
let test_churn_on_default_stack () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let o = C.run ~churn:true ~seed:1 () in
  Alcotest.(check bool) "a replica joined" true (o.Sim.Chaos.stats.Sim.Runner.joins > 0);
  if not (Sim.Chaos.converged o) then Alcotest.failf "%a" Sim.Chaos.pp_outcome o

(* Every store class must converge through membership churn on top of the
   full adversarial fault mix: joiners bootstrap over digest/repair,
   leavers flush or vanish, and post-heal agreement is checked over the
   serving members. *)
let churn_chaos_seeds name (module S : Store.Store_intf.S) ~require spec mix seeds =
  tc name (fun () ->
      let module C = Sim.Chaos.Make (S) in
      let joins = ref 0 in
      List.iter
        (fun seed ->
          let o =
            C.run ~spec_of:(fun _ -> spec) ~mix ~require ~adversarial:true ~churn:true
              ~seed ()
          in
          joins := !joins + o.Sim.Chaos.stats.Sim.Runner.joins;
          if not (Sim.Chaos.converged o) then
            Alcotest.failf "seed %d: %a" seed Sim.Chaos.pp_outcome o)
        seeds;
      Alcotest.(check bool) "churn actually struck" true (!joins > 0))

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* ---------- the shrinker under churn ---------- *)

(* A seeded churn failure must minimize deterministically at any domain
   count, and the churn candidates must keep the plan valid (capacity
   stable, no orphaned leaves or reserve crash windows). *)
let churn_shrink_setup =
  lazy
    (let module C = Sim.Chaos.Make (Store.Mvr_store) in
     let ops = 24 in
     let failing =
       List.find_opt
         (fun seed ->
           not
             (Sim.Chaos.converged
                (C.run ~ops ~require:`Occ ~churn:true ~seed ())))
         (seeds 1 40)
     in
     match failing with
     | None ->
       Alcotest.fail "no occ-failing churn seed in 1..40 — chaos got too tame"
     | Some seed ->
       let plan, steps = Sim.Chaos.derive ~ops ~churn:true ~seed () in
       let run ~plan ~steps =
         C.run_plan ~require:`Occ ~n:3 ~plan ~steps ~seed ()
       in
       (seed, plan, steps, run))

let test_churn_shrink_minimizes () =
  let _seed, plan, steps, run = Lazy.force churn_shrink_setup in
  match Sim.Shrink.minimize ~domains:2 ~run ~plan ~steps () with
  | None -> Alcotest.fail "minimize lost the failure"
  | Some r ->
    Alcotest.(check bool) "minimized repro still fails" true
      (not (Sim.Chaos.converged r.Sim.Shrink.outcome));
    Alcotest.(check bool) "did not grow" true
      (List.length r.Sim.Shrink.steps <= List.length steps);
    (* whatever churn survived minimization still validates as a plan *)
    let n =
      match r.Sim.Shrink.plan.Fault_plan.churn with
      | Some c -> c.Fault_plan.capacity
      | None -> 3
    in
    ignore
      (Fault_plan.make ~crashes:r.Sim.Shrink.plan.Fault_plan.crashes
         ~links:r.Sim.Shrink.plan.Fault_plan.links
         ?corruption:r.Sim.Shrink.plan.Fault_plan.corruption
         ?dup:r.Sim.Shrink.plan.Fault_plan.dup
         ?reorder:r.Sim.Shrink.plan.Fault_plan.reorder
         ~dead:r.Sim.Shrink.plan.Fault_plan.dead
         ?churn:r.Sim.Shrink.plan.Fault_plan.churn ~n
         ~horizon:r.Sim.Shrink.plan.Fault_plan.horizon ())

let test_churn_shrink_parallel_deterministic () =
  let _seed, plan, steps, run = Lazy.force churn_shrink_setup in
  let j1 = Sim.Shrink.minimize ~domains:1 ~run ~plan ~steps () in
  let j4 = Sim.Shrink.minimize ~domains:4 ~run ~plan ~steps () in
  match (j1, j4) with
  | Some a, Some b ->
    Alcotest.(check bool) "same plan at -j 1 and -j 4" true
      (a.Sim.Shrink.plan = b.Sim.Shrink.plan);
    Alcotest.(check bool) "same steps at -j 1 and -j 4" true
      (a.Sim.Shrink.steps = b.Sim.Shrink.steps);
    Alcotest.(check int) "same tried" a.Sim.Shrink.tried b.Sim.Shrink.tried
  | _ -> Alcotest.fail "minimize disagreed about failing at all"

let suite =
  ( "membership",
    [
      tc "view transitions and epochs" test_view_transitions;
      tc "view rejects reuse and bad transitions" test_view_errors;
      tc "join bootstraps behind the serving gate" test_join_bootstrap_gate;
      tc "graceful leave flushes before departing" test_graceful_leave_flushes;
      tc "crash-leave: survivors converge" test_crash_leave_survivors_converge;
      tc "trace v3 roundtrip with join/leave" test_trace_roundtrip_with_churn;
      tc "churn plans extend the adversarial draws" test_churn_extends_adversarial;
      tc "churn runs on the default stack" test_churn_on_default_stack;
      churn_chaos_seeds "churn chaos: mvr converges on 6 seeds"
        (module Store.Mvr_store) ~require:`Correct Specf.mvr
        Sim.Workload.register_mix (seeds 1 6);
      churn_chaos_seeds "churn chaos: causal mvr converges on 6 seeds"
        (module Store.Causal_mvr_store) ~require:`Causal Specf.mvr
        Sim.Workload.register_mix (seeds 7 12);
      churn_chaos_seeds "churn chaos: or-set converges on 6 seeds"
        (module Store.Orset_store) ~require:`Correct Specf.orset
        Sim.Workload.orset_mix (seeds 13 18);
      churn_chaos_seeds "churn chaos: lww converges on 6 seeds"
        (module Store.Lww_store) ~require:`Converge Specf.rw_register
        Sim.Workload.register_mix (seeds 19 24);
      tc "churn shrink keeps a valid minimized plan" test_churn_shrink_minimizes;
      tc "churn shrink bit-identical across domain counts"
        test_churn_shrink_parallel_deterministic;
      tc "graceful leave waits for a survivor to hold its stream"
        test_graceful_leave_hands_off;
      tc "join needs a replica stack" test_join_needs_a_stack;
    ] )
