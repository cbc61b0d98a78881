(* Crash-recovery fault injection: durable stores, runner crash semantics,
   corruption rejection, and the chaos harness. *)

open Helpers
open Haec
module Fault_plan = Sim.Fault_plan
module Runner = Sim.Runner
module Trace_io = Model.Trace_io

(* ---------- Fault_plan ---------- *)

let test_plan_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () ->
      Fault_plan.make ~crashes:[ { replica = 0; at = 5.0; recover_at = 3.0 } ]
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make ~crashes:[ { replica = 0; at = 1.0; recover_at = 20.0 } ]
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~crashes:
          [
            { replica = 0; at = 1.0; recover_at = 5.0 };
            { replica = 0; at = 4.0; recover_at = 6.0 };
          ]
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make ~links:[ { src = 0; dst = 1; from_ = 2.0; until = 2.0 } ]
        ~horizon:10.0 ());
  (* a valid plan passes and sorts its events *)
  let plan =
    Fault_plan.make
      ~crashes:
        [
          { replica = 1; at = 4.0; recover_at = 8.0 };
          { replica = 0; at = 1.0; recover_at = 5.0 };
        ]
      ~horizon:10.0 ()
  in
  let times = List.map (fun e -> e.Fault_plan.at) (Fault_plan.events plan) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 4.0; 5.0; 8.0 ] times

let test_plan_random_valid () =
  (* every seeded random plan validates and heals before its horizon *)
  for seed = 0 to 199 do
    let rng = Rng.create seed in
    let plan = Fault_plan.random rng ~n:4 ~horizon:50.0 () in
    Alcotest.(check bool) "inactive at horizon" false
      (Fault_plan.active plan ~now:50.0)
  done

(* Dead-link connectivity must hold for every member set the run passes
   through, not just the initial one: a join must not depend on a
   validated-dead link to reach the others, and a leave must not take away
   the survivors' only relay path. *)
let test_churn_dead_link_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* joiner 3 has every edge to the members dead: the initial set {0,1,2}
     is connected, but the set after the join is not — the join must not
     resurrect links the plan already declared dead *)
  bad (fun () ->
      Fault_plan.make
        ~dead:
          [
            { src = 3; dst = 0; from_ = 0.0 };
            { src = 3; dst = 1; from_ = 0.0 };
            { src = 3; dst = 2; from_ = 0.0 };
          ]
        ~churn:
          {
            initial = 3;
            capacity = 4;
            joins = [ { replica = 3; at = 5.0 } ];
            leaves = [];
          }
        ~horizon:20.0 ());
  (* leave one edge alive and the same join is fine: 3 bootstraps through 2 *)
  let plan =
    Fault_plan.make
      ~dead:[ { src = 3; dst = 0; from_ = 0.0 }; { src = 3; dst = 1; from_ = 0.0 } ]
      ~churn:
        {
          initial = 3;
          capacity = 4;
          joins = [ { replica = 3; at = 5.0 } ];
          leaves = [];
        }
      ~horizon:20.0 ()
  in
  Alcotest.(check bool) "joiner's one live edge suffices" true
    (Fault_plan.link_dead plan ~src:3 ~dst:0 ~at:6.0
    && not (Fault_plan.link_dead plan ~src:3 ~dst:2 ~at:6.0));
  (* 0 and 1 are cut in both directions and relay through 2: the leave of 2
     strands the survivors — the partition check must reject it *)
  bad (fun () ->
      Fault_plan.make
        ~dead:[ { src = 0; dst = 1; from_ = 0.0 } ]
        ~churn:
          {
            initial = 3;
            capacity = 3;
            joins = [];
            leaves = [ { replica = 2; at = 5.0; graceful = true } ];
          }
        ~horizon:20.0 ());
  (* the leave of 1 instead keeps {0,2} connected over the live 0-2 edge *)
  ignore
    (Fault_plan.make
       ~dead:[ { src = 0; dst = 1; from_ = 0.0 } ]
       ~churn:
         {
           initial = 3;
           capacity = 3;
           joins = [];
           leaves = [ { replica = 1; at = 5.0; graceful = false } ];
         }
       ~horizon:20.0 ())

(* The churn schedule's own invariants: ids come from the reserve pool and
   are never reused, crash windows stay inside a replica's membership, and
   at least two members survive every instant. *)
let test_churn_schedule_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let churn ?(initial = 2) ?(capacity = 4) ?(joins = []) ?(leaves = []) () =
    { Fault_plan.initial; capacity; joins; leaves }
  in
  (* fewer than two initial members / capacity below initial *)
  bad (fun () -> Fault_plan.make ~churn:(churn ~initial:1 () ) ~horizon:10.0 ());
  bad (fun () -> Fault_plan.make ~churn:(churn ~capacity:1 ()) ~horizon:10.0 ());
  (* joins must come from the reserve pool, once each *)
  bad (fun () ->
      Fault_plan.make
        ~churn:(churn ~joins:[ { replica = 0; at = 5.0 } ] ())
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~churn:
          (churn ~joins:[ { replica = 2; at = 3.0 }; { replica = 2; at = 6.0 } ] ())
        ~horizon:10.0 ());
  (* a reserve may not leave without joining, nor leave before its join *)
  bad (fun () ->
      Fault_plan.make
        ~churn:(churn ~leaves:[ { replica = 2; at = 5.0; graceful = true } ] ())
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~churn:
          (churn
             ~joins:[ { replica = 2; at = 6.0 } ]
             ~leaves:[ { replica = 2; at = 4.0; graceful = true } ]
             ())
        ~horizon:10.0 ());
  (* crash windows: never at a reserve that never joins, never across a
     leave (a member that vanishes for good is a crash-leave, not a crash) *)
  bad (fun () ->
      Fault_plan.make
        ~crashes:[ { replica = 2; at = 3.0; recover_at = 5.0 } ]
        ~churn:(churn ()) ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~crashes:[ { replica = 0; at = 3.0; recover_at = 7.0 } ]
        ~churn:
          (churn
             ~joins:[ { replica = 2; at = 2.0 } ]
             ~leaves:[ { replica = 0; at = 5.0; graceful = false } ]
             ())
        ~horizon:10.0 ());
  (* a leave that drops the member count below two *)
  bad (fun () ->
      Fault_plan.make
        ~churn:(churn ~leaves:[ { replica = 0; at = 5.0; graceful = true } ] ())
        ~horizon:10.0 ());
  (* a valid schedule passes, with joins and leaves on the event timeline *)
  let plan =
    Fault_plan.make
      ~churn:
        (churn ~initial:2 ~capacity:3
           ~joins:[ { replica = 2; at = 2.0 } ]
           ~leaves:[ { replica = 0; at = 6.0; graceful = true } ]
           ())
      ~horizon:10.0 ()
  in
  let whats = List.map (fun e -> e.Fault_plan.what) (Fault_plan.events plan) in
  Alcotest.(check bool) "join and leave on the timeline" true
    (whats = [ `Join 2; `Leave (0, true) ])

let test_plan_link_window () =
  let plan =
    Fault_plan.make ~links:[ { src = 0; dst = 2; from_ = 3.0; until = 7.0 } ]
      ~horizon:10.0 ()
  in
  let dropped at = Fault_plan.link_dropped plan ~src:0 ~dst:2 ~at in
  Alcotest.(check (option (float 1e-9))) "before" None (dropped 2.9);
  Alcotest.(check (option (float 1e-9))) "inside" (Some 7.0) (dropped 3.0);
  Alcotest.(check (option (float 1e-9))) "after heal" None (dropped 7.0);
  Alcotest.(check (option (float 1e-9))) "other link" None
    (Fault_plan.link_dropped plan ~src:2 ~dst:0 ~at:5.0)

(* ---------- Durable store transformer ---------- *)

module D = Store.Durable.Make (Store.Mvr_store)

let with_cadence every = { Store.Store_intf.default with checkpoint_every = every }

let read st ~obj =
  let _, rval, _ = D.do_op st ~obj Op.Read in
  rval

let test_durable_recover_replays_ops () =
  let st = ref (D.init ~n:2 ~me:0) in
  for i = 1 to 5 do
    let st', _, _ = D.do_op !st ~obj:0 (Op.Write (vi i)) in
    let st', _ = D.send st' in
    st := st'
  done;
  let before = read !st ~obj:0 in
  let recovered = D.recover !st in
  Alcotest.check check_response "reads equal after replay" before
    (read recovered ~obj:0);
  (* recovery must not re-flag sent messages as pending *)
  Alcotest.(check bool) "nothing pending after recovery" false
    (D.has_pending recovered)

let test_durable_recover_replays_deliveries () =
  let a = ref (D.init ~n:2 ~me:0) and b = ref (D.init ~n:2 ~me:1) in
  let push src dst =
    let st, payload = D.send !src in
    src := st;
    let me_src = if src == a then 0 else 1 in
    dst := D.receive !dst ~sender:me_src payload
  in
  let a', _, _ = D.do_op !a ~obj:0 (Op.Write (vi 1)) in
  a := a';
  push a b;
  let b', _, _ = D.do_op !b ~obj:0 (Op.Write (vi 2)) in
  b := b';
  push b a;
  let before = read !b ~obj:0 in
  let recovered = D.recover !b in
  Alcotest.check check_response "delivered state survives the crash" before
    (read recovered ~obj:0)

let test_durable_checkpoint_compacts () =
  let st =
    ref (D.create (with_cadence (Some Store.Durable.auto_checkpoint_every)) ~n:2 ~me:0)
  in
  for i = 1 to 100 do
    let st', _, _ = D.do_op !st ~obj:(i mod 3) (Op.Write (vi i)) in
    let st', _ = D.send st' in
    st := st'
  done;
  (* the auto-checkpoint keeps the WAL bounded *)
  Alcotest.(check bool) "wal bounded" true (D.wal_length !st < 40);
  Alcotest.(check bool) "snapshot non-empty" true (D.snapshot_bytes !st > 0);
  let ck = D.checkpoint !st in
  Alcotest.(check int) "explicit checkpoint empties the wal" 0 (D.wal_length ck);
  Alcotest.check check_response "checkpoint preserves reads" (read !st ~obj:0)
    (read (D.recover ck) ~obj:0)

let test_durable_invisible_reads_not_logged () =
  let st = D.init ~n:2 ~me:0 in
  let st, _, _ = D.do_op st ~obj:0 (Op.Write (vi 1)) in
  let before = D.wal_length st in
  let st, _, _ = D.do_op st ~obj:0 Op.Read in
  Alcotest.(check int) "read left no log entry" before (D.wal_length st)

(* The checkpoint cadence is invisible: a snapshot folded every entry,
   every 32 entries, or once at the end serializes to the bytes of the
   whole log encoded as one list, and a crash at any point — mid-chunk
   included — recovers the same reads. *)
(* writes at replica 0, interleaved with sends and deliveries of replica
   1's payloads *)
let cadence_inputs =
  let remote = ref (Store.Mvr_store.init ~n:2 ~me:1) in
  let remote_payload i =
    let st, _, _ = Store.Mvr_store.do_op !remote ~obj:(i mod 3) (Op.Write (vi (1000 + i))) in
    let st, payload = Store.Mvr_store.send st in
    remote := st;
    payload
  in
  List.concat
    (List.init 90 (fun i ->
         (`Write (i mod 3, i) :: (if i mod 3 = 2 then [ `Send ] else []))
         @ if i mod 4 = 1 then [ `Deliver (remote_payload i) ] else []))

(* the snapshot size of each prefix of the inputs, as [Wire.Encoder.list]
   over every entry in [Durable]'s log-entry format: each input logs one
   entry (reads are invisible, and every send has something pending) *)
let whole_log_bytes =
  let encode_entry enc = function
    | `Write (obj, v) ->
      Wire.Encoder.uint enc 0;
      Wire.Encoder.uint enc obj;
      Op.encode enc (Op.Write (vi v))
    | `Deliver payload ->
      Wire.Encoder.uint enc 1;
      Wire.Encoder.uint enc 1;
      Wire.Encoder.string enc payload
    | `Send -> Wire.Encoder.uint enc 2
  in
  List.init
    (List.length cadence_inputs + 1)
    (fun k ->
      let prefix = List.filteri (fun i _ -> i < k) cadence_inputs in
      String.length (Wire.encode (fun enc -> Wire.Encoder.list enc encode_entry prefix)))

module Cadence (C : sig
  val every : int option
end) =
struct
  let step st = function
    | `Write (obj, v) ->
      let st, _, _ = D.do_op st ~obj (Op.Write (vi v)) in
      st
    | `Send -> fst (D.send st)
    | `Deliver payload -> D.receive st ~sender:1 payload

  (* the state after every prefix of the inputs, shortest first; all are
     built before any is recovered, so a recovery also checks that an
     older state never sees chunks appended after it *)
  let prefixes =
    List.rev
      (List.fold_left
         (fun acc input -> step (List.hd acc) input :: acc)
         [ D.create (with_cadence C.every) ~n:2 ~me:0 ]
         cadence_inputs)

  let reads st =
    List.init 3 (fun obj ->
        let _, r, _ = D.do_op st ~obj Op.Read in
        r)

  (* per prefix: reads after a crash, and the bytes of its checkpoint *)
  let crash_reads = List.map (fun st -> reads (D.recover st)) prefixes

  let checkpoint_bytes = List.map (fun st -> D.snapshot_bytes (D.checkpoint st)) prefixes

  let checkpoint_idempotent =
    List.for_all
      (fun st ->
        let ck = D.checkpoint st in
        let ck2 = D.checkpoint ck in
        D.wal_length ck2 = 0
        && D.snapshot_bytes ck2 = D.snapshot_bytes ck
        && reads (D.recover ck2) = reads (D.recover ck))
      prefixes
end

module C_every = Cadence (struct
  let every = Some 1
end)

module C_32 = Cadence (struct
  let every = Some 32
end)

module C_never = Cadence (struct
  let every = None
end)

let test_durable_checkpoint_cadence_invisible () =
  let live = List.map C_every.reads C_every.prefixes in
  let reads = Alcotest.(list (list check_response)) in
  Alcotest.check reads "every entry: crash recovers the live reads" live C_every.crash_reads;
  Alcotest.check reads "every 32: crash recovers the live reads" live C_32.crash_reads;
  Alcotest.check reads "never: crash recovers the live reads" live C_never.crash_reads;
  let bytes = Alcotest.(list int) in
  Alcotest.check bytes "every entry: whole-log snapshot bytes" whole_log_bytes
    C_every.checkpoint_bytes;
  Alcotest.check bytes "every 32: whole-log snapshot bytes" whole_log_bytes
    C_32.checkpoint_bytes;
  Alcotest.check bytes "never: whole-log snapshot bytes" whole_log_bytes
    C_never.checkpoint_bytes;
  (* with a checkpoint after every entry, the snapshot needs no explicit one *)
  Alcotest.check bytes "every entry is always checkpointed" whole_log_bytes
    (List.map D.snapshot_bytes C_every.prefixes);
  (* several 32-entry chunks, and a count past one varint byte *)
  Alcotest.(check bool) "the log outgrows a one-byte count" true
    (List.length cadence_inputs > 128);
  Alcotest.(check bool) "every entry: checkpoint idempotent" true C_every.checkpoint_idempotent;
  Alcotest.(check bool) "every 32: checkpoint idempotent" true C_32.checkpoint_idempotent;
  Alcotest.(check bool) "never: checkpoint idempotent" true C_never.checkpoint_idempotent

(* ---------- runner crash semantics ---------- *)

module R = Sim.Runner.Make (Store.Mvr_store)

(* The chaos stack, driven by hand: Durable(Anti_entropy(Mvr_store)) with
   its gossip tick, so every loss is repaired over the wire or not at all. *)
module DA_mvr = Sim.Stack.Durable (Store.Mvr_store)

module RA = Sim.Runner.Make (DA_mvr)

let create_ae ?faults ?(seed = 42) ~policy ~n () =
  RA.create ~seed ~config:Sim.Chaos.default_config ~n ~policy ?faults
    ~gossip:(2.0, DA_mvr.tick, DA_mvr.settled)
    ~recover_state:(fun ~replica:_ -> DA_mvr.recover)
    ()

let test_crash_drops_in_flight () =
  let sim = create_ae ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ~delay:2.0 ()) () in
  ignore (RA.op sim ~replica:0 ~obj:0 (Op.Write (vi 7)));
  Alcotest.(check int) "delivery scheduled" 1 (RA.in_flight sim);
  RA.crash sim ~replica:1;
  Alcotest.(check int) "crash swallowed it" 0 (RA.in_flight sim);
  Alcotest.(check int) "lost for good" 1 (RA.stats sim).Runner.lost_permanent;
  Alcotest.(check bool) "marked down" true (RA.is_down sim ~replica:1);
  (* ops and deliveries at a down replica are rejected *)
  (match RA.op sim ~replica:1 ~obj:0 Op.Read with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "op at crashed replica must be rejected");
  RA.recover sim ~replica:1;
  RA.run_until_quiescent sim;
  Alcotest.check check_response "repaired after recovery" (resp [ 7 ])
    (RA.op sim ~replica:1 ~obj:0 Op.Read);
  let s = RA.stats sim in
  Alcotest.(check int) "one crash" 1 s.Runner.crashes;
  Alcotest.(check int) "one recovery" 1 s.Runner.recoveries;
  Alcotest.(check int) "every drop is a permanent loss" s.Runner.dropped
    s.Runner.lost_permanent;
  Alcotest.(check bool) "gossip did the repair" true (s.Runner.gossip_rounds > 0)

(* Without a gossip driver nothing stands behind the store: the delivery a
   crash swallowed never arrives, and the run still quiesces cleanly. *)
let test_crash_loss_permanent_without_gossip () =
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ~delay:2.0 ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 7)));
  R.crash sim ~replica:1;
  R.recover sim ~replica:1;
  R.run_until_quiescent sim;
  Alcotest.(check int) "lost for good" 1 (R.stats sim).Runner.lost_permanent;
  Alcotest.(check int) "nothing in flight" 0 (R.in_flight sim);
  Alcotest.check check_response "the write never arrived" (resp [])
    (R.op sim ~replica:1 ~obj:0 Op.Read);
  Alcotest.(check bool) "trace well-formed" true
    (Execution.is_well_formed (R.execution sim))

let test_crash_recover_in_trace () =
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  R.crash sim ~replica:1;
  R.recover sim ~replica:1;
  R.run_until_quiescent sim;
  let exec = R.execution sim in
  let crashes =
    List.filter (function Event.Crash _ -> true | _ -> false) (Execution.events exec)
  in
  Alcotest.(check int) "crash recorded" 1 (List.length crashes);
  Alcotest.(check bool) "still well-formed" true (Execution.is_well_formed exec)

let test_double_crash_rejected () =
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ()) () in
  R.crash sim ~replica:0;
  (match R.crash sim ~replica:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double crash must be rejected");
  match R.recover sim ~replica:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "recovering an up replica must be rejected"

let test_durable_recovery_through_runner () =
  (* with Durable recovery, a crashed replica comes back remembering its
     replayed state, not just whatever the network re-sends *)
  let module RD = Sim.Runner.Make (D) in
  let sim =
    RD.create
      ~policy:(Sim.Net_policy.reliable_fifo ~delay:1.0 ())
      ~recover_state:(fun ~replica:_ st -> D.recover st)
      ~n:2 ()
  in
  ignore (RD.op sim ~replica:1 ~obj:0 (Op.Write (vi 5)));
  RD.run_until_quiescent sim;
  RD.crash sim ~replica:1;
  RD.recover sim ~replica:1;
  Alcotest.check check_response "own write survives own crash" (resp [ 5 ])
    (RD.op sim ~replica:1 ~obj:0 Op.Read)

(* ---------- well-formedness of faulty traces ---------- *)

let test_well_formed_rejects_down_activity () =
  let expect_error evs msg =
    let exec = Execution.of_list ~n:2 evs in
    match Execution.check_well_formed exec with
    | Error _ -> ()
    | Ok () -> Alcotest.fail msg
  in
  expect_error
    [ Event.Crash { replica = 0 }; Event.Do (w_ 0 0 1) ]
    "do at a crashed replica";
  expect_error
    [ Event.Crash { replica = 0 }; Event.Crash { replica = 0 } ]
    "crash while down";
  expect_error [ Event.Recover { replica = 0 } ] "recover while up";
  let ok =
    Execution.of_list ~n:2
      [
        Event.Do (w_ 0 0 1);
        Event.Crash { replica = 0 };
        Event.Recover { replica = 0 };
        Event.Do (rd_ 0 0 [ 1 ]);
      ]
  in
  Alcotest.(check bool) "crash/recover alternation ok" true
    (Execution.is_well_formed ok)

let test_trace_roundtrip_with_faults () =
  let sim = R.create ~n:3 ~policy:(Sim.Net_policy.random_delay ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  R.crash sim ~replica:2;
  ignore (R.op sim ~replica:1 ~obj:0 (Op.Write (vi 2)));
  R.recover sim ~replica:2;
  R.run_until_quiescent sim;
  let exec = R.execution sim in
  let exec' = Trace_io.of_string (Trace_io.to_string exec) in
  Alcotest.(check bool) "crash events survive the roundtrip" true
    (List.for_all2
       (fun a b -> Format.asprintf "%a" Event.pp a = Format.asprintf "%a" Event.pp b)
       (Execution.events exec) (Execution.events exec'))

(* ---------- corruption ---------- *)

let test_corruption_rejected_not_delivered () =
  (* corrupt every delivery for a while: the frame check must reject each
     mangled copy as Malformed, each rejection is a permanent loss, repair
     must get clean copies through once the window closes, and the run
     must still pass every check *)
  let corruption = { Fault_plan.p = 1.0; from_ = 0.0; until = 30.0 } in
  let plan = Fault_plan.make ~corruption ~horizon:40.0 () in
  let sim =
    create_ae ~seed:11 ~n:3 ~policy:(Sim.Net_policy.random_delay ()) ~faults:plan ()
  in
  for i = 1 to 10 do
    ignore (RA.op sim ~replica:(i mod 3) ~obj:0 (Op.Write (vi i)))
  done;
  RA.run_until_quiescent sim;
  let s = RA.stats sim in
  Alcotest.(check bool) "corrupt frames rejected" true (s.Runner.corrupt_rejected > 0);
  Alcotest.(check int) "no checksum collisions" 0 s.Runner.corrupt_collisions;
  Alcotest.(check int) "every rejected frame is a permanent loss"
    s.Runner.corrupt_rejected s.Runner.lost_permanent;
  let report = Sim.Checks.validate (RA.execution sim) (RA.witness_abstract sim) in
  Alcotest.(check bool) "all checks pass despite corruption" true
    (Sim.Checks.all_ok report);
  let reads = List.init 3 (fun replica -> RA.op sim ~replica ~obj:0 Op.Read) in
  Alcotest.(check bool) "replicas agree after repair" true
    (List.for_all (( = ) (List.hd reads)) reads)

(* ---------- chaos harness ---------- *)

let chaos_seeds name (module S : Store.Store_intf.S) ~require spec mix seeds =
  tc name (fun () ->
      let module C = Sim.Chaos.Make (S) in
      List.iter
        (fun seed ->
          let o = C.run ~spec_of:(fun _ -> spec) ~mix ~require ~seed () in
          if not (Sim.Chaos.converged o) then
            Alcotest.failf "seed %d: %a" seed Sim.Chaos.pp_outcome o)
        seeds)

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_chaos_is_deterministic () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let a = C.run ~seed:3 () and b = C.run ~seed:3 () in
  Alcotest.(check bool) "same trace from the same seed" true
    (List.for_all2
       (fun x y -> Format.asprintf "%a" Event.pp x = Format.asprintf "%a" Event.pp y)
       (Execution.events a.Sim.Chaos.exec)
       (Execution.events b.Sim.Chaos.exec));
  Alcotest.(check int) "same stats" a.Sim.Chaos.stats.Runner.dropped
    b.Sim.Chaos.stats.Runner.dropped

let test_chaos_exercises_faults () =
  (* across a few seeds, the harness actually crashes replicas and drops
     messages — it is not vacuously passing *)
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let total = List.fold_left (fun acc seed ->
      let o = C.run ~seed () in
      let s = o.Sim.Chaos.stats in
      acc + s.Runner.crashes + s.Runner.dropped)
      0 (seeds 1 5)
  in
  Alcotest.(check bool) "faults actually struck" true (total > 0)

(* Two configurations in one process at once: v1 and v2 seeds of the
   causal stack, interleaved over two domains, give exactly the
   sequential outcomes. Each run's replicas carry their own config. *)
let test_chaos_configs_in_parallel () =
  let module C = Sim.Chaos.Make (Store.Causal_mvr_store) in
  let config wire = { Sim.Chaos.default_config with wire } in
  let jobs =
    List.concat_map
      (fun seed -> [ (config Wire.Version.V1, seed); (config Wire.Version.V2, seed) ])
      (seeds 1 4)
  in
  let run (config, seed) =
    let o = C.run ~adversarial:true ~require:`Causal ~config ~seed () in
    let counter name =
      match Obs.Metrics.Registry.find o.Sim.Chaos.metrics name with
      | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
      | Some _ | None -> -1
    in
    ( Model.Trace_io.to_string o.Sim.Chaos.exec,
      List.map counter [ "gossip.update_bytes"; "gossip.digest_bytes"; "gossip.repair_bytes" ],
      Sim.Chaos.failures o,
      o.Sim.Chaos.config = config )
  in
  let sequential = List.map run jobs in
  let parallel = Util.Par.map_list ~domains:2 run jobs in
  Alcotest.(check bool) "parallel outcomes equal sequential ones" true (parallel = sequential);
  List.iter
    (fun (_, bytes, fails, own) ->
      Alcotest.(check bool) "the outcome records its config" true own;
      Alcotest.(check (list (pair string string))) "required checks pass" [] fails;
      Alcotest.(check bool) "traffic counted" true (List.for_all (fun b -> b > 0) bytes))
    parallel;
  match parallel with
  | (_, v1, _, _) :: (_, v2, _, _) :: _ ->
    Alcotest.(check bool) "v1 and v2 differ on the wire" true (v1 <> v2)
  | _ -> assert false

let suite =
  ( "fault",
    [
      tc "fault plan validation" test_plan_validation;
      tc "random plans valid and healing" test_plan_random_valid;
      tc "churn vs dead links: member sets stay connected"
        test_churn_dead_link_validation;
      tc "churn schedule invariants" test_churn_schedule_validation;
      tc "link fault window" test_plan_link_window;
      tc "durable recovery replays ops" test_durable_recover_replays_ops;
      tc "durable recovery replays deliveries" test_durable_recover_replays_deliveries;
      tc "durable checkpoint compacts" test_durable_checkpoint_compacts;
      tc "durable invisible reads not logged" test_durable_invisible_reads_not_logged;
      tc "crash drops in-flight deliveries" test_crash_drops_in_flight;
      tc "crash and recover recorded in trace" test_crash_recover_in_trace;
      tc "double crash rejected" test_double_crash_rejected;
      tc "durable recovery through the runner" test_durable_recovery_through_runner;
      tc "well-formedness rejects activity while down" test_well_formed_rejects_down_activity;
      tc "trace roundtrip with fault events" test_trace_roundtrip_with_faults;
      tc "corruption rejected, never delivered" test_corruption_rejected_not_delivered;
      (* the eager store is correct but not causal under re-delivery; the
         causal store is held to the causal bar; lww's timestamp
         arbitration can disagree with trace order (convergence bar, as in
         E9); occ is never required — Theorem 6 *)
      chaos_seeds "chaos: mvr converges on 20 seeds" (module Store.Mvr_store)
        ~require:`Correct Specf.mvr Sim.Workload.register_mix (seeds 1 20);
      chaos_seeds "chaos: causal mvr converges on 10 seeds"
        (module Store.Causal_mvr_store) ~require:`Causal Specf.mvr
        Sim.Workload.register_mix (seeds 21 30);
      chaos_seeds "chaos: or-set converges on 10 seeds" (module Store.Orset_store)
        ~require:`Correct Specf.orset Sim.Workload.orset_mix (seeds 31 40);
      chaos_seeds "chaos: lww converges on 10 seeds" (module Store.Lww_store)
        ~require:`Converge Specf.rw_register Sim.Workload.register_mix
        (seeds 41 50);
      tc "chaos deterministic in the seed" test_chaos_is_deterministic;
      tc "chaos actually injects faults" test_chaos_exercises_faults;
      tc "chaos: v1 and v2 seeds at -j 2 equal sequential" test_chaos_configs_in_parallel;
      tc "durable checkpoint cadence is invisible" test_durable_checkpoint_cadence_invisible;
      tc "crash loss is permanent without gossip" test_crash_loss_permanent_without_gossip;
    ] )
