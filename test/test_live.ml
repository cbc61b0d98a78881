(* Live cluster runtime: SPSC ring semantics (single- and cross-domain),
   load-generator distributions, anti-entropy backpressure accessors,
   histogram merging, and the live-vs-sim equivalence anchor — a
   deterministic single-domain run whose captured trace the structural
   and consistency checkers accept, with op counts matching the load
   generator exactly. *)

open Haec
module Spsc = Live.Spsc
module Load = Live.Load
module Cluster = Live.Cluster
module Metrics = Obs.Metrics

module AE = Store.Anti_entropy.Make (Store.Causal_mvr_store)
module Stack = Sim.Stack.Volatile (Store.Causal_mvr_store)
module C = Cluster.Make (Stack)
module DStack = Sim.Stack.Durable (Store.Causal_mvr_store)
module DC = Cluster.Make (DStack)
module Fault_plan = Sim.Fault_plan

(* ---------- spsc ring ---------- *)

let test_spsc_single_domain () =
  let q = Spsc.create 5 in
  Alcotest.(check int) "capacity rounds up to a power of two" 8 (Spsc.capacity q);
  Alcotest.(check bool) "fresh ring is empty" true (Spsc.is_empty q);
  Alcotest.(check (option int)) "pop on empty" None (Spsc.try_pop q);
  for i = 0 to 7 do
    Alcotest.(check bool) "push succeeds until full" true (Spsc.try_push q i)
  done;
  Alcotest.(check bool) "push on full fails" false (Spsc.try_push q 99);
  Alcotest.(check int) "length at capacity" 8 (Spsc.length q);
  for i = 0 to 7 do
    Alcotest.(check (option int)) "FIFO order" (Some i) (Spsc.try_pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Spsc.try_pop q);
  (* wrap around several times: indices keep increasing, masking works *)
  for round = 0 to 99 do
    Alcotest.(check bool) "wrap push" true (Spsc.try_push q round);
    Alcotest.(check (option int)) "wrap pop" (Some round) (Spsc.try_pop q)
  done

let test_spsc_rejects_bad_capacity () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Spsc.create: capacity out of range") (fun () ->
      ignore (Spsc.create (-1)))

let test_spsc_cross_domain () =
  let q = Spsc.create 64 in
  let n = 100_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spsc.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let next = ref 0 in
  while !next < n do
    match Spsc.try_pop q with
    | None -> Domain.cpu_relax ()
    | Some v ->
      if v <> !next then
        Alcotest.failf "out of order: expected %d, popped %d" !next v;
      incr next
  done;
  Domain.join producer;
  Alcotest.(check bool) "ring empty after join" true (Spsc.is_empty q)

(* ---------- load generator ---------- *)

let test_sampler_uniform_range () =
  let s = Load.sampler ~objects:16 ~theta:0.0 in
  let rng = Util.Rng.create 1 in
  let seen = Array.make 16 0 in
  for _ = 1 to 4_000 do
    let k = Load.sample s rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 16);
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c = 0 then Alcotest.failf "uniform sampler never drew key %d" i)
    seen

let test_sampler_zipf_skew () =
  let s = Load.sampler ~objects:100 ~theta:1.2 in
  let rng = Util.Rng.create 2 in
  let seen = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let k = Load.sample s rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    seen.(k) <- seen.(k) + 1
  done;
  Alcotest.(check bool)
    (Printf.sprintf "head key dominates tail key (%d vs %d)" seen.(0) seen.(99))
    true
    (seen.(0) > 10 * (seen.(99) + 1))

let test_sampler_rejects_bad_args () =
  Alcotest.check_raises "no objects"
    (Invalid_argument "Load.sampler: objects must be >= 1") (fun () ->
      ignore (Load.sampler ~objects:0 ~theta:0.0));
  Alcotest.check_raises "negative theta"
    (Invalid_argument "Load.sampler: theta must be finite and non-negative")
    (fun () -> ignore (Load.sampler ~objects:4 ~theta:(-1.0)))

let test_gen_counts_and_unique_writes () =
  let g = Load.gen ~replica:3 Load.register_mix in
  let rng = Util.Rng.create 3 in
  let writes = ref [] in
  for _ = 1 to 500 do
    match Load.next g rng with
    | Model.Op.Write v -> writes := v :: !writes
    | Model.Op.Read -> ()
    | op -> Alcotest.failf "register mix produced %a" Model.Op.pp op
  done;
  Alcotest.(check int) "issued counts every draw" 500 (Load.issued g);
  Alcotest.(check int) "writes counts updates" (List.length !writes)
    (Load.writes g);
  let distinct = List.sort_uniq compare !writes in
  Alcotest.(check int) "write values are globally unique"
    (List.length !writes) (List.length distinct);
  List.iter
    (function
      | Model.Value.Pair (r, _) ->
        Alcotest.(check int) "write value carries the replica id" 3 r
      | v -> Alcotest.failf "unexpected write value %s" (Model.Value.to_string v))
    !writes

(* ---------- anti-entropy backpressure accessors ---------- *)

let test_ae_backpressure_accessors () =
  let a = AE.init ~n:2 ~me:0 in
  Alcotest.(check int) "fresh queue is empty" 0 (AE.queue_depth a);
  Alcotest.(check int) "fresh pending bytes" 0 (AE.pending_bytes a);
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (Model.Value.Int 1)) in
  let a = AE.tick a in
  Alcotest.(check int) "tick queues one digest marker" 1 (AE.queue_depth a);
  Alcotest.(check int) "digest markers carry no payload" 0 (AE.pending_bytes a);
  let a, _lost = AE.send a in
  Alcotest.(check int) "send drains the queue" 0 (AE.queue_depth a);
  (* the first broadcast is lost; the second one's digest shows the peer
     the gap, and its request makes us queue a repair: payload bytes
     become pending *)
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (Model.Value.Int 2)) in
  let a, second = AE.send (AE.tick a) in
  let b = AE.receive (AE.init ~n:2 ~me:1) ~sender:0 second in
  let _, request = AE.send b in
  let a = AE.receive a ~sender:1 request in
  Alcotest.(check bool) "repair queued" true (AE.queue_depth a >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "pending bytes positive (%d)" (AE.pending_bytes a))
    true
    (AE.pending_bytes a > 0)

(* ---------- histogram merge ---------- *)

let test_histogram_merge () =
  let a = Metrics.Histogram.create () in
  let b = Metrics.Histogram.create () in
  let samples_a = [ 1.0; 4.0; 9.0; 100.0 ] in
  let samples_b = [ 0.5; 2.0; 250.0 ] in
  List.iter (Metrics.Histogram.observe a) samples_a;
  List.iter (Metrics.Histogram.observe b) samples_b;
  let all = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe all) (samples_a @ samples_b);
  Metrics.Histogram.merge_into a b;
  Alcotest.(check int) "count" (Metrics.Histogram.count all)
    (Metrics.Histogram.count a);
  Alcotest.(check (float 1e-9)) "sum" (Metrics.Histogram.sum all)
    (Metrics.Histogram.sum a);
  Alcotest.(check (float 0.0)) "min" 0.5 (Metrics.Histogram.min_value a);
  Alcotest.(check (float 0.0)) "max" 250.0 (Metrics.Histogram.max_value a);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q%.2f equals direct observation" q)
        (Metrics.Histogram.quantile all q)
        (Metrics.Histogram.quantile a q))
    [ 0.0; 0.25; 0.5; 0.75; 0.95; 1.0 ];
  (* merging an empty histogram is a no-op, including on min/max *)
  let before = Metrics.Histogram.min_value a in
  Metrics.Histogram.merge_into a (Metrics.Histogram.create ());
  Alcotest.(check (float 0.0)) "empty merge keeps min" before
    (Metrics.Histogram.min_value a);
  Alcotest.(check int) "empty merge keeps count" (Metrics.Histogram.count all)
    (Metrics.Histogram.count a)

(* ---------- live-vs-sim equivalence (inline, deterministic) ---------- *)

let inline_cfg =
  {
    Cluster.default with
    replicas = 3;
    seed = 11;
    objects = 4;
    ring_capacity = 64;
  }

let test_inline_counts_match_exactly () =
  let r = C.run_inline ~ops_per_replica:40 ~tick_every:8 inline_cfg in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  Array.iteri
    (fun i (p : Cluster.replica_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d executed what the generator issued" i)
        p.Cluster.issued p.Cluster.ops;
      Alcotest.(check int)
        (Printf.sprintf "replica %d issued the configured op count" i)
        40 p.Cluster.issued)
    r.Cluster.per_replica;
  let exec = Option.get r.Cluster.trace in
  (* the trace's own per-replica do counts agree with the generator *)
  Array.iteri
    (fun i (p : Cluster.replica_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "trace do-projection of replica %d" i)
        p.Cluster.ops
        (List.length (Model.Execution.do_projection exec i)))
    r.Cluster.per_replica;
  match Model.Execution.check_well_formed exec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "captured trace not well-formed: %s" e

let test_inline_trace_passes_checkers () =
  let r = C.run_inline ~ops_per_replica:40 ~tick_every:8 inline_cfg in
  let exec = Option.get r.Cluster.trace in
  let witness = Option.get r.Cluster.witness in
  let report = Sim.Checks.validate exec witness in
  let demand name = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s check failed on live trace: %s" name e
  in
  demand "well-formed" report.Sim.Checks.well_formed;
  demand "complies" report.Sim.Checks.complies;
  demand "correct" report.Sim.Checks.correct;
  demand "causal" report.Sim.Checks.causal;
  Alcotest.(check string) "occ check on live trace" "ok" (Sim.Checks.occ_text report.Sim.Checks.occ)

let test_inline_is_deterministic () =
  let r1 = C.run_inline ~ops_per_replica:30 ~tick_every:4 inline_cfg in
  let r2 = C.run_inline ~ops_per_replica:30 ~tick_every:4 inline_cfg in
  let bytes r = Model.Trace_io.to_string (Option.get r.Cluster.trace) in
  Alcotest.(check string) "same config, bit-identical trace" (bytes r1)
    (bytes r2)

(* ---------- multi-domain smoke ---------- *)

let test_live_two_domains_checker_clean () =
  let cfg =
    {
      Cluster.default with
      replicas = 2;
      seed = 5;
      objects = 8;
      duration = 0.08;
      rate = 4_000.0;
      batch = 4;
      gossip_interval = 0.0005;
      capture = true;
    }
  in
  let r = C.run cfg in
  Alcotest.(check bool)
    (Printf.sprintf "executed some ops (%d)" r.Cluster.total_ops)
    true (r.Cluster.total_ops > 0);
  Alcotest.(check int) "every issued op was executed" r.Cluster.total_issued
    r.Cluster.total_ops;
  Alcotest.(check bool) "cluster settled" true r.Cluster.converged;
  (match
     Obs.Metrics.Registry.find r.Cluster.registry "live.ops"
   with
  | Some (Obs.Metrics.Registry.Counter c) ->
    Alcotest.(check int) "registry total matches" r.Cluster.total_ops
      (Obs.Metrics.Counter.value c)
  | _ -> Alcotest.fail "live.ops counter missing from harvest registry");
  let exec = Option.get r.Cluster.trace in
  let witness = Option.get r.Cluster.witness in
  (match Model.Execution.check_well_formed exec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "live trace not well-formed: %s" e);
  let report = Sim.Checks.validate exec witness in
  (match report.Sim.Checks.causal with
  | Ok () -> ()
  | Error e -> Alcotest.failf "causal check failed on live trace: %s" e);
  match report.Sim.Checks.complies with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compliance failed on live trace: %s" e

(* ---------- spsc boundary behavior ---------- *)

let test_spsc_wraparound_boundaries () =
  (* the tightest ring (capacity floors at 2) alternates full/empty *)
  let q1 = Spsc.create 1 in
  Alcotest.(check int) "capacity floors at 2" 2 (Spsc.capacity q1);
  for i = 0 to 49 do
    Alcotest.(check bool) "push 1 into empty ring" true (Spsc.try_push q1 (2 * i));
    Alcotest.(check bool) "push 2 fills it" true (Spsc.try_push q1 ((2 * i) + 1));
    Alcotest.(check bool) "full ring rejects" false (Spsc.try_push q1 (-1));
    Alcotest.(check (option int)) "pop 1" (Some (2 * i)) (Spsc.try_pop q1);
    Alcotest.(check (option int)) "pop 2" (Some ((2 * i) + 1)) (Spsc.try_pop q1)
  done;
  (* fill to exact capacity, drain to exact empty, repeatedly: the
     head/tail indices cross every masking boundary *)
  let q = Spsc.create 8 in
  let cap = Spsc.capacity q in
  for round = 0 to 24 do
    for i = 0 to cap - 1 do
      Alcotest.(check bool) "fill to capacity" true (Spsc.try_push q (round, i))
    done;
    Alcotest.(check bool) "exactly full rejects" false (Spsc.try_push q (-1, -1));
    Alcotest.(check int) "length = capacity" cap (Spsc.length q);
    (* partial drain then refill straddles the wrap point mid-batch *)
    for i = 0 to (cap / 2) - 1 do
      Alcotest.(check (option (pair int int))) "FIFO across the wrap"
        (Some (round, i)) (Spsc.try_pop q)
    done;
    for i = 0 to (cap / 2) - 1 do
      Alcotest.(check bool) "refill after partial drain" true
        (Spsc.try_push q (round + 1000, i))
    done;
    Alcotest.(check bool) "full again at the boundary" false
      (Spsc.try_push q (-1, -1));
    for i = cap / 2 to cap - 1 do
      Alcotest.(check (option (pair int int))) "tail of the old batch"
        (Some (round, i)) (Spsc.try_pop q)
    done;
    for i = 0 to (cap / 2) - 1 do
      Alcotest.(check (option (pair int int))) "head of the new batch"
        (Some (round + 1000, i)) (Spsc.try_pop q)
    done;
    Alcotest.(check bool) "exactly empty" true (Spsc.is_empty q);
    Alcotest.(check (option (pair int int))) "empty rejects pop" None
      (Spsc.try_pop q)
  done

let test_spsc_producer_after_consumer_exit () =
  let q = Spsc.create 4 in
  let cap = Spsc.capacity q in
  let consumed = ref 0 in
  let consumer =
    Domain.spawn (fun () ->
        (* consume a few items, then exit while the producer is live *)
        while !consumed < 3 do
          match Spsc.try_pop q with
          | Some _ -> incr consumed
          | None -> Domain.cpu_relax ()
        done)
  in
  let pushed = ref 0 in
  let rejected = ref 0 in
  (* push well past capacity + consumed: once the consumer is gone the
     ring fills and try_push must keep returning false without blocking
     or corrupting state *)
  for i = 0 to (3 * cap) + 2 do
    if Spsc.try_push q i then incr pushed else incr rejected
  done;
  Domain.join consumer;
  Alcotest.(check bool)
    (Printf.sprintf "pushes beyond capacity rejected (%d)" !rejected)
    true (!rejected > 0);
  Alcotest.(check bool) "ring never exceeds capacity" true (Spsc.length q <= cap);
  (* after the join, the main domain may take over the consumer role:
     the remaining items drain in FIFO order with nothing lost *)
  let drained = ref 0 in
  let last = ref (-1) in
  let continue = ref true in
  while !continue do
    match Spsc.try_pop q with
    | None -> continue := false
    | Some v ->
      Alcotest.(check bool) "FIFO preserved after consumer exit" true (v > !last);
      last := v;
      incr drained
  done;
  Alcotest.(check int) "every accepted item is consumed or drained" !pushed
    (!consumed + !drained)

(* ---------- fault layer units ---------- *)

let test_fault_plan_scaled () =
  let p =
    Fault_plan.make
      ~crashes:[ { Fault_plan.replica = 1; at = 0.35; recover_at = 0.5 } ]
      ~links:[ { Fault_plan.src = 0; dst = 1; from_ = 0.2; until = 0.4 } ]
      ~reorder:{ Fault_plan.jitter = 0.05; from_ = 0.1; until = 0.3 }
      ~horizon:1.0 ()
  in
  let s = Fault_plan.scaled p ~factor:2.0 in
  let c = List.hd s.Fault_plan.crashes in
  Alcotest.(check (float 1e-12)) "crash at" 0.7 c.Fault_plan.at;
  Alcotest.(check (float 1e-12)) "crash recover_at" 1.0 c.Fault_plan.recover_at;
  let l = List.hd s.Fault_plan.links in
  Alcotest.(check (float 1e-12)) "link from" 0.4 l.Fault_plan.from_;
  Alcotest.(check (float 1e-12)) "link until" 0.8 l.Fault_plan.until;
  (match s.Fault_plan.reorder with
  | Some r -> Alcotest.(check (float 1e-12)) "jitter scales too" 0.1 r.Fault_plan.jitter
  | None -> Alcotest.fail "reorder window lost by scaling");
  Alcotest.(check (float 1e-12)) "horizon" 2.0 s.Fault_plan.horizon;
  Alcotest.check_raises "non-positive factor rejected"
    (Invalid_argument "Fault_plan.scaled: factor must be positive and finite")
    (fun () -> ignore (Fault_plan.scaled p ~factor:0.0))

let test_partition_links () =
  let links =
    Fault_plan.partition_links ~a:[ 0; 1 ] ~b:[ 2; 3 ] ~from_:0.3 ~until:0.6
  in
  Alcotest.(check int) "2x2 partition = 8 directed faults" 8 (List.length links);
  List.iter
    (fun (l : Fault_plan.link_fault) ->
      let cross (x, y) =
        (List.mem x [ 0; 1 ] && List.mem y [ 2; 3 ])
        || (List.mem x [ 2; 3 ] && List.mem y [ 0; 1 ])
      in
      Alcotest.(check bool) "every fault crosses the cut" true
        (cross (l.Fault_plan.src, l.Fault_plan.dst)))
    links;
  (try
     ignore (Fault_plan.partition_links ~a:[ 0 ] ~b:[ 0; 1 ] ~from_:0.0 ~until:1.0);
     Alcotest.fail "intersecting sides accepted"
   with Invalid_argument _ -> ())

let test_faults_transform () =
  let plan =
    Fault_plan.make
      ~links:[ { Fault_plan.src = 0; dst = 1; from_ = 1.0; until = 2.0 } ]
      ~corruption:{ Fault_plan.p = 1.0; from_ = 3.0; until = 4.0 }
      ~horizon:5.0 ()
  in
  let fl = Live.Faults.make ~plan ~drop_p:0.0 ~seed:7 ~n:2 in
  Live.Faults.start fl ~t0:100.0;
  (* inside the link window: dropped *)
  Alcotest.(check int) "window drop" 0
    (List.length (Live.Faults.transform fl ~src:0 ~dst:1 ~now:101.5 "abc"));
  Alcotest.(check bool) "window closes reachability" false
    (Live.Faults.reachable fl ~src:0 ~dst:1 ~now:101.5);
  (* outside every window: delivered unchanged, immediately *)
  (match Live.Faults.transform fl ~src:0 ~dst:1 ~now:102.5 "abc" with
  | [ (at, bytes) ] ->
    Alcotest.(check (float 0.0)) "released immediately" 102.5 at;
    Alcotest.(check string) "bytes untouched" "abc" bytes
  | l -> Alcotest.failf "expected one clean delivery, got %d" (List.length l));
  Alcotest.(check bool) "reachable after heal" true
    (Live.Faults.reachable fl ~src:0 ~dst:1 ~now:102.5);
  (* inside the p=1 corruption window: delivered, but mutated *)
  (match Live.Faults.transform fl ~src:0 ~dst:1 ~now:103.5 "abcdef" with
  | [ (_, bytes) ] ->
    Alcotest.(check bool) "corruption never the identity" true (bytes <> "abcdef")
  | l -> Alcotest.failf "expected one corrupted delivery, got %d" (List.length l));
  let t = Live.Faults.totals fl in
  Alcotest.(check int) "one drop counted" 1 t.Live.Faults.drops;
  Alcotest.(check int) "one corruption counted" 1 t.Live.Faults.corrupts;
  (* reverse direction never faulted *)
  Alcotest.(check bool) "other direction reachable" true
    (Live.Faults.reachable fl ~src:1 ~dst:0 ~now:101.5)

let test_faults_crash_schedule_and_availability () =
  let plan =
    Fault_plan.make
      ~crashes:[ { Fault_plan.replica = 1; at = 0.2; recover_at = 0.6 } ]
      ~horizon:1.0 ()
  in
  let fl = Live.Faults.make ~plan ~drop_p:0.0 ~seed:1 ~n:2 in
  Live.Faults.start fl ~t0:10.0;
  (match Live.Faults.crash_schedule fl ~replica:1 with
  | [| (at, rec_at) |] ->
    Alcotest.(check (float 1e-9)) "wall-clock crash instant" 10.2 at;
    Alcotest.(check (float 1e-9)) "wall-clock recovery instant" 10.6 rec_at
  | a -> Alcotest.failf "expected one window, got %d" (Array.length a));
  Alcotest.(check bool) "down inside the window" true
    (Live.Faults.down fl ~replica:1 ~now:10.4);
  Alcotest.(check bool) "up after recovery" false
    (Live.Faults.down fl ~replica:1 ~now:10.7);
  Alcotest.(check (float 1e-9)) "downtime clipped to the interval" 0.3
    (Live.Faults.downtime fl ~from_:10.3 ~until:11.0);
  Alcotest.(check (float 1e-9)) "last heal is the recovery" 10.6
    (Live.Faults.last_heal fl);
  (* invalid layers are rejected up front *)
  (try
     ignore (Live.Faults.make ~plan ~drop_p:1.0 ~seed:1 ~n:2);
     Alcotest.fail "drop_p = 1 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Live.Faults.make ~plan ~drop_p:0.0 ~seed:1 ~n:1);
     Alcotest.fail "crash endpoint out of range accepted"
   with Invalid_argument _ -> ())

(* ---------- live runs under faults ---------- *)

let chaos_cfg =
  {
    Cluster.default with
    replicas = 2;
    seed = 9;
    objects = 8;
    duration = 0.15;
    rate = 1_000.0;
    batch = 4;
    gossip_interval = 0.0005;
    capture = true;
  }

let test_live_corruption_rejected_still_converges () =
  (* every frame sent during the first two-thirds of the load phase is
     corrupted: the receiver must reject each as Malformed and keep
     draining, and anti-entropy must repair the losses afterwards *)
  let plan =
    Fault_plan.scaled ~factor:chaos_cfg.Cluster.duration
      (Fault_plan.make
         ~corruption:{ Fault_plan.p = 1.0; from_ = 0.0; until = 0.66 }
         ~horizon:1.0 ())
  in
  let r = C.run { chaos_cfg with Cluster.faults = Some plan } in
  Alcotest.(check bool)
    (Printf.sprintf "corrupted frames rejected (%d)" r.Cluster.frames_rejected)
    true
    (r.Cluster.frames_rejected > 0);
  Alcotest.(check bool) "cluster still converged" true r.Cluster.converged;
  (match Obs.Metrics.Registry.find r.Cluster.registry "live.frames.rejected" with
  | Some (Obs.Metrics.Registry.Counter c) ->
    Alcotest.(check int) "rejected counter harvested" r.Cluster.frames_rejected
      (Obs.Metrics.Counter.value c)
  | _ -> Alcotest.fail "live.frames.rejected missing from registry");
  let report =
    Sim.Checks.validate (Option.get r.Cluster.trace) (Option.get r.Cluster.witness)
  in
  (match report.Sim.Checks.causal with
  | Ok () -> ()
  | Error e -> Alcotest.failf "causal check failed under corruption: %s" e);
  match report.Sim.Checks.well_formed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace not well-formed under corruption: %s" e

let test_live_crash_restart_checker_clean () =
  let plan =
    Fault_plan.scaled ~factor:chaos_cfg.Cluster.duration
      (Fault_plan.make
         ~crashes:[ { Fault_plan.replica = 1; at = 0.3; recover_at = 0.6 } ]
         ~horizon:1.0 ())
  in
  let r = DC.run { chaos_cfg with Cluster.faults = Some plan } in
  Alcotest.(check int) "one crash fired" 1 r.Cluster.crashes;
  Alcotest.(check bool) "converged after restart" true r.Cluster.converged;
  Alcotest.(check bool)
    (Printf.sprintf "availability below 1 (%.3f)" r.Cluster.availability)
    true
    (r.Cluster.availability < 1.0);
  Alcotest.(check bool) "recovery latency sampled" true
    (Metrics.Histogram.count r.Cluster.recovery_ms >= 1);
  let exec = Option.get r.Cluster.trace in
  let crashes, recovers =
    List.fold_left
      (fun (c, v) e ->
        match e with
        | Model.Event.Crash { replica = 1 } -> (c + 1, v)
        | Model.Event.Recover { replica = 1 } -> (c, v + 1)
        | _ -> (c, v))
      (0, 0) (Model.Execution.events exec)
  in
  Alcotest.(check int) "trace records the crash" 1 crashes;
  Alcotest.(check int) "trace records the recovery" 1 recovers;
  (* the WAL replay sends nothing: the counters are the captured sends *)
  let sends_carrying kinds =
    List.length
      (List.filter
         (function
           | Model.Event.Send { msg; _ } ->
             let items =
               String.split_on_char '+' (Store.Anti_entropy.classify msg.Model.Message.payload)
             in
             List.exists (fun k -> List.mem k items) kinds
           | _ -> false)
         (Model.Execution.events exec))
  in
  let g = r.Cluster.gossip in
  Alcotest.(check int) "gossip.updates = captured update sends" (sends_carrying [ "update" ])
    g.updates;
  Alcotest.(check int) "gossip digests = captured digest sends"
    (sends_carrying [ "digest"; "digest-delta" ])
    (g.digests + g.digest_deltas);
  let report = Sim.Checks.validate exec (Option.get r.Cluster.witness) in
  (match report.Sim.Checks.well_formed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "crash trace not well-formed: %s" e);
  match report.Sim.Checks.causal with
  | Ok () -> ()
  | Error e -> Alcotest.failf "causal check failed across the crash: %s" e

let test_live_partition_heals_degraded_first () =
  (* the acceptance shape: 4 domains, a mid-run partition, and a crash
     window reaching into the drain — the reachable components must
     settle while degraded, then the full set after the heal *)
  let duration = 0.3 in
  let plan =
    Fault_plan.scaled ~factor:duration
      (Fault_plan.make
         ~crashes:[ { Fault_plan.replica = 2; at = 0.5; recover_at = 2.0 } ]
         ~links:
           (Fault_plan.partition_links ~a:[ 0; 1 ] ~b:[ 2; 3 ] ~from_:0.2
              ~until:0.8)
         ~n:4 ~horizon:2.0 ())
  in
  let r =
    DC.run
      {
        chaos_cfg with
        Cluster.replicas = 4;
        duration;
        rate = 300.0;
        faults = Some plan;
      }
  in
  (match r.Cluster.outcome with
  | Cluster.Healed { degraded_settled } ->
    Alcotest.(check bool) "settled degraded before the heal" true degraded_settled
  | Cluster.Diverged why -> Alcotest.failf "diverged: %s" why);
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  let report =
    Sim.Checks.validate (Option.get r.Cluster.trace) (Option.get r.Cluster.witness)
  in
  (match report.Sim.Checks.causal with
  | Ok () -> ()
  | Error e -> Alcotest.failf "causal check failed across the partition: %s" e);
  match report.Sim.Checks.complies with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compliance failed across the partition: %s" e

let test_live_tiny_heal_by_diverges () =
  let plan =
    Fault_plan.scaled ~factor:chaos_cfg.Cluster.duration
      (Fault_plan.make
         ~crashes:[ { Fault_plan.replica = 1; at = 0.3; recover_at = 0.9 } ]
         ~horizon:1.0 ())
  in
  let r =
    DC.run
      { chaos_cfg with Cluster.faults = Some plan; capture = false; heal_by = 1e-9 }
  in
  Alcotest.(check bool) "not converged" false r.Cluster.converged;
  match r.Cluster.outcome with
  | Cluster.Diverged why ->
    Alcotest.(check bool) "reason is non-empty" true (String.length why > 0)
  | Cluster.Healed _ -> Alcotest.fail "healed within a nanosecond deadline"

let test_live_crash_plan_requires_durable_stack () =
  let plan =
    Fault_plan.make
      ~crashes:[ { Fault_plan.replica = 1; at = 0.03; recover_at = 0.06 } ]
      ~horizon:0.15 ()
  in
  try
    ignore (C.run { chaos_cfg with Cluster.faults = Some plan; capture = false });
    Alcotest.fail "volatile stack accepted a crash plan"
  with Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names durability (%s)" msg)
      true
      (String.length msg > 0)

(* A NaN compares false against every bound, so a bare [<= 0.] lets it
   through: a NaN duration ends the load phase at once, an infinite one
   never ends it, and a NaN or negative rate would silently mean
   saturation. Each is rejected before any domain starts. *)
let bad_run_values =
  [
    ("duration nan", { Cluster.default with Cluster.duration = Float.nan });
    ("duration inf", { Cluster.default with Cluster.duration = Float.infinity });
    ("duration 0", { Cluster.default with Cluster.duration = 0.0 });
    ("rate -5", { Cluster.default with Cluster.rate = -5.0 });
    ("rate nan", { Cluster.default with Cluster.rate = Float.nan });
    ("rate inf", { Cluster.default with Cluster.rate = Float.infinity });
  ]

let test_run_rejects cfg () =
  match C.run cfg with
  | _ -> Alcotest.fail "run accepted the config"
  | exception Invalid_argument _ -> ()

let test_durable_stack_recover_roundtrip () =
  let s = ref (DStack.init ~n:2 ~me:0) in
  for i = 1 to 20 do
    let s', _, _ = DStack.do_op !s ~obj:(i mod 4) (Model.Op.Write (Model.Value.Int i)) in
    s := s'
  done;
  let recovered = DStack.recover !s in
  Alcotest.(check bool) "durable stack advertises durability" true DStack.durable;
  Alcotest.(check bool) "recovered state equals the pre-crash state" true
    (Clock.Vclock.equal (DStack.progress !s) (DStack.progress recovered));
  (* a volatile stack's recover is the identity and it says so *)
  Alcotest.(check bool) "volatile stack is not durable" false Stack.durable

(* The simulator and the live cluster publish the replicas' protocol
   counters and repair log under one vocabulary ({!Sim.Stack.publish}),
   and a live result's gossip totals are its replicas' counters summed. *)
let test_log_gauges_named_alike () =
  let module Chaos = Sim.Chaos.Make (Store.Causal_mvr_store) in
  let sim = (Chaos.run ~seed:1 ()).Sim.Chaos.metrics in
  let r = C.run_inline ~ops_per_replica:40 inline_cfg in
  let names reg =
    List.filter_map
      (fun (name, _) ->
        if String.starts_with ~prefix:"gossip." name || String.starts_with ~prefix:"ae." name
        then Some name
        else None)
      (Metrics.Registry.to_list reg)
    |> List.sort compare
  in
  Alcotest.(check bool) "sim publishes the log gauges" true
    (List.mem "ae.log_entries" (names sim) && List.mem "ae.log_bytes" (names sim));
  Alcotest.(check (list string)) "live publishes the sim's names" (names sim)
    (names r.Cluster.registry);
  let total =
    Array.fold_left
      (fun a (p : Cluster.replica_stats) -> Store.Store_intf.add_gossip_stats a p.gossip)
      (Store.Store_intf.fresh_gossip_stats ()) r.Cluster.per_replica
  in
  Alcotest.(check bool) "per-replica counters sum to the result" true (total = r.Cluster.gossip);
  Alcotest.(check bool) "every replica sent updates" true
    (Array.for_all (fun (p : Cluster.replica_stats) -> p.gossip.updates > 0) r.Cluster.per_replica);
  Alcotest.(check int) "registry carries the sum" r.Cluster.gossip.updates
    (Metrics.Counter.value (Metrics.Registry.counter r.Cluster.registry "gossip.updates"))

(* A replica trims its repair log only on the digests its peers send
   each gossip tick. At saturation every pass of the live loop must
   therefore reach its tick: a domain that drained its inbox until empty
   sent no digest for up to 0.3 s while its peer produced, and the peer's
   log reached 2.3k-44k entries in 2 s runs of this shape. With the pass
   budget the sampled peak stays near the ring's 1024 frames. *)
let test_live_saturate_log_bounded () =
  let r = C.run { Cluster.default with duration = 2.0 } in
  Alcotest.(check bool) "cluster settled" true r.Cluster.converged;
  Array.iteri
    (fun i (p : Cluster.replica_stats) ->
      if p.log_entries_peak > 4096 then
        Alcotest.failf "R%d repair log peaked at %d entries (bound 4096)" i
          p.log_entries_peak)
    r.Cluster.per_replica;
  Alcotest.(check (float 0.0)) "the registry gauge is the replicas' max"
    (float_of_int r.Cluster.log_entries_peak)
    (Metrics.Gauge.value
       (Metrics.Registry.gauge r.Cluster.registry "ae.log_entries_peak"))

(* The single-domain runtime samples every replica's backpressure once
   per round, as the live loop does once per pass: its repair logs fill
   between digests and drain once everyone has everything, so the
   sampled peak exceeds what the logs hold at the end. *)
let test_inline_samples_backpressure () =
  let r = C.run_inline ~ops_per_replica:40 ~tick_every:8 inline_cfg in
  let final =
    Metrics.Gauge.value (Metrics.Registry.gauge r.Cluster.registry "ae.log_entries")
  in
  Array.iteri
    (fun i (p : Cluster.replica_stats) ->
      if float_of_int p.log_entries_peak <= final then
        Alcotest.failf "R%d log peak %d, but the logs end with %.0f entries" i
          p.log_entries_peak final)
    r.Cluster.per_replica

(* Backpressure is sampled after a pass's drain, before its flush sends
   the control queue: on a lossy link the repairs and requests a drain
   queues show up in the peak. Sampled after the flush, the queue was
   always empty and the peak read 0. *)
let test_lossy_run_samples_queue_depth () =
  let r = C.run { chaos_cfg with Cluster.drop_p = 0.2 } in
  Alcotest.(check bool) "cluster converged" true r.Cluster.converged;
  let peak =
    Array.fold_left
      (fun a (p : Cluster.replica_stats) -> max a p.queue_depth_peak)
      0 r.Cluster.per_replica
  in
  if peak = 0 then Alcotest.fail "queue_depth_peak read 0 on a lossy run"

(* ---------- the calling domain runs replica 0 ---------- *)

(* A stack that records which domain created each replica, counts the
   spawned domains that have exited, and, when [raise_after] > 0, makes
   the caller's [do_op] raise after that many ops. *)
let caller = Domain.self ()
let creators = Atomic.make []
let exited = Atomic.make 0
let raise_after = ref 0
let caller_ops = ref 0

exception Boom

module Recording = struct
  include Stack

  let create cfg ~n ~me =
    let self = Domain.self () in
    let rec add () =
      let l = Atomic.get creators in
      if not (Atomic.compare_and_set creators l (self :: l)) then add ()
    in
    add ();
    if self <> caller then Domain.at_exit (fun () -> Atomic.incr exited);
    Stack.create cfg ~n ~me

  let do_op st ~obj op =
    if !raise_after > 0 && Domain.self () = caller then begin
      incr caller_ops;
      if !caller_ops > !raise_after then raise Boom
    end;
    Stack.do_op st ~obj op
end

module RC = Cluster.Make (Recording)

let reset_recording ~raise_at =
  Atomic.set creators [];
  Atomic.set exited 0;
  raise_after := raise_at;
  caller_ops := 0

(* n replicas on n domains: n - 1 spawned, replica 0 on the caller *)
let test_caller_runs_a_replica () =
  reset_recording ~raise_at:0;
  let r = RC.run { Cluster.default with replicas = 3; duration = 0.1 } in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  let doms = Atomic.get creators in
  Alcotest.(check int) "three replicas created" 3 (List.length doms);
  Alcotest.(check int) "on three distinct domains" 3
    (List.length (List.sort_uniq compare doms));
  Alcotest.(check bool) "one of them is the caller's" true (List.mem caller doms)

(* The coordinator is a step of the caller's loop, so it must also run
   while the caller's replica is down: a crash across the end of the load
   phase may not stretch it, and a deadline the crash makes the cluster
   miss must end the run with a typed outcome, not a hang. *)
let test_caller_crashed_at_load_end () =
  let duration = 0.5 in
  let plan =
    Fault_plan.scaled ~factor:duration
      (Fault_plan.make
         ~crashes:[ { Fault_plan.replica = 0; at = 0.8; recover_at = 1.3 } ]
         ~horizon:1.3 ())
  in
  let cfg = { chaos_cfg with Cluster.duration; faults = Some plan; capture = false } in
  let r = DC.run cfg in
  if Float.abs (r.Cluster.elapsed -. duration) > 0.1 then
    Alcotest.failf "load phase took %.3fs, expected %.3fs" r.Cluster.elapsed duration;
  (match r.Cluster.outcome with
  | Cluster.Healed _ -> ()
  | Cluster.Diverged why -> Alcotest.failf "diverged: %s" why);
  let t = Unix.gettimeofday () in
  let r = DC.run { cfg with heal_by = 1e-9 } in
  let wall = Unix.gettimeofday () -. t in
  (match r.Cluster.outcome with
  | Cluster.Diverged _ -> ()
  | Cluster.Healed _ -> Alcotest.fail "healed within a nanosecond deadline");
  if wall > (1.3 *. duration) +. 2.0 then
    Alcotest.failf "diverged run took %.2fs, past heal + heal-by + 2s" wall

(* A raise on the caller's replica stops the spawned domains, joins them
   and surfaces; left at phase 0 they would spin forever. *)
let test_caller_exception_surfaces () =
  reset_recording ~raise_at:1_000;
  let cfg = { Cluster.default with replicas = 3; duration = 5.0 } in
  (match RC.run cfg with
  | _ -> Alcotest.fail "run returned despite the caller's replica raising"
  | exception Boom -> ());
  raise_after := 0;
  Alcotest.(check int) "every spawned domain joined" 2 (Atomic.get exited)

let suite =
  ( "live",
    [
      Alcotest.test_case "spsc: single-domain semantics" `Quick
        test_spsc_single_domain;
      Alcotest.test_case "spsc: rejects bad capacity" `Quick
        test_spsc_rejects_bad_capacity;
      Alcotest.test_case "spsc: cross-domain FIFO stress" `Quick
        test_spsc_cross_domain;
      Alcotest.test_case "load: uniform sampler covers the space" `Quick
        test_sampler_uniform_range;
      Alcotest.test_case "load: zipf sampler skews to the head" `Quick
        test_sampler_zipf_skew;
      Alcotest.test_case "load: sampler validates arguments" `Quick
        test_sampler_rejects_bad_args;
      Alcotest.test_case "load: counts and globally unique write values" `Quick
        test_gen_counts_and_unique_writes;
      Alcotest.test_case "anti-entropy: backpressure accessors" `Quick
        test_ae_backpressure_accessors;
      Alcotest.test_case "histogram: merge_into equals direct observation"
        `Quick test_histogram_merge;
      Alcotest.test_case "inline: op counts match the generator exactly" `Quick
        test_inline_counts_match_exactly;
      Alcotest.test_case "inline: captured trace passes causal/OCC checkers"
        `Quick test_inline_trace_passes_checkers;
      Alcotest.test_case "inline: bit-identical across runs" `Quick
        test_inline_is_deterministic;
      Alcotest.test_case "live: two domains, checker-clean capture" `Quick
        test_live_two_domains_checker_clean;
      Alcotest.test_case "spsc: wraparound at exact capacity boundaries" `Quick
        test_spsc_wraparound_boundaries;
      Alcotest.test_case "spsc: producer survives consumer exit" `Quick
        test_spsc_producer_after_consumer_exit;
      Alcotest.test_case "faults: plan scaling maps times onto wall clock"
        `Quick test_fault_plan_scaled;
      Alcotest.test_case "faults: partition_links builds the full cut" `Quick
        test_partition_links;
      Alcotest.test_case "faults: transform drops, corrupts and heals" `Quick
        test_faults_transform;
      Alcotest.test_case "faults: crash schedule, downtime, last heal" `Quick
        test_faults_crash_schedule_and_availability;
      Alcotest.test_case "live: corrupted frames rejected, still converges"
        `Quick test_live_corruption_rejected_still_converges;
      Alcotest.test_case "live: crash-restart is checker-clean" `Quick
        test_live_crash_restart_checker_clean;
      Alcotest.test_case "live: partition heals after degraded settle" `Quick
        test_live_partition_heals_degraded_first;
      Alcotest.test_case "live: tiny heal-by deadline diverges (typed)" `Quick
        test_live_tiny_heal_by_diverges;
      Alcotest.test_case "live: crash plan requires a durable stack" `Quick
        test_live_crash_plan_requires_durable_stack;
      Alcotest.test_case "live: durable stack recover roundtrip" `Quick
        test_durable_stack_recover_roundtrip;
      Alcotest.test_case "telemetry: sim and live name the gossip and ae metrics alike"
        `Quick test_log_gauges_named_alike;
      Alcotest.test_case "live: saturation keeps the repair log bounded" `Quick
        test_live_saturate_log_bounded;
    ]
    @ List.map
        (fun (what, cfg) ->
          Alcotest.test_case ("live: run rejects " ^ what) `Quick (test_run_rejects cfg))
        bad_run_values
    @ [
        Alcotest.test_case "live: run_inline samples backpressure each round" `Quick
          test_inline_samples_backpressure;
        Alcotest.test_case "live: a lossy run samples a nonzero queue depth" `Quick
          test_lossy_run_samples_queue_depth;
        Alcotest.test_case "live: the calling domain runs a replica" `Quick
          test_caller_runs_a_replica;
        Alcotest.test_case "live: the caller's replica crashed across the load end" `Quick
          test_caller_crashed_at_load_end;
        Alcotest.test_case "live: an exception on the caller surfaces" `Quick
          test_caller_exception_surfaces;
      ] )
