(* The full benchmark and experiment harness.

   Running `dune exec bench/main.exe` first regenerates every experiment
   table registered in Haec_experiments.Registry — whatever the registry
   currently holds; `haec_cli list` or EXPERIMENTS.md enumerate them —
   then runs Bechamel microbenchmarks of the core operations and the
   replication soak macro-benchmark, and times the witness table's
   passes at audit scale, writing them to BENCH_results.json.

   `dune exec bench/main.exe -- E6 E7` runs only the named experiments;
   `dune exec bench/main.exe -- --micro` runs only the micro + soak
   benchmarks; `--quick` shrinks trial counts and soak sizes for CI smoke
   runs (the JSON artifact keeps the same shape); `--live` adds the
   live-cluster saturation rows (E25 harness) measured on real OCaml 5
   domains. *)

open Bechamel
open Toolkit
open Haec
module Registry = Haec_experiments.Registry
module Op = Model.Op
module Value = Model.Value
module Vclock = Clock.Vclock

(* ---------- microbenchmark fixtures ---------- *)

let vclock_pair =
  let a = Array.init 16 (fun i -> (i * 37) mod 101) in
  let b = Array.init 16 (fun i -> (i * 53) mod 97) in
  (Vclock.of_array a, Vclock.of_array b)

let bench_vclock_merge =
  let a, b = vclock_pair in
  Test.make ~name:"vclock/merge-n16" (Staged.stage (fun () -> Vclock.merge a b))

let bench_vclock_compare =
  let a, b = vclock_pair in
  Test.make ~name:"vclock/compare-n16" (Staged.stage (fun () -> Vclock.compare_causal a b))

let sample_update =
  {
    Store.Mvr_object.vv = Vclock.of_array (Array.init 8 (fun i -> i * 1000));
    dot = Clock.Dot.make ~replica:3 ~seq:3000;
    value = Value.Pair (3000, 3);
  }

(* The wire/decode-update row decodes the v1 layout (plain varint clock),
   which replicas no longer emit but every decoder still accepts, so it
   keeps measuring the same codec as the seed baseline; the v2 paths get
   their own -v2 rows below. *)
let encoded_update =
  Wire.encode (fun e ->
      Vclock.encode e sample_update.vv;
      Clock.Dot.encode e sample_update.dot;
      Value.encode e sample_update.value)

let bench_wire_decode =
  Test.make ~name:"wire/decode-update"
    (Staged.stage (fun () -> Wire.decode encoded_update Store.Mvr_object.decode_update))

let encode_sample () = Wire.encode (fun e -> Store.Mvr_object.encode_update e sample_update)

let encoded_update_v2 = encode_sample ()

let bench_wire_encode_v2 = Test.make ~name:"wire/encode-update-v2" (Staged.stage encode_sample)

let bench_wire_decode_v2 =
  Test.make ~name:"wire/decode-update-v2"
    (Staged.stage (fun () -> Wire.decode encoded_update_v2 Store.Mvr_object.decode_update))

let compressible_clock = Vclock.of_array (Array.init 16 (fun i -> i * 1000))

let bench_vclock_encode_c =
  Test.make ~name:"vclock/encode-c-n16"
    (Staged.stage (fun () ->
         Wire.encode (fun e -> Vclock.encode_c e compressible_clock)))

(* a warmed-up MVR store state *)
let warm_mvr =
  let st = ref (Store.Mvr_store.init ~n:4 ~me:0) in
  for i = 1 to 64 do
    let st', _, _ = Store.Mvr_store.do_op !st ~obj:(i mod 8) (Op.Write (Value.Int i)) in
    st := st'
  done;
  let st', _ = Store.Mvr_store.send !st in
  st'

let bench_mvr_write =
  Test.make ~name:"store/mvr-write"
    (Staged.stage (fun () -> Store.Mvr_store.do_op warm_mvr ~obj:3 (Op.Write (Value.Int 9))))

let bench_mvr_read =
  Test.make ~name:"store/mvr-read"
    (Staged.stage (fun () -> Store.Mvr_store.do_op warm_mvr ~obj:3 Op.Read))

let causal_payload =
  let st = Store.Causal_mvr_store.init ~n:4 ~me:1 in
  let st, _, _ = Store.Causal_mvr_store.do_op st ~obj:0 (Op.Write (Value.Int 1)) in
  let st, _, _ = Store.Causal_mvr_store.do_op st ~obj:1 (Op.Write (Value.Int 2)) in
  snd (Store.Causal_mvr_store.send st)

let fresh_causal = Store.Causal_mvr_store.init ~n:4 ~me:0

let bench_causal_receive =
  Test.make ~name:"store/causal-receive"
    (Staged.stage (fun () ->
         Store.Causal_mvr_store.receive fresh_causal ~sender:1 causal_payload))

let sample_exec =
  let module R = Sim.Runner.Make (Store.Mvr_store) in
  let rng = Util.Rng.create 5 in
  let sim = R.create ~seed:5 ~n:4 ~policy:(Sim.Net_policy.random_delay ()) () in
  let steps = Sim.Workload.generate ~rng ~n:4 ~objects:4 ~ops:60 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  (R.execution sim, R.witness_abstract sim)

let bench_hb_compute =
  let exec, _ = sample_exec in
  Test.make ~name:"model/hb-compute" (Staged.stage (fun () -> Model.Hb.compute exec))

let bench_spec_check =
  let _, witness = sample_exec in
  Test.make ~name:"spec/check-correct"
    (Staged.stage (fun () -> Spec.Spec.is_correct ~spec_of:(fun _ -> Spec.Spec.mvr) witness))

(* The same witness through the online checker: both verdicts (the raw
   witness and its closure) from its deltas, derived once up front as a
   recording runner would have delivered them. *)
let bench_spec_check_online =
  let _, witness = sample_exec in
  let n = Spec.Abstract.n_replicas witness in
  let deltas = ref [] in
  Consistency.Online.iter_deltas witness (fun d delta -> deltas := (d, delta) :: !deltas);
  let deltas = List.rev !deltas in
  Test.make ~name:"spec/check-online"
    (Staged.stage (fun () ->
         let t = Consistency.Online.create ~n ~spec_of:(fun _ -> Spec.Spec.mvr) () in
         List.iter (fun (d, delta) -> Consistency.Online.feed t d delta) deltas;
         (Consistency.Online.correct t, Consistency.Online.causal t)))

(* The whole report on the same witness, as [audit] and [serve --check]
   compute it: deltas derived from the witness rows, both verdicts
   online, and the four other checks. *)
let bench_spec_validate =
  let exec, witness = sample_exec in
  Test.make ~name:"spec/validate"
    (Staged.stage (fun () ->
         Sim.Checks.validate ~spec_of:(fun _ -> Spec.Spec.mvr) exec witness))

let occ_sample = Construction.Occ_gen.planted (Util.Rng.create 6) ~n:4 ~groups:4 ~readers:2 ()

let bench_occ_check =
  Test.make ~name:"consistency/occ-check"
    (Staged.stage (fun () -> Consistency.Occ.is_occ occ_sample))

let revealed_sample = fst (Construction.Revealing.make_revealing occ_sample)

module T6 = Construction.Theorem6.Make (Store.Mvr_store)

let bench_theorem6 =
  Test.make ~name:"construction/theorem6-planted"
    (Staged.stage (fun () -> T6.construct revealed_sample))

module T12 = Construction.Theorem12.Make (Store.Causal_mvr_store)

let bench_theorem12 =
  Test.make ~name:"construction/theorem12-n5-k16"
    (Staged.stage (fun () -> T12.encode_decode ~n:5 ~s:4 ~k:16 ~g:[| 7; 16; 3 |]))

let search_target =
  Consistency.Search.target_of_events ~n:3
    [
      { Model.Event.replica = 0; obj = 1; op = Op.Write (Value.Int 100); rval = Op.Ok };
      { Model.Event.replica = 0; obj = 0; op = Op.Write (Value.Int 1); rval = Op.Ok };
      { Model.Event.replica = 1; obj = 0; op = Op.Write (Value.Int 2); rval = Op.Ok };
      {
        Model.Event.replica = 2;
        obj = 0;
        op = Op.Read;
        rval = Op.vals [ Value.Int 1; Value.Int 2 ];
      };
    ]

let bench_search =
  Test.make ~name:"consistency/search-4ev"
    (Staged.stage (fun () ->
         Consistency.Search.search ~spec_of:(fun _ -> Spec.Spec.mvr) search_target))

(* fixtures for the newer modules *)
let audit_history =
  let module R = Sim.Runner.Make (Store.Causal_reg_store) in
  let rng = Util.Rng.create 21 in
  let sim = R.create ~seed:21 ~n:4 ~policy:(Sim.Net_policy.random_delay ()) () in
  let steps = Sim.Workload.generate ~rng ~n:4 ~objects:4 ~ops:150 Sim.Workload.register_mix in
  Sim.Workload.run (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  (R.execution sim, R.witness_abstract sim)

let bench_causal_hist =
  let exec, _ = audit_history in
  Test.make ~name:"consistency/causal-hist-150ops"
    (Staged.stage (fun () -> Consistency.Causal_hist.check exec))

let bench_session =
  let _, witness = audit_history in
  Test.make ~name:"consistency/session-guarantees"
    (Staged.stage (fun () -> Consistency.Session.check witness))

let bench_trace_roundtrip =
  let exec, _ = audit_history in
  let encoded = Model.Trace_io.to_string exec in
  Test.make ~name:"model/trace-decode"
    (Staged.stage (fun () -> Model.Trace_io.of_string encoded))

let state_pair =
  let mk seed =
    let st = ref (Store.Mvr_object.empty ~n:4) in
    let rng = Util.Rng.create seed in
    for i = 1 to 10 do
      let me = Util.Rng.int rng 4 in
      let st', _ = Store.Mvr_object.local_write !st ~me (Value.Int (seed + i)) in
      st := st'
    done;
    !st
  in
  (mk 100, mk 200)

let bench_state_join =
  let a, b = state_pair in
  Test.make ~name:"store/mvr-state-join"
    (Staged.stage (fun () -> Store.Mvr_object.join a b))

let orset_state =
  let st = ref (Store.Orset_store.init ~n:3 ~me:0) in
  for i = 1 to 32 do
    let st', _, _ = Store.Orset_store.do_op !st ~obj:0 (Op.Add (Value.Int (i mod 8))) in
    st := st'
  done;
  !st

let bench_orset_remove =
  Test.make ~name:"store/orset-remove"
    (Staged.stage (fun () -> Store.Orset_store.do_op orset_state ~obj:0 (Op.Remove (Value.Int 3))))

let tests =
  Test.make_grouped ~name:"haec"
    [
      bench_causal_hist;
      bench_session;
      bench_orset_remove;
      bench_hb_compute;
      bench_spec_check;
      bench_spec_check_online;
      bench_spec_validate;
      bench_occ_check;
      bench_theorem6;
      bench_search;
    ]

(* Rows whose fit stayed under the CI r^2 bar in the default group:
   theorem12 runs ~150us/op, so the default quota yields too few samples
   for a stable OLS slope, causal-receive sits in the awkward ~1us band
   where per-batch noise dominates a short quota, and trace-decode
   (~20us/run over a 150-op execution) fit with r^2 0.44 at the default
   budget. They get a group with a larger trial/time budget of their
   own. *)
let tests_mid =
  Test.make_grouped ~name:"haec"
    [ bench_causal_receive; bench_theorem12; bench_trace_roundtrip ]

(* The sim-chaos workload's unit of work at layer level: one 400-op
   adversarial seed of Durable (Anti_entropy (causal MVR)) with n=4 and 8
   objects, checked to [`Causal] — runner, span recording and per-seed
   checks together. A run takes about 13 ms, so the row gets a
   group whose quota buys enough samples for an OLS slope. *)
module Chaos_mvr = Sim.Chaos.Make (Store.Causal_mvr_store)

let bench_chaos_seed =
  Test.make ~name:"sim/chaos-seed"
    (Staged.stage (fun () ->
         Chaos_mvr.run ~n:4 ~objects:8 ~ops:400 ~spec_of:(fun _ -> Spec.Spec.mvr)
           ~require:`Causal ~adversarial:true ~seed:1 ()))

let tests_slow = Test.make_grouped ~name:"haec" [ bench_chaos_seed ]

(* Sub-100ns operations need far more samples before the OLS slope is
   trustworthy: at the default budget the vclock rows fit with r^2 of
   0.41/0.59 (i.e. noise). They get their own group under the same "haec"
   prefix — row names in BENCH_results.json are unchanged — run with a
   larger trial/quota budget. *)
let tests_fast =
  Test.make_grouped ~name:"haec"
    [
      bench_state_join;
      bench_vclock_merge;
      bench_vclock_compare;
      bench_wire_decode;
      bench_mvr_write;
      bench_mvr_read;
    ]

(* wire-v2 codec rows: same budget as the fast group, with the
   compressed-clock chooser on the encode path *)
let tests_fast_v2 =
  Test.make_grouped ~name:"haec"
    [ bench_wire_encode_v2; bench_wire_decode_v2; bench_vclock_encode_c ]

(* ---------- replication soak (E20 harness, machine-readable) ---------- *)

module E20 = Haec_experiments.E20_soak

let soak_json ~quick =
  let module Json = Haec.Obs.Json in
  let scale k = if quick then max 64 (k / 8) else k in
  let stress_entry (s : E20.stress) =
    ( Printf.sprintf "stress/reverse-%s-k%d" s.E20.s_label s.E20.k,
      Json.Obj
        [
          ("scans", Json.Num (float_of_int s.E20.s_scans));
          ("scans_per_record", Json.Num (float_of_int s.E20.s_scans /. float_of_int s.E20.k));
          ("peak_buffer", Json.Num (float_of_int s.E20.s_max_buffer));
          ("elapsed_s", Json.Num s.E20.s_elapsed);
        ] )
  in
  let soak_entry (s : E20.soak) =
    ( Printf.sprintf "soak/%s-n%d-ops%d" s.E20.label s.E20.n s.E20.ops,
      Json.Obj
        [
          ("ops_per_sec", Json.Num (if s.E20.elapsed > 0.0 then float_of_int s.E20.ops /. s.E20.elapsed else 0.0));
          ("bytes_per_op", Json.Num (float_of_int s.E20.total_bytes /. float_of_int s.E20.ops));
          ("messages", Json.Num (float_of_int s.E20.messages));
          ("scans", Json.Num (float_of_int s.E20.scans));
          ("scans_per_delivery", Json.Num (float_of_int s.E20.scans /. float_of_int (max 1 s.E20.deliveries)));
          ("elapsed_s", Json.Num s.E20.elapsed);
        ] )
  in
  let stress =
    List.concat_map
      (fun k -> [ stress_entry (E20.stress_naive ~k); stress_entry (E20.stress_indexed ~k) ])
      [ scale 1024; scale 2048 ]
  in
  let soaks =
    List.map
      (fun (n, ops, seed) ->
        soak_entry (E20.soak_indexed ~n ~objects:(2 * n) ~ops:(scale ops) ~seed ()))
      [ (4, 2000, 2001); (8, 4000, 2002) ]
    @ [ soak_entry (E20.soak_naive ~n:4 ~objects:8 ~ops:(scale 2000) ~seed:2001 ()) ]
  in
  stress @ soaks

(* ---------- witness table at audit scale ---------- *)

(* What an audit pays on a captured witness, on [run_inline] captures of
   the volatile causal MVR stack on two replicas ([serve --check]'s
   shape) at 1,200 and 20,000 do events: [Abstract.create] from the
   capture's delta edges, [Online.iter_deltas] reading them back, and
   [transitive_closure]. Each cell is the median wall time of [reps]
   runs after one warm-up run. *)
module Capture = Live.Cluster.Make (Sim.Stack.Volatile (Store.Causal_mvr_store))

let abstract_json ~quick =
  let module Json = Haec.Obs.Json in
  let module A = Spec.Abstract in
  let reps = if quick then 5 else 15 in
  let median_ms f =
    ignore (Sys.opaque_identity (f ()));
    let ts =
      Array.init reps (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (f ()));
          Unix.gettimeofday () -. t0)
    in
    Array.sort compare ts;
    1000.0 *. ts.(reps / 2)
  in
  List.map
    (fun events ->
      let cfg =
        { Live.Cluster.default with replicas = 2; seed = 1; objects = 64; zipf = 0.99 }
      in
      let r = Capture.run_inline ~ops_per_replica:(events / 2) cfg in
      let wit = Option.get r.Live.Cluster.witness in
      let n = A.n_replicas wit and dos = A.events wit in
      let edges = ref [] and j = ref 0 in
      Consistency.Online.iter_deltas wit (fun _ delta ->
          List.iter (fun i -> edges := (i, !j) :: !edges) delta;
          incr j);
      let edges = !edges in
      ( Printf.sprintf "abstract/%d-events" (A.length wit),
        Json.Obj
          [
            ("create_ms", Json.Num (median_ms (fun () -> A.create ~n dos ~vis:edges)));
            ( "iter_deltas_ms",
              Json.Num (median_ms (fun () -> Consistency.Online.iter_deltas wit (fun _ _ -> ())))
            );
            ("closure_ms", Json.Num (median_ms (fun () -> A.transitive_closure wit)));
          ] ))
    [ 1200; 20000 ]

(* ---------- anti-entropy recovery macro (E21 harness) ---------- *)

(* Chaos with adversarial plans: nothing retransmits a loss, so the
   digest/repair wire cost and the post-heal repair latency are properties
   of the anti-entropy protocol alone — worth tracking across commits next
   to the soak rows. *)
let gossip_json ~quick =
  let module Json = Haec.Obs.Json in
  let seeds n = List.init (if quick then 4 else 12) (fun i -> i + n) in
  let entry label (module S : Haec.Store.Store_intf.S) require spec mix first_seed =
    let module C = Haec.Sim.Chaos.Make (S) in
    let outcomes =
      C.run_seeds ~spec_of:(fun _ -> spec) ~mix ~require ~adversarial:true
        ~seeds:(seeds first_seed) ()
    in
    let runs = List.length outcomes in
    let conv = ref 0 and lost = ref 0 and rounds = ref 0 in
    let digest_b = ref 0 and repair_b = ref 0 and lat = ref 0.0 in
    List.iter
      (fun o ->
        if Haec.Sim.Chaos.converged o then incr conv;
        let s = o.Haec.Sim.Chaos.stats in
        lost := !lost + s.Haec.Sim.Runner.lost_permanent;
        rounds := !rounds + s.Haec.Sim.Runner.gossip_rounds;
        lat := !lat +. Float.max 0.0 (o.Haec.Sim.Chaos.quiesced_at -. o.Haec.Sim.Chaos.horizon);
        let counter name =
          match Haec.Obs.Metrics.Registry.find o.Haec.Sim.Chaos.metrics name with
          | Some (Haec.Obs.Metrics.Registry.Counter c) -> Haec.Obs.Metrics.Counter.value c
          | Some _ | None -> 0
        in
        digest_b := !digest_b + counter "gossip.digest_bytes";
        repair_b := !repair_b + counter "gossip.repair_bytes")
      outcomes;
    ( Printf.sprintf "gossip/ae-%s-n3" label,
      Json.Obj
        [
          ("converged", Json.Num (float_of_int !conv /. float_of_int runs));
          ("lost_permanent", Json.Num (float_of_int !lost));
          ("gossip_rounds", Json.Num (float_of_int !rounds));
          ("digest_bytes", Json.Num (float_of_int !digest_b));
          ("repair_bytes", Json.Num (float_of_int !repair_b));
          ("repair_latency_mean", Json.Num (!lat /. float_of_int runs));
        ] )
  in
  [
    entry "mvr" (module Haec.Store.Mvr_store) `Correct Haec.Spec.Spec.mvr
      Haec.Sim.Workload.register_mix 1;
    entry "causal" (module Haec.Store.Causal_mvr_store) `Causal Haec.Spec.Spec.mvr
      Haec.Sim.Workload.register_mix 101;
  ]

(* ---------- live cluster throughput (E25 harness) ---------- *)

(* Real domains on real cores (or, on a starved CI box, time-slicing one
   core — the rows record whatever the machine actually delivers):
   saturation ops/s, wall-clock visibility lag and payload bytes per
   update, for the causal store at 1/2/4 domains. No ns_per_run/r_square fields, so the fit gate and the
   regression diff skip these rows; they ride in the same artifact for
   cross-commit eyeballing. *)
let live_json ~quick =
  let module Json = Haec.Obs.Json in
  let module Stack = Sim.Stack.Volatile (Store.Causal_mvr_store) in
  let module C = Live.Cluster.Make (Stack) in
  (* fault rows run the durable stack (crash windows need a WAL); the
     fault-free rows stay volatile so they compare against prior commits *)
  let module DStack = Sim.Stack.Durable (Store.Causal_mvr_store) in
  let module DC = Live.Cluster.Make (DStack) in
  let duration = if quick then 0.2 else 0.5 in
  let run ~n () = C.run { Live.Cluster.default with Live.Cluster.replicas = n; duration } in
  let run_faulted ~n cfg_of =
    DC.run (cfg_of { Live.Cluster.default with Live.Cluster.replicas = n; duration })
  in
  let entry label (res : Live.Cluster.result) =
    let open Live.Cluster in
    let p50, p95, p99 = Obs.Metrics.Histogram.percentiles res.lag_ms in
    let nan_null f = if Float.is_nan f then Json.Null else Json.Num f in
    ( label,
      Json.Obj
        [
          ("ops_per_sec", Json.Num res.ops_per_sec);
          ("converged", Json.Num (if res.converged then 1.0 else 0.0));
          ("lag_ms_p50", nan_null p50);
          ("lag_ms_p95", nan_null p95);
          ("lag_ms_p99", nan_null p99);
          ( "payload_bytes_per_update",
            Json.Num
              (if res.total_updates > 0 then
                 float_of_int res.payload_bytes /. float_of_int res.total_updates
               else 0.0) );
          ("stalls", Json.Num (float_of_int res.stalls));
          ("availability", Json.Num res.availability);
        ] )
  in
  let crash_plan =
    (* one crash-restart of replica 1 in the middle of the load phase,
       mapped from fractions onto this run's duration *)
    Sim.Fault_plan.scaled ~factor:duration
      (Sim.Fault_plan.make
         ~crashes:[ { Sim.Fault_plan.replica = 1; at = 0.35; recover_at = 0.6 } ]
         ~horizon:1.0 ())
  in
  [
    entry "live/causal-n1" (run ~n:1 ());
    entry "live/causal-n2" (run ~n:2 ());
    entry "live/causal-n4" (run ~n:4 ());
    entry "live/causal-n2-drop1"
      (run_faulted ~n:2 (fun c -> { c with Live.Cluster.drop_p = 0.01 }));
    entry "live/causal-n2-crash"
      (run_faulted ~n:2 (fun c -> { c with Live.Cluster.faults = Some crash_plan }));
  ]

let run_micro ~quick ~live () =
  print_newline ();
  print_endline "Microbenchmarks (Bechamel, monotonic clock)";
  print_endline "===========================================";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    if quick then Benchmark.cfg ~limit:300 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  (* the fast group needs a still-larger budget than its first cut: at
     limit 1000/5000 the encode-update row kept fitting with r^2 ~0.4
     (ROADMAP item 4) because sub-100ns runs spend most of a short quota
     inside clamped-iteration warm-up. Tripling trials and quota got the
     codec rows above the 0.7 bar CI enforces; mvr-read (a ~100ns hit on
     a warmed store) still sat at 0.67-0.69 in quick mode, so the quick
     budget grew again (3000/0.3s -> 6000/1s) to pull it clear of the
     bar even on a noisy single-core runner. *)
  let cfg_fast =
    if quick then Benchmark.cfg ~limit:10000 ~quota:(Time.second 1.5) ~kde:None ()
    else Benchmark.cfg ~limit:20000 ~quota:(Time.second 5.0) ~kde:None ()
  in
  (* the mid group exists purely to buy theorem12 (~150us/run),
     causal-receive and trace-decode (~80us/run, allocation-heavy, so
     GC pauses fatten the residuals) enough samples for r^2 >= 0.7; see
     tests_mid *)
  let cfg_mid =
    if quick then Benchmark.cfg ~limit:3000 ~quota:(Time.second 3.0) ~kde:None ()
    else Benchmark.cfg ~limit:10000 ~quota:(Time.second 8.0) ~kde:None ()
  in
  let cfg_slow =
    if quick then Benchmark.cfg ~limit:100 ~quota:(Time.second 3.0) ~kde:None ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 10.0) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let raw_mid = Benchmark.all cfg_mid instances tests_mid in
  let raw_slow = Benchmark.all cfg_slow instances tests_slow in
  let raw_fast = Benchmark.all cfg_fast instances tests_fast in
  let raw_fast_v2 = Benchmark.all cfg_fast instances tests_fast_v2 in
  let merged analyze =
    let tbl = analyze raw in
    Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) (analyze raw_mid);
    Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) (analyze raw_slow);
    Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) (analyze raw_fast);
    Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) (analyze raw_fast_v2);
    tbl
  in
  let results = merged (Analyze.all ols Instance.monotonic_clock) in
  let allocs = merged (Analyze.all ols Instance.minor_allocated) in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some ols -> (
      match Analyze.OLS.estimates ols with Some (t :: _) -> Some t | Some [] | None -> None)
    | None -> None
  in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%14.1f ns/run" t
        | Some [] | None -> "           n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "  (r2=%.3f)" r
        | None -> ""
      in
      Printf.printf "%-42s %s%s\n" name est r2)
    rows;
  (* machine-readable artifact next to the table, so perf regressions can be
     diffed across commits *)
  let module Json = Haec.Obs.Json in
  let num = function Some v -> Json.Num v | None -> Json.Null in
  (* one titled table per macro section, its rows kept for the artifact *)
  let section ?(digits = 1) title rows =
    print_newline ();
    print_endline title;
    print_endline (String.make (String.length title) '=');
    List.iter
      (fun (name, entry) ->
        match entry with
        | Json.Obj fields ->
          let cell (k, v) =
            match v with Json.Num f -> Printf.sprintf "%s=%.*f" k digits f | _ -> ""
          in
          Printf.printf "%-44s %s\n" name (String.concat "  " (List.map cell fields))
        | _ -> ())
      rows;
    rows
  in
  let soak_rows = section "Replication soak (E20 harness)" (soak_json ~quick) in
  let abstract_rows =
    section ~digits:2 "Witness table (Abstract at audit scale, median ms)" (abstract_json ~quick)
  in
  let gossip_rows = section "Anti-entropy recovery (E21 harness)" (gossip_json ~quick) in
  let live_rows =
    if not live then []
    else section "Live cluster saturation (E25 harness, real domains)" (live_json ~quick)
  in
  let doc =
    Json.Obj
      (List.map
         (fun (name, ols) ->
           let r2 = Analyze.OLS.r_square ols in
           ( name,
             Json.Obj
               [
                 ("ns_per_run", num (estimate results name));
                 ("r_square", num r2);
                 ("minor_words_per_run", num (estimate allocs name));
               ] ))
         rows
      @ soak_rows @ abstract_rows @ gossip_rows @ live_rows)
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_newline ();
  print_endline "results written to BENCH_results.json"

let () =
  let jobs = ref None in
  (* -j N / --jobs N / -jN: worker domains for the experiment seed sweeps
     (tables are bit-identical at any value; see Haec_util.Par) *)
  let rec strip_jobs = function
    | [] -> []
    | ("-j" | "--jobs") :: v :: rest ->
      jobs := int_of_string_opt v;
      strip_jobs rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
      jobs := int_of_string_opt (String.sub a 2 (String.length a - 2));
      strip_jobs rest
    | a :: rest -> a :: strip_jobs rest
  in
  let args = strip_jobs (List.tl (Array.to_list Sys.argv)) in
  (match !jobs with Some j -> Util.Par.set_default_domains j | None -> ());
  let micro_only = List.mem "--micro" args in
  let quick = List.mem "--quick" args in
  let live = List.mem "--live" args in
  let experiment_ids =
    List.filter (fun a -> a <> "--micro" && a <> "--quick" && a <> "--live") args
  in
  let ppf = Format.std_formatter in
  if not micro_only then begin
    print_endline "Experiment tables (paper figures and theorems; see EXPERIMENTS.md)";
    print_endline "===================================================================";
    (match experiment_ids with
    | [] -> Registry.run_all ppf
    | ids ->
      List.iter
        (fun id ->
          match Registry.find id with
          | Some e -> e.Registry.run ppf
          | None -> Format.printf "unknown experiment %S@." id)
        ids);
    Format.pp_print_flush ppf ()
  end;
  if experiment_ids = [] then run_micro ~quick ~live ()
