(* The four workloads and the repetition each child process runs.

   Why these four: [live-saturate] is the throughput path (store, envelope
   codec, seal/CRC, rings; no WAL, faults or checker); [live-chaos] runs
   the same layers read-heavy on hot keys, paced, with a WAL append per
   op, a crash-restart and anti-entropy repair of dropped frames;
   [audit] is all checker and no replica code; [sim-chaos] is the
   deterministic simulator sweep with adversarial faults. Each layer has
   a workload it dominates and one it barely touches. *)

open Haec
module Cluster = Live.Cluster
module Mvr = Store.Causal_mvr_store

type t = Live_saturate | Live_chaos | Audit | Sim_chaos

let all = [ Live_saturate; Live_chaos; Audit; Sim_chaos ]

let name = function
  | Live_saturate -> "live-saturate"
  | Live_chaos -> "live-chaos"
  | Audit -> "audit"
  | Sim_chaos -> "sim-chaos"

let of_name s = List.find_opt (fun w -> name w = s) all

(* ---------- metrics ---------- *)

(* (name, unit, direction, bound): the end-to-end metrics every workload
   reports, with the share of the parent's median by which each may get
   worse. Must agree with BENCHMARK.json (a test checks). *)
let end_to_end =
  [
    ("setup_s", "s", Stats.Lower, 0.25);
    ("ops_per_s", "ops/s", Stats.Higher, 0.25);
    ("bytes_per_update", "B", Stats.Lower, 0.05);
    ("peak_rss_mb", "MiB", Stats.Lower, 0.25);
  ]

(* (name, unit, direction) of the per-layer metrics of the traced
   repetition. Every workload reports all of them; a layer the workload
   does not run reads 0. Per-call costs are means over the run. *)
let per_layer =
  let open Stats in
  [
    ("load.next_ns", "ns", Lower);
    ("store.do_op.calls", "count", Lower);
    ("store.do_op.ns", "ns", Lower);
    ("store.send.calls", "count", Lower);
    ("store.send.ns", "ns", Lower);
    ("store.receive.calls", "count", Lower);
    ("store.receive.ns", "ns", Lower);
    ("stack.do_op.self_ns", "ns", Lower);
    ("stack.send.self_ns", "ns", Lower);
    ("stack.receive.self_ns", "ns", Lower);
    ("stack.tick.calls", "count", Lower);
    ("stack.tick.ns", "ns", Lower);
    ("stack.progress.calls", "count", Lower);
    ("stack.progress.ns", "ns", Lower);
    ("stack.settled.calls", "count", Lower);
    ("stack.settled.ns", "ns", Lower);
    ("stack.recover_ms", "ms", Lower);
    ("frame.seal_ns", "ns", Lower);
    ("frame.unseal_ns", "ns", Lower);
    ("cluster.payload_bytes_per_frame", "B", Lower);
    ("cluster.frames_per_update", "ratio", Lower);
    ("spsc.push_pop_ns", "ns", Lower);
    ("cluster.stalls_per_push", "ratio", Lower);
    ("cluster.drain_s", "s", Lower);
    ("cluster.served_frac", "ratio", Higher);
    ("cluster.lag_ms_mean", "ms", Lower);
    ("cluster.lag_ms_p99", "ms", Lower);
    ("cluster.lag_samples", "count", Higher);
    ("cluster.queue_depth_peak", "count", Lower);
    ("cluster.unattributed_frac", "ratio", Lower);
    ("gossip.digest_bytes_per_update", "B", Lower);
    ("gossip.repair_bytes_per_update", "B", Lower);
    ("gossip.request_bytes_per_update", "B", Lower);
    ("gossip.repair_applied", "count", Lower);
    ("gossip.dup_payloads", "count", Lower);
    ("gossip.digests_elided_frac", "ratio", Higher);
    ("faults.drops", "count", Lower);
    ("cluster.crash_lost", "count", Lower);
    ("cluster.frames_rejected", "count", Lower);
    ("audit.well_formed_s", "s", Lower);
    ("audit.complies_s", "s", Lower);
    ("audit.correct_s", "s", Lower);
    ("audit.closure_s", "s", Lower);
    ("audit.correct_closed_s", "s", Lower);
    ("audit.occ_s", "s", Lower);
    ("audit.eventual_s", "s", Lower);
    ("spec.apply_s", "s", Lower);
    ("spec.apply.calls", "count", Lower);
    ("spec.context_events_mean", "count", Lower);
    ("abstract.context_s", "s", Lower);
    ("sim.unattributed_s", "s", Lower);
    ("sim.events_per_op", "ratio", Lower);
    ("sim.messages_per_op", "ratio", Lower);
    ("sim.gossip_rounds", "count", Lower);
    ("sim.lost_permanent", "count", Lower);
    ("sim.repair_latency", "simtime", Lower);
    ("sim.bytes_per_op", "B", Lower);
    ("trace.wall_s", "s", Lower);
    ("trace.overhead_frac", "ratio", Lower);
  ]

(* ---------- what a child reports ---------- *)

type mode = Warm | Timed | Traced

type rep = {
  ok : bool;
  why : string;  (** the failed check, when not [ok] *)
  attempted : int;  (** client ops (or audited do events) the repetition ran *)
  measure_start_ns : int;  (** monotonic instant the measured phase began *)
  inner_setup_s : float;
      (** set-up inside the measured call: for live runs, [Cluster.run]'s
          wall time minus load and drain *)
  e2e : (string * float) list;  (** every end-to-end metric but [setup_s] *)
  layer : (string * float) list;  (** per-layer metrics; [Traced] only *)
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fi = float_of_int

let secs ns = fi ns /. 1e9

(* ---------- sizes ---------- *)

type size = {
  slice : float;  (** wall seconds a timed repetition measures *)
  smoke : bool;  (** toy sizes, for tests *)
}

let reps ~smoke = if smoke then 2 else 5

let size ~seconds ~smoke =
  if smoke then { slice = 0.1; smoke } else { slice = seconds /. fi (reps ~smoke); smoke }

(* sim-chaos is fixed work, sized so a repetition takes about a slice on
   the reference machine; the seeds are consecutive from the workload
   seed, a disjoint block per repetition *)
let seeds_per_rep sz =
  if sz.smoke then 2 else max 1 (int_of_float (Float.round (6.0 *. sz.slice)))

(* no child may run longer than three times its nominal time *)
let watchdog sz = 3.0 *. (sz.slice +. 2.0)

(* ---------- live workloads ---------- *)

module Volatile = Live.Stack.Volatile (Mvr)
module Durable = Live.Stack.Durable (Mvr)

module Traced_volatile =
  Traced.Traced_stack (Live.Stack.Volatile (Traced.Traced_store (Mvr)))

module Traced_durable =
  Traced.Traced_stack (Live.Stack.Durable (Traced.Traced_store (Mvr)))

let chaos_rate = 50_000.0

let live_cfg w ~seed sz =
  let base =
    {
      Cluster.default with
      replicas = 2;
      seed;
      objects = 64;
      duration = sz.slice;
      batch = 8;
      gossip_interval = 0.001;
      ring_capacity = 1024;
      heal_by = Float.max 2.0 sz.slice;
    }
  in
  match w with
  | Live_chaos ->
    let crash =
      Sim.Fault_plan.make
        ~crashes:[ { Sim.Fault_plan.replica = 1; at = 0.4; recover_at = 0.5 } ]
        ~n:2 ~horizon:1.0 ()
    in
    {
      base with
      rate = chaos_rate;
      mix = Live.Load.mix_of_read_pct 90;
      zipf = 0.99;
      drop_p = 0.01;
      faults = Some (Sim.Fault_plan.scaled crash ~factor:sz.slice);
    }
  | Live_saturate | Audit | Sim_chaos ->
    { base with rate = 0.0; mix = Live.Load.register_mix; zipf = 0.0 }

let stack_for w mode : (module Cluster.STACK) =
  match (w, mode) with
  | Live_chaos, Traced -> (module Traced_durable)
  | Live_chaos, (Warm | Timed) -> (module Durable)
  | _, Traced -> (module Traced_volatile)
  | _, (Warm | Timed) -> (module Volatile)

(* Per-call cost of [f], in ns, over [iters] calls. *)
let per_call ~iters f =
  let t0 = Traced.now_ns () in
  for i = 1 to iters do
    f i
  done;
  fi (Traced.now_ns () - t0) /. fi iters

(* The layers [Cluster] calls directly — load generation, frame sealing,
   the rings — cannot be wrapped from outside. They are timed by replay
   after the run, under the run's configuration and on the payloads it
   sent, and scaled by the run's counts. *)
let replay_costs (cfg : Cluster.config) =
  let iters = 200_000 in
  let samp = Live.Load.sampler ~objects:cfg.objects ~theta:cfg.zipf in
  let g = Live.Load.gen ~replica:0 cfg.mix in
  let rng = Util.Rng.create cfg.seed in
  let load_ns =
    per_call ~iters (fun _ ->
        ignore (Sys.opaque_identity (Live.Load.sample samp rng));
        ignore (Sys.opaque_identity (Live.Load.next g rng)))
  in
  let payloads = Array.of_list (Traced.payload_sample ()) in
  let np = max 1 (Array.length payloads) in
  let sealed = Array.map Wire.Frame.seal payloads in
  let seal_ns, unseal_ns =
    if Array.length payloads = 0 then (0.0, 0.0)
    else
      ( per_call ~iters (fun i ->
            ignore (Sys.opaque_identity (Wire.Frame.seal payloads.(i mod np)))),
        per_call ~iters (fun i ->
            ignore (Sys.opaque_identity (Wire.Frame.unseal sealed.(i mod np)))) )
  in
  let ring = Live.Spsc.create cfg.ring_capacity in
  let spsc_ns =
    per_call ~iters (fun i ->
        ignore (Live.Spsc.try_push ring i);
        ignore (Sys.opaque_identity (Live.Spsc.try_pop ring)))
  in
  (load_ns, seal_ns, unseal_ns, spsc_ns)

let stack_probes =
  Traced.
    [ Stack_init; Stack_do_op; Stack_has_pending; Stack_send; Stack_receive; Stack_tick;
      Stack_settled; Stack_progress; Stack_queue_depth; Stack_pending_bytes;
      Stack_recover ]

let store_layer t =
  let open Traced in
  let per p = ratio (fi (ns t p)) (fi (calls t p)) in
  [
    ("store.do_op.calls", fi (calls t Store_do_op));
    ("store.do_op.ns", per Store_do_op);
    ("store.send.calls", fi (calls t Store_send));
    ("store.send.ns", per Store_send);
    ("store.receive.calls", fi (calls t Store_receive));
    ("store.receive.ns", per Store_receive);
  ]

let spec_layer t =
  let open Traced in
  [
    ("spec.apply_s", secs (ns t Spec_apply));
    ("spec.apply.calls", fi (calls t Spec_apply));
    ("spec.context_events_mean", ratio (fi t.t_ctx_events) (fi (calls t Spec_apply)));
  ]

let gossip_layer (gs : Store.Store_intf.gossip_stats) ~updates =
  let per b = ratio (fi b) updates in
  [
    ("gossip.digest_bytes_per_update", per gs.digest_bytes);
    ("gossip.repair_bytes_per_update", per gs.repair_bytes);
    ("gossip.request_bytes_per_update", per gs.request_bytes);
    ("gossip.repair_applied", fi gs.repair_applied);
    ("gossip.dup_payloads", fi gs.dup_payloads);
    ("gossip.digests_elided_frac",
      ratio (fi gs.digests_elided) (fi (gs.digests + gs.digests_elided)));
  ]

let served_frac (cfg : Cluster.config) (r : Cluster.result) =
  if cfg.rate > 0.0 then ratio (fi r.total_ops) (cfg.rate *. r.elapsed *. fi cfg.replicas)
  else ratio (fi r.total_ops) (fi r.total_issued)

let live_layer (cfg : Cluster.config) (r : Cluster.result) ~main ~wall_s =
  let open Traced in
  let all = totals () in
  let replicas = totals ~only:(fun a -> a.domain <> main) () in
  let load_ns, seal_ns, unseal_ns, spsc_ns = replay_costs cfg in
  let n = cfg.replicas in
  let frames_recv =
    Array.fold_left (fun a (s : Cluster.replica_stats) -> a + s.frames_recv) 0 r.per_replica
  in
  let stack_ns = List.fold_left (fun a p -> a + ns replicas p) 0 stack_probes in
  let attributed =
    fi stack_ns
    +. (load_ns *. fi r.total_issued)
    +. (seal_ns *. fi r.frames)
    +. ((unseal_ns +. spsc_ns) *. fi frames_recv)
  in
  let busy = fi n *. (r.elapsed +. r.drain_elapsed) *. 1e9 in
  let self p = ratio (fi (self_ns all p)) (fi (calls all p)) in
  let per p = ratio (fi (ns all p)) (fi (calls all p)) in
  let updates = fi r.total_updates in
  let crash_lost =
    Array.fold_left (fun a (s : Cluster.replica_stats) -> a + s.crash_lost) 0 r.per_replica
    + match r.fault_totals with Some t -> t.Live.Faults.crash_lost | None -> 0
  in
  [
    ("load.next_ns", load_ns);
    ("stack.do_op.self_ns", self Stack_do_op);
    ("stack.send.self_ns", self Stack_send);
    ("stack.receive.self_ns", self Stack_receive);
    ("stack.tick.calls", fi (calls all Stack_tick));
    ("stack.tick.ns", per Stack_tick);
    ("stack.progress.calls", fi (calls all Stack_progress));
    ("stack.progress.ns", per Stack_progress);
    ("stack.settled.calls", fi (calls all Stack_settled));
    ("stack.settled.ns", per Stack_settled);
    ("stack.recover_ms", fi (ns all Stack_recover) /. 1e6);
    ("frame.seal_ns", seal_ns);
    ("frame.unseal_ns", unseal_ns);
    ("cluster.payload_bytes_per_frame", ratio (fi r.payload_bytes) (fi r.frames));
    ("cluster.frames_per_update", ratio (fi r.frames) updates);
    ("spsc.push_pop_ns", spsc_ns);
    ("cluster.stalls_per_push", ratio (fi r.stalls) (fi (r.frames * max 1 (n - 1))));
    ("cluster.drain_s", r.drain_elapsed);
    ("cluster.served_frac", served_frac cfg r);
    ("cluster.lag_ms_mean",
      ratio (Obs.Metrics.Histogram.sum r.lag_ms) (fi (Obs.Metrics.Histogram.count r.lag_ms)));
    ("cluster.lag_ms_p99",
      if Obs.Metrics.Histogram.count r.lag_ms = 0 then 0.0
      else Obs.Metrics.Histogram.quantile r.lag_ms 0.99);
    ("cluster.lag_samples", fi (Obs.Metrics.Histogram.count r.lag_ms));
    ("cluster.queue_depth_peak", fi r.queue_depth_peak);
    ("cluster.unattributed_frac", 1.0 -. ratio attributed busy);
    ("faults.drops",
      match r.fault_totals with Some t -> fi t.Live.Faults.drops | None -> 0.0);
    ("cluster.crash_lost", fi crash_lost);
    ("cluster.frames_rejected", fi r.frames_rejected);
    ("trace.wall_s", wall_s);
  ]
  @ store_layer all
  @ gossip_layer r.gossip ~updates

let live_rep w ~seed sz mode =
  let cfg = live_cfg w ~seed sz in
  let (module St) = stack_for w mode in
  let module C = Cluster.Make (St) in
  Wire.Version.set Wire.Version.V2;
  (* Force the lazily built CRC table on this domain before any replica
     domain can race to force it (see README, "Known hang"). *)
  ignore (Wire.Frame.crc32 "");
  let main = (Domain.self () :> int) in
  let t0 = Traced.now_ns () in
  let r = C.run cfg in
  let wall_s = secs (Traced.now_ns () - t0) in
  let why =
    match r.outcome with
    | Cluster.Healed _ when r.total_ops > 0 -> ""
    | Cluster.Healed _ -> "no operations executed"
    | Cluster.Diverged why -> "diverged: " ^ why
  in
  let e2e =
    [
      ("ops_per_s", ratio (fi r.total_ops) r.elapsed);
      ("bytes_per_update", ratio (fi r.payload_bytes) (fi r.total_updates));
    ]
  in
  {
    ok = why = "";
    why;
    attempted = r.total_issued;
    measure_start_ns = t0;
    inner_setup_s = wall_s -. r.elapsed -. r.drain_elapsed;
    e2e;
    layer =
      (match mode with
      | Traced -> live_layer cfg r ~main ~wall_s
      | Warm | Timed -> []);
  }

(* ---------- audit ---------- *)

(* The audited input: a capture of the volatile causal MVR stack, run
   single-domain and deterministic by [Cluster.run_inline]. *)
let capture ~seed ~ops_per_replica =
  let module C = Cluster.Make (Volatile) in
  let cfg =
    { Cluster.default with replicas = 3; seed; objects = 64; zipf = 0.99 }
  in
  let r = C.run_inline ~ops_per_replica cfg in
  (Option.get r.trace, Option.get r.witness)

module Fixture = struct
  (* relative to the repository root, where the benchmark runs *)
  let default_dir = "bench/e2e/fixtures"

  let trace_file ?(dir = default_dir) () = Filename.concat dir "audit_trace.bin"

  let vis_file ?(dir = default_dir) () = Filename.concat dir "audit_vis.bin"

  let seed = 1

  let ops_per_replica = 400

  (* MD5 of the trace bytes followed by the vis bytes *)
  let digest = "38796e1d74379a68971c70650edec073"

  (* The witness is stored as, for each do event in order, the ascending
     indices of the updates visible to it but not to the previous event of
     its replica (delta-coded varints). [Abstract.create] closes these
     edges under same-replica precedence and persistence — the closure the
     capture applied to the store's own edges, which all start at updates
     — so they generate the same witness. *)
  let encode_vis wit =
    let open Spec.Abstract in
    let e = Wire.Encoder.create () in
    let len = length wit in
    Wire.Encoder.uint e len;
    let last = Hashtbl.create 8 in
    for j = 0 to len - 1 do
      let r = (event wit j).Model.Event.replica in
      let prev_here = Hashtbl.find_opt last r in
      Hashtbl.replace last r j;
      let inherited i =
        match prev_here with Some p -> i = p || vis wit i p | None -> false
      in
      let preds =
        Array.of_list
          (List.filter
             (fun i -> Model.Op.is_update (event wit i).Model.Event.op && not (inherited i))
             (vis_preds wit j))
      in
      let prev = ref (-1) in
      Wire.Encoder.uint_array e
        (Array.map
           (fun i ->
             let d = i - !prev - 1 in
             prev := i;
             d)
           preds)
    done;
    Wire.Encoder.to_string e

  let decode ~trace ~vis =
    let exec = Model.Trace_io.of_string trace in
    let d = Wire.Decoder.of_string vis in
    let len = Wire.Decoder.uint d in
    let edges = ref [] in
    for j = 0 to len - 1 do
      let prev = ref (-1) in
      Array.iter
        (fun delta ->
          let i = !prev + delta + 1 in
          prev := i;
          edges := (i, j) :: !edges)
        (Wire.Decoder.uint_array d)
    done;
    Wire.Decoder.expect_end d;
    let dos = Array.of_list (List.map snd (Model.Execution.do_events exec)) in
    if Array.length dos <> len then
      raise (Wire.Decoder.Malformed "witness length differs from the trace's do events");
    (exec, Spec.Abstract.create ~n:(Model.Execution.n_replicas exec) dos ~vis:!edges)

  let read_file path = In_channel.with_open_bin path In_channel.input_all

  let load ?dir () =
    let trace = read_file (trace_file ?dir ()) and vis = read_file (vis_file ?dir ()) in
    let got = Digest.to_hex (Digest.string (trace ^ vis)) in
    if got <> digest then
      failwith (Printf.sprintf "audit fixture digest %s, expected %s" got digest);
    decode ~trace ~vis

  let write () =
    let exec, wit = capture ~seed ~ops_per_replica in
    let trace = Model.Trace_io.to_string exec and vis = encode_vis wit in
    let exec', wit' = decode ~trace ~vis in
    if
      Model.Trace_io.to_string exec' <> trace
      || Spec.Abstract.vis_pairs wit' <> Spec.Abstract.vis_pairs wit
    then failwith "audit fixture does not round-trip";
    Out_channel.with_open_bin (trace_file ()) (fun oc -> output_string oc trace);
    Out_channel.with_open_bin (vis_file ()) (fun oc -> output_string oc vis);
    Digest.to_hex (Digest.string (trace ^ vis))
end

(* Theorem 12's quantity for the audited run: payload bytes it sent per
   update it executed. *)
let trace_bytes_per_update exec =
  let bytes = ref 0 and updates = ref 0 in
  List.iter
    (function
      | Model.Event.Send { msg; _ } -> bytes := !bytes + String.length msg.Model.Message.payload
      | Model.Event.Do { op; _ } when Model.Op.is_update op -> incr updates
      | _ -> ())
    (Model.Execution.events exec);
  ratio (fi !bytes) (fi !updates)

(* what [serve --check] requires of the causal store *)
let required (r : Sim.Checks.report) =
  [
    ("well-formed", r.well_formed);
    ("complies", r.complies);
    ("correct", r.correct);
    ("causal", r.causal);
  ]

let first_failure checks =
  List.find_map
    (fun (name, res) -> match res with Ok () -> None | Error m -> Some (name ^ ": " ^ m))
    checks

(* [Sim.Checks.validate] phase by phase, each timed: the same calls in
   the same order, on a spec whose [apply] is timed too *)
let validate_traced exec wit =
  let spec_of _ = Traced.spec Spec.Spec.mvr in
  let timed f =
    let t0 = Traced.now_ns () in
    let r = f () in
    (r, secs (Traced.now_ns () - t0))
  in
  let well_formed, t_wf = timed (fun () -> Model.Execution.check_well_formed exec) in
  let complies, t_co = timed (fun () -> Consistency.Compliance.check exec wit) in
  let correct, t_cor = timed (fun () -> Spec.Spec.check_correct ~spec_of wit) in
  let closed, t_clo = timed (fun () -> Spec.Abstract.transitive_closure wit) in
  let causal, t_cc = timed (fun () -> Spec.Spec.check_correct ~spec_of closed) in
  let _occ, t_occ = timed (fun () -> Consistency.Occ.check closed) in
  let _eventual, t_ev =
    timed (fun () ->
        Consistency.Eventual.check_visible_from wit
          ~quiescent_at:(Spec.Abstract.length wit))
  in
  let t = Traced.totals () in
  let apply_s = secs (Traced.ns t Traced.Spec_apply) in
  ( [
      ("well-formed", well_formed);
      ("complies", complies);
      ("correct", correct);
      ("causal", causal);
    ],
    [
      ("audit.well_formed_s", t_wf);
      ("audit.complies_s", t_co);
      ("audit.correct_s", t_cor);
      ("audit.closure_s", t_clo);
      ("audit.correct_closed_s", t_cc);
      ("audit.occ_s", t_occ);
      ("audit.eventual_s", t_ev);
      ("abstract.context_s", t_cor +. t_cc -. apply_s);
    ]
    @ spec_layer t )

let audit_rep sz mode =
  let exec, wit =
    if sz.smoke then capture ~seed:Fixture.seed ~ops_per_replica:20 else Fixture.load ()
  in
  let dos = Spec.Abstract.length wit in
  let bytes_per_update = trace_bytes_per_update exec in
  let t0 = Traced.now_ns () in
  let deadline = t0 + int_of_float (sz.slice *. 1e9) in
  let failure = ref None and layer = ref [] and passes = ref 0 in
  let continue () =
    !failure = None
    && (!passes = 0 || (mode <> Traced && Traced.now_ns () < deadline))
  in
  while continue () do
    incr passes;
    let checks =
      match mode with
      | Traced ->
        let t1 = Traced.now_ns () in
        let checks, l = validate_traced exec wit in
        layer := ("trace.wall_s", secs (Traced.now_ns () - t1)) :: l;
        checks
      | Warm | Timed ->
        required (Sim.Checks.validate ~spec_of:(fun _ -> Spec.Spec.mvr) exec wit)
    in
    failure := first_failure checks
  done;
  let elapsed = secs (Traced.now_ns () - t0) in
  {
    ok = !failure = None;
    why = Option.value !failure ~default:"";
    attempted = dos * !passes;
    measure_start_ns = t0;
    inner_setup_s = 0.0;
    e2e =
      [ ("ops_per_s", ratio (fi (dos * !passes)) elapsed); ("bytes_per_update", bytes_per_update) ];
    layer = !layer;
  }

(* ---------- sim-chaos ---------- *)

module Sweep = Sim.Chaos.Make (Mvr)
module Traced_sweep = Sim.Chaos.Make (Traced.Traced_store (Mvr))

let sim_rep ~seed sz ~rep mode =
  let per = seeds_per_rep sz in
  let seeds = List.init per (fun i -> seed + (rep * per) + i) in
  let ops = if sz.smoke then 40 else 400 in
  let t0 = Traced.now_ns () in
  let outs =
    match mode with
    | Traced ->
      Traced_sweep.run_seeds ~domains:1 ~n:4 ~objects:8 ~ops
        ~spec_of:(fun _ -> Traced.spec Spec.Spec.mvr)
        ~recovery:`Anti_entropy ~adversarial:true ~require:`Causal ~seeds ()
    | Warm | Timed ->
      Sweep.run_seeds ~domains:1 ~n:4 ~objects:8 ~ops
        ~spec_of:(fun _ -> Spec.Spec.mvr)
        ~recovery:`Anti_entropy ~adversarial:true ~require:`Causal ~seeds ()
  in
  let wall_s = secs (Traced.now_ns () - t0) in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let counter name (o : Sim.Chaos.outcome) =
    match Obs.Metrics.Registry.find o.metrics name with
    | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
    | _ -> 0
  in
  let payload (o : Sim.Chaos.outcome) =
    match Obs.Metrics.Registry.find o.metrics "wire.payload_bytes" with
    | Some (Obs.Metrics.Registry.Histogram h) -> int_of_float (Obs.Metrics.Histogram.sum h)
    | _ -> 0
  in
  let updates (o : Sim.Chaos.outcome) =
    List.length
      (List.filter (fun (_, d) -> Model.Op.is_update d.Model.Event.op)
         (Model.Execution.do_events o.exec))
  in
  let ops_done = sum (fun o -> o.ops) in
  let bytes = fi (sum payload) in
  let why =
    match List.find_opt (fun o -> not (Sim.Chaos.converged o)) outs with
    | None -> ""
    | Some o ->
      Printf.sprintf "seed %d did not converge: %s" o.seed
        (String.concat "; " (List.map (fun (c, m) -> c ^ ": " ^ m) (Sim.Chaos.failures o)))
  in
  let layer () =
    let t = Traced.totals () in
    let attributed_ns =
      Traced.(ns t Store_do_op + ns t Store_send + ns t Store_receive + ns t Spec_apply)
    in
    let gs =
      let c name = sum (counter name) in
      {
        (Store.Store_intf.fresh_gossip_stats ()) with
        digests = c "gossip.digests";
        digest_bytes = c "gossip.digest_bytes";
        repair_bytes = c "gossip.repair_bytes";
        request_bytes = c "gossip.request_bytes";
        repair_applied = c "gossip.repair_applied";
        dup_payloads = c "gossip.dup_payloads";
        digests_elided = c "gossip.digests_elided";
      }
    in
    [
      ("sim.unattributed_s", wall_s -. secs attributed_ns);
      ("sim.events_per_op",
        ratio (fi (sum (fun o -> Model.Execution.length o.exec))) (fi ops_done));
      ("sim.messages_per_op", ratio (fi (sum (counter "wire.messages"))) (fi ops_done));
      ("sim.gossip_rounds", fi (sum (fun o -> o.stats.Sim.Runner.gossip_rounds)));
      ("sim.lost_permanent", fi (sum (fun o -> o.stats.Sim.Runner.lost_permanent)));
      ("sim.repair_latency",
        ratio
          (List.fold_left (fun a (o : Sim.Chaos.outcome) -> a +. (o.quiesced_at -. o.horizon)) 0.0 outs)
          (fi (List.length outs)));
      ("sim.bytes_per_op", ratio bytes (fi ops_done));
      ("faults.drops", fi (sum (fun o -> o.stats.Sim.Runner.dropped)));
      ("trace.wall_s", wall_s);
    ]
    @ store_layer t @ spec_layer t
    @ gossip_layer gs ~updates:(fi (sum updates))
  in
  {
    ok = why = "";
    why;
    attempted = sum (fun o -> o.ops + o.skipped);
    measure_start_ns = t0;
    inner_setup_s = 0.0;
    e2e =
      [
        ("ops_per_s", ratio (fi ops_done) wall_s);
        ("bytes_per_update", ratio bytes (fi (sum updates)));
      ];
    layer = (match mode with Traced -> layer () | Warm | Timed -> []);
  }

(* ---------- one repetition ---------- *)

let run_rep w ~seed sz ~rep mode =
  let r =
    match w with
    | Live_saturate | Live_chaos -> live_rep w ~seed sz mode
    | Audit -> audit_rep sz mode
    | Sim_chaos -> sim_rep ~seed sz ~rep mode
  in
  { r with e2e = r.e2e @ [ ("peak_rss_mb", Harness.peak_rss_mb ()) ] }
