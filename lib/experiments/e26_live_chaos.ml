(** E26 — live chaos: availability and bytes-to-heal under injected
    faults. E18 established that the simulated stores converge once a
    fault schedule heals, with anti-entropy as the only repair path; this
    experiment asks the same question of the live runtime, where faults
    interpose on real sealed frames between real domains and a crashed
    replica restarts from its write-ahead log. Three fault shapes — 1% uniform frame
    loss, one mid-run crash-restart, and a healed 2|2 partition — run
    against each causal store class on 4 domains with the durable stack.
    Every run must heal (full-set settlement after the last fault), the
    partition runs must first settle degraded (the paper's
    available-under-partition steady state, Section 2's sufficiently
    connected assumption doing real work), and the anti-entropy repair
    traffic that heals the run is compared against the Theorem 12 floor
    min{n-2, s-1} * lg k — repair is causal metadata, so the bound binds
    it exactly as it binds the steady-state frames. *)

open Haec
module Fault_plan = Sim.Fault_plan
module Telemetry = Sim.Telemetry

let name = "E26"

let title = "E26: live chaos — availability, repair latency, bytes-to-heal"

let n = 4

let duration = 0.25

let rate = 150.0

let objects = 8

type fault = { label : string; plan : Fault_plan.t option; drop_p : float }

(* windows are authored as fractions of the load phase against horizon
   1.0, then mapped onto this run's wall-clock duration *)
let faults =
  let scaled p = Fault_plan.scaled p ~factor:duration in
  [
    { label = "drop 1%"; plan = None; drop_p = 0.01 };
    {
      label = "crash R1";
      plan =
        Some
          (scaled
             (Fault_plan.make
                ~crashes:[ { Fault_plan.replica = 1; at = 0.35; recover_at = 0.5 } ]
                ~horizon:1.0 ()));
      drop_p = 0.0;
    };
    {
      label = "part 2|2";
      plan =
        Some
          (scaled
             (Fault_plan.make
                ~links:
                  (* the window runs past the load phase (1.0) into the
                     drain, so each side must reach its degraded steady
                     state — settle while cut off — before the heal *)
                  (Fault_plan.partition_links ~a:[ 0; 1 ] ~b:[ 2; 3 ] ~from_:0.3
                     ~until:1.8)
                ~n ~horizon:1.8 ()));
      drop_p = 0.0;
    };
  ]

let run_one (module S : Store.Store_intf.S) ~mix ~fault =
  let module St = Live.Stack.Durable (S) in
  let module C = Live.Cluster.Make (St) in
  C.run
    {
      Live.Cluster.default with
      Live.Cluster.replicas = n;
      objects;
      mix;
      duration;
      rate;
      faults = fault.plan;
      drop_p = fault.drop_p;
    }

let fmt_ms f = if Float.is_nan f then "-" else Tables.f1 f

let row label (module S : Store.Store_intf.S) ~mix fault =
  let open Live.Cluster in
  let res = run_one (module S) ~mix ~fault in
  let healed, degraded =
    match res.outcome with
    | Healed { degraded_settled } -> (true, degraded_settled)
    | Diverged _ -> (false, false)
  in
  let heal_ms = Obs.Metrics.Histogram.max_value res.recovery_ms in
  let g = res.gossip in
  let repair_bytes =
    g.Store.Store_intf.digest_bytes + g.Store.Store_intf.repair_bytes
    + g.Store.Store_intf.request_bytes
  in
  let k = Array.fold_left (fun acc r -> max acc r.updates) 0 res.per_replica in
  let floor_bits =
    if k > 0 then Telemetry.theorem12_floor_bits ~n ~s:objects ~k else 0.0
  in
  [
    label;
    fault.label;
    Tables.f1 (100.0 *. res.availability);
    Tables.yes_no healed;
    Tables.yes_no degraded;
    fmt_ms heal_ms;
    string_of_int res.frames_rejected;
    string_of_int repair_bytes;
    (if floor_bits > 0.0 then Tables.f1 floor_bits else "-");
    (if floor_bits > 0.0 then Tables.f2 (float_of_int (8 * repair_bytes) /. floor_bits)
     else "-");
  ]

let run ppf =
  let reg = Live.Load.mix_of_read_pct 50 in
  let set = Live.Load.orset_mix in
  let rows =
    List.concat_map
      (fun fault ->
        [
          row "mvr-causal" (module Store.Causal_mvr_store : Store.Store_intf.S)
            ~mix:reg fault;
          row "reg-causal" (module Store.Causal_reg_store) ~mix:reg fault;
          row "mvr-cops-deps" (module Store.Cops_store) ~mix:reg fault;
          row "orset-causal" (module Store.Causal_orset_store) ~mix:set fault;
        ])
      faults
  in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "fault"; "avail %"; "healed"; "degr-settle"; "heal ms";
        "rejected"; "repair B"; "floor bits"; "ratio";
      ]
    rows;
  Tables.note ppf
    "Each row is one live run: 4 replicas on 4 domains, 0.25 s of bounded";
  Tables.note ppf
    "load, the durable stack (WAL + checkpoint) under one injected fault";
  Tables.note ppf
    "shape, then a drain. avail = 1 - crash downtime / (n * duration);";
  Tables.note ppf
    "healed = the full member set settled twice after the last fault";
  Tables.note ppf
    "healed; degr-settle = every reachable component also settled while";
  Tables.note ppf
    "the fault was active (required for the partition rows: that is";
  Tables.note ppf
    "availability under partition). heal ms is the last heal-to-settle";
  Tables.note ppf
    "latency; repair B the anti-entropy digest+request+repair traffic";
  Tables.note ppf
    "that closed the gaps, compared against the Theorem 12 floor";
  Tables.note ppf
    "min{n-2, s-1} * lg k in bits — causal repair metadata cannot beat";
  Tables.note ppf
    "the bound. ops/s and latency vary by machine; healed must be yes";
  Tables.note ppf "everywhere. Reproduce: haec_cli serve --chaos (see README).";
