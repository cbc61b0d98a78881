(** E21 — anti-entropy repair: latency and wire cost of protocol-level
    recovery. E18 shows convergence under baseline faults; here the plans
    are adversarial. Nothing retransmits a loss — every drop, dead link,
    and crash-swallowed delivery is permanent — so the store must close
    its own gaps with the {!Store.Anti_entropy} digest / repair protocol,
    under adversarial plans (duplication, bounded
    reordering, permanently dead links that keep the network connected —
    the paper's Section 2 sufficiently-connected setting). Two questions:
    how long past the last heal does repair take (quiescence minus
    horizon), and what does it cost on the wire — digest and repair bytes
    are the price of availability the paper's model never charges for, and
    the largest message must still clear the Theorem 12 floor computed
    from each run's own parameters. *)

open Haec
module Telemetry = Sim.Telemetry

let name = "E21"

let title = "E21: anti-entropy repair latency and digest/repair wire cost"

let seeds = List.init 12 (fun i -> i + 1)

let counter metrics name =
  match Obs.Metrics.Registry.find metrics name with
  | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
  | Some _ | None -> 0

let chaos_row label (module S : Store.Store_intf.S) require spec mix =
  let module C = Sim.Chaos.Make (S) in
  let conv = ref 0 in
  let lost = ref 0 and rounds = ref 0 in
  let digest_b = ref 0 and repair_b = ref 0 and repaired = ref 0 and dups = ref 0 in
  let deltas = ref 0 and elided = ref 0 in
  let lat_sum = ref 0.0 and lat_max = ref 0.0 in
  let max_bits = ref 0 and floor_bits = ref 0.0 in
  let outcomes =
    C.run_seeds ~spec_of:(fun _ -> spec) ~mix ~require ~adversarial:true ~seeds ()
  in
  List.iter
    (fun o ->
      if Sim.Chaos.converged o then incr conv;
      let s = o.Sim.Chaos.stats in
      lost := !lost + s.Sim.Runner.lost_permanent;
      rounds := !rounds + s.Sim.Runner.gossip_rounds;
      let lat = Float.max 0.0 (o.Sim.Chaos.quiesced_at -. o.Sim.Chaos.horizon) in
      lat_sum := !lat_sum +. lat;
      lat_max := Float.max !lat_max lat;
      digest_b := !digest_b + counter o.Sim.Chaos.metrics "gossip.digest_bytes";
      repair_b := !repair_b + counter o.Sim.Chaos.metrics "gossip.repair_bytes";
      deltas := !deltas + counter o.Sim.Chaos.metrics "gossip.digest_deltas";
      elided := !elided + counter o.Sim.Chaos.metrics "gossip.digests_elided";
      repaired := !repaired + counter o.Sim.Chaos.metrics "gossip.repair_applied";
      dups := !dups + counter o.Sim.Chaos.metrics "gossip.dup_payloads";
      (* the floor is per-run: k = updates at that run's busiest replica *)
      let exec = o.Sim.Chaos.exec in
      let k = Telemetry.max_writes_per_replica exec in
      let floor = Telemetry.theorem12_floor_bits ~n:3 ~s:2 ~k in
      max_bits := max !max_bits (Model.Execution.max_message_bits exec);
      floor_bits := Float.max !floor_bits floor)
    outcomes;
  let runs = List.length seeds in
  [
    label;
    Printf.sprintf "%d/%d" !conv runs;
    string_of_int !lost;
    string_of_int !rounds;
    Tables.f1 (!lat_sum /. float_of_int runs);
    Tables.f1 !lat_max;
    string_of_int !digest_b;
    string_of_int !repair_b;
    string_of_int !deltas;
    string_of_int !elided;
    string_of_int !repaired;
    string_of_int !dups;
    string_of_int !max_bits;
    Tables.f1 !floor_bits;
    Tables.yes_no (float_of_int !max_bits >= !floor_bits);
  ]

let run ppf =
  let reg = Sim.Workload.register_mix and set = Sim.Workload.orset_mix in
  let rows =
    [
      chaos_row "mvr-eager" (module Store.Mvr_store) `Correct Spec.Spec.mvr reg;
      chaos_row "mvr-causal" (module Store.Causal_mvr_store) `Causal Spec.Spec.mvr reg;
      chaos_row "mvr-cops-deps" (module Store.Cops_store) `Causal Spec.Spec.mvr reg;
      chaos_row "orset" (module Store.Orset_store) `Correct Spec.Spec.orset set;
      chaos_row "lww-register" (module Store.Lww_store) `Converge Spec.Spec.rw_register reg;
    ]
  in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "converged"; "lost"; "rounds"; "lat mean"; "lat max"; "digest B";
        "repair B"; "deltas"; "elided"; "repaired"; "dups"; "max bits"; "floor"; ">= floor";
      ]
    rows;
  Tables.note ppf
    "12 adversarial fault schedules per store, repaired by the store alone:";
  Tables.note ppf
    "every dropped, duplicated, dead-linked or crash-swallowed delivery is";
  Tables.note ppf
    "permanent (lost), and the anti-entropy wrapper repairs it by digest";
  Tables.note ppf
    "exchange alone. lat = quiescence minus fault horizon in simulated time:";
  Tables.note ppf
    "how long past the last heal the digest/repair rounds needed to converge.";
  Tables.note ppf
    "digest/repair B = protocol bytes on the wire (the E19 telemetry splits";
  Tables.note ppf
    "them out as gossip.* counters); deltas / elided = digests sent as a sparse";
  Tables.note ppf
    "delta against the last-sent vector / skipped because nothing changed;";
  Tables.note ppf
    "repaired = payloads applied from repair batches; dups = duplicates";
  Tables.note ppf
    "absorbed by the log. The largest message still clears the per-run";
  Tables.note ppf
    "Theorem 12 floor min{n-2, s-1} * lg k -- repair metadata spends the";
  Tables.note ppf "overhead budget, it cannot dodge the lower bound.";
  Tables.note ppf
    "Reproduce: haec_cli chaos --adversarial --seed S"
