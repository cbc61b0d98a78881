(** E24 — wire v2 vs v1: compressed causal metadata and delta-state
    anti-entropy, measured against the Theorem 12 floor. The v2 wire
    format packs version vectors (interval/run-length or bit-packed,
    whichever is smallest, with the v1 varint array as the floor) and
    replaces most absolute anti-entropy digests with sparse deltas or
    elides them outright. Theorem 12 says no causal store can push the
    largest message below min{n-2, s-1} * lg k bits, so compression can
    only spend down the metadata *overhead* above that floor — this
    experiment verifies exactly that, two ways. Part A repeats the E19
    oracle probe under both versions on identical seeded workloads: v2
    must strictly shrink the max-message/floor ratio for every causal
    store while staying at or above the floor. Part B repeats the E21
    adversarial anti-entropy runs under both versions: v2 must cut the
    digest+repair gossip bytes on the same fault schedules without
    losing convergence. *)

open Haec
module Telemetry = Sim.Telemetry

let name = "E24"

let title = "E24: wire v2 vs v1 — floor ratio and anti-entropy bytes"

(* ---------- part A: oracle runs, the E19 probe under both versions ---------- *)

type probe = { k : int; bytes : int; max_bits : int; floor : float }

module Probe (S : Store.Store_intf.S) = struct
  module R = Sim.Runner.Make (S)

  let run ~version ~seed ~n ~objects ~ops mix =
    let config = { Store.Store_intf.default with wire = version } in
    let rng = Util.Rng.create seed in
    let sim = R.create ~seed ~config ~n ~policy:(Sim.Net_policy.random_delay ()) () in
    let steps = Sim.Workload.generate ~rng ~n ~objects ~ops mix in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    let exec = R.execution sim in
    let k = Telemetry.max_writes_per_replica exec in
    {
      k;
      bytes = Model.Execution.total_message_bits exec / 8;
      max_bits = Model.Execution.max_message_bits exec;
      floor = Telemetry.theorem12_floor_bits ~n ~s:objects ~k;
    }
end

let ratio p = float_of_int p.max_bits /. p.floor

let probe_rows label probe ~n ~objects ~ops mix =
  let seed = 2400 + n in
  let v1 = probe ~version:Wire.Version.V1 ~seed ~n ~objects ~ops mix in
  let v2 = probe ~version:Wire.Version.V2 ~seed ~n ~objects ~ops mix in
  (* same seed, same workload: only the wire encoding differs, so k and
     the floor agree between the two runs *)
  let row version p smaller =
    [
      label;
      string_of_int n;
      string_of_int objects;
      string_of_int p.k;
      version;
      string_of_int p.bytes;
      Tables.f1 (float_of_int p.bytes /. float_of_int ops);
      string_of_int p.max_bits;
      Tables.f1 p.floor;
      Tables.f2 (ratio p);
      Tables.yes_no (float_of_int p.max_bits >= p.floor);
      smaller;
    ]
  in
  [
    row "v1" v1 "-";
    row "v2" v2 (Tables.yes_no (ratio v2 < ratio v1));
  ]

module P_causal = Probe (Store.Causal_mvr_store)
module P_reg = Probe (Store.Causal_reg_store)
module P_cops = Probe (Store.Cops_store)
module P_orset = Probe (Store.Causal_orset_store)

(* ---------- part B: adversarial anti-entropy under both versions ---------- *)

let seeds = List.init 6 (fun i -> i + 1)

let ae_ops = 60

let counter metrics name =
  match Obs.Metrics.Registry.find metrics name with
  | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
  | Some _ | None -> 0

type ae = { conv : int; digest : int; repair : int; deltas : int; elided : int; lat : float }

let ae_probe version (module S : Store.Store_intf.S) require spec mix =
  let module C = Sim.Chaos.Make (S) in
  let outcomes =
    C.run_seeds ~ops:ae_ops ~spec_of:(fun _ -> spec) ~mix ~require ~adversarial:true
      ~config:{ Sim.Chaos.default_config with wire = version } ~seeds ()
  in
  List.fold_left
    (fun a o ->
      let m = o.Sim.Chaos.metrics in
      {
        conv = (a.conv + if Sim.Chaos.converged o then 1 else 0);
        digest = a.digest + counter m "gossip.digest_bytes";
        repair = a.repair + counter m "gossip.repair_bytes";
        deltas = a.deltas + counter m "gossip.digest_deltas";
        elided = a.elided + counter m "gossip.digests_elided";
        lat = a.lat +. (o.Sim.Chaos.quiesced_at -. o.Sim.Chaos.horizon);
      })
    { conv = 0; digest = 0; repair = 0; deltas = 0; elided = 0; lat = 0.0 }
    outcomes

let a_converged a = a.conv = List.length seeds

let ae_rows label (module S : Store.Store_intf.S) require spec mix =
  let v1 = ae_probe Wire.Version.V1 (module S : Store.Store_intf.S) require spec mix in
  let v2 = ae_probe Wire.Version.V2 (module S : Store.Store_intf.S) require spec mix in
  let runs = List.length seeds in
  let total a = a.digest + a.repair in
  let per_op a = float_of_int (total a) /. float_of_int (runs * ae_ops) in
  let row version a smaller =
    [
      label;
      version;
      Printf.sprintf "%d/%d" a.conv runs;
      string_of_int a.digest;
      string_of_int a.repair;
      string_of_int a.deltas;
      string_of_int a.elided;
      Tables.f1 (per_op a);
      (* mean simulated time from the last heal to quiescence, the
         bench's sim.repair_latency *)
      Tables.f2 (a.lat /. float_of_int runs);
      smaller;
    ]
  in
  [
    row "v1" v1 "-";
    row "v2" v2 (Tables.yes_no (a_converged v1 && a_converged v2 && total v2 < total v1));
  ]

let run ppf =
  let reg = Sim.Workload.register_mix and set = Sim.Workload.orset_mix in
  let a_rows =
    List.concat
      [
        (* enough ops that clock entries outgrow one-byte varints: that is
           the regime where bit-packing beats the raw array and the ratio
           must drop; below it raw is already optimal and v1 = v2 *)
        probe_rows "mvr-causal" P_causal.run ~n:6 ~objects:3 ~ops:5400 reg;
        probe_rows "causal-reg" P_reg.run ~n:6 ~objects:3 ~ops:5400 reg;
        probe_rows "mvr-cops-deps" P_cops.run ~n:6 ~objects:3 ~ops:5400 reg;
        probe_rows "orset-causal" P_orset.run ~n:6 ~objects:3 ~ops:5400 set;
      ]
  in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "n"; "s"; "k"; "wire"; "bytes"; "B/op"; "max msg bits";
        "floor bits"; "ratio"; ">= floor"; "ratio < v1";
      ]
    a_rows;
  let b_rows =
    List.concat
      [
        ae_rows "mvr-eager" (module Store.Mvr_store) `Correct Spec.Spec.mvr reg;
        ae_rows "mvr-causal" (module Store.Causal_mvr_store) `Causal Spec.Spec.mvr reg;
        ae_rows "mvr-cops-deps" (module Store.Cops_store) `Causal Spec.Spec.mvr reg;
        ae_rows "orset" (module Store.Orset_store) `Correct Spec.Spec.orset set;
      ]
  in
  Tables.print ppf
    ~title:"E24b: delta-state anti-entropy — same fault schedules, both wire versions"
    ~header:
      [
        "store"; "wire"; "converged"; "digest B"; "repair B"; "deltas"; "elided";
        "gossip B/op"; "repair lat"; "bytes < v1";
      ]
    b_rows;
  Tables.note ppf
    "Part A replays the E19 oracle probe on one seeded workload per store";
  Tables.note ppf
    "under each wire version: v2 packs version vectors (run-length or";
  Tables.note ppf
    "bit-packed, never larger than the v1 varint array), which shrinks the";
  Tables.note ppf
    "max-message/floor ratio — the Theorem 12 overhead budget — strictly,";
  Tables.note ppf
    "while every message still clears the floor min{n-2, s-1} * lg k.";
  Tables.note ppf
    "Part B replays the E21 adversarial anti-entropy schedules: under v2";
  Tables.note ppf
    "most digests travel as sparse deltas against the last-sent vector (or";
  Tables.note ppf
    "are elided when nothing changed), and repair payloads are batched into";
  Tables.note ppf
    "per-origin runs, cutting digest+repair gossip bytes on identical fault";
  Tables.note ppf
    "schedules with convergence intact. \"repair lat\" is the mean simulated";
  Tables.note ppf
    "time from the last heal to quiescence (the bench's sim.repair_latency).";
  Tables.note ppf
    "Reproduce: haec_cli chaos --wire v1";
  Tables.note ppf
    "--adversarial (then --wire v2, same seeds)."
