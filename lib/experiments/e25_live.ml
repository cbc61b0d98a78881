(** E25 — live cluster runtime: real OCaml 5 domains exchanging sealed
    wire frames over lock-free rings, driven to saturation by the
    closed-loop load generator. Every other experiment measures the
    protocols under the discrete-event simulator's virtual clock; this
    one measures the same store stack (causal MVR wrapped in
    anti-entropy) on real parallel hardware: aggregate throughput
    against domain count, wall-clock visibility lag (the live analogue
    of Definition 17), and payload bytes per update on wire v2 — with
    the largest frame still checked against the Theorem 12 floor
    min{n-2, s-1} * lg k, which binds any causal implementation, live
    or simulated. Numbers depend on the machine (core count, load); the
    structural claims — convergence, frames >= the floor — do not. The
    last v1 rows, from when a replica could still emit v1, are kept as
    text in EXPERIMENTS.md. *)

open Haec
module Telemetry = Sim.Telemetry

let name = "E25"

let title = "E25: live cluster — domains, wall-clock lag and wire bytes"

module Stack = Sim.Stack.Volatile (Store.Causal_mvr_store)
module C = Live.Cluster.Make (Stack)

let duration = 0.2

let objects = 8

let run_one ~n = C.run { Live.Cluster.default with Live.Cluster.replicas = n; objects; duration }

let fmt_ms f = if Float.is_nan f then "-" else Tables.f2 f

let row (res : Live.Cluster.result) =
  let open Live.Cluster in
  let n = res.cfg.replicas in
  let p50, p95, p99 = Obs.Metrics.Histogram.percentiles res.lag_ms in
  (* k for the floor is the largest per-replica update count of this run;
     the floor is in bits, the largest frame in payload (pre-seal) bytes *)
  let k =
    Array.fold_left (fun acc r -> max acc r.updates) 0 res.per_replica
  in
  let floor_bits =
    if k > 0 then Telemetry.theorem12_floor_bits ~n ~s:objects ~k else 0.0
  in
  let max_bits = 8 * res.max_payload_bytes in
  [
    "v2";
    string_of_int n;
    string_of_int res.total_ops;
    Printf.sprintf "%.0f" res.ops_per_sec;
    fmt_ms p50;
    fmt_ms p95;
    fmt_ms p99;
    Tables.f1
      (if res.total_updates > 0 then
         float_of_int res.payload_bytes /. float_of_int res.total_updates
       else 0.0);
    string_of_int max_bits;
    (if floor_bits > 0.0 then Tables.f1 floor_bits else "-");
    (if floor_bits > 0.0 then Tables.f2 (float_of_int max_bits /. floor_bits)
     else "-");
    Tables.yes_no (floor_bits <= 0.0 || float_of_int max_bits >= floor_bits);
    Tables.yes_no res.converged;
  ]

let run ppf =
  let rows = List.map (fun n -> row (run_one ~n)) [ 1; 2; 4 ] in
  Tables.print ppf ~title
    ~header:
      [
        "wire"; "domains"; "ops"; "ops/s"; "lag p50 ms"; "p95"; "p99";
        "payload B/upd"; "max frame bits"; "floor bits"; "ratio"; ">= floor";
        "converged";
      ]
    rows;
  Tables.note ppf
    "Each row is one live run: n replicas on n OCaml 5 domains, 0.2 s of";
  Tables.note ppf
    "closed-loop saturation load (1:1 read/write over 8 objects), then a";
  Tables.note ppf
    "drain to convergence. Frames are sealed wire bytes through bounded";
  Tables.note ppf
    "SPSC rings — the exact codec a socket transport would use. Lag is";
  Tables.note ppf
    "wall-clock issue-to-applied (Definition 17's live analogue); ops/s";
  Tables.note ppf
    "and lag depend on the machine, but every run must converge, and at";
  Tables.note ppf
    "n >= 3 the largest frame must clear the Theorem 12 floor";
  Tables.note ppf
    "min{n-2, s-1} * lg k — the bound holds for real executions exactly as";
  Tables.note ppf
    "for simulated ones. Reproduce: haec_cli serve --store causal -n 4";
  Tables.note ppf "--duration 0.2; bench/main.exe -- --micro --live."
