(** E18 — crash-recovery chaos: convergence survives faults the paper's
    model abstracts away. The paper assumes replicas never fail and every
    message is delivered (Section 2); this experiment injects what that
    assumption hides — crashes with volatile-state loss (recovered by
    checkpoint replay), link faults that heal, and byte-level corruption —
    and checks that once every fault heals, quiescent convergence
    (Definition 17 / Lemma 3) still holds. Nothing retransmits a lost
    message: the store's own anti-entropy protocol repairs every loss. It also makes Theorem 6
    quantitative: the adversarial re-delivery orders chaos induces are
    exactly where OCC violations show up, even for the causally consistent
    stores. *)

open Haec

let name = "E18"

let title = "E18: convergence under crash-recovery chaos (seeded fault schedules)"

let seeds = List.init 12 (fun i -> i + 1)

(* (row label, catalogue flag): every store with a check level *)
let stores =
  [
    ("mvr-eager", "mvr");
    ("mvr-causal", "causal");
    ("mvr-cops-deps", "cops");
    ("mvr-state", "state");
    ("orset", "orset");
    ("lww-register", "lww");
    ("gossip-relay", "gossip");
  ]

let chaos_row (label, flag) =
  let conv = ref 0 in
  let crashes = ref 0 and dropped = ref 0 and lost = ref 0 and corrupt = ref 0 in
  let causal_viol = ref 0 and occ_viol = ref 0 and occ_na = ref 0 in
  let lag_p99 = ref 0.0 in
  (* the seeds fan out over domains; counters fold sequentially after *)
  let outcomes = Stores.chaos_seeds (Stores.find flag) ~seeds in
  List.iter
    (fun o ->
      if Sim.Chaos.converged o then incr conv;
      (* staleness under faults: worst p99 visibility lag across schedules *)
      (match Obs.Metrics.Registry.find o.Sim.Chaos.metrics "visibility.lag" with
      | Some (Obs.Metrics.Registry.Histogram h) ->
        let p = Obs.Metrics.Histogram.quantile h 0.99 in
        if not (Float.is_nan p) then lag_p99 := Float.max !lag_p99 p
      | Some _ | None -> ());
      (match o.Sim.Chaos.result with
      | Ok r ->
        (match r.Sim.Checks.causal with Error _ -> incr causal_viol | Ok () -> ());
        (match r.Sim.Checks.occ with
        | Sim.Checks.Occ_violated _ -> incr occ_viol
        | Occ_not_applicable _ -> incr occ_na
        | Occ_holds -> ())
      | Error _ -> ());
      let s = o.Sim.Chaos.stats in
      crashes := !crashes + s.Sim.Runner.crashes;
      dropped := !dropped + s.Sim.Runner.dropped;
      lost := !lost + s.Sim.Runner.lost_permanent;
      corrupt := !corrupt + s.Sim.Runner.corrupt_rejected)
    outcomes;
  [
    label;
    Printf.sprintf "%d/%d" !conv (List.length seeds);
    string_of_int !crashes;
    string_of_int !dropped;
    string_of_int !lost;
    string_of_int !corrupt;
    Printf.sprintf "%d" !causal_viol;
    (if !occ_na = List.length seeds then "n/a" else string_of_int !occ_viol);
    Tables.f1 !lag_p99;
  ]

let run ppf =
  let rows = List.map chaos_row stores in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "converged"; "crashes"; "dropped"; "lost"; "corrupt"; "causal-";
        "occ-"; "lag p99";
      ]
    rows;
  Tables.note ppf
    "12 seeded fault schedules per store: crash windows (volatile state lost,";
  Tables.note ppf
    "recovered by durable checkpoint replay), link faults that heal, and byte";
  Tables.note ppf
    "corruption (every mangled frame rejected by the CRC envelope). Nothing is";
  Tables.note ppf
    "retransmitted: lost = deliveries lost for good (so equal to dropped),";
  Tables.note ppf
    "which only the anti-entropy digest/repair protocol makes up for.";
  Tables.note ppf
    "converged = the checks the store class guarantees: all stores must stay";
  Tables.note ppf
    "well-formed, comply and agree post-heal; causal stores must stay";
  Tables.note ppf
    "causally consistent. causal-/occ- count runs where those checks";
  Tables.note ppf
    "failed: the eager store loses causality under faulty re-delivery, and";
  Tables.note ppf
    "even causal stores show OCC violations on chaos schedules -- Theorem 6.";
  Tables.note ppf
    "lag p99 = worst p99 visibility staleness (simulated time) across the";
  Tables.note ppf
    "schedules: crashes and link faults stretch the tail far beyond the";
  Tables.note ppf "failure-free staleness E9 reports.";
  Tables.note ppf "Reproduce any schedule with: haec_cli chaos --store ... --seed S"
