(** E23 — visibility-lag attribution: where does Definition 17 lag come
    from? The runner's lifecycle spans decompose every delivered op
    observation into encode-wait (issue to first flush), network flight,
    repair-wait (the direct copy was lost and anti-entropy carried it),
    dependency-wait (buffered on causal predecessors) and
    bootstrap-refusal (the observer was a joiner still catching up). The
    components are defined so their float sum {e is} the value the runner
    feeds the visibility.lag histogram when it records spans — the chaos
    harness records them by replaying each run with spans on, and per
    store class the table checks that identity on every seed's replay
    ("exact"), then attributes the mean
    and the p99 tail. Eager stores pay mostly network; dependency-tracking
    stores trade that for dep-wait; under churn the joiner's refusal
    window appears as its own column — the cost of Section 2's
    wait-freedom bar, made visible per nanosecond. *)

open Haec

let name = "E23"

let title = "E23: visibility-lag attribution by lifecycle span component"

let seeds = List.init 12 (fun i -> i + 1)

type acc = {
  mutable obs : int;
  mutable encode : float;
  mutable network : float;
  mutable repair : float;
  mutable dep : float;
  mutable boot : float;
  mutable total : float;
  mutable exact : bool;
  hist : Obs.Metrics.Histogram.t;
}

let chaos_row (label, flag, churn) =
  let outcomes = Stores.chaos_seeds ~adversarial:true ~churn (Stores.find flag) ~seeds in
  let a =
    {
      obs = 0;
      encode = 0.0;
      network = 0.0;
      repair = 0.0;
      dep = 0.0;
      boot = 0.0;
      total = 0.0;
      exact = true;
      hist = Obs.Metrics.Histogram.create ();
    }
  in
  List.iter
    (fun o ->
      let traced = Lazy.force o.Sim.Chaos.spans in
      let run_total = ref 0.0 and run_obs = ref 0 in
      Obs.Span.Log.iter traced.Sim.Chaos.log (function
          | Obs.Span.Visible v ->
            let b = Obs.Span.breakdown v in
            a.obs <- a.obs + 1;
            a.encode <- a.encode +. b.Obs.Span.encode_wait;
            a.network <- a.network +. b.Obs.Span.network;
            a.repair <- a.repair +. b.Obs.Span.repair_wait;
            a.dep <- a.dep +. b.Obs.Span.dep_wait;
            a.boot <- a.boot +. b.Obs.Span.bootstrap_refusal;
            a.total <- a.total +. b.Obs.Span.total;
            Obs.Metrics.Histogram.observe a.hist b.Obs.Span.total;
            run_total := !run_total +. b.Obs.Span.total;
            incr run_obs
          | _ -> ());
      (* the identity that makes attribution trustworthy: per seed, the
         span totals must reproduce the replay's own lag histogram
         bit-for-bit (same observations, same float order) *)
      let h = traced.Sim.Chaos.lag in
      if Obs.Metrics.Histogram.count h <> !run_obs || Obs.Metrics.Histogram.sum h <> !run_total
      then a.exact <- false)
    outcomes;
  let share x = if a.total > 0.0 then 100.0 *. x /. a.total else 0.0 in
  let _, _, p99 = Obs.Metrics.Histogram.percentiles a.hist in
  [
    label;
    string_of_int a.obs;
    Tables.f1 (if a.obs = 0 then 0.0 else a.total /. float_of_int a.obs);
    Tables.f1 (if a.obs = 0 then 0.0 else p99);
    Printf.sprintf "%.1f%%" (share a.encode);
    Printf.sprintf "%.1f%%" (share a.network);
    Printf.sprintf "%.1f%%" (share a.repair);
    Printf.sprintf "%.1f%%" (share a.dep);
    Printf.sprintf "%.1f%%" (share a.boot);
    Tables.yes_no a.exact;
  ]

let run ppf =
  let rows =
    List.map chaos_row
      [
        ("mvr-eager", "mvr", false);
        ("mvr-causal", "causal", false);
        ("mvr-cops-deps", "cops", false);
        ("orset", "orset", false);
        ("lww-register", "lww", false);
        ("mvr-causal +churn", "causal", true);
        ("mvr-cops +churn", "cops", true);
      ]
  in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "obs"; "mean lag"; "p99 lag"; "encode"; "network"; "repair"; "dep";
        "boot"; "exact";
      ]
    rows;
  Tables.note ppf
    "12 adversarial anti-entropy fault schedules per store (the E21 grid; the";
  Tables.note ppf
    "+churn rows add the E22 membership schedule). Each delivered op";
  Tables.note ppf
    "observation's Definition 17 lag is split by the runner's lifecycle spans";
  Tables.note ppf
    "into encode-wait, network flight, repair-wait (the direct copy was";
  Tables.note ppf
    "dropped; anti-entropy delivered it), dependency-wait (buffered on causal";
  Tables.note ppf
    "predecessors or unwitnessed), and bootstrap-refusal (the observer was a";
  Tables.note ppf
    "joiner refusing service). exact = per seed, the component sums reproduce";
  Tables.note ppf
    "the runner's visibility.lag histogram bit-for-bit -- attribution adds";
  Tables.note ppf
    "zero measurement of its own. Eager stores pay in network+repair;";
  Tables.note ppf
    "dependency tracking converts lost-copy repair-wait into dep-wait; churn";
  Tables.note ppf
    "surfaces the bootstrap window as lag the static model never charges for.";
  Tables.note ppf
    "Reproduce: haec_cli trace --store S --adversarial --seed N"
