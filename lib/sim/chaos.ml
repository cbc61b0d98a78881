open Haec_util
open Haec_model
open Haec_spec
open Haec_wire
module Store_intf = Haec_store.Store_intf

(* Every seed is audited by [Checks.validate_deltas], the one checker
   core, given the runner's recorded witness deltas: [correct],
   [causal], [occ] and [eventual] come from [Haec_consistency.Online] in
   one pass in H order, with per-replica state, no operation contexts
   and no transitive closure, and no witness abstract execution is
   built. The tests hold the report to the batch checks field by field
   (test_witness.ml).

   Which checks a store class is on the hook for. Every store must stay
   well-formed, comply with its witness, and converge post-heal; most also
   keep the witness correct. [`Causal] adds the causal-consistency check —
   only stores with causal delivery guarantee it under the arbitrary
   re-delivery orders faults induce. [`Occ] additionally requires
   OCC — which Theorem 6 shows no available store satisfies in all
   executions, so chaos schedules reliably find a failing seed: the
   principled known-failing target the shrinker is smoke-tested on. *)
type level = [ `Converge | `Correct | `Causal | `Occ ]

type traced = {
  log : Haec_obs.Span.Log.t;
  lag : Haec_obs.Metrics.Histogram.t;
  trace : Execution.t;
}

type outcome = {
  seed : int;
  config : Store_intf.config;
  plan : Fault_plan.t;
  steps : Workload.step list;
  require : level;
  stats : Runner.stats;
  metrics : Haec_obs.Metrics.Registry.t;
  spans : traced Lazy.t;
  exec : Execution.t;
  ops : int;
  skipped : int;
  refused : int;
      (** steps whose home replica was churn-unavailable — a bootstrapping
          joiner (refuses reads until caught up) or already departed — and
          the client had to fail over or give up *)
  horizon : float;
  quiesced_at : float;
  result : (Checks.report, string) result;
}

let required level =
  [ "well-formed"; "complies"; "eventual" ]
  @ (match level with `Converge -> [] | `Correct | `Causal | `Occ -> [ "correct" ])
  @ (match level with `Causal | `Occ -> [ "causal" ] | `Converge | `Correct -> [])
  @ match level with `Occ -> [ "occ" ] | `Converge | `Correct | `Causal -> []

let failures o =
  match o.result with
  | Ok r ->
    let names = required o.require in
    List.filter (fun (name, _) -> List.mem name names) (Checks.failures r)
  | Error e -> [ ("run", e) ]

let converged o = failures o = []

let default_config =
  { Store_intf.default with checkpoint_every = Some Haec_store.Durable.auto_checkpoint_every }

let pp_outcome ppf o =
  let s = o.stats in
  Format.fprintf ppf
    "@[<v>seed %d: %s@,%a\
     crashes=%d recoveries=%d dropped=%d corrupt_rejected=%d \
     lost_permanent=%d gossip_rounds=%d joins=%d leaves=%d@,\
     %d ops (%d skipped: nobody serving; %d refused at a churned home), %d events@]"
    o.seed
    (if converged o then "converged" else "FAILED")
    Fault_plan.pp o.plan s.Runner.crashes s.Runner.recoveries s.Runner.dropped
    s.Runner.corrupt_rejected s.Runner.lost_permanent
    s.Runner.gossip_rounds s.Runner.joins s.Runner.leaves o.ops o.skipped o.refused
    (Execution.length o.exec);
  match o.result with
  | Ok r ->
    List.iter
      (fun (name, m) -> Format.fprintf ppf "@,%s: %s" name m)
      (Checks.failures r)
  | Error e -> Format.fprintf ppf "@,%s" e

(* The seed fully determines a run's inputs: the fault plan, then the
   client workload, drawn from one generator in that order (the draw order
   is part of the reproducibility contract — a dumped seed must rebuild
   the same run forever). The shrinker edits the resulting pair directly
   and replays it through [run_plan]. *)
let derive ?(n = 3) ?(objects = 2) ?(ops = 40) ?(mix = Workload.register_mix)
    ?(adversarial = false) ?(churn = false) ~seed () =
  let rng = Rng.create seed in
  (* client steps are spaced 1.0 apart, so the fault horizon leaves room
     for every window to open during the workload and heal after it *)
  let horizon = float_of_int ops +. 10.0 in
  let plan = Fault_plan.random rng ~n ~horizon ~adversarial ~churn () in
  (* the workload is drawn over the initial members only (reserve ids have
     no clients of their own) and, crucially, after every plan draw — so
     the ~churn:false steps are bit-identical to the pre-churn ones *)
  let steps = Workload.generate ~rng ~n ~objects ~ops mix in
  (plan, steps)

module Make (S : Haec_store.Store_intf.S) = struct
  module St = Stack.Durable (S)

  module R = Runner.Make (St)

  (* First replica at or after [r] that can serve, if any — a client whose
     home replica is down or churned away fails over to another one
     (availability!). Scans the whole id space: a joined-and-promoted
     reserve is as good a host as anyone. *)
  let failover sim ~capacity r =
    let rec go k = if k = capacity then None else
      let r' = (r + k) mod capacity in
      if R.is_serving sim ~replica:r' && not (R.is_down sim ~replica:r') then Some r'
      else go (k + 1)
    in
    go 0

  (* One execution of a run's inputs, up to and including the audit
     reads: the runner, the id-space capacity, the client-op counts, and
     how many audit reads trail the quiescent prefix (or why the run
     never quiesced). Deterministic in its arguments, [config] included;
     [record_spans] only observes. *)
  type execution = {
    sim : R.t;
    capacity : int;
    executed : int;
    skipped : int;
    refused : int;
    quiesced : (int, string) result;
  }

  let execute ~config ~record_spans ~objects ~policy ~max_events ~gossip_interval ~n ~plan
      ~steps ~seed =
    let horizon = plan.Fault_plan.horizon in
    (* with churn, [n] is the initial member count and the id space grows
       to the plan's capacity; the reserve ids boot empty mid-run *)
    let capacity, initial =
      match plan.Fault_plan.churn with
      | None -> (n, n)
      | Some c ->
        if c.Fault_plan.initial <> n then
          invalid_arg
            (Printf.sprintf "Chaos.run_plan: plan churn has initial=%d but n=%d"
               c.Fault_plan.initial n);
        (c.Fault_plan.capacity, c.Fault_plan.initial)
    in
    let sim =
      R.create ~seed ~config ~n:capacity ~initial ~hooks:St.hooks ~record_spans
        ~classify:Haec_store.Anti_entropy.classify ~policy ~faults:plan
        ~gossip:(gossip_interval, St.tick, St.settled)
        ~recover_state:(fun ~replica:_ -> St.recover)
        ()
    in
    let skipped = ref 0 in
    let executed = ref 0 in
    let refused = ref 0 in
    (* interleave the fault schedule with the client workload by time *)
    let faults = ref (Fault_plan.events plan) in
    let fire_up_to time =
      let rec go () =
        match !faults with
        | { Fault_plan.at; what } :: rest when at <= time ->
          faults := rest;
          R.advance_to sim at;
          (match what with
          | `Crash r -> R.crash sim ~replica:r
          | `Recover r -> R.recover sim ~replica:r
          | `Join r -> R.join sim ~replica:r
          | `Leave (r, graceful) -> R.leave sim ~replica:r ~graceful);
          go ()
        | _ -> ()
      in
      go ()
    in
    List.iter
      (fun (s : Workload.step) ->
        fire_up_to s.at;
        R.advance_to sim s.at;
        if
          R.is_member sim ~replica:s.replica
          && not (R.is_serving sim ~replica:s.replica)
          || not (R.is_member sim ~replica:s.replica)
             && s.replica < initial (* departed home, not an unjoined reserve *)
        then incr refused;
        match failover sim ~capacity s.replica with
        | None -> incr skipped (* nobody is serving: no one to take the op *)
        | Some replica ->
          incr executed;
          ignore (R.op sim ~replica ~obj:s.obj s.op))
      steps;
    (* past the workload: let the remaining faults strike and heal *)
    fire_up_to horizon;
    R.advance_to sim horizon;
    (* drive to quiescence, then the convergence audit reads every object at
       every serving member — bootstrapping joiners refuse reads and
       departed ids have no one to ask, so neither takes part. Returns how
       many audit reads trail the quiescent prefix. *)
    let quiesce () =
      R.run_until_quiescent ~max_events sim;
      let readers =
        List.filter
          (fun r -> R.is_serving sim ~replica:r)
          (Membership.members (R.membership sim))
      in
      for obj = 0 to objects - 1 do
        List.iter (fun replica -> ignore (R.op sim ~replica ~obj Op.Read)) readers
      done;
      List.length readers * objects
    in
    let quiesced =
      match quiesce () with
      | suffix -> Ok suffix
      | exception Runner.Divergence { in_flight; pending; budget } ->
        Error
          (Printf.sprintf
             "diverged: %d deliveries in flight, %d replicas pending after %d events"
             in_flight pending budget)
      | exception Wire.Decoder.Malformed m ->
        (* must never happen: corruption is rejected inside the runner *)
        Error (Printf.sprintf "corruption escaped the frame check: %s" m)
    in
    { sim; capacity; executed = !executed; skipped = !skipped; refused = !refused; quiesced }

  (* [?recovery] has a single value and selects nothing: anti-entropy is
     the only loss semantics. It stays so that callers written against the
     two-mode harness keep compiling unchanged. *)
  let run_plan ?(objects = 2) ?(spec_of = fun (_ : int) -> Spec.mvr) ?policy
      ?(max_events = 200_000) ?(require = `Correct) ?recovery:(_ : [ `Anti_entropy ] option)
      ?(gossip_interval = 2.0) ?(config = default_config) ~n ~plan ~steps ~seed () =
    let policy =
      match policy with Some p -> p | None -> Net_policy.random_delay ()
    in
    let execute ~record_spans =
      execute ~config ~record_spans ~objects ~policy ~max_events ~gossip_interval ~n ~plan
        ~steps ~seed
    in
    let { sim; capacity; executed; skipped; refused; quiesced } =
      execute ~record_spans:false
    in
    let exec = R.execution sim in
    let result =
      Result.map
        (fun suffix ->
          let quiescent_at = List.length (Execution.do_events exec) - suffix in
          let report =
            Checks.validate_deltas ~spec_of ~quiescent_at ~n:capacity
              ~deltas:(R.witness_deltas sim) exec
          in
          (* fold post-quiescence read agreement (Lemma 3) into the eventual
             check, as the experiment harness does *)
          match
            (report.Checks.eventual, Haec_consistency.Eventual.check_reads_agree exec ~suffix)
          with
          | Ok (), (Error _ as e) -> { report with Checks.eventual = e }
          | _ -> report)
        quiesced
    in
    let metrics = R.metrics sim in
    (* digest/repair traffic of every replica that ever ran, beside the
       runner's wire telemetry so E21 can hold repair bytes against the
       Theorem 12 floor; the repair log is what the members still hold *)
    let states ids = List.map (R.replica_state sim) ids in
    let members = states (Membership.members (R.membership sim)) in
    let sum f = List.fold_left (fun a st -> a + f st) 0 members in
    Stack.publish metrics
      (List.fold_left
         (fun a st -> Store_intf.add_gossip_stats a (St.counters st))
         (Store_intf.fresh_gossip_stats ())
         (states (List.init capacity Fun.id)))
      ~log_entries:(sum St.log_entries) ~log_bytes:(sum St.log_bytes);
    (* Spans are paid for only when read: forcing re-runs the same inputs,
       this run's config included, with spans on. The replay runs no
       checks and keeps nothing of this run's runner. *)
    let spans =
      lazy
        (let { sim; _ } = execute ~record_spans:true in
         { log = R.span_log sim; lag = R.visibility_lag sim; trace = R.execution sim })
    in
    {
      seed;
      config;
      plan;
      steps;
      require;
      stats = R.stats sim;
      metrics;
      spans;
      exec;
      ops = executed;
      skipped;
      refused;
      horizon = plan.Fault_plan.horizon;
      quiesced_at = R.now sim;
      result;
    }

  let run ?(n = 3) ?(objects = 2) ?(ops = 40) ?spec_of ?(mix = Workload.register_mix)
      ?policy ?max_events ?require ?recovery ?adversarial ?churn ?gossip_interval ?config
      ~seed () =
    let plan, steps = derive ~n ~objects ~ops ~mix ?adversarial ?churn ~seed () in
    run_plan ~objects ?spec_of ?policy ?max_events ?require ?recovery ?gossip_interval
      ?config ~n ~plan ~steps ~seed ()

  (* Runs are deterministic in their seed and share no state, so a sweep
     fans out over domains; outcomes come back in seed order regardless of
     [?domains] (see the contract in [Haec_util.Par]). *)
  let run_seeds ?n ?objects ?ops ?spec_of ?mix ?policy ?max_events ?require ?recovery
      ?adversarial ?churn ?gossip_interval ?config ?domains ~seeds () =
    Par.map_list ?domains
      (fun seed ->
        run ?n ?objects ?ops ?spec_of ?mix ?policy ?max_events ?require ?recovery
          ?adversarial ?churn ?gossip_interval ?config ~seed ())
      seeds
end
