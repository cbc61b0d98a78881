(** Shared machinery: run a store on a random workload under a network
    policy, drive to quiescence, append one read per object per replica,
    and validate everything. *)

open Haec
module Op = Model.Op
module Execution = Model.Execution

type stats = {
  report : Sim.Checks.report;
  ops : int;
  messages : int;
  total_bits : int;
  max_bits : int;
  quiesce_time : float;
  events : int;
  lag_p50 : float;  (** visibility-lag quantiles, in simulated time *)
  lag_p99 : float;
  lag_max : float;
}

module Run (S : Store.Store_intf.S) = struct
  module R = Sim.Runner.Make (S)

  let random ?(spec_of = fun (_ : int) -> Spec.Spec.mvr) ~seed ~n ~objects ~ops ~policy mix
      () =
    let rng = Util.Rng.create seed in
    let sim = R.create ~seed ~n ~policy () in
    let steps = Sim.Workload.generate ~rng ~n ~objects ~ops mix in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    let last_op_time = R.now sim in
    R.run_until_quiescent sim;
    (* how long past the final client operation until the network drained *)
    let quiesce_time = R.now sim -. last_op_time in
    let quiescent_at = List.length (Execution.do_events (R.execution sim)) in
    for obj = 0 to objects - 1 do
      for replica = 0 to n - 1 do
        ignore (R.op sim ~replica ~obj Op.Read)
      done
    done;
    let exec = R.execution sim in
    let report =
      Sim.Checks.validate_deltas ~spec_of ~quiescent_at ~n ~deltas:(R.witness_deltas sim) exec
    in
    let report =
      (* fold read agreement (Lemma 3) into the eventual check *)
      match
        ( report.Sim.Checks.eventual,
          Consistency.Eventual.check_reads_agree exec ~suffix:(n * objects) )
      with
      | Ok (), (Error _ as e) -> { report with Sim.Checks.eventual = e }
      | _ -> report
    in
    let lag = R.visibility_lag sim in
    {
      report;
      ops;
      messages = List.length (Execution.messages_sent exec);
      total_bits = Execution.total_message_bits exec;
      max_bits = Execution.max_message_bits exec;
      quiesce_time;
      events = Execution.length exec;
      lag_p50 = Obs.Metrics.Histogram.quantile lag 0.5;
      lag_p99 = Obs.Metrics.Histogram.quantile lag 0.99;
      lag_max = Obs.Metrics.Histogram.max_value lag;
    }
end

let sweep ?domains tasks = Util.Par.map_list ?domains (fun task -> task ()) tasks
(* Independent experiment runs fanned out over domains (Util.Par); results
   come back in task order, so tables print identically at any [-j]. Each
   task must derive all randomness from its own seed — see the determinism
   contract in [Haec_util.Par]. *)

let policies () =
  [
    ("fifo", Sim.Net_policy.reliable_fifo ());
    ("reorder", Sim.Net_policy.random_delay ());
    ("lossy+dup", Sim.Net_policy.lossy ());
    ( "partition",
      Sim.Net_policy.partitioned ~groups:(fun r -> r mod 2) ~heal_at:30.0 () );
  ]

let ok = function Ok () -> true | Error _ -> false
