(** E19 — wire bytes vs. the Theorem 12 floor, measured continuously.
    Theorem 12 proves that a causally consistent write-propagating store
    must, in some execution with n replicas, s objects and k writes per
    writer, send a message of at least min{n-2, s-1} * lg k bits. E6/E11
    check the bound on the adversarial Figure 4 construction; this
    experiment instead reads the simulator's always-on wire telemetry on
    ordinary random workloads, reporting measured bytes-on-wire and the
    largest message against the floor computed from each run's own
    parameters (k = writes at the busiest replica). The floor is a bound
    on worst-case executions, so random runs must sit at or above it —
    and by a margin, which is exactly the metadata overhead the ROADMAP's
    perf work wants to shrink without crossing the line.

    The last four rows run 5400 ops on n=6, s=3: enough that clock entries
    outgrow one-byte varints, the regime where the wire format bit-packs
    version vectors. *)

open Haec
module Telemetry = Sim.Telemetry

let name = "E19"

let title = "E19: measured wire bytes vs the Theorem 12 floor (causal stores)"

module Probe (S : Store.Store_intf.S) = struct
  module R = Sim.Runner.Make (S)

  let run ~seed ~n ~objects ~ops mix =
    let rng = Util.Rng.create seed in
    let sim = R.create ~seed ~n ~policy:(Sim.Net_policy.random_delay ()) () in
    let steps = Sim.Workload.generate ~rng ~n ~objects ~ops mix in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    for obj = 0 to objects - 1 do
      for replica = 0 to n - 1 do
        ignore (R.op sim ~replica ~obj Model.Op.Read)
      done
    done;
    let exec = R.execution sim in
    let k = Telemetry.max_writes_per_replica exec in
    let floor = Telemetry.theorem12_floor_bits ~n ~s:objects ~k in
    let max_bits = Model.Execution.max_message_bits exec in
    [
      S.name;
      string_of_int n;
      string_of_int objects;
      string_of_int k;
      string_of_int (List.length (Model.Execution.messages_sent exec));
      string_of_int (Model.Execution.total_message_bits exec / 8);
      string_of_int max_bits;
      Tables.f1 floor;
      (if floor > 0.0 then Tables.f2 (float_of_int max_bits /. floor) else "-");
      Tables.yes_no (float_of_int max_bits >= floor);
    ]
end

module P_causal = Probe (Store.Causal_mvr_store)
module P_reg = Probe (Store.Causal_reg_store)
module P_cops = Probe (Store.Cops_store)
module P_orset = Probe (Store.Causal_orset_store)

let run ppf =
  let reg = Sim.Workload.register_mix and set = Sim.Workload.orset_mix in
  let configs =
    [ (4, 3, 120, 1904); (6, 5, 200, 1906); (8, 5, 320, 1908); (6, 3, 5400, 2406) ]
  in
  let rows =
    List.concat_map
      (fun (n, objects, ops, seed) ->
        [
          P_causal.run ~seed ~n ~objects ~ops reg;
          P_reg.run ~seed ~n ~objects ~ops reg;
          P_cops.run ~seed ~n ~objects ~ops reg;
          P_orset.run ~seed ~n ~objects ~ops set;
        ])
      configs
  in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "n"; "s"; "k"; "messages"; "bytes"; "max msg bits"; "floor bits";
        "ratio"; ">= floor";
      ]
    rows;
  Tables.note ppf
    "floor = min{n-2, s-1} * lg k with k the update count at the busiest";
  Tables.note ppf
    "replica of that run; max msg bits = the largest message the store";
  Tables.note ppf
    "actually put on the wire. Every causal store clears the floor with";
  Tables.note ppf
    "margin (its vector-clock metadata); the ratio is the overhead budget";
  Tables.note ppf
    "any causal-store optimisation may spend before Theorem 12 forbids it.";
  Tables.note ppf
    "The same numbers stream from any run: haec_cli simulate --metrics out.json"
