(** E20 — replication soak: throughput scaling of the causal delivery hot
    path, in replicas (n) and operations (k).

    Two instruments, both reading the delivery layer's own work counters
    ({!Haec_store.Store_intf.delivery_stats}):

    - a {b buffering stress}: one writer emits k single-update messages and
      a reader receives them in reverse order, so k-1 records buffer and a
      single cascade drains them all. This isolates the delivery buffer:
      the frozen list-scan baseline ({!Haec_store.Causal_naive_store})
      performs Theta(k^2) deliverability scans, the dependency-indexed
      buffer ({!Haec_store.Causal_mvr_store}) Theta(k).
    - a {b replication soak}: n replicas running a random register workload
      over a reordering network until quiescence, reporting ops/s,
      bytes/op and scans/op — the macro numbers the BENCH_* perf
      trajectory tracks across commits.

    Wall-clock columns (ops/s, seconds) vary by machine; the scan counts
    are deterministic for a given seed. *)

open Haec

let name = "E20"

let title = "E20: replication soak — delivery-buffer scaling and throughput"

type soak = {
  label : string;
  n : int;
  ops : int;
  messages : int;
  total_bytes : int;
  deliveries : int;
  scans : int;
  max_buffer : int;
  elapsed : float;  (** CPU seconds *)
}

type stress = {
  s_label : string;
  k : int;
  s_scans : int;
  s_max_buffer : int;
  s_elapsed : float;
}

(* ---------- buffering stress (store-level, no simulator) ---------- *)

module Stress (S : Store.Store_intf.S) = struct
  let run ~label ~reset ~stats ~k =
    let msgs = Array.make k "" in
    let writer = ref (S.init ~n:2 ~me:0) in
    for i = 0 to k - 1 do
      let st, rval, _w = S.do_op !writer ~obj:0 (Model.Op.Write (Model.Value.Int i)) in
      assert (rval = Model.Op.Ok);
      let st, payload = S.send st in
      writer := st;
      msgs.(i) <- payload
    done;
    reset ();
    let t0 = Sys.time () in
    let reader = ref (S.init ~n:2 ~me:1) in
    for i = k - 1 downto 0 do
      reader := S.receive !reader ~sender:0 msgs.(i)
    done;
    let s_elapsed = Sys.time () -. t0 in
    let final, r, _w = S.do_op !reader ~obj:0 Model.Op.Read in
    ignore final;
    (* every write was delivered: the reader sees the last value *)
    assert (r = Model.Op.vals [ Model.Value.Int (k - 1) ]);
    let st : Store.Store_intf.delivery_stats = stats () in
    {
      s_label = label;
      k;
      s_scans = st.Store.Store_intf.scans;
      s_max_buffer = st.Store.Store_intf.max_buffer;
      s_elapsed;
    }
end

module Stress_indexed = Stress (Store.Causal_mvr_store)
module Stress_naive = Stress (Store.Causal_naive_store)

let stress_indexed ~k =
  Stress_indexed.run ~label:Store.Causal_mvr_store.name
    ~reset:Store.Causal_mvr_store.reset_delivery_stats
    ~stats:Store.Causal_mvr_store.delivery_stats ~k

let stress_naive ~k =
  Stress_naive.run ~label:Store.Causal_naive_store.name
    ~reset:Store.Causal_naive_store.reset_delivery_stats
    ~stats:Store.Causal_naive_store.delivery_stats ~k

(* ---------- replication soak (simulator-driven) ---------- *)

module Soak (S : Store.Store_intf.S) = struct
  module R = Sim.Runner.Make (S)

  let run ~label ~reset ~stats ~n ~objects ~ops ~seed () =
    let rng = Util.Rng.create seed in
    let sim =
      R.create ~seed ~record_witness:false
        ~policy:(Sim.Net_policy.random_delay ()) ~n ()
    in
    let steps =
      Sim.Workload.generate ~rng ~n ~objects ~ops ~spacing:0.25
        Sim.Workload.register_mix
    in
    reset ();
    let t0 = Sys.time () in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    let elapsed = Sys.time () -. t0 in
    let st : Store.Store_intf.delivery_stats = stats () in
    let msgs = R.messages_sent sim in
    {
      label;
      n;
      ops;
      messages = List.length msgs;
      total_bytes =
        List.fold_left
          (fun acc m -> acc + String.length m.Model.Message.payload)
          0 msgs;
      deliveries = st.Store.Store_intf.delivered;
      scans = st.Store.Store_intf.scans;
      max_buffer = st.Store.Store_intf.max_buffer;
      elapsed;
    }
end

module Soak_indexed = Soak (Store.Causal_mvr_store)
module Soak_naive = Soak (Store.Causal_naive_store)

let soak_indexed ~n ~objects ~ops ~seed () =
  Soak_indexed.run ~label:Store.Causal_mvr_store.name
    ~reset:Store.Causal_mvr_store.reset_delivery_stats
    ~stats:Store.Causal_mvr_store.delivery_stats ~n ~objects ~ops ~seed ()

let soak_naive ~n ~objects ~ops ~seed () =
  Soak_naive.run ~label:Store.Causal_naive_store.name
    ~reset:Store.Causal_naive_store.reset_delivery_stats
    ~stats:Store.Causal_naive_store.delivery_stats ~n ~objects ~ops ~seed ()

(* ---------- the experiment table ---------- *)

let f_ops_per_s s = if s.elapsed > 0.0 then Tables.f1 (float_of_int s.ops /. s.elapsed) else "-"

let run ppf =
  (* one task per k, fanned out over domains: a task's reset/run/read of the
     domain-local delivery counters never leaves its domain, and same-domain
     tasks run sequentially, so the counters stay coherent at any -j *)
  let stress_rows =
    Harness.sweep
      (List.map
         (fun k () ->
           let naive = stress_naive ~k in
           let indexed = stress_indexed ~k in
           let row (s : stress) =
             [
               s.s_label;
               string_of_int s.k;
               string_of_int s.s_scans;
               Tables.f1 (float_of_int s.s_scans /. float_of_int s.k);
               string_of_int s.s_max_buffer;
             ]
           in
           [ row naive; row indexed ])
         [ 256; 512; 1024; 2048 ])
    |> List.concat
  in
  Tables.print ppf ~title:(title ^ " — reverse-delivery buffering stress")
    ~header:[ "store"; "k"; "scans"; "scans/k"; "peak buffer" ]
    stress_rows;
  Tables.note ppf
    "k single-update messages delivered in reverse: the naive list buffer";
  Tables.note ppf
    "rescans everything per record (scans/k grows with k, i.e. quadratic";
  Tables.note ppf
    "total); the dependency-indexed buffer wakes only the one dependent";
  Tables.note ppf "record per delivery (scans/k is a small constant).";
  let soak_rows =
    Harness.sweep
      (List.map
         (fun (n, ops, seed) () -> soak_indexed ~n ~objects:(2 * n) ~ops ~seed ())
         [ (4, 2000, 2001); (8, 4000, 2002); (16, 4000, 2003) ])
    |> List.map (fun s ->
        [
          s.label;
          string_of_int s.n;
          string_of_int s.ops;
          string_of_int s.messages;
          Tables.f1 (float_of_int s.total_bytes /. float_of_int s.ops);
          string_of_int s.scans;
          Tables.f1 (float_of_int s.scans /. float_of_int (max 1 s.deliveries));
          f_ops_per_s s;
        ])
  in
  Tables.print ppf ~title:(title ^ " — random-workload soak (indexed store)")
    ~header:[ "store"; "n"; "ops"; "messages"; "bytes/op"; "scans"; "scans/delivery"; "ops/s" ]
    soak_rows;
  Tables.note ppf
    "Random register workloads over a reordering network, run to quiescence.";
  Tables.note ppf
    "scans/delivery is the delivery-buffer work per applied update; ops/s is";
  Tables.note ppf "CPU-clock dependent (and inflated under -j > 1: Sys.time counts";
  Tables.note ppf "every domain) and excluded from any test assertion."
