(* The deterministic cost of the sim-chaos sweep: six seeds of its shape
   (the causal MVR store, 4 replicas, 8 objects, 400 ops, adversarial
   faults repaired by anti-entropy) on one domain. Wire bytes, duplicate
   and repaired payloads repeat exactly for a seed, so they are pinned;
   minor words per client op repeat too, and are held under a budget
   about 10% above their measured value. *)

open Haec

module C = Sim.Chaos.Make (Store.Causal_mvr_store)

type cost = {
  updates : int;
  payload_bytes : int;
  dup_repairs : int;
  repaired : int;
  ops : int;
  words : float;
}

let seeds = List.init 6 (fun i -> i + 1)

let sweep () =
  let e = Haec_experiments.Stores.find "causal" in
  let w0 = Gc.minor_words () in
  let outs =
    C.run_seeds ~domains:1 ~n:4 ~objects:8 ~ops:400
      ~spec_of:(fun _ -> e.spec)
      ~mix:e.mix ~require:`Causal ~adversarial:true ~seeds ()
  in
  let words = Gc.minor_words () -. w0 in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let counter name (o : Sim.Chaos.outcome) =
    match Obs.Metrics.Registry.find o.metrics name with
    | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
    | _ -> 0
  in
  let payload (o : Sim.Chaos.outcome) =
    match Obs.Metrics.Registry.find o.metrics "wire.payload_bytes" with
    | Some (Obs.Metrics.Registry.Histogram h) -> int_of_float (Obs.Metrics.Histogram.sum h)
    | _ -> 0
  in
  let updates (o : Sim.Chaos.outcome) =
    List.length
      (List.filter
         (fun (_, d) -> Model.Op.is_update d.Model.Event.op)
         (Model.Execution.do_events o.exec))
  in
  List.iter
    (fun (o : Sim.Chaos.outcome) ->
      if not (Sim.Chaos.converged o) then Alcotest.failf "seed %d did not converge" o.seed)
    outs;
  {
    updates = sum updates;
    payload_bytes = sum payload;
    dup_repairs = sum (counter "gossip.dup_repairs");
    repaired = sum (counter "gossip.repair_applied");
    ops = sum (fun o -> o.ops);
    words;
  }

let words_per_op c = c.words /. float_of_int c.ops

(* about 10% above the measured 3,478.9 words per op *)
let budget = 3830.

(* 111,133 payload bytes over 1,221 updates: 91.02 B/update. The
   duplicate and repaired counts moved (2,137 -> 2,203 and 1,099 ->
   1,121) when a durable recovery came to replay the gossip tick and
   membership announcements too, so a recovered replica asks and
   gossips as the crashed one would have, and a corrupted delivery's
   mutation came to draw from a stream of its own (payload bytes then
   read 127,892). Only the bytes fell when the v2 envelope header
   shrank to one byte and causal records stopped sending their seq *)
let test_pinned () =
  let c = sweep () in
  (* one check over all four, so a failure prints every value *)
  Alcotest.(check (list (pair string int)))
    "updates, payload bytes, dup_repairs, repaired"
    [ ("updates", 1221); ("payload bytes", 111_133); ("dup_repairs", 2203); ("repaired", 1121) ]
    [
      ("updates", c.updates);
      ("payload bytes", c.payload_bytes);
      ("dup_repairs", c.dup_repairs);
      ("repaired", c.repaired);
    ]

let test_budget () =
  let c = sweep () in
  if words_per_op c > budget then
    Alcotest.failf "%.1f minor words per client op exceed the budget of %.0f" (words_per_op c)
      budget

let test_deterministic () =
  let a = sweep () and b = sweep () in
  Alcotest.(check (float 0.)) "same words on a rerun" a.words b.words

let suite =
  ( "sim-cost",
    [
      Alcotest.test_case "six sim-chaos seeds: bytes, duplicates and repairs pinned" `Quick
        test_pinned;
      Alcotest.test_case "six sim-chaos seeds: minor words per op within budget" `Quick test_budget;
      Alcotest.test_case "six sim-chaos seeds: allocation is deterministic" `Quick
        test_deterministic;
    ] )
