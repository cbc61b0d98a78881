open Haec
open Haec_e2e
module Json = Obs.Json

let feq = Alcotest.float 1e-9

(* ---------- the wrappers are transparent ---------- *)

let transparency () =
  let cfg =
    { Live.Cluster.default with replicas = 3; seed = 5; objects = 16; zipf = 0.99 }
  in
  let module Plain = Live.Cluster.Make (Live.Stack.Volatile (Store.Causal_mvr_store)) in
  let module Wrapped =
    Live.Cluster.Make
      (Traced.Traced_stack
         (Live.Stack.Volatile (Traced.Traced_store (Store.Causal_mvr_store))))
  in
  let before = Traced.totals () in
  let a = Plain.run_inline ~ops_per_replica:100 cfg in
  let b = Wrapped.run_inline ~ops_per_replica:100 cfg in
  let trace (r : Live.Cluster.result) = Model.Trace_io.to_string (Option.get r.trace) in
  Alcotest.(check bool) "byte-identical trace" true (trace a = trace b);
  Alcotest.(check bool) "same witness" true
    (Spec.Abstract.vis_pairs (Option.get a.witness)
    = Spec.Abstract.vis_pairs (Option.get b.witness));
  Alcotest.(check bool) "same per-replica counters" true (a.per_replica = b.per_replica);
  Alcotest.(check bool) "same gossip counters" true (a.gossip = b.gossip);
  Alcotest.(check int) "same ops" a.total_ops b.total_ops;
  Alcotest.(check int) "same payload bytes" a.payload_bytes b.payload_bytes;
  Alcotest.(check int) "same lag samples" (Obs.Metrics.Histogram.count a.lag_ms)
    (Obs.Metrics.Histogram.count b.lag_ms);
  let after = Traced.totals () in
  let grew p = Traced.calls after p > Traced.calls before p in
  Alcotest.(check bool) "store and stack calls were timed" true
    (grew Traced.Store_do_op && grew Traced.Stack_do_op && grew Traced.Stack_receive)

(* ---------- statistics ---------- *)

let median () =
  Alcotest.check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

(* reference values from Python's statistics.quantiles(xs, n=4) *)
let quartiles () =
  let check name xs (q1, q3) =
    let a, b = Stats.quartiles xs in
    Alcotest.check feq (name ^ " q1") q1 a;
    Alcotest.check feq (name ^ " q3") q3 b
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 8.25);
  check "1..5" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (1.5, 4.5);
  check "two values" [ 5.0; 1.0 ] (0.0, 6.0);
  Alcotest.check feq "relative IQR" 1.0 (Stats.rel_iqr [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let verdict () =
  let v better parent change = Stats.verdict ~better ~bound:0.1 ~parent ~change in
  let tight = [ 100.0; 101.0; 99.0; 100.0; 100.5 ] in
  let is_within = function Stats.Within -> true | _ -> false in
  let is_regressed = function Stats.Regressed _ -> true | _ -> false in
  let is_unresolved = function Stats.Unresolved _ -> true | _ -> false in
  Alcotest.(check bool) "same runs are within" true (is_within (v Stats.Lower tight tight));
  Alcotest.(check bool) "20% slower regresses" true
    (is_regressed (v Stats.Lower tight (List.map (fun x -> x *. 1.2) tight)));
  Alcotest.(check bool) "20% less throughput regresses" true
    (is_regressed (v Stats.Higher tight (List.map (fun x -> x *. 0.8) tight)));
  Alcotest.(check bool) "5% worse is within a 10% bound" true
    (is_within (v Stats.Lower tight (List.map (fun x -> x *. 1.05) tight)));
  let wide = [ 60.0; 80.0; 100.0; 120.0; 140.0 ] in
  Alcotest.(check bool) "spread wider than the bound is unresolved" true
    (is_unresolved (v Stats.Lower wide [ 95.0; 100.0; 105.0 ]));
  Alcotest.(check bool) "unless every run of the change is better" true
    (is_within (v Stats.Lower wide [ 50.0; 55.0 ]))

(* ---------- the watchdog ---------- *)

let watchdog () =
  let t0 = Unix.gettimeofday () in
  let killed = Bench.spawn ~prog:Sys.executable_name ~args:[ "sleep" ] ~timeout:0.3 in
  Alcotest.(check bool) "killed well before the child would exit" true
    (Unix.gettimeofday () -. t0 < 10.0);
  (match killed with
  | Bench.Failed { why; _ } ->
    Alcotest.(check bool) ("watchdog named: " ^ why) true
      (String.length why >= 8 && String.sub why 0 8 = "watchdog")
  | Bench.Done _ -> Alcotest.fail "a killed child reported a result");
  let finished =
    Bench.Done
      ( { Workloads.ok = true; why = ""; attempted = 100; measure_start_ns = 0;
          inner_setup_s = 0.0; e2e = []; layer = [] },
        0.01 )
  in
  let attempted, failed = Bench.account [ finished; killed ] in
  Alcotest.(check int) "the killed child is charged the median attempted" 200 attempted;
  Alcotest.(check int) "and all of it failed" 100 failed

(* ---------- BENCHMARK.json agrees with the code ---------- *)

let benchmark_json = lazy (Json.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all))

let field name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "missing %s" name

let str = function Json.Str s -> s | _ -> Alcotest.fail "expected a string"

let arr = function Json.Arr l -> l | _ -> Alcotest.fail "expected an array"

let num = function Json.Num f -> f | _ -> Alcotest.fail "expected a number"

let declared kind =
  List.map
    (fun m -> (str (field "name" m), str (field "unit" m), m))
    (arr (field kind (Lazy.force benchmark_json)))

let schema () =
  let b = Lazy.force benchmark_json in
  Alcotest.(check (list string)) "workloads"
    (List.map Workloads.name Workloads.all)
    (List.map (fun w -> str (field "name" w)) (arr (field "workloads" b)));
  Alcotest.(check (list (pair string string))) "end-to-end metrics"
    (List.map (fun (n, u, _, _) -> (n, u)) Workloads.end_to_end)
    (List.map (fun (n, u, _) -> (n, u)) (declared "end_to_end"));
  List.iter2
    (fun (n, _, better, bound) (_, _, m) ->
      Alcotest.(check string) (n ^ " direction")
        (match better with Stats.Lower -> "lower" | Stats.Higher -> "higher")
        (str (field "better" m));
      Alcotest.check feq (n ^ " bound") bound (num (field "bound" m)))
    Workloads.end_to_end (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per-layer metrics"
    (List.map (fun (n, u, _) -> (n, u)) Workloads.per_layer)
    (List.map (fun (n, u, _) -> (n, u)) (declared "per_layer"))

let fixture () =
  let exec, wit = Workloads.Fixture.load ~dir:"fixtures" () in
  Alcotest.(check int) "do events" 1200 (Spec.Abstract.length wit);
  Alcotest.(check int) "replicas" 3 (Model.Execution.n_replicas exec)

(* ---------- a smoke pass of the command ---------- *)

let run_bench args =
  let ic = Unix.open_process_args_in "./haec_bench.exe" (Array.of_list ("./haec_bench.exe" :: args)) in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "haec_bench %s failed" (String.concat " " args));
  Json.of_string (List.nth lines (List.length lines - 1))

let smoke workload () =
  let metrics trace =
    let r = run_bench [ "--workload"; workload; "--smoke"; "--trace"; trace ] in
    Alcotest.(check bool) "correct" true (field "correct" r = Json.Bool true);
    Alcotest.check feq "failed" 0.0 (num (field "failed" r));
    Alcotest.(check bool) "attempted" true (num (field "attempted" r) >= 1.0);
    field "metrics" r
  in
  let emitted kind ms =
    List.iter
      (fun (name, unit, _) ->
        let m = field name ms in
        Alcotest.(check string) (name ^ " unit") unit (str (field "unit" m));
        Alcotest.(check bool) (name ^ " finite") true (Float.is_finite (num (field "value" m))))
      (declared kind)
  in
  emitted "end_to_end" (metrics "0");
  let layer = metrics "1" in
  emitted "per_layer" layer;
  let v name = num (field "value" (field name layer)) in
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs in
  (* the audit's phases contain its spec calls; the simulator's store and
     spec calls are disjoint *)
  let self =
    if workload = "audit" then
      sum
        (fun phase -> v ("audit." ^ phase ^ "_s"))
        [ "well_formed"; "complies"; "correct"; "closure"; "correct_closed"; "occ"; "eventual" ]
    else
      v "spec.apply_s"
      +. sum
           (fun op -> v ("store." ^ op ^ ".calls") *. v ("store." ^ op ^ ".ns") /. 1e9)
           [ "do_op"; "send"; "receive" ]
  in
  Alcotest.(check bool) "traced self-times fit in the wall time" true
    (self > 0.0 && self <= v "trace.wall_s")

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "sleep" then begin
    Unix.sleepf 30.0;
    exit 0
  end;
  Alcotest.run "e2e"
    [
      ("traced", [ Alcotest.test_case "wrappers are transparent" `Quick transparency ]);
      ( "stats",
        [
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "quartiles match Python's" `Quick quartiles;
          Alcotest.test_case "bound verdict" `Quick verdict;
        ] );
      ("harness", [ Alcotest.test_case "a killed child counts as failed" `Quick watchdog ]);
      ( "benchmark",
        [
          Alcotest.test_case "BENCHMARK.json matches the code" `Quick schema;
          Alcotest.test_case "audit fixture digest" `Quick fixture;
          Alcotest.test_case "smoke: audit" `Quick (smoke "audit");
          Alcotest.test_case "smoke: sim-chaos" `Quick (smoke "sim-chaos");
        ] );
    ]
