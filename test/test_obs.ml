(* Observability layer: metrics core, JSON, snapshot IO, and the wire
   telemetry the runner records — checked against the trace it leaves
   behind. *)

open Helpers
open Haec
module Json = Obs.Json
module Metrics = Obs.Metrics
module Metrics_io = Obs.Metrics_io
module Telemetry = Sim.Telemetry

(* ---------- histogram units ---------- *)

let test_histogram_empty () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check int) "count" 0 (Metrics.Histogram.count h);
  Alcotest.(check bool) "mean NaN" true (Float.is_nan (Metrics.Histogram.mean h));
  Alcotest.(check bool) "min NaN" true (Float.is_nan (Metrics.Histogram.min_value h));
  Alcotest.(check bool) "max NaN" true (Float.is_nan (Metrics.Histogram.max_value h));
  Alcotest.(check bool) "p50 NaN" true (Float.is_nan (Metrics.Histogram.quantile h 0.5))

let test_histogram_single_sample () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.observe h 7.0;
  (* clamping to [min, max] makes a single sample exact at every quantile *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f" q)
        7.0
        (Metrics.Histogram.quantile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 0.0)) "mean" 7.0 (Metrics.Histogram.mean h);
  Alcotest.(check (float 0.0)) "sum" 7.0 (Metrics.Histogram.sum h)

let test_histogram_uniform () =
  let h = Metrics.Histogram.create () in
  for i = 1 to 1000 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  let p50 = Metrics.Histogram.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50=%.1f within 15%% of 500" p50)
    true
    (Float.abs (p50 -. 500.0) <= 75.0);
  Alcotest.(check (float 0.0)) "max exact" 1000.0 (Metrics.Histogram.max_value h);
  Alcotest.(check (float 0.0)) "min exact" 1.0 (Metrics.Histogram.min_value h);
  Alcotest.(check int) "count" 1000 (Metrics.Histogram.count h);
  (* p100 clamps to the exact max, p0 to the exact min *)
  Alcotest.(check (float 0.0)) "p100" 1000.0 (Metrics.Histogram.quantile h 1.0)

let test_histogram_clamps_bad_samples () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.observe h (-3.0);
  Metrics.Histogram.observe h Float.nan;
  Alcotest.(check int) "count" 2 (Metrics.Histogram.count h);
  Alcotest.(check (float 0.0)) "clamped to 0" 0.0 (Metrics.Histogram.max_value h)

let test_registry_kind_clash () =
  let reg = Metrics.Registry.create () in
  let c = Metrics.Registry.counter reg "x" in
  Metrics.Counter.incr c;
  (* create-or-get returns the same cell *)
  Alcotest.(check int) "same cell" 1
    (Metrics.Counter.value (Metrics.Registry.counter reg "x"));
  (match Metrics.Registry.gauge reg "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on kind clash");
  match Metrics.Registry.register reg "x" (Metrics.Registry.Counter (Metrics.Counter.create ())) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument on duplicate register"

let test_counter_monotone () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.add c 5;
  (match Metrics.Counter.add c (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument on negative add");
  Alcotest.(check int) "value unchanged" 5 (Metrics.Counter.value c)

(* ---------- JSON ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.0);
        ("b", Json.Str "hi \"there\"\n\t\\");
        ("c", Json.Arr [ Json.Bool true; Json.Null; Json.Num (-2.5) ]);
        ("d", Json.Obj []);
        ("e", Json.Num 1e-9);
        ("unicode", Json.Str "caf\xc3\xa9");
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.equal v (Json.of_string (Json.to_string v)))

let test_json_rejects_garbage () =
  let reject s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected Parse_error on %S" s)
  in
  List.iter reject
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_escapes () =
  (* \u sequences, including a surrogate pair, decode to UTF-8 *)
  (match Json.of_string {|"Aé😀"|} with
  | Json.Str s -> Alcotest.(check string) "escapes" "A\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string")

(* ---------- snapshot IO ---------- *)

let sample_registry () =
  let reg = Metrics.Registry.create () in
  Metrics.Counter.add (Metrics.Registry.counter reg "msgs") 42;
  Metrics.Gauge.set (Metrics.Registry.gauge reg "floor") 12.5;
  let h = Metrics.Registry.histogram reg "bytes" in
  List.iter (fun v -> Metrics.Histogram.observe h v) [ 10.0; 20.0; 30.0 ];
  reg

let test_snapshot_roundtrip () =
  let snap =
    Metrics_io.snapshot ~meta:[ ("store", Json.Str "mvr"); ("seed", Json.Num 7.0) ]
      (sample_registry ())
  in
  let snap' = Metrics_io.of_jsonl (Metrics_io.to_jsonl snap) in
  Alcotest.(check bool) "meta kept" true
    (Json.equal (Json.Obj snap.Metrics_io.meta) (Json.Obj snap'.Metrics_io.meta));
  (match Metrics_io.find snap' "msgs" with
  | Some (Metrics_io.Counter 42) -> ()
  | _ -> Alcotest.fail "counter lost");
  (match Metrics_io.find snap' "floor" with
  | Some (Metrics_io.Gauge g) -> Alcotest.(check (float 0.0)) "gauge" 12.5 g
  | _ -> Alcotest.fail "gauge lost");
  match Metrics_io.find snap' "bytes" with
  | Some (Metrics_io.Histogram h) ->
    Alcotest.(check int) "hist count" 3 h.Metrics_io.count;
    Alcotest.(check (float 0.0)) "hist sum" 60.0 h.Metrics_io.sum;
    Alcotest.(check (float 0.0)) "hist max" 30.0 h.Metrics_io.max_v
  | _ -> Alcotest.fail "histogram lost"

let test_snapshot_file_roundtrip () =
  let path = Filename.temp_file "haec" ".metrics.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s1 = Metrics_io.snapshot ~meta:[ ("seed", Json.Num 1.0) ] (sample_registry ()) in
      let s2 = Metrics_io.snapshot ~meta:[ ("seed", Json.Num 2.0) ] (sample_registry ()) in
      Metrics_io.save_all path [ s1; s2 ];
      let loaded = Metrics_io.load_all path in
      Alcotest.(check int) "two snapshots" 2 (List.length loaded))

let test_snapshot_rejects_garbage () =
  let reject s =
    match Metrics_io.of_jsonl s with
    | exception Metrics_io.Malformed _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected Malformed on %S" s)
  in
  List.iter reject
    [
      "";
      "{\"name\":\"x\",\"type\":\"counter\",\"value\":1}";
      (* metric before header *)
      "{\"magic\":\"haec-metrics\",\"version\":999}";
      (* future version *)
      "{\"magic\":\"wrong\",\"version\":1}";
      "{\"magic\":\"haec-metrics\",\"version\":1}\nnot json";
      "{\"magic\":\"haec-metrics\",\"version\":1}\n{\"name\":\"x\",\"type\":\"zebra\"}";
    ]

(* ---------- wire telemetry vs the trace ---------- *)

let run_causal ?faults ~seed ~policy ~ops () =
  let module R = Sim.Runner.Make (Store.Causal_mvr_store) in
  let rng = Rng.create seed in
  let n = 4 and objects = 3 in
  let sim = R.create ~seed ~n ~policy ?faults () in
  let steps = Sim.Workload.generate ~rng ~n ~objects ~ops Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  for obj = 0 to objects - 1 do
    for replica = 0 to n - 1 do
      ignore (R.op sim ~replica ~obj Op.Read)
    done
  done;
  (R.metrics sim, R.execution sim)

let hist_sum reg name =
  match Metrics.Registry.find reg name with
  | Some (Metrics.Registry.Histogram h) -> Metrics.Histogram.sum h
  | _ -> Alcotest.fail (name ^ " missing or not a histogram")

let counter reg name =
  match Metrics.Registry.find reg name with
  | Some (Metrics.Registry.Counter c) -> Metrics.Counter.value c
  | _ -> Alcotest.fail (name ^ " missing or not a counter")

let prop_wire_bytes_match_trace =
  q ~count:25 "wire.payload_bytes telemetry = encoded message bytes"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let live, exec = run_causal ~seed ~policy:(Sim.Net_policy.random_delay ()) ~ops:40 () in
      let encoded =
        List.fold_left
          (fun acc m -> acc + String.length m.Message.payload)
          0 (Execution.messages_sent exec)
      in
      let offline = Telemetry.wire_of_execution exec in
      hist_sum live "wire.payload_bytes" = float_of_int encoded
      && hist_sum offline "wire.payload_bytes" = float_of_int encoded
      && counter live "wire.messages" = List.length (Execution.messages_sent exec))

let prop_wire_bytes_match_trace_lossy =
  q ~count:25 "wire.payload_bytes telemetry = encoded bytes under permanent loss"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      (* faulted links and corrupted frames lose deliveries for good, but
         every send is still a recorded message, so the byte accounting
         identity must be untouched, and every drop is a permanent loss.
         Every link into replica 1 is down while the workload runs (ops
         at t = 1 .. 40), so any update another replica issues is lost on
         its way there: every seed the generator draws drops at least 4
         messages. *)
      let faults =
        Sim.Fault_plan.make
          ~links:
            (List.map
               (fun src -> { Sim.Fault_plan.src; dst = 1; from_ = 0.5; until = 41.0 })
               [ 0; 2; 3 ])
          ~corruption:{ p = 0.2; from_ = 0.0; until = 20.0 }
          ~horizon:41.0 ()
      in
      let live, exec =
        run_causal ~faults ~seed ~policy:(Sim.Net_policy.random_delay ()) ~ops:40 ()
      in
      let encoded =
        List.fold_left
          (fun acc m -> acc + String.length m.Message.payload)
          0 (Execution.messages_sent exec)
      in
      let offline = Telemetry.wire_of_execution exec in
      hist_sum live "wire.payload_bytes" = float_of_int encoded
      && hist_sum offline "wire.payload_bytes" = float_of_int encoded
      && counter live "wire.messages" = List.length (Execution.messages_sent exec)
      && counter live "wire.dropped" > 0
      && counter live "wire.dropped" = counter live "wire.lost_permanent")

let test_offline_matches_live_fifo () =
  (* on a reliable network every wire metric is recomputable from the trace *)
  let live, exec = run_causal ~seed:11 ~policy:(Sim.Net_policy.reliable_fifo ()) ~ops:60 () in
  let offline = Telemetry.wire_of_execution exec in
  List.iter
    (fun name ->
      Alcotest.(check int) name (counter live name) (counter offline name))
    [ "wire.messages"; "wire.deliveries"; "wire.duplicates" ];
  Alcotest.(check (float 0.0))
    "payload bytes"
    (hist_sum live "wire.payload_bytes")
    (hist_sum offline "wire.payload_bytes")

let test_visibility_lag_recorded () =
  let live, _ = run_causal ~seed:3 ~policy:(Sim.Net_policy.random_delay ()) ~ops:60 () in
  match Metrics.Registry.find live "visibility.lag" with
  | Some (Metrics.Registry.Histogram h) ->
    Alcotest.(check bool) "some lags observed" true (Metrics.Histogram.count h > 0);
    Alcotest.(check bool) "lags positive" true (Metrics.Histogram.min_value h > 0.0)
  | _ -> Alcotest.fail "visibility.lag missing"

(* ---------- E19 smoke: floor holds on a random causal run ---------- *)

let test_theorem12_floor_holds () =
  let _, exec = run_causal ~seed:19 ~policy:(Sim.Net_policy.random_delay ()) ~ops:60 () in
  let k = Telemetry.max_writes_per_replica exec in
  let floor = Telemetry.theorem12_floor_bits ~n:4 ~s:3 ~k in
  Alcotest.(check bool) "floor positive" true (floor > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "max message bits %d >= floor %.1f" (Execution.max_message_bits exec)
       floor)
    true
    (float_of_int (Execution.max_message_bits exec) >= floor)

let test_floor_degenerate () =
  Alcotest.(check (float 0.0)) "n<3" 0.0 (Telemetry.theorem12_floor_bits ~n:2 ~s:5 ~k:16);
  Alcotest.(check (float 0.0)) "s<2" 0.0 (Telemetry.theorem12_floor_bits ~n:5 ~s:1 ~k:16);
  Alcotest.(check (float 0.0)) "k<=1" 0.0 (Telemetry.theorem12_floor_bits ~n:5 ~s:5 ~k:1);
  Alcotest.(check (float 0.001)) "n'=min(n-2,s-1)" (2.0 *. 4.0)
    (Telemetry.theorem12_floor_bits ~n:4 ~s:9 ~k:16)

let suite =
  ( "obs",
    [
      Alcotest.test_case "histogram: empty is NaN" `Quick test_histogram_empty;
      Alcotest.test_case "histogram: single sample exact" `Quick test_histogram_single_sample;
      Alcotest.test_case "histogram: uniform quantiles" `Quick test_histogram_uniform;
      Alcotest.test_case "histogram: clamps bad samples" `Quick test_histogram_clamps_bad_samples;
      Alcotest.test_case "registry: kind clash rejected" `Quick test_registry_kind_clash;
      Alcotest.test_case "counter: monotone" `Quick test_counter_monotone;
      Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json: rejects garbage" `Quick test_json_rejects_garbage;
      Alcotest.test_case "json: unicode escapes" `Quick test_json_escapes;
      Alcotest.test_case "snapshot: roundtrip" `Quick test_snapshot_roundtrip;
      Alcotest.test_case "snapshot: multi-snapshot file" `Quick test_snapshot_file_roundtrip;
      Alcotest.test_case "snapshot: rejects garbage" `Quick test_snapshot_rejects_garbage;
      prop_wire_bytes_match_trace;
      prop_wire_bytes_match_trace_lossy;
      Alcotest.test_case "offline = live on fifo" `Quick test_offline_matches_live_fifo;
      Alcotest.test_case "visibility lag recorded" `Quick test_visibility_lag_recorded;
      Alcotest.test_case "theorem 12 floor holds (E19 smoke)" `Quick test_theorem12_floor_holds;
      Alcotest.test_case "theorem 12 floor degenerate cases" `Quick test_floor_degenerate;
    ] )
