(* Lifecycle span tracing: the span log's round-trip, breakdown
   exactness against the runner's own lag histogram, structural
   well-formedness against the trace, the export formats, and the -j
   determinism contract for span streams. *)

open Haec
module Span = Obs.Span
module Trace_export = Obs.Trace_export
module Json = Obs.Json
module Metrics = Obs.Metrics
module Telemetry = Sim.Telemetry
module Chaos = Sim.Chaos
module C = Chaos.Make (Store.Causal_mvr_store)

let ae_run ?(churn = false) ?(ops = 40) ?config seed =
  C.run ~objects:2 ~ops ~spec_of:(fun _ -> Spec.Spec.mvr)
    ~mix:Sim.Workload.register_mix ~require:`Causal
    ~adversarial:true ~churn ?config ~seed ()

(* the outcome's span log, recorded by replay, as a list *)
let spans (o : Chaos.outcome) = Span.Log.to_list (Lazy.force o.Chaos.spans).Chaos.log

let visibles spans =
  List.filter_map (function Span.Visible v -> Some v | _ -> None) spans

(* ---------- breakdown unit semantics ---------- *)

let test_breakdown_sums_exactly () =
  let v =
    {
      Span.v_op = 3; v_origin = 0; v_obj = 1; v_observer = 2;
      issue_at = 1.0; sent_at = 1.5; arrived_at = 4.25; applied_at = 6.125;
      visible_at = 9.0; direct = true; boot_overlap = 0.5;
    }
  in
  let b = Span.breakdown v in
  (* total is defined as the float sum of the components in field order —
     the identity everything downstream leans on *)
  Alcotest.(check (float 0.0))
    "total = canonical-order component sum"
    (b.Span.encode_wait +. b.Span.network +. b.Span.repair_wait +. b.Span.dep_wait
   +. b.Span.bootstrap_refusal)
    b.Span.total;
  Alcotest.(check (float 0.0)) "encode" 0.5 b.Span.encode_wait;
  Alcotest.(check (float 0.0)) "network" 2.75 b.Span.network;
  (* a direct copy arrived: the arrival->apply gap is dependency wait *)
  Alcotest.(check (float 0.0)) "repair" 0.0 b.Span.repair_wait;
  Alcotest.(check (float 0.0)) "boot clamped to tail overlap" 0.5 b.Span.bootstrap_refusal

let test_breakdown_repair_path () =
  let v =
    {
      Span.v_op = 0; v_origin = 0; v_obj = 0; v_observer = 1;
      issue_at = 2.0; sent_at = 2.0; arrived_at = 3.0; applied_at = 8.0;
      visible_at = 8.0; direct = false; boot_overlap = 0.0;
    }
  in
  let b = Span.breakdown v in
  (* no direct copy: the arrival->apply gap is what anti-entropy cost *)
  Alcotest.(check (float 0.0)) "repair carries the gap" 5.0 b.Span.repair_wait;
  Alcotest.(check (float 0.0)) "dep empty" 0.0 b.Span.dep_wait;
  Alcotest.(check (float 0.0)) "total" 6.0 b.Span.total

(* ---------- the log ---------- *)

(* a span as text, every float by its bit pattern, so NaN, -0.0 and the
   last ulp all have to survive the log *)
let bits (s : Span.t) =
  let f x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  match s with
  | Span.Op o -> Printf.sprintf "op %d %d %d %s %s" o.op o.origin o.obj (f o.issue) (f o.sent)
  | Span.Transmit x ->
    Printf.sprintf "transmit %d %d %s %d %S [%s]" x.src x.seq (f x.sent) x.bytes x.kinds
      (String.concat "," (List.map string_of_int x.ops))
  | Span.Flight x ->
    Printf.sprintf "flight %d %d %d %s %s %s" x.f_src x.f_seq x.f_dst (f x.f_sent) (f x.f_at)
      (Span.outcome_name x.f_outcome)
  | Span.Visible v ->
    Printf.sprintf "visible %d %d %d %d %s %s %s %s %s %b %s" v.v_op v.v_origin v.v_obj
      v.v_observer (f v.issue_at) (f v.sent_at) (f v.arrived_at) (f v.applied_at)
      (f v.visible_at) v.direct (f v.boot_overlap)
  | Span.Bootstrap b ->
    Printf.sprintf "bootstrap %d %d %s %s" b.b_replica b.b_epoch (f b.b_join) (f b.b_promoted)
  | Span.Repair_round r -> Printf.sprintf "round %d %s %s" r.round (f r.r_at) (f r.r_interval)

let test_log_empty () =
  let log = Span.Log.create () in
  Alcotest.(check int) "length" 0 (Span.Log.length log);
  Alcotest.(check int) "to_list" 0 (List.length (Span.Log.to_list log));
  Span.Log.iter log (fun _ -> Alcotest.fail "iter visited a span of an empty log")

(* All six kinds interleaved (every flight outcome, both visible paths),
   over 300 rounds; awkward floats included. [to_list] must give back the pushed records in emission
   order, bit for bit, with each transmit's kinds classified from its
   payload when read. *)
let test_log_roundtrip () =
  let odd = [| -0.0; Float.nan; Float.infinity; 5e-324; 0.1 +. 0.2; Float.pi; 1e300 |] in
  let fl k = odd.(k mod Array.length odd) +. float_of_int (k land 1) in
  let classify p = "kinds:" ^ p in
  let log = Span.Log.create ~classify () and plain = Span.Log.create () in
  let expected = ref [] and expected_plain = ref [] in
  let emit s = expected := s :: !expected in
  for k = 0 to 299 do
    let payload = String.make (k mod 5) 'x' in
    let ops = List.init (k mod 3) (fun i -> k + i) in
    Span.Log.op log ~op:k ~origin:(k mod 4) ~obj:(k mod 7) ~issue:(fl k) ~sent:(fl (k + 1));
    emit (Span.Op { op = k; origin = k mod 4; obj = k mod 7; issue = fl k; sent = fl (k + 1) });
    List.iter
      (fun outcome ->
        Span.Log.flight log ~src:k ~seq:(k * 2) ~dst:(k mod 3) ~sent:(fl (k + 2)) ~at:(fl (k + 3))
          outcome;
        emit
          (Span.Flight
             {
               f_src = k; f_seq = k * 2; f_dst = k mod 3; f_sent = fl (k + 2);
               f_at = fl (k + 3); f_outcome = outcome;
             }))
      (if k mod 2 = 0 then [ Span.Delivered; Span.Dropped; Span.Duplicate ]
       else [ Span.Duplicate ]);
    Span.Log.transmit log ~src:(k mod 4) ~seq:k ~sent:(fl (k + 4)) ~payload ~ops;
    Span.Log.transmit plain ~src:(k mod 4) ~seq:k ~sent:(fl (k + 4)) ~payload ~ops;
    let tr kinds =
      Span.Transmit
        { src = k mod 4; seq = k; sent = fl (k + 4); bytes = String.length payload; kinds; ops }
    in
    emit (tr (classify payload));
    expected_plain := tr "" :: !expected_plain;
    let v =
      {
        Span.v_op = k; v_origin = k mod 4; v_obj = k mod 7; v_observer = (k + 1) mod 4;
        issue_at = fl k; sent_at = fl (k + 1); arrived_at = fl (k + 2); applied_at = fl (k + 3);
        visible_at = fl (k + 4); direct = k mod 3 <> 0; boot_overlap = fl (k + 5);
      }
    in
    Span.Log.visible log v;
    emit (Span.Visible v);
    if k mod 10 = 0 then begin
      let b = { Span.b_replica = k mod 4; b_epoch = k; b_join = fl k; b_promoted = fl (k + 6) } in
      Span.Log.bootstrap log b;
      emit (Span.Bootstrap b)
    end;
    if k mod 7 = 0 then begin
      let r = { Span.round = k; r_at = fl (k + 2); r_interval = fl (k + 5) } in
      Span.Log.repair_round log r;
      emit (Span.Repair_round r)
    end
  done;
  let expected = List.rev !expected in
  Alcotest.(check int) "length" (List.length expected) (Span.Log.length log);
  Alcotest.(check (list string)) "emission order, bit-identical" (List.map bits expected)
    (List.map bits (Span.Log.to_list log));
  let walked = ref [] in
  Span.Log.iter log (fun s -> walked := bits s :: !walked);
  Alcotest.(check (list string)) "iter = to_list" (List.map bits expected) (List.rev !walked);
  Alcotest.(check (list string)) "no classifier: kinds empty"
    (List.rev_map bits !expected_plain)
    (List.map bits (Span.Log.to_list plain))

(* [Chaos.run]'s log against the runner's own stream of the same plan,
   driven outside the harness (test_witness's [Drive], the schedule the
   golden span fingerprints pin) *)
let test_chaos_log_is_the_runner_stream () =
  let module D = Test_witness.Drive (Store.Causal_mvr_store) in
  List.iter
    (fun (churn, seed) ->
      let n, objects, ops = if churn then (3, 3, 60) else (4, 4, 80) in
      let o =
        C.run ~n ~objects ~ops ~mix:Sim.Workload.register_mix ~adversarial:true ~churn ~seed ()
      in
      let sim = D.run ~mix:Sim.Workload.register_mix ~churn ~spans:true ~seed in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d%s" seed (if churn then " churn" else ""))
        (List.map bits (D.R.spans sim))
        (List.map bits (spans o)))
    [ (false, 1); (true, 1); (false, 2); (true, 2) ]

(* ---------- spans recorded by replay ---------- *)

(* Forcing an outcome's spans re-runs its inputs with spans on. The
   replay must be the same run (its trace encodes to the outcome's bytes),
   its spans those of a runner that records them inline (test_witness's
   [Drive], on the same schedule), and its lag histogram the span totals,
   bit for bit. Swept at -j 1 and -j 2, with and without churn. *)
let replay_is_the_run (module S : Store.Store_intf.S) ~mix ~spec ~require () =
  let module Ch = Chaos.Make (S) in
  let module D = Test_witness.Drive (S) in
  let crashes = ref 0 and joins = ref 0 in
  List.iter
    (fun churn ->
      let n, objects, ops = if churn then (3, 3, 60) else (4, 4, 80) in
      List.iter
        (fun domains ->
          let outcomes =
            Ch.run_seeds ~n ~objects ~ops ~spec_of:(fun _ -> spec) ~mix ~require
              ~adversarial:true ~churn ~domains ~seeds:[ 1; 2; 3 ] ()
          in
          List.iter
            (fun (o : Chaos.outcome) ->
              let name =
                Printf.sprintf "%s seed %d%s -j %d" S.name o.Chaos.seed
                  (if churn then " churn" else "") domains
              in
              crashes := !crashes + o.Chaos.stats.Sim.Runner.crashes;
              joins := !joins + o.Chaos.stats.Sim.Runner.joins;
              let t = Lazy.force o.Chaos.spans in
              Alcotest.(check string) (name ^ ": trace bytes")
                (Model.Trace_io.to_string o.Chaos.exec) (Model.Trace_io.to_string t.Chaos.trace);
              let sim, _ =
                D.run_q ~object_major:true ~mix ~churn ~spans:true ~seed:o.Chaos.seed ()
              in
              Alcotest.(check (list string)) (name ^ ": inline spans")
                (List.map bits (D.R.spans sim))
                (List.map bits (Span.Log.to_list t.Chaos.log));
              let vs = visibles (Span.Log.to_list t.Chaos.log) in
              Alcotest.(check int) (name ^ ": lag count") (List.length vs)
                (Metrics.Histogram.count t.Chaos.lag);
              Alcotest.(check (float 0.0)) (name ^ ": lag sum")
                (List.fold_left (fun acc v -> acc +. (Span.breakdown v).Span.total) 0.0 vs)
                (Metrics.Histogram.sum t.Chaos.lag);
              Alcotest.(check bool) (name ^ ": lag = inline lag") true
                (t.Chaos.lag = D.R.visibility_lag sim))
            outcomes)
        [ 1; 2 ])
    [ false; true ];
  Alcotest.(check bool) "crashes exercised" true (!crashes > 0);
  Alcotest.(check bool) "churn exercised" true (!joins > 0)

let test_replay_is_the_run () =
  replay_is_the_run (module Store.Causal_mvr_store) ~mix:Sim.Workload.register_mix
    ~spec:Spec.Spec.mvr ~require:`Causal ();
  replay_is_the_run (module Store.Cops_store) ~mix:Sim.Workload.register_mix
    ~spec:Spec.Spec.mvr ~require:`Causal ();
  replay_is_the_run (module Store.Orset_store) ~mix:Sim.Workload.orset_mix
    ~spec:Spec.Spec.orset ~require:`Correct ()

(* A run made under an off-default config replays under that config:
   the forced spans' trace is the run's, byte for byte, and it differs
   from a default run's, so the config is what the replay reused. *)
let test_replay_reuses_the_config () =
  let config = { Store.Store_intf.default with repair_batch = 3 } in
  let o = ae_run ~churn:true ~config 5 in
  let expected = Model.Trace_io.to_string o.Chaos.exec in
  Alcotest.(check string) "forced spans: the run's bytes" expected
    (Model.Trace_io.to_string (Lazy.force o.Chaos.spans).Chaos.trace);
  let default = Model.Trace_io.to_string (ae_run ~churn:true 5).Chaos.exec in
  Alcotest.(check bool) "a default run's bytes differ" true (default <> expected)

(* ---------- live stream vs the runner's own measurements ---------- *)

let test_components_sum_to_lag_histogram () =
  List.iter
    (fun seed ->
      let o = ae_run seed in
      let vs = visibles (spans o) in
      let total =
        List.fold_left (fun acc v -> acc +. (Span.breakdown v).Span.total) 0.0 vs
      in
      let h = (Lazy.force o.Chaos.spans).Chaos.lag in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one visible span per lag observation" seed)
        (Metrics.Histogram.count h) (List.length vs);
      (* bit-for-bit, not approximately: the span-recording runner records
         each op's lag as the breakdown total itself, in the same order *)
      Alcotest.(check (float 0.0))
        (Printf.sprintf "seed %d: span totals = histogram sum" seed)
        (Metrics.Histogram.sum h) total;
      (* the run itself, spans off, sampled the same observations *)
      match Metrics.Registry.find o.Chaos.metrics "visibility.lag" with
      | Some (Metrics.Registry.Histogram plain) ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d: the run's lag samples" seed)
          (Metrics.Histogram.count h) (Metrics.Histogram.count plain)
      | _ -> Alcotest.fail "visibility.lag histogram missing")
    [ 1; 2; 3; 4; 5 ]

let test_visible_timestamps_monotone () =
  let o = ae_run ~churn:true 5 in
  List.iter
    (fun v ->
      let m = Printf.sprintf "op %d at R%d" v.Span.v_op v.Span.v_observer in
      Alcotest.(check bool) (m ^ ": issue<=sent") true (v.Span.issue_at <= v.Span.sent_at);
      Alcotest.(check bool) (m ^ ": sent<=arrived") true
        (v.Span.sent_at <= v.Span.arrived_at);
      Alcotest.(check bool) (m ^ ": arrived<=applied") true
        (v.Span.arrived_at <= v.Span.applied_at);
      Alcotest.(check bool) (m ^ ": applied<=visible") true
        (v.Span.applied_at <= v.Span.visible_at))
    (visibles (spans o))

let test_spans_audit_against_trace () =
  List.iter
    (fun seed ->
      let o = ae_run seed in
      match Telemetry.audit_spans o.Chaos.exec (spans o) with
      | [] -> ()
      | errs ->
        Alcotest.fail
          (Printf.sprintf "seed %d: %s" seed (String.concat "; " errs)))
    [ 1; 2; 3; 4; 5; 6 ]

let test_transmit_kinds_classified () =
  let o = ae_run 2 in
  let kinds =
    List.filter_map
      (function Span.Transmit x -> Some x.Span.kinds | _ -> None)
      (spans o)
  in
  Alcotest.(check bool) "transmits present" true (kinds <> []);
  (* the anti-entropy drive classifies payloads: digest rounds must show *)
  Alcotest.(check bool) "some payload carries a digest" true
    (List.exists
       (fun k ->
         let re = "digest" in
         let lk = String.length k and lr = String.length re in
         let rec scan i = i + lr <= lk && (String.sub k i lr = re || scan (i + 1)) in
         scan 0)
       kinds)

let test_churn_emits_bootstrap_spans () =
  (* at least one of these seeds draws a plan with a mid-run joiner *)
  let boots =
    List.concat_map
      (fun seed ->
        let o = ae_run ~churn:true seed in
        List.filter_map
          (function Span.Bootstrap b -> Some b | _ -> None)
          (spans o))
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some run promoted a joiner" true (boots <> []);
  List.iter
    (fun b ->
      Alcotest.(check bool) "join <= promoted" true (b.Span.b_join <= b.Span.b_promoted))
    boots

let test_repair_rounds_numbered () =
  let o = ae_run 1 in
  let rounds =
    List.filter_map (function Span.Repair_round r -> Some r | _ -> None) (spans o)
  in
  Alcotest.(check bool) "gossip rounds traced" true (rounds <> []);
  List.iteri
    (fun i r -> Alcotest.(check int) "rounds count up from 1" (i + 1) r.Span.round)
    rounds

(* ---------- determinism: streams are bit-identical at any -j ---------- *)

let test_stream_identical_across_domains () =
  let seeds = [ 1; 2; 3; 4 ] in
  let render domains =
    let outcomes =
      C.run_seeds ~objects:2 ~ops:40 ~spec_of:(fun _ -> Spec.Spec.mvr)
        ~mix:Sim.Workload.register_mix ~require:`Causal
        ~adversarial:true ~domains ~seeds ()
    in
    List.map (fun o -> Trace_export.to_jsonl (spans o)) outcomes
  in
  let streams = render 1 in
  Alcotest.(check string) "-j 1 vs -j 4 byte-identical" (String.concat "\n" streams)
    (String.concat "\n" (render 4));
  (* what the writer emits: a header carrying magic and version, then one
     parseable object per span naming its kind *)
  let kinds = [ "op"; "transmit"; "flight"; "visible"; "bootstrap"; "repair_round" ] in
  List.iter
    (fun stream ->
      match List.filter (( <> ) "") (String.split_on_char '\n' stream) with
      | [] -> Alcotest.fail "empty stream"
      | header :: lines ->
        let h = Json.of_string header in
        Alcotest.(check bool) "header magic" true
          (Json.member "magic" h = Some (Json.Str Trace_export.magic));
        Alcotest.(check bool) "header version" true
          (Json.member "version" h = Some (Json.Num (float_of_int Trace_export.version)));
        Alcotest.(check bool) "spans written" true (lines <> []);
        List.iter
          (fun line ->
            match Json.member "span" (Json.of_string line) with
            | Some (Json.Str k) when List.mem k kinds -> ()
            | _ -> Alcotest.fail ("line names no span kind: " ^ line))
          lines)
    streams

(* ---------- export ---------- *)

let test_chrome_export_schema () =
  let o = ae_run ~churn:true 5 in
  let n = Model.Execution.n_replicas o.Chaos.exec in
  let doc = Trace_export.to_chrome ~n (spans o) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "displayTimeUnit=ms" true
    (Json.member "displayTimeUnit" doc = Some (Json.Str "ms"));
  Alcotest.(check bool) "non-empty" true (events <> []);
  let phases = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Json.Obj fields ->
        (match List.assoc_opt "ph" fields with
        | Some (Json.Str ph) ->
          Hashtbl.replace phases ph (1 + Option.value ~default:0 (Hashtbl.find_opt phases ph))
        | _ -> Alcotest.fail "event without ph");
        (* every event needs a name and a pid for Perfetto to group it *)
        Alcotest.(check bool) "has name" true (List.mem_assoc "name" fields);
        Alcotest.(check bool) "has pid" true (List.mem_assoc "pid" fields)
      | _ -> Alcotest.fail "event not an object")
    events;
  let count ph = Option.value ~default:0 (Hashtbl.find_opt phases ph) in
  Alcotest.(check bool) "thread metadata present" true (count "M" >= n);
  Alcotest.(check bool) "complete slices present" true (count "X" > 0);
  (* async flight arrows must pair up *)
  Alcotest.(check int) "b/e balanced" (count "b") (count "e");
  (* a spot-check that the JSON is parseable text, not just a tree *)
  let s = Json.to_string doc in
  Alcotest.(check bool) "serializes and re-parses" true
    (Json.equal (Json.of_string s) doc)

(* ---------- percentile triple ---------- *)

let test_percentiles_ordered () =
  let h = Metrics.Histogram.create () in
  for i = 1 to 1000 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  let p50, p95, p99 = Metrics.Histogram.percentiles h in
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99);
  Alcotest.(check bool) "p50 near 500" true (Float.abs (p50 -. 500.0) <= 75.0);
  Alcotest.(check bool) "p99 near 990" true (Float.abs (p99 -. 990.0) <= 150.0)

(* ---------- ascii timeline ---------- *)

let test_timeline_draws_epochs () =
  (* find a churn run whose trace has a membership event *)
  let rec find seed =
    if seed > 12 then Alcotest.fail "no churn plan drew a join in seeds 1..12"
    else
      let o = ae_run ~churn:true seed in
      let has_join =
        List.exists
          (function Model.Event.Join _ -> true | _ -> false)
          (Model.Execution.events o.Chaos.exec)
      in
      if has_join then o else find (seed + 1)
  in
  let o = find 1 in
  let s = Viz.Render.timeline o.Chaos.exec in
  Alcotest.(check bool) "join glyph" true (String.contains s 'J');
  (* the epoch boundary marker row and its label *)
  Alcotest.(check bool) "boundary row" true (String.contains s '|');
  let has sub =
    let ls = String.length s and lr = String.length sub in
    let rec scan i = i + lr <= ls && (String.sub s i lr = sub || scan (i + 1)) in
    scan 0
  in
  (* the label row tags each boundary with the epoch it bumped the view
     to — some "e<digit>" preceded by a space *)
  let ls = String.length s in
  let rec epoch_label i =
    i + 1 < ls
    && (s.[i] = 'e'
        && s.[i + 1] >= '0'
        && s.[i + 1] <= '9'
        && (i = 0 || s.[i - 1] = ' ')
       || epoch_label (i + 1))
  in
  Alcotest.(check bool) "epoch label" true (epoch_label 0);
  Alcotest.(check bool) "replica lanes" true (has "R0 ")

(* Membership events in adjacent columns: each epoch label stays a
   word of its own, the later ones stacked on further rows rather than
   written over the earlier ones. *)
let test_timeline_adjacent_epochs () =
  let events =
    List.init 72 (fun i ->
        match i with
        | 10 -> Model.Event.Join { replica = 2; epoch = 1 }
        | 11 -> Model.Event.Join { replica = 3; epoch = 2 }
        | 12 -> Model.Event.Leave { replica = 0; epoch = 3; graceful = true }
        | _ when i mod 2 = 0 -> Model.Event.Crash { replica = 1 }
        | _ -> Model.Event.Recover { replica = 1 })
  in
  let s = Viz.Render.timeline (Model.Execution.of_list ~n:4 ~initial:2 events) in
  let words = List.concat_map (String.split_on_char ' ') (String.split_on_char '\n' s) in
  List.iter
    (fun label -> Alcotest.(check bool) label true (List.mem label words))
    [ "e1"; "e2"; "e3" ]

let test_timeline_plain_run () =
  let module R = Sim.Runner.Make (Store.Mvr_store) in
  let sim = R.create ~seed:7 ~n:3 ~policy:(Sim.Net_policy.reliable_fifo ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Model.Op.Write (Model.Value.Int 1)));
  R.run_until_quiescent sim;
  let s = Viz.Render.timeline (R.execution sim) in
  Alcotest.(check bool) "op glyph" true (String.contains s 'o');
  Alcotest.(check bool) "no epoch row without churn" true
    (not (String.contains s '+'))

let suite =
  ( "span",
    [
      Alcotest.test_case "breakdown: total is the canonical component sum" `Quick
        test_breakdown_sums_exactly;
      Alcotest.test_case "breakdown: lost direct copy bills repair-wait" `Quick
        test_breakdown_repair_path;
      Alcotest.test_case "log: empty" `Quick test_log_empty;
      Alcotest.test_case "log: six kinds round-trip in emission order, bit for bit" `Quick
        test_log_roundtrip;
      Alcotest.test_case "log: Chaos.run holds the runner's own stream" `Quick
        test_chaos_log_is_the_runner_stream;
      Alcotest.test_case "replay: forced spans are the run, recorded inline" `Quick
        test_replay_is_the_run;
      Alcotest.test_case "replay: a force reuses the run's config" `Quick
        test_replay_reuses_the_config;
      Alcotest.test_case "live: components sum to visibility.lag bit-for-bit" `Quick
        test_components_sum_to_lag_histogram;
      Alcotest.test_case "live: visible timestamps are monotone" `Quick
        test_visible_timestamps_monotone;
      Alcotest.test_case "live: transmit/flight spans match the trace" `Quick
        test_spans_audit_against_trace;
      Alcotest.test_case "live: anti-entropy payloads are classified" `Quick
        test_transmit_kinds_classified;
      Alcotest.test_case "churn: joiner promotion emits bootstrap spans" `Quick
        test_churn_emits_bootstrap_spans;
      Alcotest.test_case "gossip rounds are numbered from 1" `Quick
        test_repair_rounds_numbered;
      Alcotest.test_case "streams are byte-identical at -j 1 and -j 4" `Quick
        test_stream_identical_across_domains;
      Alcotest.test_case "chrome export satisfies the trace-event schema" `Quick
        test_chrome_export_schema;
      Alcotest.test_case "histogram percentiles triple" `Quick test_percentiles_ordered;
      Alcotest.test_case "timeline draws membership epochs" `Quick
        test_timeline_draws_epochs;
      Alcotest.test_case "timeline of a churn-free run" `Quick test_timeline_plain_run;
      Alcotest.test_case "timeline keeps epoch labels of adjacent columns" `Quick
        test_timeline_adjacent_epochs;
    ] )
