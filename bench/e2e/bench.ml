(* The parent side: run a workload's repetitions as children, one at a
   time, and report. A discarded warm-up repetition runs first. Without
   tracing, [reps] timed repetitions give each end-to-end metric as a
   median; with tracing, two untraced repetitions and one traced one give
   the per-layer metrics and the tracing overhead. *)

open Workloads
module Json = Haec.Obs.Json

let mode_name = function Warm -> "warm" | Timed -> "timed" | Traced -> "traced"

let mode_of_name = function
  | "warm" -> Some Warm
  | "timed" -> Some Timed
  | "traced" -> Some Traced
  | _ -> None

type child =
  | Done of rep * float  (** the repetition and its set-up seconds *)
  | Failed of { attempted : int; why : string }
      (** [attempted] is 0 when the child died before reporting *)

let child_args w ~seed ~slice ~smoke ~rep mode =
  [ "--child"; name w; "--seed"; string_of_int seed; "--slice"; Printf.sprintf "%h" slice;
    "--rep"; string_of_int rep; "--mode"; mode_name mode ]
  @ if smoke then [ "--smoke" ] else []

let spawn ~prog ~args ~timeout =
  let o = Harness.run ~prog ~args ~timeout in
  match Harness.decode o with
  | Error why -> Failed { attempted = 0; why }
  | Ok (r : rep) when r.ok ->
    Done (r, secs (r.measure_start_ns - o.spawned_ns) +. r.inner_setup_s)
  | Ok r -> Failed { attempted = r.attempted; why = r.why }

(* Ops attempted and ops failed over a set of children. A child that died
   without reporting is charged the median attempted by the children that
   finished (at least one op). *)
let account children =
  let finished =
    List.filter_map (function Done (r, _) -> Some (fi r.attempted) | Failed _ -> None) children
  in
  let nominal =
    match finished with [] -> 1 | xs -> max 1 (int_of_float (Stats.median xs))
  in
  List.fold_left
    (fun (att, failed) -> function
      | Done (r, _) -> (att + r.attempted, failed)
      | Failed { attempted; _ } ->
        let a = if attempted > 0 then attempted else nominal in
        (att + a, failed + a))
    (0, 0) children

type summary = { metric : string; unit : string; values : float list }

type report = {
  workload : t;
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  summaries : summary list;  (** in the order of the metric list *)
  reps : int;
}

let value s = match s.values with [] -> 0.0 | vs -> Stats.median vs

let metric_json s = Json.Obj [ ("value", Json.Num (value s)); ("unit", Json.Str s.unit) ]

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (fi r.attempted));
         ("failed", Json.Num (fi r.failed));
         ("metrics", Json.Obj (List.map (fun s -> (s.metric, metric_json s)) r.summaries));
       ])

let print_human r ~seed ~seconds ~trace =
  Printf.printf "haec_bench %s seed=%d seconds=%g %s (%d repetitions after 1 warm-up)\n"
    (name r.workload) seed seconds
    (if trace then "traced" else "untraced")
    r.reps;
  List.iter
    (fun s ->
      match s.values with
      | [] -> Printf.printf "  %-34s %14s %-8s (no value)\n" s.metric "-" s.unit
      | [ v ] -> Printf.printf "  %-34s %14.6g %s\n" s.metric v s.unit
      | vs ->
        let q1, q3 = Stats.quartiles vs in
        Printf.printf "  %-34s %14.6g %-8s [q1 %.6g, q3 %.6g, n=%d]\n" s.metric
          (Stats.median vs) s.unit q1 q3 (List.length vs))
    r.summaries;
  Printf.printf "  correct=%b attempted=%d failed=%d\n" r.correct r.attempted r.failed;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.failures

let run_workload ~prog w ~seed ~seconds ~trace ~smoke =
  let sz = size ~seconds ~smoke in
  let timeout = watchdog sz in
  let child ?(slice = sz.slice) ~rep mode =
    spawn ~prog ~args:(child_args w ~seed ~slice ~smoke ~rep mode) ~timeout
  in
  let warm = child ~slice:(sz.slice /. 2.0) ~rep:0 Warm in
  let reps = Workloads.reps ~smoke in
  let timed, traced =
    if trace then ([ child ~rep:0 Timed; child ~rep:0 Timed ], [ child ~rep:0 Traced ])
    else (List.init reps (fun rep -> child ~rep Timed), [])
  in
  let children = (warm :: timed) @ traced in
  let attempted, failed = account children in
  let failures =
    List.filter_map (function Failed { why; _ } -> Some why | Done _ -> None) children
  in
  let ok = List.filter_map (function Done (r, s) -> Some (r, s) | Failed _ -> None) in
  let values reps metric =
    List.filter_map
      (fun ((r : rep), setup) ->
        if metric = "setup_s" then Some setup else List.assoc_opt metric r.e2e)
      reps
  in
  let summaries =
    if not trace then
      List.map
        (fun (metric, unit, _, _) -> { metric; unit; values = values (ok timed) metric })
        end_to_end
    else
      let untraced = values (ok timed) "ops_per_s" in
      let layer =
        match ok traced with
        | [ ((r : rep), _) ] ->
          let overhead =
            match (untraced, List.assoc_opt "ops_per_s" r.e2e) with
            | _ :: _, Some v -> [ ("trace.overhead_frac", 1.0 -. ratio v (Stats.median untraced)) ]
            | _ -> []
          in
          r.layer @ overhead
        | _ -> []
      in
      List.map
        (fun (metric, unit, _) ->
          {
            metric;
            unit;
            values =
              (match (layer, List.assoc_opt metric layer) with
              | [], _ -> []
              | _, Some v -> [ v ]
              | _, None -> [ 0.0 ]);
          })
        per_layer
  in
  {
    workload = w;
    correct = failures = [];
    attempted = max 1 attempted;
    failed;
    failures;
    summaries;
    reps = List.length timed + List.length traced;
  }

(* ---------- the committed trajectory ---------- *)

let history_file = "bench/e2e/history.jsonl"

let command_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l -> (
            match String.index_opt l ':' with
            | Some i when String.trim (String.sub l 0 i) = "model name" ->
              String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> go ())
        in
        go ())
  with Sys_error _ -> "unknown"

let date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1)
    t.tm_mday t.tm_hour t.tm_min t.tm_sec

let previous_values ~workload ~metric ~seconds =
  if not (Sys.file_exists history_file) then None
  else
    In_channel.with_open_text history_file (fun ic ->
        let last = ref None in
        let rec go () =
          match In_channel.input_line ic with
          | None -> !last
          | Some l ->
            (match Json.of_string l with
            | j when
                Json.member "workload" j = Some (Json.Str workload)
                && Json.member "metric" j = Some (Json.Str metric)
                && Json.member "seconds" j = Some (Json.Num seconds) -> (
              match Json.member "values" j with
              | Some (Json.Arr vs) ->
                last := Some (List.filter_map (function Json.Num v -> Some v | _ -> None) vs)
              | _ -> ())
            | _ -> ()
            | exception Json.Parse_error _ -> ());
            go ()
        in
        go ())

(* Append one line per metric and print each end-to-end metric's verdict
   against the last recorded set of the same workload and run length. *)
let record r ~seed ~seconds =
  let rev = command_line "git describe --always --dirty" in
  let nproc = Domain.recommended_domain_count () in
  let cpu = cpu_model () and date = date () in
  let lines =
    List.filter_map
      (fun s ->
        match s.values with
        | [] -> None
        | vs ->
          let q1, q3 = Stats.quartiles vs in
          (match
             ( List.find_opt (fun (m, _, _, _) -> m = s.metric) end_to_end,
               previous_values ~workload:(name r.workload) ~metric:s.metric ~seconds )
           with
          | Some (_, _, better, bound), Some (_ :: _ as parent) ->
            Printf.printf "  %-34s vs last record: %s\n" s.metric
              (Format.asprintf "%a" Stats.pp_verdict
                 (Stats.verdict ~better ~bound ~parent ~change:vs))
          | _ -> ());
          Some
            (Json.to_string
               (Json.Obj
                  [
                    ("rev", Json.Str rev);
                    ("date", Json.Str date);
                    ("nproc", Json.Num (fi nproc));
                    ("cpu", Json.Str cpu);
                    ("workload", Json.Str (name r.workload));
                    ("seed", Json.Num (fi seed));
                    ("seconds", Json.Num seconds);
                    ("metric", Json.Str s.metric);
                    ("unit", Json.Str s.unit);
                    ("median", Json.Num (Stats.median vs));
                    ("q1", Json.Num q1);
                    ("q3", Json.Num q3);
                    ("n", Json.Num (fi (List.length vs)));
                    ("values", Json.Arr (List.map (fun v -> Json.Num v) vs));
                  ])))
      r.summaries
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 history_file
    (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)
