(* Command-line interface: run simulations, experiments and the theorem
   constructions from the shell.

     haec_cli list
     haec_cli experiment E6 E7
     haec_cli simulate --store causal --net lossy --ops 500 --replicas 5
     haec_cli theorem12 --replicas 6 --objects 5 --writes 64
     haec_cli theorem6 --groups 4 *)

open Cmdliner
open Haec
module Registry = Haec_experiments.Registry
module Stores = Haec_experiments.Stores
module Op = Model.Op
module Value = Model.Value
module Json = Obs.Json
module Metrics = Obs.Metrics
module Metrics_io = Obs.Metrics_io

let ppf = Format.std_formatter

(* ---------- parallelism ---------- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for seed sweeps (default: the machine's recommended \
           domain count). Results are bit-identical at any value.")

let set_jobs = function Some j -> Util.Par.set_default_domains j | None -> ()

(* ---------- exit codes ---------- *)

(* a run that fails its required checks exits 1, apart from cmdliner's
   usage and config errors (124) and crashes (125) *)
let checks_failed_exits =
  Cmd.Exit.info 1 ~doc:"when a run fails one of its required checks." :: Cmd.Exit.defaults

let checks_failed msg =
  Format.printf "@?";
  Format.eprintf "haec_cli: %s@." msg;
  exit 1

(* ---------- replica configuration: anti-entropy tunables ---------- *)

(* an integer flag that cmdliner itself rejects below [lo], as a usage
   error rather than an exception inside the command *)
let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= lo -> Ok k
    | _ -> Error (Printf.sprintf "%S is not an integer >= %d" s lo)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* one shared flag block for every command that runs the anti-entropy
   layer (chaos, trace, serve): it sets these fields of the command's base
   configuration (a zero batch or backoff deadlocks repair) *)
let config_term =
  let d = Store.Store_intf.default in
  let repair_batch =
    Arg.(
      value
      & opt (at_least 1) d.repair_batch
      & info [ "repair-batch" ] ~docv:"N"
          ~doc:
            "Anti-entropy: max payloads of one origin sent in answer to one repair \
             request or join (>= 1, default 32)")
  in
  let max_backoff =
    Arg.(
      value
      & opt (at_least 1) d.max_backoff
      & info [ "max-backoff" ] ~docv:"N"
          ~doc:
            "Anti-entropy: cap on the doubling backoff before the same peer is asked \
             again for the same origin, in gossip rounds (>= 1, default 32)")
  in
  let full_digest_every =
    Arg.(
      value
      & opt (at_least 1) d.full_digest_every
      & info [ "full-digest-every" ] ~docv:"N"
          ~doc:
            "Anti-entropy: emit an absolute digest every N gossip rounds, delta or \
             elided digests in between (>= 1, default 4)")
  in
  let mk repair_batch max_backoff full_digest_every =
    { Store.Store_intf.repair_batch; max_backoff; full_digest_every }
  in
  Term.(const mk $ repair_batch $ max_backoff $ full_digest_every)

(* the simulator commands' sizes: a run needs a replica and an object *)
let replicas_term =
  Arg.(value & opt (at_least 1) 3 & info [ "replicas"; "n" ] ~doc:"Number of replicas")

let objects_term default =
  Arg.(value & opt (at_least 1) default & info [ "objects" ] ~doc:"Number of objects")

(* ---------- experiment commands ---------- *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Format.printf "%-4s %s@." e.Registry.id e.Registry.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List every experiment of the reproduction")
    Term.(const run $ const ())

let experiment_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all)")
  in
  let run jobs ids =
    set_jobs jobs;
    match ids with
    | [] ->
      Registry.run_all ppf;
      `Ok ()
    | ids ->
      let rec go = function
        | [] -> `Ok ()
        | id :: rest -> (
          match Registry.find id with
          | Some e ->
            e.Registry.run ppf;
            go rest
          | None -> `Error (false, Printf.sprintf "unknown experiment %S" id))
      in
      go ids
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate experiment tables (paper figures/theorems)")
    Term.(ret (const run $ jobs_arg $ ids))

(* ---------- --store: an entry of the store catalogue ---------- *)

(* --store names a catalogue entry out of [entries], the stores the
   command runs; any other value is a usage error (exit 124) *)
let store_arg entries ~default =
  let flags = List.map (fun e -> e.Stores.flag) entries in
  let flag =
    Arg.(
      value
      & opt (enum (List.map (fun f -> (f, f)) flags)) default
      & info [ "store" ] ~doc:("Store: " ^ String.concat "|" flags))
  in
  Term.(const Stores.find $ flag)

(* ---------- simulate ---------- *)

type net_choice = Fifo | Reorder | Lossy | Partition

let net_conv =
  Arg.enum
    [ ("fifo", Fifo); ("reorder", Reorder); ("lossy", Lossy); ("partition", Partition) ]

let policy_of = function
  | Fifo -> Sim.Net_policy.reliable_fifo ()
  | Reorder -> Sim.Net_policy.random_delay ()
  | Lossy -> Sim.Net_policy.lossy ()
  | Partition -> Sim.Net_policy.partitioned ~groups:(fun r -> r mod 2) ~heal_at:30.0 ()

let net_name_of = function
  | Fifo -> "fifo"
  | Reorder -> "reorder"
  | Lossy -> "lossy"
  | Partition -> "partition"

let net_is_faulty = function Lossy | Partition -> true | Fifo | Reorder -> false

(* a run that blows its delivery budget is a finding, not a crash dump *)
let or_divergence f =
  try f ()
  with Sim.Runner.Divergence { in_flight; pending; budget } ->
    Format.printf
      "DIVERGED: the delivery budget of %d was exhausted with %d deliveries still in \
       flight and %d replicas holding unsent messages.@."
      budget in_flight pending;
    Format.printf "The network never drained — try a larger --ops budget or a kinder --net.@.";
    exit 3

let simulate_store (e : Stores.entry) ~seed ~n ~objects ~ops ~policy ~net_name
    ~faulty_net ~verbose ~dump ~metrics =
  let (module S : Store.Store_intf.S) = e.store in
  let module R = Sim.Runner.Make (S) in
  let rng = Util.Rng.create seed in
  let sim = R.create ~seed ~n ~policy () in
  let steps = Sim.Workload.generate ~rng ~n ~objects ~ops e.mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  or_divergence (fun () -> R.run_until_quiescent sim);
  let quiescent_at =
    List.length (Model.Execution.do_events (R.execution sim))
  in
  Format.printf "store=%s net ops=%d replicas=%d objects=%d@." S.name ops n objects;
  Format.printf "final state (one read per object per replica):@.";
  for obj = 0 to objects - 1 do
    Format.printf "  object %d:" obj;
    for replica = 0 to n - 1 do
      let r = R.op sim ~replica ~obj Op.Read in
      Format.printf " %a" Op.pp_response r
    done;
    Format.printf "@."
  done;
  let exec = R.execution sim in
  Format.printf "events=%d messages=%d bytes=%d@." (Model.Execution.length exec)
    (List.length (Model.Execution.messages_sent exec))
    (Model.Execution.total_message_bits exec / 8);
  let lag = R.visibility_lag sim in
  if Metrics.Histogram.count lag > 0 then begin
    let p50, p95, p99 = Metrics.Histogram.percentiles lag in
    Format.printf "visibility lag (sim time): p50=%.1f p95=%.1f p99=%.1f max=%.1f@." p50
      p95 p99
      (Metrics.Histogram.max_value lag)
  end;
  (* a run under a net that drops or duplicates should show its fault
     counters, not silently discard them *)
  let st = R.stats sim in
  if
    faulty_net || st.Sim.Runner.crashes > 0 || st.Sim.Runner.dropped > 0
    || st.Sim.Runner.corrupt_rejected > 0
  then
    Format.printf "runner stats: crashes=%d recoveries=%d dropped=%d corrupt_rejected=%d@."
      st.Sim.Runner.crashes st.Sim.Runner.recoveries st.Sim.Runner.dropped
      st.Sim.Runner.corrupt_rejected;
  let report =
    Sim.Checks.validate_deltas ~quiescent_at ~n ~deltas:(R.witness_deltas sim) exec
  in
  Format.printf "checks: %a@." Sim.Checks.pp_report report;
  let session = Consistency.Session.check (R.witness_abstract sim) in
  Format.printf "session guarantees: %s@."
    (String.concat ", " (Consistency.Session.holding session));
  (match metrics with
  | Some path ->
    let reg = R.metrics sim in
    let num i = Json.Num (float_of_int i) in
    let snap =
      Sim.Telemetry.snapshot
        ~meta:
          [
            ("store", Json.Str S.name);
            ("net", Json.Str net_name);
            ("replicas", num n);
            ("objects", num objects);
            ("ops", num ops);
            ("seed", num seed);
          ]
        ~objects exec reg
    in
    (try Metrics_io.save path snap
     with Sys_error m ->
       Format.eprintf "cannot write metrics snapshot: %s@." m;
       exit 2);
    Format.printf "@.metrics:@.%a@." Metrics.Registry.pp reg;
    Format.printf "metrics snapshot written to %s@." path
  | None -> ());
  (match dump with
  | Some path ->
    Model.Trace_io.save path exec;
    Format.printf "trace written to %s@." path
  | None -> ());
  if verbose then Format.printf "@.%a@." Model.Execution.pp exec

let simulate_cmd =
  let store = store_arg Stores.all ~default:"mvr" in
  let net = Arg.(value & opt net_conv Reorder & info [ "net" ] ~doc:"Network: fifo|reorder|lossy|partition") in
  let n = replicas_term in
  let objects = objects_term 3 in
  let ops = Arg.(value & opt int 50 & info [ "ops" ] ~doc:"Number of client operations") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed") in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Dump the full execution") in
  let dump =
    Arg.(value & opt (some string) None & info [ "dump" ] ~doc:"Write the trace to FILE")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~doc:"Write a metrics snapshot (JSONL) to FILE")
  in
  let run store net n objects ops seed verbose dump metrics =
    simulate_store store ~seed ~n ~objects ~ops
      ~policy:(policy_of net) ~net_name:(net_name_of net) ~faulty_net:(net_is_faulty net)
      ~verbose ~dump ~metrics
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a random workload on a store over a simulated network")
    Term.(
      const run $ store $ net $ n $ objects $ ops $ seed $ verbose $ dump $ metrics)

(* ---------- chaos ---------- *)

(* One line over the whole sweep: wire bytes per client update (the
   sim-chaos benchmark's bytes_per_update) and the share of each protocol
   item kind, how many payloads arrived twice and by which path, how many
   repairs filled a gap, and the mean repair latency (quiescence minus
   fault horizon, as E21 reports it); with churn also E22's bootstrap
   bytes and join-to-serving latency. The sums are folded one outcome at
   a time, in seed order, so the sweep can drop each outcome once it is
   reported; the float sums add in the same order as a fold over the
   whole list would. *)
type chaos_sums = {
  mutable runs : int;
  mutable converged : int;
  mutable updates : int;
  counters : int array;  (** one sum per name in [summed_counters] *)
  mutable payload_bytes : float;
  mutable lat : float;
  mutable boot_lat : float;
  mutable boots : int;
}

let summed_counters =
  [|
    "gossip.update_bytes"; "gossip.digest_bytes"; "gossip.request_bytes";
    "gossip.repair_bytes"; "gossip.membership_bytes"; "gossip.framing_bytes";
    "gossip.dup_updates"; "gossip.dup_repairs"; "gossip.dup_overheard";
    "gossip.repair_applied"; "sim.bootstrap_bytes";
  |]

let chaos_sums () =
  {
    runs = 0;
    converged = 0;
    updates = 0;
    counters = Array.make (Array.length summed_counters) 0;
    payload_bytes = 0.0;
    lat = 0.0;
    boot_lat = 0.0;
    boots = 0;
  }

let add_outcome sums (o : Sim.Chaos.outcome) =
  let hist name =
    match Metrics.Registry.find o.metrics name with
    | Some (Metrics.Registry.Histogram h) -> (Metrics.Histogram.sum h, Metrics.Histogram.count h)
    | _ -> (0.0, 0)
  in
  sums.runs <- sums.runs + 1;
  if Sim.Chaos.converged o then sums.converged <- sums.converged + 1;
  sums.updates <-
    sums.updates
    + List.length
        (List.filter
           (fun (_, d) -> Op.is_update d.Model.Event.op)
           (Model.Execution.do_events o.exec));
  Array.iteri
    (fun i name ->
      match Metrics.Registry.find o.metrics name with
      | Some (Metrics.Registry.Counter c) ->
        sums.counters.(i) <- sums.counters.(i) + Metrics.Counter.value c
      | _ -> ())
    summed_counters;
  sums.payload_bytes <- sums.payload_bytes +. fst (hist "wire.payload_bytes");
  sums.lat <- sums.lat +. Float.max 0.0 (o.quiesced_at -. o.horizon);
  let s, n = hist "bootstrap.latency" in
  sums.boot_lat <- sums.boot_lat +. s;
  sums.boots <- sums.boots + n

let chaos_summary ~churn sums =
  let counter name =
    let rec go i = if summed_counters.(i) = name then sums.counters.(i) else go (i + 1) in
    go 0
  in
  let per_update b = float_of_int b /. float_of_int (max 1 sums.updates) in
  let bytes name = per_update (counter name) in
  let boot =
    if not churn then ""
    else
      Printf.sprintf " boot_B=%d boot_lat=%s" (counter "sim.bootstrap_bytes")
        (if sums.boots = 0 then "-"
         else Printf.sprintf "%.2f" (sums.boot_lat /. float_of_int sums.boots))
  in
  Format.printf
    "summary: runs=%d converged=%d updates=%d B/update=%.2f (update %.2f, digest %.2f, \
     request %.2f, repair %.2f, membership %.2f, framing %.2f) dup_updates=%d dup_repairs=%d \
     dup_overheard=%d repaired=%d repair_lat=%.2f%s@."
    sums.runs sums.converged sums.updates
    (sums.payload_bytes /. float_of_int (max 1 sums.updates))
    (bytes "gossip.update_bytes") (bytes "gossip.digest_bytes")
    (bytes "gossip.request_bytes") (bytes "gossip.repair_bytes")
    (bytes "gossip.membership_bytes") (bytes "gossip.framing_bytes")
    (counter "gossip.dup_updates") (counter "gossip.dup_repairs")
    (counter "gossip.dup_overheard") (counter "gossip.repair_applied")
    (sums.lat /. float_of_int (max 1 sums.runs))
    boot

let chaos_store (e : Stores.entry) ~net ~config ~require ~adversarial ~churn ~shrink ~seed
    ~runs ~n ~objects ~ops ~dump_dir ~metrics =
  let policy = policy_of net in
  let (module S : Store.Store_intf.S) = e.store and spec = e.spec and mix = e.mix in
  let module C = Sim.Chaos.Make (S) in
  Format.printf "chaos: store=%s replicas=%d objects=%d ops=%d runs=%d%s%s@."
    S.name n objects ops runs
    (if adversarial then " adversarial" else "")
    (if churn then " churn" else "");
  Format.printf "%6s  %9s  %7s  %7s  %7s  %s@." "seed" "converged" "crashes"
    "dropped" "corrupt" "checks failed";
  let failed = ref 0 in
  let snaps = ref [] in
  let sums = chaos_sums () in
  let report (o : Sim.Chaos.outcome) =
    let seed = o.Sim.Chaos.seed in
    let s = o.Sim.Chaos.stats in
    let fails = Sim.Chaos.failures o in
    (match metrics with
    | Some _ ->
      let snap =
        Sim.Telemetry.snapshot
          ~meta:
            [
              ("store", Json.Str S.name);
              ("seed", Json.Num (float_of_int seed));
              ("converged", Json.Bool (Sim.Chaos.converged o));
            ]
          ~objects o.Sim.Chaos.exec o.Sim.Chaos.metrics
      in
      snaps := snap :: !snaps
    | None -> ());
    Format.printf "%6d  %9s  %7d  %7d  %7d  %s@." seed
      (if Sim.Chaos.converged o then "yes" else "NO")
      s.Sim.Runner.crashes s.Sim.Runner.dropped s.Sim.Runner.corrupt_rejected
      (String.concat ", " (List.map fst fails));
    if not (Sim.Chaos.converged o) then begin
      incr failed;
      Format.printf "%a@." Sim.Chaos.pp_outcome o;
      (match dump_dir with
      | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path =
          Filename.concat dir (Printf.sprintf "chaos-%s-seed%d.trace" S.name seed)
        in
        Model.Trace_io.save path o.Sim.Chaos.exec;
        Format.printf "trace written to %s (replay with: haec_cli replay %s)@." path path
      | None -> ());
      if shrink then begin
        (* delta-debug the failing run down to a minimal still-failing
           (plan, workload) pair; deterministic, so the repro is canonical *)
        let plan, steps =
          Sim.Chaos.derive ~n ~objects ~ops ~mix ~adversarial ~churn ~seed ()
        in
        let run ~plan ~steps =
          C.run_plan ~objects ~spec_of:(fun _ -> spec) ~policy ~require ~config ~n
            ~plan ~steps ~seed ()
        in
        match Sim.Shrink.minimize ~run ~plan ~steps () with
        | None ->
          (* the checks can fail on artifacts the shrinker does not replay
             (e.g. a divergence budget): report rather than pretend *)
          Format.printf "shrink: replaying the derived inputs converged — nothing to shrink@."
        | Some r ->
          Format.printf "shrink: %a@." Sim.Shrink.pp_repro r;
          (match dump_dir with
          | Some dir ->
            let trace =
              Filename.concat dir (Printf.sprintf "chaos-%s-seed%d.min.trace" S.name seed)
            in
            Model.Trace_io.save trace r.Sim.Shrink.outcome.Sim.Chaos.exec;
            let repro =
              Filename.concat dir (Printf.sprintf "chaos-%s-seed%d.repro" S.name seed)
            in
            let oc = open_out repro in
            let ppf = Format.formatter_of_out_channel oc in
            (* the header carries every flag that shapes the run, as a
               ready-to-paste command line: the seed's inputs (a missing
               fault kind derives a different plan from the same seed),
               the network, and the replica configuration the outcome
               was run under *)
            let c = r.Sim.Shrink.outcome.Sim.Chaos.config in
            Format.fprintf ppf
              "# minimal failing repro for store=%s seed=%d@.\
               # replay: haec_cli chaos --store %s --net %s --repair-batch %d \
               --max-backoff %d --full-digest-every %d --seed %d --runs 1 --replicas %d \
               --objects %d --ops %d --require %s%s%s --shrink@.%a@."
              S.name seed e.flag (net_name_of net) c.repair_batch c.max_backoff c.full_digest_every seed n objects ops
              (match require with
              | `Converge -> "converge"
              | `Correct -> "correct"
              | `Causal -> "causal"
              | `Occ -> "occ")
              (if adversarial then " --adversarial" else "")
              (if churn then " --churn" else "")
              Sim.Shrink.pp_repro r;
            close_out oc;
            Format.printf "minimized trace written to %s, repro to %s@." trace repro
          | None -> ())
      end
    end;
    add_outcome sums o
  in
  (* each block of seeds fans out over domains; reporting stays
     sequential and in seed order, so the output is bit-identical at any
     -j, and a block's outcomes are dropped once reported, so memory
     stays flat however many seeds run *)
  let block = 8 * Util.Par.default_domains () in
  let rec sweep first =
    if first < seed + runs then begin
      let last = min (seed + runs) (first + block) in
      List.iter report
        (C.run_seeds ~n ~objects ~ops ~spec_of:(fun _ -> spec) ~mix ~policy ~require
           ~adversarial ~churn ~config
           ~seeds:(List.init (last - first) (fun i -> first + i))
           ());
      sweep last
    end
  in
  sweep seed;
  chaos_summary ~churn sums;
  (match metrics with
  | Some path ->
    (try
       Metrics_io.save_all path (List.rev !snaps);
       Format.printf "metrics: %d snapshots (one per seed) written to %s@." runs path
     with Sys_error m -> Format.eprintf "cannot write metrics snapshots: %s@." m)
  | None -> ());
  if !failed = 0 then begin
    Format.printf "all %d seeded fault schedules converged.@." runs;
    `Ok ()
  end
  else checks_failed (Printf.sprintf "%d of %d chaos runs failed" !failed runs)

let chaos_cmd =
  let store = store_arg Stores.checked ~default:"causal" in
  let net = Arg.(value & opt net_conv Reorder & info [ "net" ] ~doc:"Base network: fifo|reorder|lossy|partition") in
  let n = replicas_term in
  let objects = objects_term 2 in
  let ops = Arg.(value & opt int 40 & info [ "ops" ] ~doc:"Client operations per run") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"First seed") in
  let runs = Arg.(value & opt int 50 & info [ "runs" ] ~doc:"Consecutive seeds to run") in
  let dump_dir =
    Arg.(
      value
      & opt (some string) (Some "chaos-failures")
      & info [ "dump-dir" ] ~doc:"Directory for failing traces (use --dump-dir '' to disable)")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ]
          ~doc:"Write per-seed metrics snapshots (JSONL, one snapshot per run) to FILE")
  in
  let require_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("converge", `Converge);
                  ("correct", `Correct);
                  ("causal", `Causal);
                  ("occ", `Occ);
                ]))
          None
      & info [ "require" ]
          ~doc:
            "Checks every seed must pass: converge|correct|causal|occ (cumulative). \
             Default: the bar the store's class guarantees. occ is known-failing \
             (Theorem 6) — useful with --shrink.")
  in
  let adversarial_arg =
    Arg.(
      value & flag
      & info [ "adversarial" ]
          ~doc:
            "Add adversarial network faults to each plan: message duplication, bounded \
             reordering, and permanently dead (never-healing) links that keep the \
             network connected")
  in
  let churn_arg =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Add dynamic membership to each plan: 1-2 reserve replicas join mid-run \
             (booting empty, bootstrapped over anti-entropy, refusing reads until \
             caught up) and up to two members leave (gracefully or by vanishing).")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Delta-debug each failing seed to a minimal still-failing (plan, workload) \
             repro; with --dump-dir also writes the minimized trace and repro file")
  in
  let run jobs config store net n objects ops seed runs dump_dir metrics require
      adversarial churn shrink =
    set_jobs jobs;
    let dump_dir = match dump_dir with Some "" -> None | d -> d in
    (* by default a store is held to the checks its class guarantees; the
       parser admits only stores that have a level *)
    let require = Option.value require ~default:(Option.get store.Stores.level) in
    chaos_store store ~net ~config ~require ~adversarial ~churn ~shrink ~seed ~runs ~n
      ~objects ~ops ~dump_dir ~metrics
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:checks_failed_exits
       ~doc:"Crash, drop and corrupt under seeded random fault schedules, then check convergence")
    Term.(
      ret
        (const run $ jobs_arg $ config_term $ store $ net $ n $ objects $ ops $ seed
        $ runs $ dump_dir $ metrics $ require_arg $ adversarial_arg $ churn_arg
        $ shrink_arg))

(* ---------- theorem demos ---------- *)

let theorem12_cmd =
  let n = Arg.(value & opt (at_least 3) 6 & info [ "replicas"; "n" ] ~doc:"Replicas (>= 3)") in
  let s = Arg.(value & opt (at_least 2) 5 & info [ "objects"; "s" ] ~doc:"Objects (>= 2)") in
  let k =
    Arg.(value & opt (at_least 1) 16 & info [ "writes"; "k" ] ~doc:"Writes per writer (>= 1)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed for g") in
  let run n s k seed =
    let module T12 = Construction.Theorem12.Make (Store.Causal_mvr_store) in
    let r = T12.run_random (Util.Rng.create seed) ~n ~s ~k in
    Format.printf "g       = [%s]@."
      (String.concat "; " (Array.to_list (Array.map string_of_int r.T12.g)));
    Format.printf "decoded = [%s]  (%s)@."
      (String.concat "; " (Array.to_list (Array.map string_of_int r.T12.decoded)))
      (if r.T12.ok then "ok" else "MISMATCH");
    Format.printf "|m_g| = %d bits, lower bound = %.1f bits (n'=%d)@." r.T12.m_g_bits
      r.T12.lower_bound_bits r.T12.n'
  in
  Cmd.v
    (Cmd.info "theorem12" ~doc:"Encode/decode a random g through one store message (Fig 4)")
    Term.(const run $ n $ s $ k $ seed)

let theorem6_cmd =
  let groups = Arg.(value & opt int 3 & info [ "groups" ] ~doc:"Figure 3c gadgets to plant") in
  let n = Arg.(value & opt (at_least 3) 4 & info [ "replicas"; "n" ] ~doc:"Replicas (>= 3)") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed") in
  let run groups n seed =
    let module T6 = Construction.Theorem6.Make (Store.Mvr_store) in
    let a = Construction.Occ_gen.planted (Util.Rng.create seed) ~n ~groups () in
    let a, _ = Construction.Revealing.make_revealing a in
    let r = T6.construct a in
    Format.printf "OCC abstract execution: %d events (revealing)@." (Spec.Abstract.length a);
    Format.printf "construction delivered %d messages@." r.T6.delivered;
    (match r.T6.mismatches with
    | [] -> Format.printf "all %d responses match: the store realized A@." (Spec.Abstract.length a)
    | ms -> Format.printf "%d MISMATCHES (theorem violated?!)@." (List.length ms))
  in
  Cmd.v
    (Cmd.info "theorem6" ~doc:"Run the Theorem 6 construction against the MVR store")
    Term.(const run $ groups $ n $ seed)

(* ---------- replay ---------- *)

let replay_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file") in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Draw an ASCII timeline of the trace: one row per replica, membership \
             baselines, and Join/Leave epoch boundaries as a marker row")
  in
  let run file timeline =
    match Model.Trace_io.load file with
    | exception Wire.Decoder.Malformed m -> `Error (false, "malformed trace: " ^ m)
    | exception Sys_error m -> `Error (false, m)
    | exec ->
      Format.printf "trace: %d events, %d replicas, %d do events@."
        (Model.Execution.length exec)
        (Model.Execution.n_replicas exec)
        (List.length (Model.Execution.do_events exec));
      (match Model.Execution.check_well_formed exec with
      | Ok () -> Format.printf "well-formed: yes@."
      | Error m -> Format.printf "well-formed: NO (%s)@." m);
      Format.printf "messages: %d, total %d bytes, largest %d bytes@."
        (List.length (Model.Execution.messages_sent exec))
        (Model.Execution.total_message_bits exec / 8)
        (Model.Execution.max_message_bits exec / 8);
      (* small traces: decide compliance with a causally consistent abstract
         execution by exhaustive search *)
      let dos = List.length (Model.Execution.do_events exec) in
      if dos > 0 && dos <= 8 then begin
        let target = Consistency.Search.target_of_execution exec in
        match Consistency.Search.search ~spec_of:(fun _ -> Spec.Spec.mvr) target with
        | Consistency.Search.Found _ ->
          Format.printf "causal compliance (exhaustive, MVR spec): yes@."
        | Consistency.Search.No_solution ->
          Format.printf "causal compliance (exhaustive, MVR spec): NO@."
        | Consistency.Search.Gave_up ->
          Format.printf "causal compliance: search budget exceeded@."
      end;
      if timeline then
        Format.printf "@.%s@." (Viz.Render.timeline ~title:(Filename.basename file) exec)
      else Format.printf "@.%a@." Model.Execution.pp exec;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Load a saved trace, validate and pretty-print it")
    Term.(ret (const run $ file $ timeline))

(* ---------- metrics ---------- *)

(* replays a saved trace through the offline wire-metric recomputation, so a
   snapshot written by `simulate --metrics` can be audited without
   re-executing the store *)
let metrics_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Write the recomputed snapshot (JSONL) to FILE")
  in
  let check =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ]
          ~doc:
            "Validate a snapshot FILE (from simulate --metrics) against the trace: \
             required metrics present, wire counts match, max message bits clears the \
             Theorem 12 floor")
  in
  let run file json_out check =
    let go () =
      let exec = Model.Trace_io.load file in
      let reg = Sim.Telemetry.wire_of_execution exec in
      let snap =
        Sim.Telemetry.snapshot
          ~meta:[ ("source", Json.Str file); ("mode", Json.Str "offline") ]
          exec reg
      in
      Format.printf "trace: %d events, %d replicas, %d messages@."
        (Model.Execution.length exec)
        (Model.Execution.n_replicas exec)
        (List.length (Model.Execution.messages_sent exec));
      Format.printf "@.%a@." Metrics.Registry.pp reg;
      (match json_out with
      | Some p ->
        Metrics_io.save p snap;
        Format.printf "recomputed snapshot written to %s@." p
      | None -> ());
      match check with
      | None -> Ok ()
      | Some path ->
        let saved = Metrics_io.load path in
        let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
        let require name pred =
          match Metrics_io.find saved name with
          | None -> fail "snapshot %s: missing metric %S" path name
          | Some v -> pred v
        in
        let ( let* ) = Result.bind in
        let* saved_messages =
          require "wire.messages" (function
            | Metrics_io.Counter c -> Ok c
            | _ -> fail "snapshot %s: wire.messages is not a counter" path)
        in
        let* saved_bytes =
          require "wire.payload_bytes" (function
            | Metrics_io.Histogram h -> Ok h.Metrics_io.sum
            | _ -> fail "snapshot %s: wire.payload_bytes is not a histogram" path)
        in
        let* () =
          require "visibility.lag" (function
            | Metrics_io.Histogram _ -> Ok ()
            | _ -> fail "snapshot %s: visibility.lag is not a histogram" path)
        in
        let* floor =
          require "theorem12_floor_bits" (function
            | Metrics_io.Gauge g -> Ok g
            | _ -> fail "snapshot %s: theorem12_floor_bits is not a gauge" path)
        in
        let* max_bits =
          require "wire.max_message_bits" (function
            | Metrics_io.Gauge g -> Ok g
            | _ -> fail "snapshot %s: wire.max_message_bits is not a gauge" path)
        in
        let messages = List.length (Model.Execution.messages_sent exec) in
        let bytes = float_of_int (Model.Execution.total_message_bits exec / 8) in
        let* () =
          if saved_messages <> messages then
            fail "wire.messages: snapshot says %d, trace says %d" saved_messages
              messages
          else Ok ()
        in
        let* () =
          if Float.abs (saved_bytes -. bytes) > 0.5 then
            fail "wire.payload_bytes sum: snapshot says %.0f, trace says %.0f"
              saved_bytes bytes
          else Ok ()
        in
        let* () =
          if float_of_int (Model.Execution.max_message_bits exec) < floor then
            fail "Theorem 12 violated?! max message bits %d < floor %.1f"
              (Model.Execution.max_message_bits exec)
              floor
          else Ok ()
        in
        Format.printf
          "check: %s agrees with the trace (messages=%d, payload bytes=%.0f, max \
           message bits %.0f >= floor %.1f)@."
          path messages bytes max_bits floor;
        Ok ()
    in
    match go () with
    | Ok () -> `Ok ()
    | Error m -> `Error (false, m)
    | exception Metrics_io.Malformed m -> `Error (false, "malformed snapshot: " ^ m)
    | exception Wire.Decoder.Malformed m -> `Error (false, "malformed trace: " ^ m)
    | exception Sys_error m -> `Error (false, m)
    | exception Failure m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Recompute wire metrics offline from a saved trace; optionally audit a snapshot")
    Term.(ret (const run $ file $ json_out $ check))

(* ---------- render ---------- *)

let render_cmd =
  let store = store_arg Stores.all ~default:"mvr" in
  let ops = Arg.(value & opt int 8 & info [ "ops" ] ~doc:"Number of client operations") in
  let n = replicas_term in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed") in
  let what =
    Arg.(
      value
      & opt (enum [ ("witness", `Witness); ("execution", `Execution) ]) `Witness
      & info [ "what" ] ~doc:"Render the witness abstract execution or the raw execution")
  in
  let run (store : Stores.entry) n ops seed what =
    let (module S : Store.Store_intf.S) = store.store in
    let module R = Sim.Runner.Make (S) in
    let rng = Util.Rng.create seed in
    let sim = R.create ~seed ~n ~policy:(Sim.Net_policy.random_delay ()) () in
    let steps = Sim.Workload.generate ~rng ~n ~objects:2 ~ops store.mix in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    or_divergence (fun () -> R.run_until_quiescent sim);
    let dot =
      match what with
      | `Witness ->
        Viz.Render.abstract_to_dot ~title:(S.name ^ " witness") (R.witness_abstract sim)
      | `Execution -> Viz.Render.execution_to_dot ~title:S.name (R.execution sim)
    in
    print_string dot
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Emit a graphviz dot drawing of a simulated run")
    Term.(const run $ store $ n $ ops $ seed $ what)

(* ---------- json-check: validate benchmark/metrics artifacts ---------- *)

let json_check_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JSON file to check")
  in
  let require =
    Arg.(
      value & opt_all string []
      & info [ "require" ] ~docv:"KEY"
          ~doc:
            "Fail unless the top-level object contains this key (repeatable). For a \
             metrics JSONL stream, keys are metric names checked in every snapshot.")
  in
  let min_r2 =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-r2" ] ~docv:"R"
          ~doc:
            "Fail when a --require'd bench row has an OLS r_square below R (other \
             rows still only warn). Without this flag a low fit is advisory.")
  in
  let against =
    Arg.(
      value
      & opt (some file) None
      & info [ "against" ] ~docv:"BASE"
          ~doc:
            "Baseline bench JSON to diff against: every --require'd row present in \
             both files must not regress its ns_per_run by more than --max-regression. \
             Rows absent from the baseline are skipped.")
  in
  let max_regression =
    Arg.(
      value & opt float 0.25
      & info [ "max-regression" ] ~docv:"F"
          ~doc:"Allowed fractional ns_per_run slowdown vs --against (default 0.25)")
  in
  let read_file p =
    let ic = open_in_bin p in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let num_entry fields key field =
    match List.assoc_opt key fields with
    | Some (Json.Obj entry) -> (
      match List.assoc_opt field entry with Some (Json.Num v) -> Some v | _ -> None)
    | _ -> None
  in
  let run path require min_r2 against max_regression =
    let s = read_file path in
    match Json.of_string s with
    | exception Json.Parse_error m -> (
      (* not a single JSON document — maybe a metrics snapshot stream
         (JSONL, one object per line, as written by chaos --metrics):
         required keys are then metric names, checked in every snapshot *)
      match Metrics_io.snapshots_of_jsonl s with
      | exception _ -> `Error (false, Printf.sprintf "%s: %s" path m)
      | [] -> `Error (false, Printf.sprintf "%s: no metrics snapshots" path)
      | snaps ->
        let missing =
          List.filter
            (fun k ->
              not (List.for_all (fun sn -> Metrics_io.find sn k <> None) snaps))
            require
        in
        if missing <> [] then
          `Error
            ( false,
              Printf.sprintf "%s: missing metrics: %s" path
                (String.concat ", " missing) )
        else begin
          Format.printf "%s: valid metrics JSONL, %d snapshots@." path
            (List.length snaps);
          `Ok ()
        end)
    | Json.Obj fields ->
      let missing = List.filter (fun k -> not (List.mem_assoc k fields)) require in
      if missing <> [] then
        `Error
          (false, Printf.sprintf "%s: missing keys: %s" path (String.concat ", " missing))
      else begin
        (* a low r-square means the OLS fit behind a bench row is noise;
           warn (the numbers are advisory) unless --min-r2 holds a
           required row to a floor *)
        let errors = ref [] in
        let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
        List.iter
          (fun (key, v) ->
            match v with
            | Json.Obj entry -> (
              match List.assoc_opt "r_square" entry with
              | Some (Json.Num r) -> (
                match min_r2 with
                | Some floor when List.mem key require && r < floor ->
                  fail "%s: r_square %.2f < required %.2f" key r floor
                | _ ->
                  if r < 0.7 then
                    Format.eprintf
                      "warning: %s: %s has r_square %.2f < 0.7 (noisy fit)@." path key r)
              | _ -> ())
            | _ -> ())
          fields;
        (match against with
        | None -> ()
        | Some base_path -> (
          match Json.of_string (read_file base_path) with
          | exception Json.Parse_error m ->
            fail "baseline %s: %s" base_path m
          | Json.Obj base ->
            (* the gate only bites on rows both files measure: a freshly
               added bench has no baseline and must not fail the build *)
            List.iter
              (fun key ->
                match
                  (num_entry fields key "ns_per_run", num_entry base key "ns_per_run")
                with
                | Some now, Some was when now > was *. (1.0 +. max_regression) ->
                  fail "%s: ns_per_run %.1f is %.0f%% over baseline %.1f (limit +%.0f%%)"
                    key now
                    ((now /. was -. 1.0) *. 100.0)
                    was (max_regression *. 100.0)
                | Some now, Some was ->
                  Format.printf "  %s: %.1f ns vs baseline %.1f ns (%+.0f%%)@." key now
                    was
                    ((now /. was -. 1.0) *. 100.0)
                | _, None ->
                  Format.printf "  %s: not in baseline %s, skipped@." key base_path
                | None, _ -> ())
              require
          | _ -> fail "baseline %s: not a JSON object" base_path));
        match List.rev !errors with
        | [] ->
          Format.printf "%s: valid JSON object, %d entries@." path (List.length fields);
          `Ok ()
        | errs -> `Error (false, Printf.sprintf "%s: %s" path (String.concat "; " errs))
      end
    | _ -> `Error (false, Printf.sprintf "%s: not a JSON object" path)
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:"Parse a JSON artifact (e.g. BENCH_results.json) and verify required keys")
    Term.(ret (const run $ path $ require $ min_r2 $ against $ max_regression))

(* ---------- trace: span-level visibility-lag attribution ---------- *)

let trace_store (e : Stores.entry) ~config ~adversarial ~churn ~seed ~n ~objects ~ops
    ~policy ~why ~export ~out ~time_scale ~slowest =
  let (module S : Store.Store_intf.S) = e.store in
  let module C = Sim.Chaos.Make (S) in
  let o =
    C.run ~n ~objects ~ops ~spec_of:(fun _ -> e.spec) ~mix:e.mix ~policy ?require:e.level
      ~adversarial ~churn ~config ~seed ()
  in
  let traced = Lazy.force o.Sim.Chaos.spans in
  let log = traced.Sim.Chaos.log in
  let exec = o.Sim.Chaos.exec in
  let tracks = Model.Execution.n_replicas exec in
  Format.printf "trace: store=%s seed=%d replicas=%d objects=%d ops=%d%s%s@."
    S.name seed n objects o.Sim.Chaos.ops
    (if adversarial then " adversarial" else "")
    (if churn then " churn" else "");
  (* one pass: count the kinds (op, transmit, flight, visible, bootstrap,
     repair round) and keep the visible spans with their breakdowns *)
  let counts = Array.make 6 0 and visibles_rev = ref [] in
  Obs.Span.Log.iter log (fun s ->
      let k =
        match s with
        | Obs.Span.Op _ -> 0
        | Obs.Span.Transmit _ -> 1
        | Obs.Span.Flight _ -> 2
        | Obs.Span.Visible v ->
          visibles_rev := (v, Obs.Span.breakdown v) :: !visibles_rev;
          3
        | Obs.Span.Bootstrap _ -> 4
        | Obs.Span.Repair_round _ -> 5
      in
      counts.(k) <- counts.(k) + 1);
  Format.printf
    "spans: %d (ops=%d transmits=%d flights=%d visible=%d bootstraps=%d \
     repair-rounds=%d)@."
    (Obs.Span.Log.length log) counts.(0) counts.(1) counts.(2) counts.(3) counts.(4)
    counts.(5);
  let visibles = List.rev !visibles_rev in
  (match why with
  | Some op ->
    let rows = List.filter (fun (v, _) -> v.Obs.Span.v_op = op) visibles in
    if rows = [] then
      Format.printf "op %d: no remote observation (never witnessed off-origin)@." op
    else begin
      let v0, _ = List.hd rows in
      Format.printf "@.why op %d (issued at R%d on object %d, t=%.2f):@." op
        v0.Obs.Span.v_origin v0.Obs.Span.v_obj v0.Obs.Span.issue_at;
      Format.printf "  %-8s %8s %8s %8s %8s %8s %8s  %s@." "observer" "total" "encode"
        "network" "repair" "dep" "boot" "path";
      List.iter
        (fun (v, b) ->
          Format.printf "  R%-7d %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f  %s@."
            v.Obs.Span.v_observer b.Obs.Span.total b.Obs.Span.encode_wait
            b.Obs.Span.network b.Obs.Span.repair_wait b.Obs.Span.dep_wait
            b.Obs.Span.bootstrap_refusal
            (if v.Obs.Span.direct then "direct" else "repair"))
        rows
    end
  | None ->
    let obs = List.length visibles in
    if obs > 0 then begin
      let sum f = List.fold_left (fun acc (_, b) -> acc +. f b) 0.0 visibles in
      let grand = sum (fun b -> b.Obs.Span.total) in
      Format.printf "@.lag attribution over %d delivered observations (sim time):@." obs;
      Format.printf "  %-18s %10s %7s %8s@." "component" "total" "share" "mean";
      let row name f =
        let t = sum f in
        Format.printf "  %-18s %10.2f %6.1f%% %8.3f@." name t
          (if grand > 0.0 then 100.0 *. t /. grand else 0.0)
          (t /. float_of_int obs)
      in
      row "encode_wait" (fun b -> b.Obs.Span.encode_wait);
      row "network" (fun b -> b.Obs.Span.network);
      row "repair_wait" (fun b -> b.Obs.Span.repair_wait);
      row "dep_wait" (fun b -> b.Obs.Span.dep_wait);
      row "bootstrap_refusal" (fun b -> b.Obs.Span.bootstrap_refusal);
      row "total" (fun b -> b.Obs.Span.total);
      (* the cross-check that makes the table trustworthy: every observed
         total is the value the span-recording replay fed its
         visibility.lag histogram, so the float sums must agree
         bit-for-bit *)
      (let h = traced.Sim.Chaos.lag in
       let hsum = Metrics.Histogram.sum h in
       if Metrics.Histogram.count h = obs && hsum = grand then
         Format.printf
           "components sum to the measured lag histogram: sum=%.2f over %d \
            observations (exact)@."
           grand obs
       else
         Format.printf
           "WARNING: span totals (%.4f over %d) disagree with visibility.lag \
            (%.4f over %d)@."
           grand obs hsum (Metrics.Histogram.count h));
      let by_total =
        List.sort
          (fun (_, a) (_, b) -> compare b.Obs.Span.total a.Obs.Span.total)
          visibles
      in
      Format.printf "@.slowest observations (use --why OP for the full story):@.";
      List.iteri
        (fun i (v, b) ->
          if i < slowest then
            Format.printf
              "  op %-4d at R%-3d total=%-8.2f encode=%.2f network=%.2f repair=%.2f \
               dep=%.2f boot=%.2f via %s@."
              v.Obs.Span.v_op v.Obs.Span.v_observer b.Obs.Span.total
              b.Obs.Span.encode_wait b.Obs.Span.network b.Obs.Span.repair_wait
              b.Obs.Span.dep_wait b.Obs.Span.bootstrap_refusal
              (if v.Obs.Span.direct then "direct" else "repair"))
        by_total
    end
    else Format.printf "no delivered observations (no update became remotely visible)@.");
  (match export with
  | None -> ()
  | Some `Chrome ->
    let path = match out with Some p -> p | None -> "trace.chrome.json" in
    Obs.Trace_export.save_chrome ~time_scale ~n:tracks path (Obs.Span.Log.to_list log);
    Format.printf "@.Chrome trace (load in Perfetto or chrome://tracing) written to %s@."
      path
  | Some `Jsonl ->
    let path = match out with Some p -> p | None -> "trace.spans.jsonl" in
    Obs.Trace_export.save
      ~meta:
        [
          ("store", Json.Str S.name);
          ("seed", Json.Num (float_of_int seed));
          ("replicas", Json.Num (float_of_int n));
        ]
      path (Obs.Span.Log.to_list log);
    Format.printf "@.span stream (JSONL) written to %s@." path);
  `Ok ()

let trace_cmd =
  let store = store_arg Stores.checked ~default:"causal" in
  let net = Arg.(value & opt net_conv Reorder & info [ "net" ] ~doc:"Base network: fifo|reorder|lossy|partition") in
  let n = replicas_term in
  let objects = objects_term 2 in
  let ops = Arg.(value & opt int 40 & info [ "ops" ] ~doc:"Client operations") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed (one run)") in
  let adversarial_arg =
    Arg.(value & flag & info [ "adversarial" ] ~doc:"Adversarial network faults")
  in
  let churn_arg =
    Arg.(value & flag & info [ "churn" ] ~doc:"Dynamic membership (joins and leaves)")
  in
  let why =
    Arg.(
      value
      & opt (some int) None
      & info [ "why" ] ~docv:"OP"
          ~doc:
            "Explain one op: a lag-component row per observing replica, components \
             summing exactly to its measured Definition 17 visibility lag")
  in
  let export =
    Arg.(
      value
      & opt (some (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ])) None
      & info [ "export" ] ~docv:"FMT"
          ~doc:
            "Write the span stream: 'chrome' (trace-event JSON, loads in Perfetto) or \
             'jsonl' (a header line, then one JSON object per span)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Export target (default trace.chrome.json / trace.spans.jsonl)")
  in
  let time_scale =
    Arg.(
      value & opt float 1000.0
      & info [ "time-scale" ]
          ~doc:"Chrome export: microseconds per sim-time unit (default 1000 = 1ms)")
  in
  let slowest =
    Arg.(value & opt int 5 & info [ "slowest" ] ~doc:"Slowest observations to list")
  in
  let run config store net n objects ops seed adversarial churn why export out
      time_scale slowest =
    trace_store store ~config ~adversarial ~churn ~seed
      ~n ~objects ~ops ~policy:(policy_of net) ~why ~export ~out ~time_scale ~slowest
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one seeded chaos schedule with lifecycle span tracing and attribute \
          every sim-time unit of visibility lag to encode/network/repair/dep/bootstrap")
    Term.(
      ret
        (const run $ config_term $ store $ net $ n $ objects $ ops $ seed
        $ adversarial_arg $ churn_arg $ why $ export $ out $ time_scale $ slowest))

(* ---------- serve: live cluster on OCaml 5 domains ---------- *)

let serve_store (e : Stores.entry) ~cfg ~capture_path ~check ~metrics_path =
  let (module S : Store.Store_intf.S) = e.store in
  let chaos_active =
    cfg.Live.Cluster.faults <> None || cfg.Live.Cluster.drop_p > 0.0
  in
  let res =
    try
      (* any fault flag selects the durable stack: crash windows need a
         WAL to recover from, and a chaos run should measure the
         chaos-ready configuration *)
      if chaos_active then
        let module St = Sim.Stack.Durable (S) in
        let module C = Live.Cluster.Make (St) in
        Ok (C.run cfg)
      else
        let module St = Sim.Stack.Volatile (S) in
        let module C = Live.Cluster.Make (St) in
        Ok (C.run cfg)
    with Invalid_argument msg -> Error msg
  in
  match res with
  | Error msg -> `Error (false, msg)
  | Ok res ->
    let open Live.Cluster in
    Format.printf "live store=%s replicas=%d duration=%.2fs rate=%s batch=%d@."
      S.name res.cfg.replicas res.cfg.duration
      (if res.cfg.rate > 0.0 then Printf.sprintf "%.0f/s/replica" res.cfg.rate
       else "saturation")
      res.cfg.batch;
    Format.printf
      "ops=%d (%.0f ops/s aggregate over %.3fs) issued=%d updates=%d converged=%b \
       (drain %.3fs)@."
      res.total_ops res.ops_per_sec res.elapsed res.total_issued res.total_updates
      res.converged res.drain_elapsed;
    let p50, p95, p99 = Metrics.Histogram.percentiles res.lag_ms in
    Format.printf "visibility lag ms: p50=%.3f p95=%.3f p99=%.3f max=%.3f (n=%d)@." p50
      p95 p99
      (Metrics.Histogram.max_value res.lag_ms)
      (Metrics.Histogram.count res.lag_ms);
    Format.printf
      "frames=%d payload=%dB wire=%dB payload/update=%.1fB queue-peak=%d \
       pending-peak=%dB log-peak=%d@."
      res.frames res.payload_bytes res.wire_bytes
      (if res.total_updates > 0 then
         float_of_int res.payload_bytes /. float_of_int res.total_updates
       else 0.0)
      res.queue_depth_peak res.pending_bytes_peak res.log_entries_peak;
    (* stall rate per destination push: each frame is offered to n-1 rings *)
    let pushes = res.frames * max 1 (res.cfg.replicas - 1) in
    let worst = ref None in
    Array.iteri
      (fun src (r : replica_stats) ->
        if
          r.stalls > 0
          && match !worst with None -> true | Some (_, w) -> r.stalls > w
        then worst := Some (src, r.stalls))
      res.per_replica;
    Format.printf "ring stalls=%d (%.4f per frame push)%s@." res.stalls
      (if pushes > 0 then float_of_int res.stalls /. float_of_int pushes else 0.0)
      (match !worst with
      | Some (src, v) -> Printf.sprintf ", worst producer R%d (%d)" src v
      | None -> "");
    if chaos_active then begin
      (match res.fault_totals with
      | Some t ->
        Format.printf
          "chaos: drops=%d delays=%d dups=%d corrupts=%d crash-lost=%d+%d \
           rejected=%d crashes=%d@."
          t.Live.Faults.drops t.Live.Faults.delays t.Live.Faults.dups
          t.Live.Faults.corrupts t.Live.Faults.crash_lost
          (Array.fold_left (fun a (r : replica_stats) -> a + r.crash_lost) 0
             res.per_replica)
          res.frames_rejected res.crashes
      | None -> ());
      let rp50, rp95, rp99 = Metrics.Histogram.percentiles res.recovery_ms in
      Format.printf "availability=%.2f%% recovery ms: p50=%.0f p95=%.0f p99=%.0f (n=%d)@."
        (100.0 *. res.availability) rp50 rp95 rp99
        (Metrics.Histogram.count res.recovery_ms);
      Format.printf "outcome: %s@."
        (match res.outcome with
        | Healed { degraded_settled } ->
          if degraded_settled then "healed (settled degraded first)" else "healed"
        | Diverged why -> "DIVERGED — " ^ why)
    end;
    Array.iteri
      (fun i (r : replica_stats) ->
        Format.printf
          "  R%-3d ops=%-8d reads=%-8d updates=%-8d sent=%-6d recv=%-6d stalls=%d%s@."
          i r.ops r.reads r.updates r.frames_sent r.frames_recv r.stalls
          (if r.crashes > 0 || r.frames_rejected > 0 then
             Printf.sprintf " crashes=%d rejected=%d lost=%d" r.crashes
               r.frames_rejected r.crash_lost
           else ""))
      res.per_replica;
    (match metrics_path with
    | Some path ->
      let meta =
        [
          ("kind", Json.Str "live");
          ("store", Json.Str S.name);
          ("replicas", Json.Num (float_of_int res.cfg.replicas));
          ("seed", Json.Num (float_of_int res.cfg.seed));
          ("chaos", Json.Bool chaos_active);
        ]
      in
      (try
         Metrics_io.save path (Metrics_io.snapshot ~meta res.registry);
         Format.printf "metrics snapshot written to %s@." path
       with Sys_error e -> Format.printf "metrics write failed: %s@." e)
    | None -> ());
    (match (capture_path, res.trace) with
    | Some path, Some exec ->
      Model.Trace_io.save path exec;
      Format.printf "captured trace (%d events) written to %s@."
        (Model.Execution.length exec) path
    | Some _, None -> ()
    | None, _ -> ());
    if not check then `Ok ()
    else
      match (res.trace, res.witness) with
      | Some exec, Some wit ->
        let t0 = Unix.gettimeofday () in
        let report = Sim.Checks.validate ~spec_of:(fun _ -> e.spec) exec wit in
        let check_s = Unix.gettimeofday () -. t0 in
        let shown = function Ok () -> "ok" | Error e -> "FAILED: " ^ e in
        let verdicts =
          [ ("well-formed", shown report.Sim.Checks.well_formed);
            ("complies", shown report.Sim.Checks.complies);
            ("correct", shown report.Sim.Checks.correct);
            ("causal", shown report.Sim.Checks.causal);
            ( "occ",
              match report.Sim.Checks.occ with
              | Sim.Checks.Occ_violated e -> "FAILED: " ^ e
              | occ -> Sim.Checks.occ_text occ );
            ("eventual", shown report.Sim.Checks.eventual);
          ]
        in
        (* the level's checks, except eventual: a live run's convergence
           is gated by [res.converged] below *)
        let required_names =
          List.filter (( <> ) "eventual") (Sim.Chaos.required (Option.get e.level))
        in
        (* every verdict is printed; only the required ones gate the exit
           code, and a required OCC that does not apply fails it *)
        List.iter
          (fun (name, text) ->
            Format.printf "  %s: %s%s@." name text
              (if List.mem name required_names then "" else " (not required)"))
          verdicts;
        let failed =
          List.filter_map
            (fun (name, e) -> if List.mem name required_names then Some (name ^ ": " ^ e) else None)
            (Sim.Checks.failures report)
        in
        if res.total_ops = 0 then checks_failed "live check: no operations executed"
        else if not res.converged then
          checks_failed
            (match res.outcome with
            | Diverged why -> "live check: " ^ why
            | Healed _ -> assert false)
        else if failed <> [] then
          checks_failed ("live check failed\n  " ^ String.concat "\n  " failed)
        else begin
          (* the witness is its first-visibility table: one word per
             (event, replica) *)
          let events = Spec.Abstract.length wit and replicas = Spec.Abstract.n_replicas wit in
          Format.printf
            "checkers: %s clean on the captured live trace (%d do events audited in \
             %.3fs; witness table %d events x %d replicas, %.1f KiB)@."
            (String.concat ", " required_names)
            events check_s events replicas
            (float_of_int (events * replicas * (Sys.word_size / 8)) /. 1024.0);
          `Ok ()
        end
      | _ -> `Error (false, "live check: run produced no captured trace")

(* fault-spec parsers: windows are fractions of the load phase (1.0 =
   load-phase end; values past 1.0 reach into the drain) *)

let parse_frac_window s =
  match String.split_on_char '-' s with
  | [ f; u ] -> (
    match (float_of_string_opt f, float_of_string_opt u) with
    | Some f, Some u when f >= 0.0 && u > f && Float.is_finite u -> Some (f, u)
    | _ -> None)
  | _ -> None

let crash_spec_conv =
  let parse s =
    let err =
      `Msg
        (Printf.sprintf
           "invalid crash spec %S, expected R:FROM-UNTIL (fractions of the load \
            phase, e.g. 1:0.35-0.5)"
           s)
    in
    match String.index_opt s ':' with
    | None -> Error err
    | Some i -> (
      let r = String.sub s 0 i in
      let w = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt r, parse_frac_window w) with
      | Some r, Some (f, u) when r >= 0 -> Ok (r, f, u)
      | _ -> Error err)
  in
  let print ppf (r, f, u) = Format.fprintf ppf "%d:%g-%g" r f u in
  Arg.conv ~docv:"R:FROM-UNTIL" (parse, print)

let partition_spec_conv =
  let parse s =
    let err =
      `Msg
        (Printf.sprintf
           "invalid partition spec %S, expected A/B:FROM-UNTIL with comma-separated \
            replica groups (e.g. 0,1/2,3:0.3-0.6)"
           s)
    in
    let group g =
      let ids = List.map int_of_string_opt (String.split_on_char ',' g) in
      if List.exists (function None -> true | Some r -> r < 0) ids || ids = [] then
        None
      else Some (List.filter_map Fun.id ids)
    in
    match String.index_opt s ':' with
    | None -> Error err
    | Some i -> (
      let groups = String.sub s 0 i in
      let w = String.sub s (i + 1) (String.length s - i - 1) in
      match (String.split_on_char '/' groups, parse_frac_window w) with
      | [ a; b ], Some (f, u) -> (
        match (group a, group b) with
        | Some a, Some b -> Ok (a, b, f, u)
        | _ -> Error err)
      | _ -> Error err)
  in
  let print ppf (a, b, f, u) =
    let ids g = String.concat "," (List.map string_of_int g) in
    Format.fprintf ppf "%s/%s:%g-%g" (ids a) (ids b) f u
  in
  Arg.conv ~docv:"A/B:FROM-UNTIL" (parse, print)

(* merge the chaos draw (authored against horizon 1.0 = one load phase)
   with the explicit crash/partition windows, validate, then map fractions
   onto wall seconds. The merged horizon is the latest window end, so
   explicit specs are never compressed. *)
let build_live_plan ~seed ~n ~duration ~chaos ~adversarial ~crashes ~partitions =
  if (not chaos) && crashes = [] && partitions = [] then Ok None
  else
    try
      let base =
        if chaos then
          Sim.Fault_plan.random
            (Util.Rng.create (seed + 0xC4A05))
            ~n ~horizon:1.0 ~adversarial ()
        else Sim.Fault_plan.none
      in
      let crash_windows =
        List.map
          (fun (r, f, u) -> { Sim.Fault_plan.replica = r; at = f; recover_at = u })
          crashes
      in
      let part_links =
        List.concat_map
          (fun (a, b, f, u) ->
            Sim.Fault_plan.partition_links ~a ~b ~from_:f ~until:u)
          partitions
      in
      let horizon =
        List.fold_left
          (fun h (_, _, u) -> Float.max h u)
          (List.fold_left
             (fun h (_, _, _, u) -> Float.max h u)
             (Float.max 1.0 base.Sim.Fault_plan.horizon)
             partitions)
          crashes
      in
      let plan =
        Sim.Fault_plan.make
          ~crashes:(base.Sim.Fault_plan.crashes @ crash_windows)
          ~links:(base.Sim.Fault_plan.links @ part_links)
          ?corruption:base.Sim.Fault_plan.corruption ?dup:base.Sim.Fault_plan.dup
          ?reorder:base.Sim.Fault_plan.reorder ~dead:base.Sim.Fault_plan.dead ~n
          ~horizon ()
      in
      Ok (Some (Sim.Fault_plan.scaled plan ~factor:duration))
    with Invalid_argument msg -> Error msg

let serve_cmd =
  let store = store_arg Stores.checked ~default:"causal" in
  let n = Arg.(value & opt int 2 & info [ "replicas"; "n" ] ~doc:"Replica domains") in
  let duration =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~doc:"Load-phase wall seconds")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"OPS"
          ~doc:
            "Per-replica target ops/s; 0 = closed-loop saturation. Use a bounded rate \
             with --capture/--check (capture retains every event in memory).")
  in
  let objects = Arg.(value & opt int 64 & info [ "objects" ] ~doc:"Number of objects") in
  let zipf =
    Arg.(
      value & opt float 0.0
      & info [ "zipf" ] ~docv:"THETA" ~doc:"Key-skew theta (0 = uniform)")
  in
  let read_pct =
    Arg.(
      value & opt int 50
      & info [ "read-pct" ] ~docv:"PCT"
          ~doc:"Percentage of reads in the mix (ignored for orset)")
  in
  let batch = Arg.(value & opt int 8 & info [ "batch" ] ~doc:"Client ops per flush") in
  let gossip_ms =
    Arg.(
      value & opt float 1.0
      & info [ "gossip-ms" ] ~doc:"Wall milliseconds between anti-entropy ticks")
  in
  let ring =
    Arg.(
      value & opt int 1024
      & info [ "ring" ] ~doc:"Per-link SPSC ring capacity (rounded up to a power of 2)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Run seed") in
  let capture_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "capture" ] ~docv:"FILE"
          ~doc:"Record the live execution and save it as a replayable trace")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Capture the run and audit it with the same checkers that audit \
             simulations. Every verdict is printed, OCC and eventual included; \
             non-zero exit on a violation of a check the store's class requires")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos"; "faults" ]
          ~doc:
            "Draw a random fault plan (same generator as the chaos command, mapped \
             onto the load phase) and run under it; composes with --crash, \
             --partition and --drop")
  in
  let adversarial_arg =
    Arg.(
      value & flag
      & info [ "adversarial" ]
          ~doc:
            "With --chaos: also draw duplication, reordering and dead-link faults")
  in
  let crash_arg =
    Arg.(
      value
      & opt_all crash_spec_conv []
      & info [ "crash" ] ~docv:"R:FROM-UNTIL"
          ~doc:
            "Crash replica $(i,R) at FROM and restart it (recovering from its durable image) \
             at UNTIL, both fractions of the load phase (may exceed 1.0 into the \
             drain). Repeatable.")
  in
  let partition_arg =
    Arg.(
      value
      & opt_all partition_spec_conv []
      & info [ "partition" ] ~docv:"A/B:FROM-UNTIL"
          ~doc:
            "Fully partition replica groups $(i,A) and $(i,B) (comma-separated ids) \
             over the window, fractions of the load phase. Repeatable.")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:
            "Uniform per-delivery drop probability on every link for the whole run, \
             in [0,1); anti-entropy must repair the losses")
  in
  let heal_by_arg =
    Arg.(
      value & opt float 0.0
      & info [ "heal-by" ] ~docv:"SECONDS"
          ~doc:
            "Post-heal full-set convergence deadline in wall seconds (0 = automatic); \
             the run diverges if the full member set has not settled this long after \
             the last fault heals")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Append the run's metrics registry snapshot to $(i,FILE) as JSONL")
  in
  let run config store n duration rate objects zipf read_pct batch gossip_ms ring seed
      capture_path check chaos adversarial crashes partitions drop_p heal_by
      metrics_path =
    match build_live_plan ~seed ~n ~duration ~chaos ~adversarial ~crashes ~partitions
    with
    | Error msg -> `Error (false, msg)
    | Ok faults ->
      (* a register store takes --read-pct; a set store runs its own mix *)
      let mix =
        if store.Stores.mix.write_w > 0 then Live.Load.mix_of_read_pct read_pct
        else store.mix
      in
      let cfg =
        {
          Live.Cluster.replicas = n;
          seed;
          objects;
          mix;
          zipf;
          duration;
          rate;
          batch;
          gossip_interval = gossip_ms /. 1000.0;
          ring_capacity = ring;
          capture = check || capture_path <> None;
          faults;
          drop_p;
          heal_by;
          stack = config;
        }
      in
      serve_store store ~cfg ~capture_path ~check ~metrics_path
  in
  Cmd.v
    (Cmd.info "serve" ~exits:checks_failed_exits
       ~doc:
         "Run a live cluster: one OCaml domain per replica, sealed wire frames over \
          lock-free rings, a closed-loop load generator, optional fault injection \
          (--chaos, --crash, --partition, --drop), and optionally a captured trace \
          audited by the simulation checkers")
    Term.(
      ret
        (const run $ config_term $ store $ n $ duration $ rate $ objects $ zipf
        $ read_pct $ batch $ gossip_ms $ ring $ seed $ capture_arg $ check_arg
        $ chaos_arg $ adversarial_arg $ crash_arg $ partition_arg $ drop_arg
        $ heal_by_arg $ metrics_arg))

let main =
  let doc = "Limitations of highly-available eventually-consistent data stores, executable" in
  Cmd.group
    (Cmd.info "haec_cli" ~version:Haec.version ~doc)
    [
      list_cmd;
      experiment_cmd;
      simulate_cmd;
      chaos_cmd;
      theorem12_cmd;
      theorem6_cmd;
      render_cmd;
      replay_cmd;
      metrics_cmd;
      json_check_cmd;
      trace_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval main)
