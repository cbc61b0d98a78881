(* End-to-end benchmark of the replica stack.

     dune exec bench/e2e/haec_bench.exe -- --workload W --seed N --seconds S --trace 0|1

   runs from the repository root. See bench/e2e/README.md for the
   workloads, the metrics and how to read them. *)

open Haec_e2e

let usage =
  "haec_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--record] \
   [--write-fixture]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let smoke = ref false and record = ref false and write_fixture = ref false in
  let child = ref "" and slice = ref 0.0 and rep = ref 0 and mode = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
        "W live-saturate|live-chaos|audit|sim-chaos (default: all four)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default 20)");
      ("--trace", Arg.Set_int trace,
        "0|1 1 = report per-layer metrics from a traced repetition (default 0)");
      ("--smoke", Arg.Set smoke, " toy sizes, for tests");
      ("--record", Arg.Set record, " append the results to bench/e2e/history.jsonl");
      ("--write-fixture", Arg.Set write_fixture, " regenerate the audit fixture and exit");
      ("--child", Arg.Set_string child, "W (internal) run one repetition");
      ("--slice", Arg.Set_float slice, "S (internal) repetition length");
      ("--rep", Arg.Set_int rep, "I (internal) repetition index");
      ("--mode", Arg.Set_string mode, "M (internal) warm|timed|traced");
    ]
  in
  let fail msg =
    prerr_endline ("haec_bench: " ^ msg);
    exit 2
  in
  Arg.parse spec (fun a -> fail ("unexpected argument " ^ a)) usage;
  if !write_fixture then
    Printf.printf "wrote %s and %s, digest %s\n"
      (Workloads.Fixture.trace_file ())
      (Workloads.Fixture.vis_file ())
      (Workloads.Fixture.write ())
  else if !child <> "" then begin
    let r =
      match (Workloads.of_name !child, Bench.mode_of_name !mode) with
      | Some w, Some m -> (
        let sz = { Workloads.slice = !slice; smoke = !smoke } in
        try Workloads.run_rep w ~seed:!seed sz ~rep:!rep m
        with e ->
          { Workloads.ok = false; why = Printexc.to_string e; attempted = 0;
            measure_start_ns = 0; inner_setup_s = 0.0; e2e = []; layer = [] })
      | _ -> fail "bad child request"
    in
    Harness.reply r
  end
  else begin
    if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
    if not (!seconds >= 1.0 && !seconds <= 600.0) then fail "--seconds must be in [1, 600]";
    let workloads =
      if !workload = "" then Workloads.all
      else
        match Workloads.of_name !workload with
        | Some w -> [ w ]
        | None -> fail ("unknown workload " ^ !workload)
    in
    List.iter
      (fun w ->
        let r =
          Bench.run_workload ~prog:Sys.executable_name w ~seed:!seed ~seconds:!seconds
            ~trace:(!trace = 1) ~smoke:!smoke
        in
        Bench.print_human r ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
        if !record then Bench.record r ~seed:!seed ~seconds:!seconds;
        print_endline (Bench.result_line r);
        flush stdout)
      workloads
  end
