(* Prints one experiment table, run on 2 domains so the parallel sweep
   path is what the golden files record: render.exe E6 *)

let () =
  Haec.Util.Par.set_default_domains 2;
  match Haec_experiments.Registry.find Sys.argv.(1) with
  | Some e -> e.Haec_experiments.Registry.run Format.std_formatter
  | None ->
    prerr_endline ("unknown experiment " ^ Sys.argv.(1));
    exit 2
