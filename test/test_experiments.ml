(* The experiment registry's shape. The tables themselves are checked
   exactly: test/golden/dune diffs every deterministic experiment's output
   against test/golden/E<i>.expected. *)

open Helpers
module Registry = Haec_experiments.Registry

let test_registry_complete () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check (list string)) "all experiments present"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16"; "E17"; "E18"; "E19"; "E20"; "E21"; "E22"; "E23"; "E25"; "E26" ]
    ids;
  Alcotest.(check bool) "lookup case-insensitive" true (Registry.find "e6" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "E99" = None)

let suite = ("experiments", [ tc "registry complete" test_registry_complete ])
