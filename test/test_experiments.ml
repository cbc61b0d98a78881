(* The experiment registry's shape. The tables themselves are checked
   exactly: test/golden/dune diffs every deterministic experiment's output
   against test/golden/E<i>.expected. *)

open Helpers
module Registry = Haec_experiments.Registry
module Stores = Haec_experiments.Stores

let test_registry_complete () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check (list string)) "all experiments present"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16"; "E17"; "E18"; "E19"; "E20"; "E21"; "E22"; "E23"; "E25"; "E26" ]
    ids;
  Alcotest.(check bool) "lookup case-insensitive" true (Registry.find "e6" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "E99" = None)

(* The store catalogue behind haec_cli's --store and the chaos
   experiments: one entry per flag, and the stores with a check level are
   the seven E18 runs, at the levels it has always run them at. *)
let test_store_catalogue () =
  let flags = List.map (fun e -> e.Stores.flag) Stores.all in
  Alcotest.(check int) "flags unique" (List.length flags)
    (List.length (List.sort_uniq compare flags));
  let level = function
    | `Converge -> "converge"
    | `Correct -> "correct"
    | `Causal -> "causal"
    | `Occ -> "occ"
  in
  let checked = List.map (fun e -> (e.Stores.flag, Option.map level e.level)) Stores.checked in
  Alcotest.(check (list (pair string (option string))))
    "checked entries and their levels"
    [
      ("mvr", Some "correct");
      ("causal", Some "causal");
      ("cops", Some "causal");
      ("state", Some "correct");
      ("orset", Some "correct");
      ("lww", Some "converge");
      ("gossip", Some "correct");
    ]
    checked;
  Alcotest.(check (list string)) "E18 runs exactly the checked entries"
    (List.map fst checked)
    (List.map snd Haec_experiments.E18_fault_recovery.stores)

let suite =
  ( "experiments",
    [
      tc "registry complete" test_registry_complete;
      tc "store catalogue" test_store_catalogue;
    ] )
