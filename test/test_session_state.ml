(* Session guarantees checker + the state-based MVR store. *)

open Helpers
open Haec
module Session = Consistency.Session
module Mvr_object = Store.Mvr_object
module Op = Model.Op
module A = Abstract

(* ---------- session guarantees on hand-built abstract executions ---------- *)

let test_causal_implies_all () =
  let a =
    A.create ~n:2
      [| w_ 0 0 1; w_ 0 1 2; rd_ 1 0 [ 1 ]; rd_ 1 1 [ 2 ] |]
      ~vis:[ (0, 2); (1, 2); (0, 3); (1, 3) ]
  in
  let r = Session.check a in
  Alcotest.(check bool) "all hold" true (Session.all_hold r);
  Alcotest.(check int) "four guarantees" 4 (List.length (Session.holding r))

let test_monotonic_writes_violation () =
  (* R0 issues w1 then w2; somewhere w2 is visible without w1 *)
  let a =
    A.create ~n:2 [| w_ 0 0 1; w_ 0 1 2; rd_ 1 1 [ 2 ] |] ~vis:[ (1, 2) ]
  in
  let r = Session.check a in
  Alcotest.(check bool) "mw broken" true (r.Session.monotonic_writes <> Ok ());
  Alcotest.(check bool) "ryw intact" true (r.Session.read_your_writes = Ok ())

let test_wfr_violation () =
  (* R1 writes w2 after observing w1; a third party sees w2 without w1 *)
  let a =
    A.create ~n:3 [| w_ 0 0 1; w_ 1 1 2; rd_ 2 1 [ 2 ] |] ~vis:[ (0, 1); (1, 2) ]
  in
  let r = Session.check a in
  Alcotest.(check bool) "wfr broken" true (r.Session.writes_follow_reads <> Ok ());
  Alcotest.(check (list string)) "others hold"
    [ "read-your-writes"; "monotonic-reads"; "monotonic-writes" ]
    (Session.holding r)

let test_ryw_violation_impossible_in_valid_ae () =
  (* Definition 4 bakes read-your-writes into every abstract execution *)
  let a = A.create ~n:1 [| w_ 0 0 1; rd_ 0 0 [ 1 ] |] ~vis:[] in
  Alcotest.(check bool) "ryw structural" true ((Session.check a).Session.read_your_writes = Ok ())

let prop_bitset_matches_reference =
  (* oracle: the subset-test implementation must return exactly the report
     (witness messages included) of the frozen quantifier-literal scan, on
     random abstract executions with arbitrary forward visibility *)
  q ~count:150 "session check == reference"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 3 in
      let len = 2 + Rng.int rng 10 in
      let events =
        Array.init len (fun _ ->
            let replica = Rng.int rng n in
            let obj = Rng.int rng 2 in
            if Rng.bool rng then w_ replica obj (Rng.int rng 50) else rd_ replica obj [])
      in
      let vis = ref [] in
      for j = 1 to len - 1 do
        for i = 0 to j - 1 do
          if Rng.int rng 4 = 0 then vis := (i, j) :: !vis
        done
      done;
      let a = A.create_unchecked ~n events ~vis:!vis in
      Session.check a = Session.check_reference a)

let test_bitset_matches_reference_on_witnesses () =
  (* the same oracle on real witness abstract executions from simulator
     runs, where the guarantees mostly hold (the fast path's common case) *)
  let module R = Sim.Runner.Make (Store.Causal_mvr_store) in
  for seed = 1 to 5 do
    let rng = Rng.create seed in
    let sim = R.create ~seed ~n:3 ~policy:(Sim.Net_policy.lossy ()) () in
    let steps =
      Sim.Workload.generate ~rng ~n:3 ~objects:3 ~ops:60 Sim.Workload.register_mix
    in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    let w = R.witness_abstract sim in
    if Session.check w <> Session.check_reference w then
      Alcotest.failf "seed %d: fast and reference session reports differ" seed
  done

(* ---------- state-based store ---------- *)

module RS = Sim.Runner.Make (Store.State_mvr_store)

let test_state_store_converges () =
  let sim = RS.create ~n:3 ~policy:(Sim.Net_policy.lossy ()) () in
  ignore (RS.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  ignore (RS.op sim ~replica:1 ~obj:0 (Op.Write (vi 2)));
  ignore (RS.op sim ~replica:2 ~obj:1 (Op.Write (vi 3)));
  RS.run_until_quiescent sim;
  let r0 = RS.op sim ~replica:0 ~obj:0 Op.Read in
  Alcotest.check check_response "siblings" (resp [ 1; 2 ]) r0;
  for r = 1 to 2 do
    Alcotest.check check_response "agree" r0 (RS.op sim ~replica:r ~obj:0 Op.Read)
  done

let test_state_store_causal_by_construction () =
  (* the reordering schedule that breaks the eager store: state messages
     carry causally closed content, so no anomaly is observable *)
  let sim = RS.create ~n:3 ~auto_send:false () in
  ignore (RS.op sim ~replica:0 ~obj:1 (Op.Write (vi 100)));
  let _m_y = Option.get (RS.flush sim ~replica:0) in
  ignore (RS.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  let m_x = Option.get (RS.flush sim ~replica:0) in
  (* only the second (later) state message arrives: it contains both *)
  RS.deliver_msg sim ~dst:2 m_x;
  Alcotest.check check_response "x there" (resp [ 1 ]) (RS.op sim ~replica:2 ~obj:0 Op.Read);
  Alcotest.check check_response "its cause too" (resp [ 100 ])
    (RS.op sim ~replica:2 ~obj:1 Op.Read);
  let closed = A.transitive_closure (RS.witness_abstract sim) in
  Alcotest.(check bool) "causally consistent" true (Specf.is_correct ~spec_of:mvr_spec closed)

let test_state_message_grows () =
  let size_after_objects k =
    let sim = RS.create ~n:2 ~auto_send:false () in
    for obj = 0 to k - 1 do
      ignore (RS.op sim ~replica:0 ~obj (Op.Write (vi obj)))
    done;
    Model.Message.size_bits (Option.get (RS.flush sim ~replica:0))
  in
  Alcotest.(check bool) "grows with objects" true (size_after_objects 2 < size_after_objects 20)

(* ---------- Mvr_object.join laws ---------- *)

let join_states_of_seed seed =
  let rng = Rng.create seed in
  (* three replicas make writes with partial knowledge, producing three
     divergent object states *)
  let sts = Array.init 3 (fun _ -> Mvr_object.empty ~n:3) in
  for i = 1 to 6 do
    let me = Rng.int rng 3 in
    (* occasionally pull in another replica's state *)
    let other = Rng.int rng 3 in
    if Rng.bool rng then sts.(me) <- Mvr_object.join sts.(me) sts.(other);
    let st, _ = Mvr_object.local_write sts.(me) ~me (vi (100 + i)) in
    sts.(me) <- st
  done;
  (sts.(0), sts.(1), sts.(2))

let normal st = List.sort compare (Mvr_object.read st)

let prop_join_laws =
  q ~count:150 "mvr join: commutative, associative, idempotent"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let a, b, c = join_states_of_seed seed in
      let ( <+> ) = Mvr_object.join in
      normal (a <+> b) = normal (b <+> a)
      && normal ((a <+> b) <+> c) = normal (a <+> (b <+> c))
      && normal (a <+> a) = normal a
      && normal ((a <+> b) <+> b) = normal (a <+> b))

let prop_join_agrees_with_updates =
  (* merging via full-state join gives the same read as applying all
     update records *)
  q ~count:100 "mvr join agrees with op-based delivery"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let st = ref (Mvr_object.empty ~n:2) in
      let updates = ref [] in
      for i = 1 to 5 do
        let s, u = Mvr_object.local_write !st ~me:0 (vi i) in
        st := s;
        updates := u :: !updates
      done;
      let other = ref (Mvr_object.empty ~n:2) in
      List.iter
        (fun u -> if Rng.bool rng then other := Mvr_object.apply !other u)
        (List.rev !updates);
      let via_join = normal (Mvr_object.join !other !st) in
      let via_ops =
        normal (List.fold_left Mvr_object.apply !other (List.rev !updates))
      in
      via_join = via_ops)

let test_state_roundtrip () =
  let a, _, _ = join_states_of_seed 7 in
  List.iter
    (fun wire ->
      let a' =
        Haec.Wire.decode
          (Haec.Wire.encode (fun e -> Mvr_object.encode ~wire e a))
          Mvr_object.decode
      in
      Alcotest.(check bool) "wire roundtrip preserves reads" true (normal a = normal a'))
    [ Haec.Wire.Version.V1; Haec.Wire.Version.V2 ]

let suite =
  ( "session+state",
    [
      tc "causal implies all four guarantees" test_causal_implies_all;
      tc "monotonic-writes violation detected" test_monotonic_writes_violation;
      tc "writes-follow-reads violation detected" test_wfr_violation;
      tc "read-your-writes structural" test_ryw_violation_impossible_in_valid_ae;
      prop_bitset_matches_reference;
      tc "session fast == reference on witnesses" test_bitset_matches_reference_on_witnesses;
      tc "state store converges" test_state_store_converges;
      tc "state store causal by construction" test_state_store_causal_by_construction;
      tc "state message grows with objects" test_state_message_grows;
      prop_join_laws;
      prop_join_agrees_with_updates;
      tc "state wire roundtrip" test_state_roundtrip;
    ] )
