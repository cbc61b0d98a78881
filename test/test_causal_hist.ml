(* The polynomial bad-pattern checker for register histories, including
   cross-validation against the exhaustive search. *)

open Helpers
open Haec
module CH = Consistency.Causal_hist
module Op = Model.Op
module Sc = Sim.Scenario

let is_consistent = function CH.Consistent -> true | CH.Violation _ | CH.Unsupported _ -> false

let violation = function CH.Violation _ -> true | CH.Consistent | CH.Unsupported _ -> false

(* rd1: a register read returning exactly one value *)
let rd1 r obj v = rd_ r obj [ v ]

let test_consistent_history () =
  let v =
    CH.check_events ~n:2 [ w_ 0 0 1; rd1 1 0 1; w_ 1 0 2; rd1 0 0 2 ]
  in
  Alcotest.(check bool) "consistent" true (is_consistent v)

let test_thin_air () =
  match CH.check_events ~n:2 [ w_ 0 0 1; rd1 1 0 99 ] with
  | CH.Violation (CH.Thin_air_read { read = 1 }) -> ()
  | v -> Alcotest.failf "expected thin-air, got %a" CH.pp_verdict v

let test_write_co_init_read () =
  (* the replica wrote, then read the initial value: session order forces
     the write to be visible *)
  match CH.check_events ~n:1 [ w_ 0 0 1; rd_ 0 0 [] ] with
  | CH.Violation (CH.Write_co_init_read { read = 1; write = 0 }) -> ()
  | v -> Alcotest.failf "expected write-co-init-read, got %a" CH.pp_verdict v

let test_write_co_read () =
  (* R0: w1; R1 reads w1 then writes w2; R0 then reads... w1 again after
     reading w2 — the stale read violates causality *)
  let events =
    [
      w_ 0 0 1;    (* 0: w1 *)
      rd1 1 0 1;   (* 1: R1 sees w1 *)
      w_ 1 0 2;    (* 2: w2 (causally after w1) *)
      rd1 0 0 2;   (* 3: R0 sees w2 *)
      rd1 0 0 1;   (* 4: then reads stale w1 *)
    ]
  in
  match CH.check_events ~n:2 events with
  | CH.Violation (CH.Write_co_read { read = 4; overwritten = 0; overwriting = 2 }) -> ()
  | v -> Alcotest.failf "expected write-co-read, got %a" CH.pp_verdict v

let test_cyclic_co () =
  (* two reads that each observe the other session's later write *)
  let events =
    [
      rd1 0 0 2;  (* 0: R0 reads w2 before it exists in its causal past *)
      w_ 0 1 1;   (* 1: w1 *)
      rd1 1 1 1;  (* 2: R1 reads w1 *)
      w_ 1 0 2;   (* 3: w2 *)
    ]
  in
  match CH.check_events ~n:2 events with
  | CH.Violation (CH.Cyclic_co _) -> ()
  | v -> Alcotest.failf "expected cyclic-co, got %a" CH.pp_verdict v

let test_unsupported () =
  (match CH.check_events ~n:2 [ w_ 0 0 1; rd_ 1 0 [ 1; 2 ] ] with
  | CH.Unsupported _ -> ()
  | v -> Alcotest.failf "expected unsupported (multi-value), got %a" CH.pp_verdict v);
  match CH.check_events ~n:2 [ w_ 0 0 7; w_ 1 0 7 ] with
  | CH.Unsupported _ -> ()
  | v -> Alcotest.failf "expected unsupported (dup values), got %a" CH.pp_verdict v

(* ---------- against real stores ---------- *)

let test_lww_reorder_anomaly_detected () =
  (* the LWW store under reordered delivery produces a stale read that the
     checker flags *)
  let steps =
    Sc.
      [
        op 0 ~obj:0 (write 1);
        send 0 "m1";
        deliver "m1" ~to_:1;
        op 1 ~obj:0 read;
        (* reads 1 *)
        op 1 ~obj:0 (write 2);
        send 1 "m2";
        (* R2 receives only w2... then reads, then receives w1 late and
           re-reads: LWW keeps 2 (ts order), fine. To force the anomaly,
           query a replica that has only w1 *after* another replica already
           exposed w2 to it... the stale read is at R2: sees w2 then w1 *)
        deliver "m2" ~to_:2;
        op 2 ~obj:0 read;
        (* reads 2 *)
        deliver "m1" ~to_:2;
        op 2 ~obj:0 read;
        (* still 2: fine *)
        op 2 ~obj:1 read;
      ]
  in
  let r = Sc.run (module Store.Lww_store) ~n:3 steps in
  (* this particular run is fine: LWW's timestamp order matches co here *)
  Alcotest.(check bool) "clean run consistent" true (is_consistent (CH.check r.Sc.execution));
  (* now the adversarial one: R1's write loses the timestamp race, and a
     reader that saw the winner regresses to the loser *)
  let steps =
    Sc.
      [
        op 0 ~obj:1 (write 300);
        (* bump R0's clock *)
        op 0 ~obj:0 (write 1);
        (* ts 2: the winner *)
        send 0 "m1";
        op 1 ~obj:0 (write 2);
        (* ts 1: the loser *)
        send 1 "m2";
        deliver "m1" ~to_:2;
        op 2 ~obj:0 read;
        (* reads 1 (winner) *)
        deliver "m2" ~to_:2;
        op 2 ~obj:0 read;
        (* still 1: LWW keeps the winner — consistent *)
        op 1 ~obj:0 read;
        (* R1 still reads its own 2 *)
      ]
  in
  let r = Sc.run (module Store.Lww_store) ~n:3 steps in
  Alcotest.(check bool) "no false alarm" true (is_consistent (CH.check r.Sc.execution))

let test_detects_eager_causality_violation () =
  (* the classic: R1 writes x after seeing y; R2 applies x without y *)
  let steps =
    Sc.
      [
        op 0 ~obj:1 (write 100);
        send 0 "m_y";
        deliver "m_y" ~to_:1;
        op 1 ~obj:1 read;
        (* R1 observed y=100 *)
        op 1 ~obj:0 (write 1);
        send 1 "m_x";
        deliver "m_x" ~to_:2;
        op 2 ~obj:0 read;
        (* sees x=1 *)
        op 2 ~obj:1 read;
        (* but y is empty: causality violated *)
      ]
  in
  let r = Sc.run (module Store.Lww_store) ~n:3 steps in
  (match CH.check r.Sc.execution with
  | CH.Violation (CH.Write_co_init_read _) -> ()
  | v -> Alcotest.failf "expected write-co-init-read, got %a" CH.pp_verdict v);
  (* the causal register store never triggers it: x is buffered *)
  let r = Sc.run (module Store.Causal_reg_store) ~n:3 steps in
  match CH.check r.Sc.execution with
  | CH.Unsupported _ | CH.Violation _ ->
    Alcotest.fail "causal store must be clean"
  | CH.Consistent -> ()

let test_causal_store_random_always_clean () =
  let module R = Sim.Runner.Make (Store.Causal_reg_store) in
  for seed = 1 to 10 do
    let rng = Rng.create seed in
    let sim = R.create ~seed ~n:3 ~policy:(Sim.Net_policy.lossy ()) () in
    let steps = Sim.Workload.generate ~rng ~n:3 ~objects:3 ~ops:60 Sim.Workload.register_mix in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    match CH.check (R.execution sim) with
    | CH.Consistent -> ()
    | v -> Alcotest.failf "seed %d: %a" seed CH.pp_verdict v
  done

let test_cross_validate_with_search () =
  (* on small histories, the polynomial checker and the exhaustive search
     must agree (register spec) *)
  let reg_spec _ = Specf.rw_register in
  let check_both ~n events =
    let poly = is_consistent (CH.check_events ~n events) in
    let target = Search.target_of_events ~n events in
    let search =
      match Search.search ~spec_of:reg_spec target with
      | Search.Found _ -> true
      | Search.No_solution -> false
      | Search.Gave_up -> poly (* inconclusive: don't fail *)
    in
    Alcotest.(check bool)
      (Printf.sprintf "poly(%b) agrees with search" poly)
      search poly
  in
  check_both ~n:2 [ w_ 0 0 1; rd1 1 0 1; w_ 1 0 2; rd1 0 0 2 ];
  check_both ~n:1 [ w_ 0 0 1; rd_ 0 0 [] ];
  check_both ~n:2 [ w_ 0 0 1; rd1 1 0 1; w_ 1 0 2; rd1 0 0 2; rd1 0 0 1 ];
  check_both ~n:3 [ w_ 0 1 100; w_ 0 0 1; rd1 2 0 1; rd_ 2 1 [] ];
  check_both ~n:2 [ w_ 0 0 1; w_ 1 0 2; rd1 0 0 2; rd1 1 0 1 ]

let test_cc_vs_ccv () =
  (* concurrent writes read in opposite orders: plain causal consistency
     allows it, causal convergence (one arbitration order, the paper's
     register framework) does not *)
  let events = [ w_ 0 0 1; w_ 1 0 2; rd1 0 0 2; rd1 1 0 1 ] in
  (match CH.check_events ~model:`Cc ~n:2 events with
  | CH.Consistent -> ()
  | v -> Alcotest.failf "CC should accept, got %a" CH.pp_verdict v);
  match CH.check_events ~model:`Ccv ~n:2 events with
  | CH.Violation (CH.Cyclic_cf _) -> ()
  | v -> Alcotest.failf "CCv should reject with cyclic-cf, got %a" CH.pp_verdict v

let prop_cross_validation_random =
  (* small random register histories: poly CCv verdict == exhaustive search
     verdict under the register spec *)
  q ~count:60 "random cross-validation vs search"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 2 in
      let len = 3 + Rng.int rng 3 in
      let counter = ref 0 in
      let rec gen i acc =
        if i >= len then List.rev acc
        else
          let replica = Rng.int rng n in
          let obj = Rng.int rng 2 in
          let d =
            if Rng.bool rng then begin
              incr counter;
              w_ replica obj !counter
            end
            else if Rng.bool rng && !counter > 0 then
              rd1 replica obj (1 + Rng.int rng !counter)
            else rd_ replica obj []
          in
          gen (i + 1) (d :: acc)
      in
      let events = gen 0 [] in
      match CH.check_events ~n events with
      | CH.Unsupported _ -> true
      | CH.Violation (CH.Thin_air_read _) -> true (* search agrees trivially *)
      | verdict -> (
        let target = Search.target_of_events ~n events in
        match Search.search ~spec_of:(fun _ -> Specf.rw_register) target with
        | Search.Found _ -> verdict = CH.Consistent
        | Search.No_solution -> violation verdict
        | Search.Gave_up -> true))

(* The frozen list-based checker that preceded the bit-parallel one, kept
   verbatim as its oracle (see the equivalence properties below). Do not
   optimize it. *)
module Reference = struct
  open Model
  open CH
  module Bitset = Util.Bitset

  exception Bad of verdict

  let check_events_reference ?(model = `Ccv) ~n events =
    let evs = Array.of_list events in
    let len = Array.length evs in
    try
      (* map values to their unique writers *)
      let writer : (int * Value.t, int) Hashtbl.t = Hashtbl.create 32 in
      Array.iteri
        (fun i (d : Event.do_event) ->
          match d.Event.op with
          | Op.Write v | Op.Add v ->
            if Hashtbl.mem writer (d.Event.obj, v) then
              raise (Bad (Unsupported (Format.asprintf "duplicated write value %a" Value.pp v)));
            Hashtbl.replace writer (d.Event.obj, v) i
          | Op.Read | Op.Remove _ -> ())
        evs;
      (* reads-from, derived from responses *)
      let rf = Array.make len None in
      Array.iteri
        (fun i (d : Event.do_event) ->
          if Op.is_read d.Event.op then
            match d.Event.rval with
            | Op.Ok -> raise (Bad (Unsupported "read returned ok"))
            | Op.Vals [] -> ()
            | Op.Vals [ v ] -> (
              match Hashtbl.find_opt writer (d.Event.obj, v) with
              | Some w -> rf.(i) <- Some w
              | None -> raise (Bad (Violation (Thin_air_read { read = i }))))
            | Op.Vals _ ->
              raise (Bad (Unsupported "multi-value read (MVR history): use Search instead")))
        evs;
      (* co = transitive closure of session order + reads-from *)
      let succs = Array.make len [] in
      let last_at = Hashtbl.create 8 in
      Array.iteri
        (fun i (d : Event.do_event) ->
          (match Hashtbl.find_opt last_at d.Event.replica with
          | Some j -> succs.(j) <- i :: succs.(j)
          | None -> ());
          Hashtbl.replace last_at d.Event.replica i;
          match rf.(i) with Some w -> succs.(w) <- i :: succs.(w) | None -> ())
        evs;
      (* forward reachability per node; cycle iff node reaches itself *)
      let reach = Array.init len (fun _ -> Bitset.create (max len 1)) in
      (* process in reverse topological attempt: repeated passes until fixpoint
         (len is modest; simple worklist) *)
      let changed = ref true in
      while !changed do
        changed := false;
        for i = len - 1 downto 0 do
          List.iter
            (fun j ->
              let before = Bitset.cardinal reach.(i) in
              Bitset.set reach.(i) j;
              Bitset.union_into ~dst:reach.(i) reach.(j);
              if Bitset.cardinal reach.(i) <> before then changed := true)
            succs.(i)
        done
      done;
      for i = 0 to len - 1 do
        if Bitset.get reach.(i) i then raise (Bad (Violation (Cyclic_co { witness = i })))
      done;
      let co i j = Bitset.get reach.(i) j in
      (* bad patterns over reads *)
      Array.iteri
        (fun r (d : Event.do_event) ->
          if Op.is_read d.Event.op then
            match rf.(r) with
            | None ->
              (* reads initial value: no same-object write may causally precede *)
              for w = 0 to len - 1 do
                let dw = evs.(w) in
                if dw.Event.obj = d.Event.obj && Op.is_update dw.Event.op && co w r then
                  raise (Bad (Violation (Write_co_init_read { read = r; write = w })))
              done
            | Some w1 ->
              (* the write read from must not be causally overwritten *)
              for w2 = 0 to len - 1 do
                let dw2 = evs.(w2) in
                if
                  w2 <> w1
                  && dw2.Event.obj = d.Event.obj
                  && Op.is_update dw2.Event.op
                  && co w1 w2 && co w2 r
                then
                  raise
                    (Bad (Violation (Write_co_read { read = r; overwritten = w1; overwriting = w2 })))
              done)
        evs;
      (* causal convergence: the conflict order cf forced by reads --
         w1 -> w2 when a read of w2 has w1 in its causal past -- must embed,
         together with co, into one total order: co ∪ cf acyclic *)
      if model = `Ccv then begin
        let cf_succs = Array.make len [] in
        Array.iteri
          (fun r (d : Event.do_event) ->
            match rf.(r) with
            | Some w2 ->
              for w1 = 0 to len - 1 do
                let d1 = evs.(w1) in
                if
                  w1 <> w2
                  && d1.Event.obj = d.Event.obj
                  && Op.is_update d1.Event.op && co w1 r
                then cf_succs.(w1) <- w2 :: cf_succs.(w1)
              done
            | None -> ())
          evs;
        let reach2 = Array.init len (fun i -> Bitset.copy reach.(i)) in
        let changed = ref true in
        while !changed do
          changed := false;
          for i = len - 1 downto 0 do
            List.iter
              (fun j ->
                let before = Bitset.cardinal reach2.(i) in
                Bitset.set reach2.(i) j;
                Bitset.union_into ~dst:reach2.(i) reach2.(j);
                if Bitset.cardinal reach2.(i) <> before then changed := true)
              (succs.(i) @ cf_succs.(i))
          done
        done;
        for i = 0 to len - 1 do
          if Bitset.get reach2.(i) i then raise (Bad (Violation (Cyclic_cf { witness = i })))
        done
      end;
      ignore n;
      Consistent
    with Bad v -> v
end

let prop_bitset_matches_reference =
  (* oracle: the bit-parallel checker returns the exact verdict (witness
     indices included) of the frozen list-based implementation, under both
     models, on random register histories *)
  q ~count:120 "bit-parallel checker == reference"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 3 in
      let len = 3 + Rng.int rng 18 in
      let counter = ref 0 in
      let rec gen i acc =
        if i >= len then List.rev acc
        else
          let replica = Rng.int rng n in
          let obj = Rng.int rng 3 in
          let d =
            if Rng.bool rng then begin
              incr counter;
              w_ replica obj !counter
            end
            else if Rng.bool rng && !counter > 0 then
              rd1 replica obj (1 + Rng.int rng !counter)
            else rd_ replica obj []
          in
          gen (i + 1) (d :: acc)
      in
      let events = gen 0 [] in
      List.for_all
        (fun model ->
          CH.check_events ~model ~n events = Reference.check_events_reference ~model ~n events)
        [ `Cc; `Ccv ])

let test_bitset_matches_reference_on_store_runs () =
  (* the same oracle on real store histories (150-op runs like the E15
     sweep), including the anomaly-producing lww store *)
  let check (module S : Store.Store_intf.S) seed =
    let module R = Sim.Runner.Make (S) in
    let rng = Rng.create seed in
    let sim = R.create ~seed ~n:4 ~policy:(Sim.Net_policy.random_delay ()) () in
    let steps =
      Sim.Workload.generate ~rng ~n:4 ~objects:4 ~ops:150 Sim.Workload.register_mix
    in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    let exec = R.execution sim in
    let events = List.map snd (Model.Execution.do_events exec) in
    let n = Model.Execution.n_replicas exec in
    List.iter
      (fun model ->
        let fast = CH.check_events ~model ~n events in
        let slow = Reference.check_events_reference ~model ~n events in
        if fast <> slow then
          Alcotest.failf "%s seed %d: fast %a but reference %a" S.name seed CH.pp_verdict
            fast CH.pp_verdict slow)
      [ `Cc; `Ccv ]
  in
  for seed = 1 to 6 do
    check (module Store.Lww_store) seed;
    check (module Store.Causal_reg_store) seed
  done

let test_cross_object_arbitration_regression () =
  (* Regression: per-object Lamport clocks let a causal chain through a
     second object contradict the per-object arbitration order — a cyclic
     conflict order. The hand-built history below exhibits the cycle
     A -> D (session), D -> C (arbitration), C -> B (session),
     B -> A (arbitration): *)
  let events =
    [
      w_ 0 0 1;    (* 0: A = write(x,1) at R0 *)
      w_ 0 1 3;    (* 1: D = write(y,3) at R0, session-after A *)
      w_ 1 1 4;    (* 2: C = write(y,4) at R1 *)
      w_ 1 0 2;    (* 3: B = write(x,2) at R1, session-after C *)
      rd1 1 0 1;   (* 4: R1 reads x -> A although B co-precedes: cf B -> A *)
      rd1 0 1 4;   (* 5: R0 reads y -> C although D co-precedes: cf D -> C *)
    ]
  in
  (match CH.check_events ~n:2 events with
  | CH.Violation (CH.Cyclic_cf _) -> ()
  | v -> Alcotest.failf "expected cyclic-cf, got %a" CH.pp_verdict v);
  (* the fixed causal register store (delivery-layer witnessed clock) must
     never produce such a history: replay the schedule shape and check *)
  let steps =
    Sc.
      [
        op 2 ~obj:0 (write 99);
        send 2 "m0";
        deliver "m0" ~to_:0;
        (* R0's clock witnesses an x-write before its own *)
        op 0 ~obj:0 (write 1);
        send 0 "mA";
        op 0 ~obj:1 (write 3);
        send 0 "mD";
        op 1 ~obj:1 (write 4);
        send 1 "mC";
        op 1 ~obj:0 (write 2);
        send 1 "mB";
        deliver "mA" ~to_:1;
        op 1 ~obj:0 read;
        deliver "mC" ~to_:0;
        op 0 ~obj:1 read;
      ]
  in
  let r = Sc.run (module Store.Causal_reg_store) ~n:3 steps in
  match CH.check r.Sc.execution with
  | CH.Consistent -> ()
  | v -> Alcotest.failf "fixed store still inconsistent: %a" CH.pp_verdict v

let suite =
  ( "causal-hist",
    [
      tc "cc vs ccv distinction" test_cc_vs_ccv;
      tc "cross-object arbitration cycle (regression)" test_cross_object_arbitration_regression;
      prop_cross_validation_random;
      prop_bitset_matches_reference;
      tc "bit-parallel == reference on store runs" test_bitset_matches_reference_on_store_runs;
      tc "consistent history accepted" test_consistent_history;
      tc "thin-air read" test_thin_air;
      tc "write-co-init-read" test_write_co_init_read;
      tc "write-co-read (stale read)" test_write_co_read;
      tc "cyclic co" test_cyclic_co;
      tc "unsupported histories" test_unsupported;
      tc "lww runs: no false alarms" test_lww_reorder_anomaly_detected;
      tc "eager causality violation detected" test_detects_eager_causality_violation;
      tc "causal register store always clean" test_causal_store_random_always_clean;
      tc "cross-validation with exhaustive search" test_cross_validate_with_search;
    ] )
