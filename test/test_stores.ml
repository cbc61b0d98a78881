open Helpers
open Haec.Store
module Op = Haec.Model.Op

(* Drive stores directly through the state-machine interface, with manual
   message plumbing — no simulator. *)

module Direct (S : Store_intf.S) = struct
  let do_op st ~obj op =
    let st, rval, _w = S.do_op st ~obj op in
    (st, rval)

  let read st obj = snd (do_op st ~obj Op.Read)

  let write st obj v =
    let st, rval = do_op st ~obj (Op.Write (vi v)) in
    Alcotest.check check_response "write ok" Op.Ok rval;
    st

  let drain st =
    (* flush the pending message, if any *)
    if S.has_pending st then S.send st else (st, "")
end

module M = Direct (Mvr_store)
module C = Direct (Causal_mvr_store)
module L = Direct (Lww_store)

(* ---------- MVR store ---------- *)

let test_mvr_local () =
  let st = Mvr_store.init ~n:2 ~me:0 in
  Alcotest.check check_response "initially empty" (resp []) (M.read st 0);
  let st = M.write st 0 1 in
  Alcotest.check check_response "read own write" (resp [ 1 ]) (M.read st 0);
  let st = M.write st 0 2 in
  Alcotest.check check_response "overwrite" (resp [ 2 ]) (M.read st 0);
  Alcotest.check check_response "other object untouched" (resp []) (M.read st 1)

let test_mvr_concurrent_siblings () =
  let a = Mvr_store.init ~n:2 ~me:0 and b = Mvr_store.init ~n:2 ~me:1 in
  let a = M.write a 0 1 and b = M.write b 0 2 in
  let a, ma = M.drain a and b, mb = M.drain b in
  let a = Mvr_store.receive a ~sender:1 mb in
  let b = Mvr_store.receive b ~sender:0 ma in
  Alcotest.check check_response "a sees both" (resp [ 1; 2 ]) (M.read a 0);
  Alcotest.check check_response "b sees both" (resp [ 1; 2 ]) (M.read b 0)

let test_mvr_domination_after_merge () =
  let a = Mvr_store.init ~n:2 ~me:0 and b = Mvr_store.init ~n:2 ~me:1 in
  let a = M.write a 0 1 in
  let a, ma = M.drain a in
  let b = Mvr_store.receive b ~sender:0 ma in
  (* b saw a's write, so b's write dominates it *)
  let b = M.write b 0 2 in
  let b, mb = M.drain b in
  let a = Mvr_store.receive a ~sender:1 mb in
  Alcotest.check check_response "dominated sibling dropped" (resp [ 2 ]) (M.read a 0);
  Alcotest.check check_response "writer agrees" (resp [ 2 ]) (M.read b 0)

let test_mvr_idempotent_receive () =
  let a = Mvr_store.init ~n:2 ~me:0 and b = Mvr_store.init ~n:2 ~me:1 in
  let a = M.write a 0 1 in
  let _, ma = M.drain a in
  let b = Mvr_store.receive b ~sender:0 ma in
  let b = Mvr_store.receive b ~sender:0 ma in
  let b = Mvr_store.receive b ~sender:0 ma in
  Alcotest.check check_response "duplicates ignored" (resp [ 1 ]) (M.read b 0)

let test_mvr_transitive_domination_reordered () =
  (* w1 -> w3 (dominating, after seeing w1); a third replica receives w3
     first and w1 late: w1 must stay dead *)
  let a = Mvr_store.init ~n:3 ~me:0 and b = Mvr_store.init ~n:3 ~me:1 in
  let c = Mvr_store.init ~n:3 ~me:2 in
  let a = M.write a 0 1 in
  let _, m1 = M.drain a in
  let b = Mvr_store.receive b ~sender:0 m1 in
  let b = M.write b 0 3 in
  let _, m3 = M.drain b in
  let c = Mvr_store.receive c ~sender:1 m3 in
  Alcotest.check check_response "w3 visible" (resp [ 3 ]) (M.read c 0);
  let c = Mvr_store.receive c ~sender:0 m1 in
  Alcotest.check check_response "stale w1 stays dead" (resp [ 3 ]) (M.read c 0)

let test_mvr_invisible_reads () =
  Alcotest.(check bool) "flag" true Mvr_store.invisible_reads;
  let st = Mvr_store.init ~n:2 ~me:0 in
  let st = M.write st 0 1 in
  let st1, _, _ = Mvr_store.do_op st ~obj:0 Op.Read in
  (* reading again gives the same result and pending state is unchanged *)
  Alcotest.(check bool) "pending unchanged" (Mvr_store.has_pending st)
    (Mvr_store.has_pending st1);
  Alcotest.check check_response "same read" (M.read st 0) (M.read st1 0)

let test_mvr_op_driven () =
  Alcotest.(check bool) "flag" true Mvr_store.op_driven;
  let a = Mvr_store.init ~n:2 ~me:0 in
  Alcotest.(check bool) "no pending initially" false (Mvr_store.has_pending a);
  let a' = M.write a 0 1 in
  Alcotest.(check bool) "pending after write" true (Mvr_store.has_pending a');
  let _, ma = M.drain a' in
  let b = Mvr_store.init ~n:2 ~me:1 in
  let b = Mvr_store.receive b ~sender:0 ma in
  Alcotest.(check bool) "no pending after receive" false (Mvr_store.has_pending b)

let test_mvr_send_requires_pending () =
  let st = Mvr_store.init ~n:2 ~me:0 in
  match Mvr_store.send st with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "send with nothing pending must fail"

let test_mvr_rejects_set_ops () =
  let st = Mvr_store.init ~n:2 ~me:0 in
  match Mvr_store.do_op st ~obj:0 (Op.Add (vi 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* ---------- causal store ---------- *)

let test_causal_buffers_until_deps () =
  (* R0: w_y; w_x. R2 receives the x-message first: it must be buffered
     only if it causally depends on y's — here both updates travel in
     separate messages, the second depending on the first. *)
  let a = Causal_mvr_store.init ~n:3 ~me:0 in
  let a = C.write a 1 100 in
  let a, m_y = C.drain a in
  let a = C.write a 0 1 in
  let _, m_x = C.drain a in
  let c = Causal_mvr_store.init ~n:3 ~me:2 in
  let c = Causal_mvr_store.receive c ~sender:0 m_x in
  (* x depends on y per the update vector, so neither is applied yet *)
  Alcotest.check check_response "x buffered" (resp []) (C.read c 0);
  let c = Causal_mvr_store.receive c ~sender:0 m_y in
  Alcotest.check check_response "x applied after y" (resp [ 1 ]) (C.read c 0);
  Alcotest.check check_response "y applied" (resp [ 100 ]) (C.read c 1)

let test_causal_cross_replica_deps () =
  (* R1 writes after seeing R0's write; R2 gets R1's message first *)
  let a = Causal_mvr_store.init ~n:3 ~me:0 in
  let a = C.write a 0 1 in
  let _, m0 = C.drain a in
  let b = Causal_mvr_store.init ~n:3 ~me:1 in
  let b = Causal_mvr_store.receive b ~sender:0 m0 in
  let b = C.write b 1 2 in
  let _, m1 = C.drain b in
  let c = Causal_mvr_store.init ~n:3 ~me:2 in
  let c = Causal_mvr_store.receive c ~sender:1 m1 in
  Alcotest.check check_response "buffered until cause arrives" (resp []) (C.read c 1);
  let c = Causal_mvr_store.receive c ~sender:0 m0 in
  Alcotest.check check_response "cause applied" (resp [ 1 ]) (C.read c 0);
  Alcotest.check check_response "effect applied" (resp [ 2 ]) (C.read c 1)

let test_causal_duplicate_and_reorder () =
  let a = Causal_mvr_store.init ~n:2 ~me:0 in
  let a = C.write a 0 1 in
  let a, m1 = C.drain a in
  let a = C.write a 0 2 in
  let _, m2 = C.drain a in
  let b = Causal_mvr_store.init ~n:2 ~me:1 in
  let b = Causal_mvr_store.receive b ~sender:0 m2 in
  let b = Causal_mvr_store.receive b ~sender:0 m2 in
  Alcotest.check check_response "out of order buffered" (resp []) (C.read b 0);
  let b = Causal_mvr_store.receive b ~sender:0 m1 in
  let b = Causal_mvr_store.receive b ~sender:0 m1 in
  Alcotest.check check_response "converged to last write" (resp [ 2 ]) (C.read b 0)

(* A payload that repeats one (origin, useq) record buffers it once: the
   state, [buffered] and the counters equal the one-copy payload's, both
   while the records wait on a missing dependency and after it lands. *)
let test_causal_duplicate_in_one_batch () =
  let module Core =
    Causal_core.Make
      (Object_layer.Mvr)
      (struct
        let name = "causal-duplicate"

        include Causal_core.Immediate
      end)
  in
  let write st v =
    let st, _, _ = Core.do_op st ~obj:0 (Op.Write (vi v)) in
    st
  in
  let a, first = Core.send (write (Core.init ~n:2 ~me:0) 1) in
  let _, rest = Core.send (write (write a 2) 3) in
  let r2, r3 =
    match Haec.Wire.decode rest Core.decode_batch with
    | [ r2; r3 ] -> (r2, r3)
    | _ -> Alcotest.fail "expected a two-record batch"
  in
  let batch records = Haec.Wire.encode (fun enc -> Core.encode_batch enc records) in
  let b = Core.init ~n:2 ~me:1 in
  let once = Core.receive b ~sender:0 (batch [ r2; r3 ]) in
  let twice = Core.receive b ~sender:0 (batch [ r2; r2; r3 ]) in
  let same what (x : Core.state) (y : Core.state) =
    Alcotest.(check int) (what ^ ": buffered") x.buffered y.buffered;
    Alcotest.(check (triple int int int))
      (what ^ ": counters")
      (x.counters.scans, x.counters.delivered, x.counters.max_buffer)
      (y.counters.scans, y.counters.delivered, y.counters.max_buffer);
    Alcotest.(check bool) (what ^ ": state") true (x = y)
  in
  Alcotest.(check int) "both records wait on the first" 2 once.buffered;
  same "buffered" once twice;
  let once = Core.receive once ~sender:0 first and twice = Core.receive twice ~sender:0 first in
  Alcotest.(check int) "all delivered" 0 once.buffered;
  same "delivered" once twice

(* ---------- LWW store ---------- *)

let test_lww_total_order () =
  let a = Lww_store.init ~n:2 ~me:0 and b = Lww_store.init ~n:2 ~me:1 in
  let a = L.write a 0 1 and b = L.write b 0 2 in
  let _, ma = L.drain a and _, mb = L.drain b in
  let a2 = Lww_store.receive (L.write (Lww_store.init ~n:2 ~me:0) 0 1) ~sender:1 mb in
  ignore a2;
  (* both replicas converge on the same single value *)
  let a = Lww_store.receive (fst (L.drain (L.write (Lww_store.init ~n:2 ~me:0) 0 1))) ~sender:1 mb in
  let b = Lww_store.receive (fst (L.drain (L.write (Lww_store.init ~n:2 ~me:1) 0 2))) ~sender:0 ma in
  let ra = L.read a 0 and rb = L.read b 0 in
  Alcotest.check check_response "converged" ra rb;
  (match ra with
  | Op.Vals [ _ ] -> ()
  | _ -> Alcotest.fail "lww returns a single value")

let test_lww_timestamp_wins () =
  (* a later (higher lamport) write beats an earlier one regardless of
     arrival order *)
  let a = Lww_store.init ~n:2 ~me:0 in
  let a = L.write a 0 1 in
  let a = L.write a 0 2 in
  (* ts=2 *)
  let _, ma = L.drain a in
  let b = Lww_store.init ~n:2 ~me:1 in
  let b = L.write b 0 9 in
  (* ts=1, loses to ts=2 *)
  let b = Lww_store.receive b ~sender:0 ma in
  Alcotest.check check_response "higher ts wins" (resp [ 2 ]) (L.read b 0)

let test_lww_receive_advances_clock () =
  (* Lamport's receive rule: a receive moves the clock past the received
     time, so a write after a receive outranks a concurrent write with the
     same count of preceding events *)
  let a = L.write (L.write (Lww_store.init ~n:4 ~me:0) 0 1) 0 2 in
  let _, ma = L.drain a in
  (* one payload, two entries: (1,0) and (2,0) *)
  let b = Lww_store.receive (Lww_store.init ~n:4 ~me:1) ~sender:0 ma in
  let _, mb = L.drain (L.write b 0 10) in
  (* (4,1): each received entry advanced the clock to 1 + max *)
  let c = Lww_store.init ~n:4 ~me:2 in
  let _, mc = L.drain (L.write (L.write (L.write c 0 20) 0 21) 0 22) in
  (* (3,2), concurrent with replica 1's write *)
  let reader = Lww_store.init ~n:4 ~me:3 in
  let r1 = Lww_store.receive (Lww_store.receive reader ~sender:1 mb) ~sender:2 mc in
  let r2 = Lww_store.receive (Lww_store.receive reader ~sender:2 mc) ~sender:1 mb in
  Alcotest.check check_response "(4,1) beats (3,2)" (resp [ 10 ]) (L.read r1 0);
  Alcotest.check check_response "arrival order irrelevant" (resp [ 10 ]) (L.read r2 0)

(* ---------- ORset store ---------- *)

module O = Direct (Orset_store)

let test_orset_local () =
  let st = Orset_store.init ~n:2 ~me:0 in
  let st, _ = O.do_op st ~obj:0 (Op.Add (vi 5)) in
  let st, _ = O.do_op st ~obj:0 (Op.Add (vi 6)) in
  Alcotest.check check_response "both present" (resp [ 5; 6 ]) (O.read st 0);
  let st, _ = O.do_op st ~obj:0 (Op.Remove (vi 5)) in
  Alcotest.check check_response "removed" (resp [ 6 ]) (O.read st 0)

let test_orset_add_wins () =
  (* concurrent add and remove of the same element: add wins *)
  let a = Orset_store.init ~n:2 ~me:0 and b = Orset_store.init ~n:2 ~me:1 in
  let a, _ = O.do_op a ~obj:0 (Op.Add (vi 5)) in
  let a, ma = O.drain a in
  let b = Orset_store.receive b ~sender:0 ma in
  (* b removes 5 (observing a's add); concurrently a re-adds 5 *)
  let b, _ = O.do_op b ~obj:0 (Op.Remove (vi 5)) in
  let a, _ = O.do_op a ~obj:0 (Op.Add (vi 5)) in
  let _, mb = O.drain b and _, ma2 = O.drain a in
  let a = Orset_store.receive a ~sender:1 mb in
  let b = Orset_store.receive b ~sender:0 ma2 in
  Alcotest.check check_response "a keeps concurrent add" (resp [ 5 ]) (O.read a 0);
  Alcotest.check check_response "b keeps concurrent add" (resp [ 5 ]) (O.read b 0)

let test_orset_remove_then_late_add () =
  (* the remove's tombstones guard against its targets arriving later *)
  let a = Orset_store.init ~n:3 ~me:0 in
  let a, _ = O.do_op a ~obj:0 (Op.Add (vi 5)) in
  let _, m_add = O.drain a in
  let b = Orset_store.receive (Orset_store.init ~n:3 ~me:1) ~sender:0 m_add in
  let b, _ = O.do_op b ~obj:0 (Op.Remove (vi 5)) in
  let _, m_rm = O.drain b in
  (* c gets the remove before the add *)
  let c = Orset_store.receive (Orset_store.init ~n:3 ~me:2) ~sender:1 m_rm in
  Alcotest.check check_response "nothing yet" (resp []) (O.read c 0);
  let c = Orset_store.receive c ~sender:0 m_add in
  Alcotest.check check_response "late add suppressed" (resp []) (O.read c 0)

let test_orset_rejects_write () =
  let st = Orset_store.init ~n:2 ~me:0 in
  match Orset_store.do_op st ~obj:0 (Op.Write (vi 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* ---------- delayed-exposure store (Section 5.3) ---------- *)

module D = Direct (Delayed_store.K3)

let test_delayed_hides_until_k_reads () =
  Alcotest.(check bool) "reads are visible" false Delayed_store.K3.invisible_reads;
  let a = Delayed_store.K3.init ~n:2 ~me:0 in
  let a = D.write a 0 1 in
  let _, ma = D.drain a in
  let b = Delayed_store.K3.init ~n:2 ~me:1 in
  let b = Delayed_store.K3.receive b ~sender:0 ma in
  (* K = 3: the first two reads still miss the write *)
  let b, r1 = D.do_op b ~obj:0 Op.Read in
  Alcotest.check check_response "read 1 hidden" (resp []) r1;
  let b, r2 = D.do_op b ~obj:0 Op.Read in
  Alcotest.check check_response "read 2 hidden" (resp []) r2;
  let b, r3 = D.do_op b ~obj:0 Op.Read in
  Alcotest.check check_response "read 3 exposes" (resp [ 1 ]) r3;
  let _, r4 = D.do_op b ~obj:0 Op.Read in
  Alcotest.check check_response "stays exposed" (resp [ 1 ]) r4

let test_delayed_witness_valid () =
  (* the exposed-prefix witness of the delayed store is still a correct,
     complying MVR abstract execution *)
  let module R = Haec.Sim.Runner.Make (Delayed_store.K3) in
  let rng = Rng.create 51 in
  let sim = R.create ~seed:51 ~n:3 ~policy:(Haec.Sim.Net_policy.random_delay ()) () in
  let steps =
    Haec.Sim.Workload.generate ~rng ~n:3 ~objects:2 ~ops:50
      Haec.Sim.Workload.register_mix
  in
  Haec.Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  let witness = R.witness_abstract sim in
  check_ok "correct" (Specf.check_correct ~spec_of:mvr_spec witness);
  check_ok "complies" (Compliance.check (R.execution sim) witness)

let test_delayed_own_writes_immediate () =
  let a = Delayed_store.K3.init ~n:2 ~me:0 in
  let a = D.write a 0 1 in
  Alcotest.check check_response "own write visible" (resp [ 1 ]) (D.read a 0)

(* ---------- gossip relay store (non-op-driven) ---------- *)

module G = Direct (Gossip_relay_store)

let test_gossip_relays () =
  Alcotest.(check bool) "not op-driven" false Gossip_relay_store.op_driven;
  let a = Gossip_relay_store.init ~n:3 ~me:0 in
  let a = G.write a 0 1 in
  let _, ma = G.drain a in
  let b = Gossip_relay_store.init ~n:3 ~me:1 in
  let b = Gossip_relay_store.receive b ~sender:0 ma in
  (* receiving created a pending relay with no client operation: the
     Definition 15 violation *)
  Alcotest.(check bool) "pending after receive" true (Gossip_relay_store.has_pending b);
  let b, mb = G.drain b in
  (* the relayed message brings the update to a third replica *)
  let c = Gossip_relay_store.receive (Gossip_relay_store.init ~n:3 ~me:2) ~sender:1 mb in
  Alcotest.check check_response "relay delivered" (resp [ 1 ]) (G.read c 0);
  (* but b does not relay the same update twice *)
  let b = Gossip_relay_store.receive b ~sender:0 ma in
  Alcotest.(check bool) "no second relay" false (Gossip_relay_store.has_pending b)

(* ---------- indexed vs naive causal delivery equivalence ---------- *)

(* Replay one random script of writes, sends and (possibly duplicated,
   reordered) deliveries, then force full convergence and read back every
   object at every replica. The script is derived from the seed alone, so
   running it against two store implementations drives them identically. *)
module Equiv (S : Store_intf.S) = struct
  let run ~seed ~n ~objects ~steps =
    let rng = Rng.create seed in
    let states = Array.init n (fun me -> S.init ~n ~me) in
    let msgs = ref [] (* (sender, payload), newest first *) in
    let nmsgs = ref 0 in
    let flush r =
      if S.has_pending states.(r) then begin
        let st, payload = S.send states.(r) in
        states.(r) <- st;
        msgs := (r, payload) :: !msgs;
        incr nmsgs
      end
    in
    for _ = 1 to steps do
      match Rng.int rng 4 with
      | 0 | 1 ->
        let r = Rng.int rng n in
        let st, _, _ =
          S.do_op states.(r) ~obj:(Rng.int rng objects) (Op.Write (vi (Rng.int rng 50)))
        in
        states.(r) <- st
      | 2 -> flush (Rng.int rng n)
      | _ ->
        if !nmsgs > 0 then begin
          let sender, payload = List.nth !msgs (Rng.int rng !nmsgs) in
          let dst = Rng.int rng n in
          if dst <> sender then states.(dst) <- S.receive states.(dst) ~sender payload
        end
    done;
    for r = 0 to n - 1 do
      flush r
    done;
    (* two shuffled full-broadcast passes: every message reaches every
       replica at least once more, duplicating most deliveries *)
    let all = Array.of_list !msgs in
    for _pass = 1 to 2 do
      Rng.shuffle rng all;
      Array.iter
        (fun (sender, payload) ->
          for dst = 0 to n - 1 do
            if dst <> sender then states.(dst) <- S.receive states.(dst) ~sender payload
          done)
        all
    done;
    Array.to_list states
    |> List.concat_map (fun st ->
           List.init objects (fun obj ->
               let _, rval, _ = S.do_op st ~obj Op.Read in
               rval))
end

module Equiv_indexed = Equiv (Causal_mvr_store)
module Equiv_naive = Equiv (Causal_naive_store)

let prop_indexed_matches_naive =
  q ~count:50 "indexed causal delivery = naive list-scan reference"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let reads_i = Equiv_indexed.run ~seed ~n:4 ~objects:3 ~steps:60 in
      let reads_n = Equiv_naive.run ~seed ~n:4 ~objects:3 ~steps:60 in
      List.for_all2 Op.equal_response reads_i reads_n)

(* ---------- wire robustness ---------- *)

let test_store_rejects_garbage () =
  let st = Mvr_store.init ~n:2 ~me:0 in
  match Mvr_store.receive st ~sender:1 "\xff\xff\xff\xff" with
  | exception Haec.Wire.Decoder.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage payload must be rejected"

let suite =
  ( "stores",
    [
      tc "mvr: local write/read" test_mvr_local;
      tc "mvr: concurrent siblings" test_mvr_concurrent_siblings;
      tc "mvr: domination after merge" test_mvr_domination_after_merge;
      tc "mvr: idempotent receive" test_mvr_idempotent_receive;
      tc "mvr: transitive domination under reorder" test_mvr_transitive_domination_reordered;
      tc "mvr: invisible reads" test_mvr_invisible_reads;
      tc "mvr: op-driven messages" test_mvr_op_driven;
      tc "mvr: send requires pending" test_mvr_send_requires_pending;
      tc "mvr: rejects set ops" test_mvr_rejects_set_ops;
      tc "causal: buffers until deps" test_causal_buffers_until_deps;
      tc "causal: cross-replica deps" test_causal_cross_replica_deps;
      tc "causal: duplicate and reorder" test_causal_duplicate_and_reorder;
      tc "causal: a record repeated in one batch is buffered once"
        test_causal_duplicate_in_one_batch;
      tc "lww: converges to single value" test_lww_total_order;
      tc "lww: higher timestamp wins" test_lww_timestamp_wins;
      tc "lww: a receive moves the clock past the received time"
        test_lww_receive_advances_clock;
      tc "orset: local add/remove" test_orset_local;
      tc "orset: concurrent add wins" test_orset_add_wins;
      tc "orset: tombstones block late adds" test_orset_remove_then_late_add;
      tc "orset: rejects write" test_orset_rejects_write;
      tc "delayed: hides until K reads" test_delayed_hides_until_k_reads;
      tc "delayed: own writes immediate" test_delayed_own_writes_immediate;
      tc "delayed: witness valid on random runs" test_delayed_witness_valid;
      tc "gossip: relays without ops" test_gossip_relays;
      prop_indexed_matches_naive;
      tc "stores reject garbage payloads" test_store_rejects_garbage;
    ] )
