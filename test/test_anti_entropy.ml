(* Protocol-level anti-entropy: the digest/repair transformer, the
   stable-prefix trim of its repair log, adversarial fault plans, chaos
   convergence with every loss permanent, and the delta-debugging
   shrinker. *)

open Helpers
open Haec
module Fault_plan = Sim.Fault_plan
module Vclock = Clock.Vclock
module AE = Store.Anti_entropy.Make (Store.Mvr_store)

(* ---------- the protocol, by hand ---------- *)

(* Two replicas, one lost update: the digest exchange must detect the gap
   and the replica that lacks the payload pulls exactly it — no runner,
   no oracle. *)
let test_digest_repair_exchange () =
  let a = AE.init ~n:2 ~me:0 and b = AE.init ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 2)) in
  let a, _lost = AE.send a in
  (* the second broadcast vanishes; b only ever hears the first *)
  let b = AE.receive b ~sender:0 p1 in
  Alcotest.(check int) "b applied the first update" 1 (Vclock.get (AE.have b) 0);
  (* b's digest shows a that b is behind, and a sends nothing for it *)
  let b = AE.tick b in
  Alcotest.(check bool) "digest pending after tick" true (AE.has_pending b);
  let b, digest = AE.send b in
  let a = AE.receive a ~sender:1 digest in
  Alcotest.(check bool) "nothing pushed" false (AE.has_pending a);
  (* a's digest shows b the gap: b asks, and a answers *)
  let a, digest = AE.send (AE.tick a) in
  let b = AE.receive b ~sender:0 digest in
  Alcotest.(check bool) "request queued at b" true (AE.has_pending b);
  let b, request = AE.send b in
  let a = AE.receive a ~sender:1 request in
  Alcotest.(check bool) "repair queued at a" true (AE.has_pending a);
  let a, repair = AE.send a in
  let b = AE.receive b ~sender:0 repair in
  Alcotest.(check bool) "vectors converged" true
    (Vclock.equal (AE.have a) (AE.have b));
  Alcotest.(check int) "no orphans" 0 (AE.orphans b);
  Alcotest.(check bool) "system settled" true (AE.settled [| a; b |]);
  let _, ra, _ = AE.do_op a ~obj:0 Model.Op.Read in
  let _, rb, _ = AE.do_op b ~obj:0 Model.Op.Read in
  Alcotest.(check bool) "reads agree" true (ra = rb);
  let gs = Store.Store_intf.add_gossip_stats (AE.counters a) (AE.counters b) in
  Alcotest.(check bool) "digest traffic counted" true
    (gs.Store.Store_intf.digests > 0 && gs.Store.Store_intf.digest_bytes > 0);
  Alcotest.(check bool) "request traffic counted" true
    (gs.Store.Store_intf.requests > 0 && gs.Store.Store_intf.request_bytes > 0);
  Alcotest.(check bool) "repair traffic counted" true
    (gs.Store.Store_intf.repairs > 0 && gs.Store.Store_intf.repair_bytes > 0);
  Alcotest.(check bool) "repair payloads applied" true
    (gs.Store.Store_intf.repair_applied > 0)

(* Updates arriving out of order are parked as orphans and applied in
   per-origin sequence order once the gap fills. *)
let test_out_of_order_buffered () =
  let a = AE.init ~n:2 ~me:0 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 2)) in
  let _, p2 = AE.send a in
  let b = AE.init ~n:2 ~me:1 in
  let b = AE.receive b ~sender:0 p2 in
  Alcotest.(check int) "second update parked" 1 (AE.orphans b);
  Alcotest.(check int) "nothing applied yet" 0 (Vclock.get (AE.have b) 0);
  let b = AE.receive b ~sender:0 p1 in
  Alcotest.(check int) "gap filled, cascade applied both" 2
    (Vclock.get (AE.have b) 0);
  Alcotest.(check int) "no orphans left" 0 (AE.orphans b)

(* Duplicate deliveries are absorbed by the log: state unchanged, the
   duplicate counted. *)
let test_duplicates_dropped () =
  let a = AE.init ~n:2 ~me:0 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 7)) in
  let _, p1 = AE.send a in
  let b = AE.init ~n:2 ~me:1 in
  let b = AE.receive b ~sender:0 p1 in
  let b' = AE.receive b ~sender:0 p1 in
  Alcotest.(check int) "vector unchanged by the duplicate"
    (Vclock.get (AE.have b) 0)
    (Vclock.get (AE.have b') 0);
  Alcotest.(check int) "no orphans" 0 (AE.orphans b');
  let gs = AE.counters b' in
  Alcotest.(check bool) "duplicate counted" true
    (gs.Store.Store_intf.dup_payloads > 0)

(* [dup_payloads] splits by how the duplicate came: an eager update
   delivered twice, a repair addressed to this replica carrying what it
   holds, and a repair addressed to a third replica that this one
   overheard. The three always sum to [dup_payloads]. *)
let test_dup_split () =
  let a = AE.init ~n:3 ~me:0 and b = AE.init ~n:3 ~me:1 and c = AE.init ~n:3 ~me:2 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p0 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 2)) in
  let a, p1 = AE.send a in
  (* c hears both updates, b only the first *)
  let c = AE.receive (AE.receive c ~sender:0 p0) ~sender:0 p1 in
  let b = AE.receive b ~sender:0 p0 in
  let a, digest = AE.send (AE.tick a) in
  let b, request = AE.send (AE.receive b ~sender:0 digest) in
  let _, repair = AE.send (AE.receive a ~sender:1 request) in
  let b = AE.receive (AE.receive b ~sender:0 repair) ~sender:0 repair in
  let c = AE.receive (AE.receive c ~sender:0 repair) ~sender:0 p0 in
  let split name st (updates, repairs, overheard) =
    let g = AE.counters st in
    Alcotest.(check (list int)) (name ^ ": updates, repairs, overheard")
      [ updates; repairs; overheard ]
      Store.Store_intf.[ g.dup_updates; g.dup_repairs; g.dup_overheard ];
    Alcotest.(check int) (name ^ ": the split sums to dup_payloads")
      (updates + repairs + overheard) g.Store.Store_intf.dup_payloads
  in
  split "b, the repair delivered twice" b (0, 1, 0);
  split "c, a third party's repair and an update again" c (1, 0, 1)

(* ---------- the stable-prefix trim ---------- *)

let v2_replicas n = Array.init n (fun me -> AE.init ~n ~me)

let write t v =
  let t, _, _ = AE.do_op t ~obj:0 (Model.Op.Write (vi v)) in
  AE.send t

let gossip t = AE.send (AE.tick t)

let vclock = Alcotest.testable Vclock.pp Vclock.equal

(* the requests of a v2 envelope that carries nothing else, as
   [dst; origin; from_seq; count] *)
let request_fields payload =
  List.map
    (function
      | Store.Envelope.Request { dst; origin; from_seq; count = Some count } ->
        [ dst; origin; from_seq; count ]
      | _ -> Alcotest.fail "expected only bounded repair requests")
    (Store.Envelope.decode payload).items

(* A request names the gap and no more: b holds seq 0 and seqs 2-5 of
   a's stream, so it asks for [1, 2), and a answers with that one payload
   rather than the batch from seq 1 up. *)
let test_request_bounded_by_held () =
  let r = v2_replicas 2 in
  let a = ref r.(0) and b = ref r.(1) in
  for v = 0 to 5 do
    let a', p = write !a v in
    a := a';
    if v <> 1 then b := AE.receive !b ~sender:0 p
  done;
  Alcotest.(check int) "seqs 2-5 parked" 4 (AE.orphans !b);
  let a, da = gossip !a in
  let b, req = AE.send (AE.receive !b ~sender:0 da) in
  Alcotest.(check (list (list int))) "b asks a for [1, 2)" [ [ 0; 0; 1; 1 ] ] (request_fields req);
  let _, repair = AE.send (AE.receive a ~sender:1 req) in
  Alcotest.(check string) "one payload answers it" "repair" (Store.Anti_entropy.classify repair);
  let b = AE.receive b ~sender:0 repair in
  Alcotest.(check int) "b applied the whole stream" 6 (Vclock.get (AE.have b) 0);
  Alcotest.(check int) "nothing arrived twice" 0 (AE.counters b).Store.Store_intf.dup_payloads

(* An ask stays open until it is answered. c asks b for a's stream; while
   the answer is in flight, a's late broadcasts fill the first half of
   what b holds. b's digest still shows the rest of the gap, but c waits
   for the answer, which brings seqs 2-3 once: a rule that reopened the
   gap on any progress would ask b again and receive them twice. *)
let test_eager_fill_keeps_ask_open () =
  let r = v2_replicas 3 in
  let a = ref r.(0) and b = ref r.(1) in
  let eager =
    Array.init 4 (fun v ->
        let a', p = write !a v in
        a := a';
        b := AE.receive !b ~sender:0 p;
        p)
  in
  let b, db = gossip !b in
  let c, req = AE.send (AE.receive r.(2) ~sender:1 db) in
  Alcotest.(check (list (list int))) "c asks b for a batch of a's stream" [ [ 1; 0; 0; 32 ] ]
    (request_fields req);
  let _, answer = AE.send (AE.receive b ~sender:2 req) in
  let c = AE.receive (AE.receive c ~sender:0 eager.(0)) ~sender:0 eager.(1) in
  Alcotest.(check int) "the late broadcasts filled seqs 0-1" 2 (Vclock.get (AE.have c) 0);
  let c = AE.receive c ~sender:1 db in
  Alcotest.(check bool) "nothing asked again while the answer is in flight" false
    (AE.has_pending c);
  let c = AE.receive c ~sender:1 answer in
  let stats = AE.counters c in
  Alcotest.(check int) "the answer completed the stream" 4 (Vclock.get (AE.have c) 0);
  Alcotest.(check int) "one request" 1 stats.Store.Store_intf.requests;
  Alcotest.(check int) "repaired seqs 2-3" 2 stats.Store.Store_intf.repair_applied;
  Alcotest.(check int) "only the filled half arrived twice" 2 stats.Store.Store_intf.dup_repairs

(* Re-asks wait for the measured round trip, but never longer than
   [max_backoff] rounds: here a's first answer reaches b only 100 rounds
   after b asked, as if a partition held it. b's next ask toward a is
   repeated after exactly [max_backoff] rounds. *)
let test_inflated_rtt_capped () =
  let cfg = { Store.Store_intf.default with max_backoff = 4 } in
  let a = AE.create cfg ~n:2 ~me:0 and b = AE.create cfg ~n:2 ~me:1 in
  let a, _lost = write a 1 in
  let a, da = gossip a in
  let b, req = AE.send (AE.receive b ~sender:0 da) in
  let a, repair = AE.send (AE.receive a ~sender:1 req) in
  let b = ref b in
  for _ = 1 to 100 do
    b := AE.tick !b
  done;
  let b, _ = AE.send (AE.receive !b ~sender:0 repair) in
  Alcotest.(check int) "the late answer filled the gap" 1 (Vclock.get (AE.have b) 0);
  let a, _lost = write a 2 in
  let _, da = gossip a in
  let asks b = List.mem "request" (String.split_on_char '+' (Store.Anti_entropy.classify b)) in
  let b, first = AE.send (AE.receive b ~sender:0 da) in
  Alcotest.(check bool) "the new gap is asked for at once" true (asks first);
  (* the ask is lost; a's digest keeps arriving every round *)
  let rec wait b k =
    if k > 100 then Alcotest.fail "b never asked again"
    else
      let b = AE.receive (AE.tick b) ~sender:0 da in
      if not (AE.has_pending b) then wait b (k + 1)
      else
        let b, p = AE.send b in
        if asks p then k else wait b (k + 1)
  in
  Alcotest.(check int) "asked again after max_backoff rounds" cfg.max_backoff (wait b 1)

(* The trim counts only what a peer has itself proven to hold. The repair
   below is dropped, so the peer never held those payloads: they stay in
   the log, and the peer's repeated request finds them there. *)
let test_dropped_repair_rerequested () =
  let r = v2_replicas 2 in
  let a = r.(0) and b = r.(1) in
  let a, _ = write a 1 in
  let a, _ = write a 2 in
  let a, _ = write a 3 in
  (* all three broadcasts are lost; a's digest shows b the gap *)
  let a, da = gossip a in
  let b, req = AE.send (AE.receive b ~sender:0 da) in
  let a, _lost_repair = AE.send (AE.receive a ~sender:1 req) in
  Alcotest.(check int) "repaired payloads stay logged" 3 (AE.log_entries a);
  Alcotest.check vclock "nothing is stable" (Vclock.zero ~n:2) (AE.floor a);
  (* the same digest again: within the backoff b does not ask, a round
     later it does *)
  let b = AE.receive b ~sender:0 da in
  Alcotest.(check bool) "re-ask backed off" false (AE.has_pending b);
  let b = AE.receive (AE.tick b) ~sender:0 da in
  let b, req = AE.send b in
  let a = AE.receive a ~sender:1 req in
  let a, repair = AE.send a in
  let b = AE.receive b ~sender:0 repair in
  Alcotest.(check int) "b caught up through its second request" 3 (Vclock.get (AE.have b) 0);
  (* once b's digest proves it, the prefix leaves a's log *)
  let _, db = gossip b in
  let a = AE.receive a ~sender:1 db in
  Alcotest.(check int) "floor raised to what b proved" 3 (Vclock.get (AE.floor a) 0);
  Alcotest.(check int) "log emptied" 0 (AE.log_entries a);
  Alcotest.(check int) "log bytes emptied" 0 (AE.log_bytes a)

(* Repair is pulled, so it is live along links alive both ways. Here the
   link from p to q is dead and the one from q to p alive: q's digest
   shows p a gap, but p's requests to q never arrive. r also holds the
   payload, and its digest shows p the same gap; the request backoff is
   kept per (origin, peer), so the lost asks to q never hold back the ask
   to r. q's digest reaches p first every round, so an ask that backed off
   per origin alone would go to q forever. *)
let test_one_way_dead_link () =
  let p = 0 and q = 1 and r = 2 in
  let st = Array.init 3 (fun me -> AE.init ~n:3 ~me) in
  let st_q, _, _ = AE.do_op st.(q) ~obj:0 (Model.Op.Write (vi 1)) in
  let st_q, update = AE.send st_q in
  st.(q) <- st_q;
  (* the update reaches r and is lost on its way to p *)
  st.(r) <- AE.receive st.(r) ~sender:q update;
  let alive ~src ~dst = not (src = p && dst = q) in
  let round () =
    Array.iteri (fun i s -> st.(i) <- AE.tick s) st;
    List.iter
      (fun src ->
        while AE.has_pending st.(src) do
          let s, payload = AE.send st.(src) in
          st.(src) <- s;
          List.iter
            (fun dst ->
              if dst <> src && alive ~src ~dst then
                st.(dst) <- AE.receive st.(dst) ~sender:src payload)
            [ p; q; r ]
        done)
      [ q; r; p ]
  in
  let rec go k =
    if Vclock.get (AE.have st.(p)) q = 1 then k
    else if k = 8 then Alcotest.fail "p did not get q's update within 8 rounds"
    else begin
      round ();
      go (k + 1)
    end
  in
  let rounds = go 0 in
  Alcotest.(check bool) (Printf.sprintf "closed in %d rounds" rounds) true (rounds <= 2);
  Alcotest.(check int) "p's asks to q went unanswered" 0
    (AE.counters st.(q)).Store.Store_intf.repairs

(* One ask per gap rotates by tries, not by round trip. p times q's
   round trip at 0 rounds and r's at 2, then asks q for a gap that r can
   fill too, and q goes dead. Once q's wait runs out, p asks r, asked
   fewer times than q, and the gap closes; asking the shortest round trip
   first would ask the dead q forever. *)
let test_fastest_peer_dies_mid_gap () =
  let p = 0 and q = 1 and r = 2 in
  let st = v2_replicas 3 in
  let deliver ~src ~dst payload = st.(dst) <- AE.receive st.(dst) ~sender:src payload in
  let send src =
    let s, payload = AE.send st.(src) in
    st.(src) <- s;
    payload
  in
  let write_at src v =
    let s, payload = write st.(src) v in
    st.(src) <- s;
    payload
  in
  let asked payload =
    List.filter_map
      (function Store.Envelope.Request { dst; origin; _ } -> Some (dst, origin) | _ -> None)
      (Store.Envelope.decode payload).items
  in
  (* q's update misses p; p asks q and is answered in the same round *)
  deliver ~src:q ~dst:r (write_at q 1);
  st.(q) <- AE.tick st.(q);
  deliver ~src:q ~dst:p (send q);
  deliver ~src:p ~dst:q (send p);
  deliver ~src:q ~dst:p (send q);
  (* r's update misses p; p asks r and is answered two rounds later *)
  deliver ~src:r ~dst:q (write_at r 2);
  st.(r) <- AE.tick st.(r);
  deliver ~src:r ~dst:p (send r);
  deliver ~src:p ~dst:r (send p);
  let answer = send r in
  st.(p) <- AE.tick (AE.tick st.(p));
  deliver ~src:r ~dst:p answer;
  Alcotest.check vclock "both round trips timed" (Vclock.of_array [| 0; 1; 1 |]) (AE.have st.(p));
  (* r's next update reaches only q, whose digest shows p the gap; p
     asks q, and from here on q is dead *)
  deliver ~src:r ~dst:q (write_at r 3);
  st.(q) <- AE.tick st.(q);
  deliver ~src:q ~dst:p (send q);
  Alcotest.(check (list (pair int int))) "p asks q for r's stream" [ (q, r) ] (asked (send p));
  let to_r = ref [] in
  let rec go k =
    if Vclock.get (AE.have st.(p)) r = 2 then k
    else if k = 10 then Alcotest.fail "p did not get r's update within 10 rounds"
    else begin
      st.(p) <- AE.tick st.(p);
      st.(r) <- AE.tick st.(r);
      if AE.has_pending st.(r) then deliver ~src:r ~dst:p (send r);
      if AE.has_pending st.(p) then begin
        let payload = send p in
        to_r := !to_r @ asked payload;
        deliver ~src:p ~dst:r payload
      end;
      if AE.has_pending st.(r) then deliver ~src:r ~dst:p (send r);
      go (k + 1)
    end
  in
  let rounds = go 0 in
  Alcotest.(check (list (pair int int))) "the next ask goes to r" [ (r, r) ] !to_r;
  Alcotest.(check bool) (Printf.sprintf "closed in %d rounds" rounds) true (rounds <= 2)

(* A request that arrives again after the floor passed its [from_seq]
   asks only for payloads every member holds: the answer starts at the
   floor and carries just what the requester still lacks. *)
let test_stale_request_answered_from_floor () =
  let r = v2_replicas 2 in
  let a = r.(0) and b = r.(1) in
  let a, p0 = write a 1 in
  let a, _lost = write a 2 in
  let b = AE.receive b ~sender:0 p0 in
  let a, da = gossip a in
  let b = AE.receive b ~sender:0 da in
  let b, req = AE.send b in
  Alcotest.(check string) "b asks for the missing seq" "request" (Store.Anti_entropy.classify req);
  let a = AE.receive a ~sender:1 req in
  let a, repair = AE.send a in
  let b = AE.receive b ~sender:0 repair in
  let _, db = gossip b in
  let a = AE.receive a ~sender:1 db in
  Alcotest.(check int) "floor at b's proven prefix" 2 (Vclock.get (AE.floor a) 0);
  let a, _lost = write a 3 in
  (* the network duplicates the old request *)
  let a = AE.receive a ~sender:1 req in
  let _, repair' = AE.send a in
  Alcotest.(check string) "answered from the floor: one payload, not two" "repair"
    (Store.Anti_entropy.classify repair');
  let b = AE.receive b ~sender:0 repair' in
  Alcotest.(check int) "b has the whole stream" 3 (Vclock.get (AE.have b) 0)

(* [orphans] counts the payloads past the applied prefix, before and
   after a trim removes the prefix below them. *)
let test_orphans_exact_across_trim () =
  let r = v2_replicas 2 in
  let a = r.(0) and b = r.(1) in
  let a, p0 = write a 1 in
  let a, p1 = write a 2 in
  let _, p2 = write a 3 in
  let b = AE.receive b ~sender:0 p0 in
  let b = AE.receive b ~sender:0 p2 in
  Alcotest.(check int) "seq 0 trimmed" 1 (Vclock.get (AE.floor b) 0);
  Alcotest.(check int) "seq 2 parked" 1 (AE.orphans b);
  Alcotest.(check int) "only the orphan is logged" 1 (AE.log_entries b);
  let b = AE.receive b ~sender:0 p1 in
  Alcotest.(check int) "gap filled" 3 (Vclock.get (AE.have b) 0);
  Alcotest.(check int) "floor follows a's contiguous stream" 2 (Vclock.get (AE.floor b) 0);
  Alcotest.(check int) "no orphans" 0 (AE.orphans b);
  Alcotest.(check int) "seq 2 still logged" 1 (AE.log_entries b);
  Alcotest.(check bool) "log bytes are the inner payload's" true
    (AE.log_bytes b > 0 && AE.log_bytes b < String.length p2)

(* [settled] scans each origin from the highest floor among the given
   states: below it the union of the logs was trimmed, but every state
   applied it. Here the survivors sit at different floors and a
   crash-leaver's lost seq orphans a later one. *)
let test_settled_across_floors () =
  let r = v2_replicas 3 in
  let r0, p0 = write r.(0) 1 in
  let r2, q0 = write r.(2) 10 in
  let r2, _q1_lost = write r2 11 in
  let r2, q2 = write r2 12 in
  let r1 = AE.receive r.(1) ~sender:0 p0 in
  let r2 = AE.receive r2 ~sender:0 p0 in
  let r0 = AE.receive r0 ~sender:2 q0 in
  let r1 = AE.receive r1 ~sender:2 q0 in
  let r1 = AE.receive r1 ~sender:2 q2 in
  (* r2 gossips once and then crash-leaves: it never says goodbye *)
  let _, d2 = gossip r2 in
  let r0 = AE.receive r0 ~sender:2 d2 in
  let r1 = AE.receive r1 ~sender:2 d2 in
  let r1, d1 = gossip r1 in
  let r0 = AE.receive r0 ~sender:1 d1 in
  (* r0's own requests to r2 go nowhere *)
  let r0, _ = AE.send r0 in
  Alcotest.check vclock "r0 heard both peers" (Vclock.of_array [| 1; 0; 1 |]) (AE.floor r0);
  Alcotest.check vclock "r1 never heard r0's digest" (Vclock.of_array [| 1; 0; 0 |]) (AE.floor r1);
  Alcotest.(check int) "the crash-leaver orphaned seq 2 at r1" 1 (AE.orphans r1);
  Alcotest.(check bool) "survivors settled" true (AE.settled [| r0; r1 |]);
  let r0, _ = write r0 2 in
  Alcotest.(check bool) "an unshared update unsettles them" false (AE.settled [| r0; r1 |])

(* ---------- adversarial fault plans ---------- *)

(* The adversarial draws are appended strictly after the baseline ones, so
   an adversarial plan from the same seed shares the baseline fields
   byte-for-byte — baseline schedules stay frozen. *)
let test_adversarial_extends_baseline () =
  List.iter
    (fun seed ->
      let base =
        Fault_plan.random (Util.Rng.create seed) ~n:4 ~horizon:50.0 ()
      in
      let adv =
        Fault_plan.random (Util.Rng.create seed) ~n:4 ~horizon:50.0
          ~adversarial:true ()
      in
      Alcotest.(check bool) "same crash windows" true
        (base.Fault_plan.crashes = adv.Fault_plan.crashes);
      Alcotest.(check bool) "same link faults" true
        (base.Fault_plan.links = adv.Fault_plan.links);
      Alcotest.(check bool) "same corruption window" true
        (base.Fault_plan.corruption = adv.Fault_plan.corruption);
      Alcotest.(check bool) "baseline has no adversarial faults" true
        (base.Fault_plan.dup = None
        && base.Fault_plan.reorder = None
        && base.Fault_plan.dead = []))
    (List.init 20 (fun i -> i + 1))

let test_dead_link_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* dead links without ~n: connectivity can't be checked *)
  bad (fun () ->
      Fault_plan.make
        ~dead:[ { src = 0; dst = 1; from_ = 0.0 } ]
        ~horizon:10.0 ());
  (* both directions of the only edge dead: network disconnected *)
  bad (fun () ->
      Fault_plan.make
        ~dead:
          [ { src = 0; dst = 1; from_ = 0.0 }; { src = 1; dst = 0; from_ = 0.0 } ]
        ~n:2 ~horizon:10.0 ());
  (* with a third replica the dead 0-1 edge leaves the graph connected *)
  let plan =
    Fault_plan.make
      ~dead:
        [ { src = 0; dst = 1; from_ = 0.0 }; { src = 1; dst = 0; from_ = 2.0 } ]
      ~n:3 ~horizon:10.0 ()
  in
  Alcotest.(check bool) "dead link active from its start" true
    (Fault_plan.link_dead plan ~src:0 ~dst:1 ~at:1.0);
  Alcotest.(check bool) "other direction not yet dead" false
    (Fault_plan.link_dead plan ~src:1 ~dst:0 ~at:1.0);
  Alcotest.(check bool) "dead links never heal" true
    (Fault_plan.active plan ~now:1e9)

(* Regression: mutate must never return its input. The zeroing shape
   applied to an already-zero run used to be the identity; it now falls
   back to a byte flip. *)
let test_mutate_never_identity () =
  let rng = Util.Rng.create 99 in
  List.iter
    (fun len ->
      let s = String.make len '\000' in
      for _ = 1 to 200 do
        if Fault_plan.mutate rng s = s then
          Alcotest.failf "mutate returned its input on %d zero bytes" len
      done)
    [ 1; 2; 3; 5; 8; 16 ]

(* ---------- chaos under anti-entropy recovery ---------- *)

(* Every store class must converge on adversarial plans: all losses are
   permanent (crashed in-flight traffic, link drops, dead links) and the
   digest/repair protocol is the only way bytes come back. Adversarial
   plans add duplication, reordering, and permanently dead links. *)
let ae_chaos_seeds name (module S : Store.Store_intf.S) ~require spec mix seeds =
  tc name (fun () ->
      let module C = Sim.Chaos.Make (S) in
      List.iter
        (fun seed ->
          let o =
            C.run ~spec_of:(fun _ -> spec) ~mix ~require ~adversarial:true ~seed ()
          in
          if not (Sim.Chaos.converged o) then
            Alcotest.failf "seed %d: %a" seed Sim.Chaos.pp_outcome o)
        seeds)

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_ae_run_exercises_protocol () =
  (* an anti-entropy run actually loses traffic for good and repairs it
     over the wire — the convergence above is not vacuous *)
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let lost = ref 0 and rounds = ref 0 and repaired = ref 0 in
  List.iter
    (fun seed ->
      let o = C.run ~adversarial:true ~seed () in
      lost := !lost + o.Sim.Chaos.stats.Sim.Runner.lost_permanent;
      rounds := !rounds + o.Sim.Chaos.stats.Sim.Runner.gossip_rounds;
      let counter name =
        Obs.Metrics.Counter.value
          (Obs.Metrics.Registry.counter o.Sim.Chaos.metrics name)
      in
      repaired := !repaired + counter "gossip.repair_applied";
      Alcotest.(check bool) "digest bytes on the wire" true
        (counter "gossip.digest_bytes" > 0))
    (seeds 1 5);
  Alcotest.(check bool) "losses were permanent" true (!lost > 0);
  Alcotest.(check bool) "gossip rounds fired" true (!rounds > 0);
  Alcotest.(check bool) "repairs actually applied" true (!repaired > 0)

let test_ae_deterministic () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let a = C.run ~adversarial:true ~seed:3 ()
  and b = C.run ~adversarial:true ~seed:3 () in
  Alcotest.(check bool) "same trace from the same seed" true
    (List.for_all2
       (fun x y ->
         Format.asprintf "%a" Model.Event.pp x
         = Format.asprintf "%a" Model.Event.pp y)
       (Model.Execution.events a.Sim.Chaos.exec)
       (Model.Execution.events b.Sim.Chaos.exec));
  Alcotest.(check int) "same permanent losses"
    a.Sim.Chaos.stats.Sim.Runner.lost_permanent
    b.Sim.Chaos.stats.Sim.Runner.lost_permanent

(* ---------- the shrinker ---------- *)

(* A seeded `Occ failure (Theorem 6 guarantees chaos finds one) must
   minimize to a small still-failing repro, bit-identically at any domain
   count. *)
let shrink_setup =
  lazy
    (let module C = Sim.Chaos.Make (Store.Mvr_store) in
     let ops = 24 in
     let failing =
       List.find_opt
         (fun seed ->
           not (Sim.Chaos.converged (C.run ~ops ~require:`Occ ~seed ())))
         (seeds 1 40)
     in
     match failing with
     | None -> Alcotest.fail "no occ-failing seed in 1..40 — chaos got too tame"
     | Some seed ->
       let plan, steps = Sim.Chaos.derive ~ops ~seed () in
       let run ~plan ~steps =
         C.run_plan ~require:`Occ ~n:3 ~plan ~steps ~seed ()
       in
       (seed, plan, steps, run))

let test_shrink_minimizes () =
  let _seed, plan, steps, run = Lazy.force shrink_setup in
  match Sim.Shrink.minimize ~domains:2 ~run ~plan ~steps () with
  | None -> Alcotest.fail "minimize lost the failure"
  | Some r ->
    Alcotest.(check bool) "minimized repro still fails" true
      (not (Sim.Chaos.converged r.Sim.Shrink.outcome));
    Alcotest.(check bool) "minimized to at most 10 ops" true
      (List.length r.Sim.Shrink.steps <= 10);
    Alcotest.(check bool) "did not grow" true
      (List.length r.Sim.Shrink.steps <= List.length steps);
    (* local minimum: replaying the repro's own inputs still fails *)
    Alcotest.(check bool) "repro replays to the same failure" true
      (not (Sim.Chaos.converged (run ~plan:r.Sim.Shrink.plan ~steps:r.Sim.Shrink.steps)))

let test_shrink_parallel_deterministic () =
  let _seed, plan, steps, run = Lazy.force shrink_setup in
  let j1 = Sim.Shrink.minimize ~domains:1 ~run ~plan ~steps () in
  let j4 = Sim.Shrink.minimize ~domains:4 ~run ~plan ~steps () in
  match (j1, j4) with
  | Some a, Some b ->
    Alcotest.(check bool) "same plan at -j 1 and -j 4" true
      (a.Sim.Shrink.plan = b.Sim.Shrink.plan);
    Alcotest.(check bool) "same steps at -j 1 and -j 4" true
      (a.Sim.Shrink.steps = b.Sim.Shrink.steps);
    Alcotest.(check int) "same rounds" a.Sim.Shrink.rounds b.Sim.Shrink.rounds;
    Alcotest.(check int) "same tried" a.Sim.Shrink.tried b.Sim.Shrink.tried
  | _ -> Alcotest.fail "minimize disagreed about failing at all"

let test_shrink_none_on_converging_run () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let converging =
    List.find
      (fun seed -> Sim.Chaos.converged (C.run ~seed ()))
      (seeds 1 10)
  in
  let plan, steps = Sim.Chaos.derive ~seed:converging () in
  let run ~plan ~steps =
    C.run_plan ~n:3 ~plan ~steps ~seed:converging ()
  in
  Alcotest.(check bool) "nothing to shrink" true
    (Sim.Shrink.minimize ~run ~plan ~steps () = None)

(* ---------- trim safety, after every step ---------- *)

(* The chaos stack with a watch on every transition: after each op,
   send and receive, no replica's floor may exceed what any current
   member holds. A member that is down is measured on the state its
   durable image recovers to; departed ids and unjoined reserves are
   not members. *)
module Trim_watch (S : Store.Store_intf.S) = struct
  module AE = Store.Anti_entropy.Make (S)
  module DA = Store.Durable.Make (AE)

  let watch : (int -> DA.state -> unit) ref = ref (fun _ _ -> ())

  module W = struct
    type state = { me : int; d : DA.state }

    let name = DA.name
    let invisible_reads = DA.invisible_reads
    let op_driven = DA.op_driven
    let create cfg ~n ~me = { me; d = DA.create cfg ~n ~me }
    let init = create Store.Store_intf.default

    let seen t =
      !watch t.me t.d;
      t

    let do_op t ~obj op =
      let d, rval, w = DA.do_op t.d ~obj op in
      (seen { t with d }, rval, w)

    let has_pending t = DA.has_pending t.d

    let send t =
      let d, payload = DA.send t.d in
      (seen { t with d }, payload)

    let receive t ~sender payload = seen { t with d = DA.receive t.d ~sender payload }

    (* the protocol members, unwatched: they touch only control state *)
    let ae t = DA.inner t.d
    let tick t = { t with d = DA.tick t.d }
    let settled sts = AE.settled (Array.map ae sts)
    let progress t = AE.have (ae t)
    let announce_join ~epoch t = { t with d = DA.announce_join ~epoch t.d }
    let announce_leave ~epoch t = { t with d = DA.announce_leave ~epoch t.d }
    let queue_depth t = AE.queue_depth (ae t)
    let pending_bytes t = AE.pending_bytes (ae t)
    let log_entries t = AE.log_entries (ae t)
    let log_bytes t = AE.log_bytes (ae t)
    let counters t = AE.counters (ae t)
    let recover t = { t with d = DA.recover t.d }
    let durable = true
  end

  module R = Sim.Runner.Over (W)

  (* replays [Chaos.run_plan]'s schedule; returns how many checks saw a
     non-zero floor *)
  let run ~mix ~seed =
    let plan, steps = Sim.Chaos.derive ~mix ~adversarial:true ~churn:true ~seed () in
    let capacity =
      match plan.Fault_plan.churn with None -> 3 | Some c -> c.Fault_plan.capacity
    in
    let sim =
      R.create ~seed ~config:Store.Store_intf.default ~n:capacity ~initial:3 ~record_spans:false
        ~policy:(Sim.Net_policy.random_delay ()) ~faults:plan ()
    in
    (* a down member's recovered [have], computed once per crash *)
    let recovered = Array.make capacity None in
    let have_of ~me d m =
      if m = me then AE.have (DA.inner d)
      else
        let st = R.replica_state sim m in
        if not (R.is_down sim ~replica:m) then W.progress st
        else
          match recovered.(m) with
          | Some (st', h) when st' == st -> h
          | _ ->
            let h = AE.have (DA.inner (DA.recover st.W.d)) in
            recovered.(m) <- Some (st, h);
            h
    in
    let trimmed = ref 0 in
    (watch :=
       fun me d ->
         let members = List.filter (fun m -> R.is_member sim ~replica:m) (List.init capacity Fun.id) in
         let haves = List.map (fun m -> (m, have_of ~me d m)) members in
         for r = 0 to capacity - 1 do
           let floor = AE.floor (if r = me then DA.inner d else W.ae (R.replica_state sim r)) in
           if Vclock.sum floor > 0 then incr trimmed;
           List.iter
             (fun (m, have) ->
               if not (Vclock.leq floor have) then
                 Alcotest.failf "seed %d: replica %d trimmed to %a but member %d holds only %a"
                   seed r Vclock.pp floor m Vclock.pp have)
             haves
         done);
    let serving r = R.is_serving sim ~replica:r && not (R.is_down sim ~replica:r) in
    let faults = ref (Fault_plan.events plan) in
    let rec fire_up_to time =
      match !faults with
      | { Fault_plan.at; what } :: rest when at <= time ->
        faults := rest;
        R.advance_to sim at;
        (match what with
        | `Crash r -> R.crash sim ~replica:r
        | `Recover r -> R.recover sim ~replica:r
        | `Join r -> R.join sim ~replica:r
        | `Leave (r, graceful) -> R.leave sim ~replica:r ~graceful);
        fire_up_to time
      | _ -> ()
    in
    List.iter
      (fun (s : Sim.Workload.step) ->
        fire_up_to s.at;
        R.advance_to sim s.at;
        match List.find_opt serving (List.init capacity (fun k -> (s.replica + k) mod capacity)) with
        | Some replica -> ignore (R.op sim ~replica ~obj:s.obj s.op)
        | None -> ())
      steps;
    fire_up_to plan.Fault_plan.horizon;
    R.advance_to sim plan.Fault_plan.horizon;
    (match R.run_until_quiescent ~max_events:200_000 sim with
    | () -> ()
    | exception Sim.Runner.Divergence _ -> Alcotest.failf "seed %d: diverged" seed);
    (* converged: every serving member reads the same value of every object *)
    let readers = List.filter serving (Sim.Membership.members (R.membership sim)) in
    for obj = 0 to 1 do
      match List.map (fun replica -> R.op sim ~replica ~obj Model.Op.Read) readers with
      | first :: rest ->
        if not (List.for_all (Model.Op.equal_response first) rest) then
          Alcotest.failf "seed %d: object %d reads disagree after quiescence" seed obj
      | [] -> ()
    done;
    watch := (fun _ _ -> ());
    (!trimmed, R.stats sim)
end

let trim_safety (module S : Store.Store_intf.S) ~mix () =
  let module T = Trim_watch (S) in
  let trimmed = ref 0 and crashes = ref 0 and joins = ref 0 and leaves = ref 0 in
  List.iter
    (fun seed ->
      let t, st = T.run ~mix ~seed in
      trimmed := !trimmed + t;
      crashes := !crashes + st.Sim.Runner.crashes;
      joins := !joins + st.Sim.Runner.joins;
      leaves := !leaves + st.Sim.Runner.leaves)
    (seeds 1 24);
  Alcotest.(check bool) "floors rose" true (!trimmed > 0);
  Alcotest.(check bool) "crashes, joins and leaves exercised" true
    (!crashes > 0 && !joins > 0 && !leaves > 0)

(* ---------- protocol counters ---------- *)

(* A crash-recovery replay re-runs every logged input since the last
   image, but none of its traffic reaches the wire again: the recovered
   stack must report exactly the counters it crashed with, never the
   history counted twice. *)
let test_recover_counts_nothing () =
  let module St = Sim.Stack.Durable (Store.Mvr_store) in
  let a = ref (St.init ~n:2 ~me:0) and b = ref (St.init ~n:2 ~me:1) in
  for i = 1 to 10 do
    let a', _, _ = St.do_op !a ~obj:(i mod 3) (Model.Op.Write (vi i)) in
    let a' = if i mod 2 = 0 then St.tick a' else a' in
    let a', payload = St.send a' in
    a := a';
    (* every payload arrives twice: b counts one duplicate each *)
    b := St.receive (St.receive !b ~sender:0 payload) ~sender:0 payload
  done;
  let check name st =
    let before = St.counters st in
    let after = St.counters (St.recover st) in
    if before <> after then
      Alcotest.failf "%s: recovery changed the counters (updates %d -> %d, digests %d -> %d, dups %d -> %d)"
        name before.updates after.updates before.digests after.digests before.dup_payloads
        after.dup_payloads
  in
  Alcotest.(check int) "ten updates sent" 10 (St.counters !a).updates;
  Alcotest.(check bool) "digests sent" true ((St.counters !a).digests > 0);
  Alcotest.(check int) "ten duplicates received" 10 (St.counters !b).dup_payloads;
  check "sender" !a;
  check "receiver" !b

(* The published counters are exactly the traffic in the trace: every
   Send event whose envelope carries an update item is one
   [gossip.updates], every one carrying a full or delta digest one
   [gossip.digests + gossip.digest_deltas] — crashes and their recovery
   replays included. The item kinds' bytes and the envelope headers'
   [gossip.framing_bytes] add up to every payload byte sent. *)
let counters_match_trace (module S : Store.Store_intf.S) ~churn seeds () =
  let module C = Sim.Chaos.Make (S) in
  let recoveries = ref 0 in
  List.iter
    (fun seed ->
      let o = C.run ~n:4 ~ops:60 ~adversarial:true ~churn ~seed () in
      recoveries := !recoveries + o.Sim.Chaos.stats.Sim.Runner.recoveries;
      let carrying kinds =
        List.length
          (List.filter
             (function
               | Model.Event.Send { msg; _ } ->
                 let items =
                   List.map
                     (fun k -> List.hd (String.split_on_char '(' k))
                     (String.split_on_char '+' (Store.Anti_entropy.classify msg.Model.Message.payload))
                 in
                 List.exists (fun k -> List.mem k items) kinds
               | _ -> false)
             (Model.Execution.events o.Sim.Chaos.exec))
      in
      let counter name =
        Obs.Metrics.Counter.value (Obs.Metrics.Registry.counter o.Sim.Chaos.metrics name)
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: update envelopes" seed)
        (carrying [ "update" ]) (counter "gossip.updates");
      Alcotest.(check int)
        (Printf.sprintf "seed %d: digest envelopes" seed)
        (carrying [ "digest"; "digest-delta" ])
        (counter "gossip.digests" + counter "gossip.digest_deltas");
      let payload_bytes =
        match Obs.Metrics.Registry.find o.Sim.Chaos.metrics "wire.payload_bytes" with
        | Some (Obs.Metrics.Registry.Histogram h) -> int_of_float (Obs.Metrics.Histogram.sum h)
        | _ -> Alcotest.fail "no wire.payload_bytes"
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: item and framing bytes" seed)
        payload_bytes
        (List.fold_left
           (fun a k -> a + counter ("gossip." ^ k ^ "_bytes"))
           0
           [ "update"; "digest"; "request"; "repair"; "membership"; "framing" ]))
    seeds;
  Alcotest.(check bool) "recoveries exercised" true (!recoveries > 0)

(* A joiner enters empty, so its hello asks for everything: a peer that
   hears it answers with the first [repair_batch] payloads of every
   origin it logs, and with a digest from which the joiner requests the
   rest. *)
let test_hello_answered_with_every_origin () =
  let cfg = { Store.Store_intf.default with repair_batch = 2 } in
  let a = AE.create cfg ~n:3 ~me:0 and b = AE.create cfg ~n:3 ~me:1 in
  let a, _ = write a 1 in
  let a, _ = write a 2 in
  let a, _ = write a 3 in
  let b, q0 = write b 10 in
  let _, q1 = write b 11 in
  let a = AE.receive (AE.receive a ~sender:1 q0) ~sender:1 q1 in
  let _, hello = AE.send (AE.announce_join ~epoch:1 (AE.create cfg ~n:3 ~me:2)) in
  Alcotest.(check string) "the joiner's hello rides with its digest" "digest+hello"
    (Store.Anti_entropy.classify hello);
  let _, answer = AE.send (AE.receive a ~sender:2 hello) in
  Alcotest.(check string) "two payloads of each origin, and a digest" "digest+repair(4)"
    (Store.Anti_entropy.classify answer);
  let j = AE.receive (AE.create cfg ~n:3 ~me:2) ~sender:0 answer in
  Alcotest.check vclock "the joiner applied both batches" (Vclock.of_array [| 2; 2; 0 |])
    (AE.have j);
  Alcotest.(check bool) "and asks for the rest" true (AE.has_pending j);
  (* the digest and the batches came in one envelope: the ask is made
     after the batches were applied, so it starts past them *)
  let _, ask = AE.send j in
  Alcotest.(check (list (list int))) "it asks a for origin 0 from seq 2" [ [ 0; 0; 2; 2 ] ]
    (request_fields ask)

(* A joiner bootstraps a stream longer than two repair batches under the
   default configuration: the answer to its hello and the answer to each
   of its asks carry min(repair_batch, remaining) payloads, so the stream
   arrives in ceil(len / repair_batch) answers. *)
let test_bootstrap_long_stream_in_batches () =
  let cfg = Store.Store_intf.default in
  let batch = cfg.repair_batch in
  let len = (2 * batch) + (batch / 2) + 1 in
  let a = ref (AE.create cfg ~n:3 ~me:0) in
  for v = 1 to len do
    a := fst (write !a v)
  done;
  let j = AE.announce_join ~epoch:1 (AE.create cfg ~n:3 ~me:2) in
  let j, hello = AE.send j in
  let a, answer = AE.send (AE.receive !a ~sender:2 hello) in
  (* apply an answer, then let the joiner ask (ticking both until its
     backoff lets it; a's digest, when a sends one, shows nothing new) and
     route the ask to a *)
  let rec drive a j answer carried rounds =
    let before = Vclock.get (AE.have j) 0 in
    let j = AE.receive j ~sender:0 answer in
    let carried = (Vclock.get (AE.have j) 0 - before) :: carried in
    let rec ask a j rounds =
      if rounds > 100 then Alcotest.fail "the joiner never asked again"
      else if AE.has_pending j then
        let j, req = AE.send j in
        if List.mem "request" (String.split_on_char '+' (Store.Anti_entropy.classify req))
        then (a, j, req, rounds)
        else ask a j rounds
      else
        let a = AE.tick a and j = AE.tick j in
        if AE.has_pending a then
          let a, da = AE.send a in
          ask a (AE.receive j ~sender:0 da) (rounds + 1)
        else ask a j (rounds + 1)
    in
    if Vclock.get (AE.have j) 0 = len then (j, List.rev carried)
    else
      let a, j, req, rounds = ask a j rounds in
      let a, answer = AE.send (AE.receive a ~sender:2 req) in
      drive a j answer carried rounds
  in
  let j, carried = drive a j answer [] 0 in
  let expected = List.init ((len + batch - 1) / batch) (fun k -> min batch (len - (k * batch))) in
  Alcotest.(check (list int)) "payloads per answer" expected carried;
  Alcotest.(check int) "nothing arrived twice" 0 (AE.counters j).Store.Store_intf.dup_payloads

(* ---------- the envelope codec ---------- *)

module Envelope = Store.Envelope
module Plan = Store.Repair_plan

(* envelopes of either version, with small and multi-byte fields; a v1
   envelope has at least one item and requests without a bound *)
let gen_envelope =
  let open QCheck2.Gen in
  let nat = oneof [ int_bound 70; int_bound 1_000_000 ] in
  let payload = string_size (int_bound 40) in
  let delta gaps =
    snd (List.fold_left_map (fun last (gap, v) -> (last + 1 + gap, (last + 1 + gap, v))) (-1) gaps)
  in
  let item v2 : Envelope.item t =
    oneof
      [
        map2 (fun seq payload -> Envelope.Update { seq; payload }) nat payload;
        map (fun a -> Envelope.Digest (Vclock.of_array a)) (array_size (int_range 1 8) nat);
        map (fun gaps -> Envelope.Digest_delta (delta gaps)) (list_size (int_bound 5) (pair (int_bound 3) nat));
        map4
          (fun dst origin from_seq count ->
            Envelope.Request { dst; origin; from_seq; count = (if v2 then Some count else None) })
          nat nat nat nat;
        map2 (fun dst items -> Envelope.Repair { dst; items }) nat (list_size (int_bound 4) (triple nat nat payload));
        map2
          (fun dst runs -> Envelope.Repair_runs { dst; runs })
          nat
          (list_size (int_bound 3) (triple nat nat (list_size (int_bound 4) payload)));
        map (fun e -> Envelope.Hello e) nat;
        map (fun e -> Envelope.Goodbye e) nat;
      ]
  in
  bool >>= fun v2 ->
  map
    (fun items -> { Envelope.v2; items })
    (list_size (if v2 then int_bound 6 else int_range 1 6) (item v2))

(* the round trip, and an item past the last kind tag (7): appended to
   a v2 envelope it is read as one more item, and rejected *)
let prop_codec_roundtrip =
  q "envelope: decode (encode e) = e, v1 included" gen_envelope (fun e ->
      let p = Envelope.encode e in
      Envelope.decode p = e
      && ((not e.v2)
         ||
         match Envelope.decode (p ^ "\x08\x00") with
         | exception Wire.Decoder.Malformed _ -> true
         | _ -> false))

(* trace labels name the decoded items, in order of first appearance *)
let prop_classify_names_decoded =
  q "envelope: classify names the decoded items" gen_envelope (fun e ->
      let p = Envelope.encode e in
      let names =
        List.fold_left
          (fun acc i -> if List.mem (Envelope.name i) acc then acc else acc @ [ Envelope.name i ])
          [] (Envelope.decode p).items
      in
      let label = Store.Anti_entropy.classify p in
      List.map
        (fun k -> List.hd (String.split_on_char '(' k))
        (if label = "" then [] else String.split_on_char '+' label)
      = names)

(* ---------- the repair planner ---------- *)

let gen_cfg =
  QCheck2.Gen.map2
    (fun repair_batch max_backoff -> { Store.Store_intf.default with repair_batch; max_backoff })
    (QCheck2.Gen.int_range 1 40) (QCheck2.Gen.int_range 1 40)

(* an ask of [peer] alone for [0, repair_batch), from its digest, with
   no round trip measured *)
let ask plan cfg ~round ~peer ~origin =
  match
    Plan.ask plan cfg ~round ~sender:peer ~candidates:[ { Plan.peer; rtt = None } ] ~origin
      ~have:0 ~next_held:None
  with
  | Some (_, _, plan) -> plan
  | None -> plan

(* an asker that holds [have] and some seqs past it asks for
   [have, upto): none of it held, and at most one batch *)
let prop_ask_covers_no_held_seq =
  q "planner: an ask covers no held seq and at most one batch"
    QCheck2.Gen.(triple gen_cfg (int_bound 1000) (list_size (int_bound 6) (int_range 1 80)))
    (fun (cfg, have, offsets) ->
      let held = List.map (fun d -> have + d) offsets in
      let next_held = if held = [] then None else Some (List.fold_left min max_int held) in
      match
        Plan.ask Plan.empty cfg ~round:0 ~sender:1 ~candidates:[ { Plan.peer = 1; rtt = None } ]
          ~origin:0 ~have ~next_held
      with
      | None -> false
      | Some (_, upto, _) ->
        upto > have
        && upto - have <= cfg.repair_batch
        && not (List.exists (fun s -> s < upto) held))

let prop_answer_bounded =
  q "planner: an answer stays within the bound, the floor and the batch"
    QCheck2.Gen.(
      quad gen_cfg (int_bound 100) (int_bound 100) (option (oneof [ int_bound 100; return max_int ])))
    (fun (cfg, floor, from_seq, count) ->
      (* a v1 ask, or a count past the largest seq, is unbounded *)
      let upto =
        match count with Some c when c < max_int - from_seq -> from_seq + c | _ -> max_int
      in
      let start, stop = Plan.answer cfg ~floor ~from_seq ~upto in
      let answered = List.init (max 0 (stop - start)) (fun i -> start + i) in
      List.length answered <= cfg.repair_batch
      && List.for_all (fun s -> s >= floor && s >= from_seq && s < upto) answered)

(* Karn's rule: the answer to a first ask times the round trip; once
   the gap was asked for again, its answer is ambiguous *)
let prop_only_first_ask_timed =
  q "planner: only an answer to a first ask is timed"
    QCheck2.Gen.(triple gen_cfg (int_bound 50) (int_bound 60))
    (fun (cfg, round, wait) ->
      let first = ask Plan.empty cfg ~round ~peer:1 ~origin:0 in
      let due = (Option.get (Plan.last_ask first ~origin:0 ~peer:1)).due in
      let again = ask first cfg ~round:due ~peer:1 ~origin:0 in
      let r = float_of_int wait in
      Plan.answered first ~rtt:None ~round:(round + wait) ~peer:1 ~origin:0
      = Some { Plan.srtt = r; rttvar = r /. 2.0 }
      && (Option.get (Plan.last_ask again ~origin:0 ~peer:1)).tries = 2
      && Plan.answered again ~rtt:None ~round:(due + wait) ~peer:1 ~origin:0 = None
      && Plan.answered first ~rtt:None ~round ~peer:2 ~origin:0 = None)

(* peers 1..k with round trips: peer 1's is measured, the others' may be *)
let gen_candidates =
  let rtt srtt = { Plan.srtt; rttvar = srtt /. 2.0 } in
  QCheck2.Gen.(
    map2
      (fun first others ->
        { Plan.peer = 1; rtt = Some (rtt first) }
        :: List.mapi (fun i srtt -> { Plan.peer = i + 2; rtt = Option.map rtt srtt }) others)
      (float_bound_inclusive 10.0)
      (list_size (int_bound 4) (option (float_bound_inclusive 10.0))))

(* whether [peer]'s ask for origin 0 is still inside its wait *)
let waiting plan ~round peer =
  match Plan.last_ask plan ~origin:0 ~peer with Some a -> round < a.Plan.due | None -> false

(* A gap's peers become candidates one by one, as their digests show it,
   and stay candidates; some digests bring an answer instead. With a
   round trip measured from the start, the gap never has two asks inside
   their wait, whoever sent the digest. *)
let prop_one_ask_per_gap =
  q "planner: with a round trip measured, one ask per gap is inside its wait"
    QCheck2.Gen.(
      triple gen_cfg gen_candidates
        (list_size (int_bound 60) (quad (int_bound 3) (int_bound 4) (int_bound 4) (int_bound 9))))
    (fun (cfg, peers, steps) ->
      let k = List.length peers in
      let round = ref 0 and plan = ref Plan.empty and known = ref 0 in
      List.for_all
        (fun (dt, more, from, progress) ->
          round := !round + dt;
          if progress = 0 then plan := Plan.close !plan ~origin:0;
          (* peer 1 and the first [known] others show the gap *)
          known := max !known more;
          let candidates = List.filteri (fun i _ -> i <= !known) peers in
          let sender = (List.nth candidates (from mod List.length candidates)).Plan.peer in
          (match
             Plan.ask !plan cfg ~round:!round ~sender ~candidates ~origin:0 ~have:0 ~next_held:None
           with
          | Some (_, _, p) -> plan := p
          | None -> ());
          List.length (List.filter (waiting !plan ~round:!round) (List.init k (fun i -> i + 1)))
          <= 1)
        steps)

(* Progress short of an ask's window leaves the ask as it was: its
   answer is still in flight, so before [due] nobody is asked again,
   whichever candidate's digest shows the rest of the gap. *)
let prop_partial_progress_keeps_ask =
  q "planner: progress short of an ask's window keeps it open"
    QCheck2.Gen.(quad gen_cfg gen_candidates (int_bound 50) (pair (int_bound 1000) (int_bound 1000)))
    (fun (cfg, candidates, round, (have, fill)) ->
      match Plan.ask Plan.empty cfg ~round ~sender:1 ~candidates ~origin:0 ~have ~next_held:None with
      | None -> false
      | Some (peer, upto, plan) ->
        let have' = have + (fill mod (upto - have)) in
        let after = Plan.progress plan ~origin:0 ~have:have' in
        let a = Option.get (Plan.last_ask plan ~origin:0 ~peer) in
        let asks_again round =
          List.exists
            (fun c ->
              Plan.ask after cfg ~round ~sender:c.Plan.peer ~candidates ~origin:0 ~have:have'
                ~next_held:None
              <> None)
            candidates
        in
        Plan.last_ask after ~origin:0 ~peer = Some a
        && not (List.exists asks_again (List.init (a.due - round) (fun i -> round + i))))

(* An ask closes once progress fills its window or a repair addressed
   to the asker arrives, and the next ask for that origin is a first
   try again; the asks for other origins are kept as they were. *)
let prop_fill_or_answer_closes =
  q "planner: a filled window or an answer closes that origin's asks only"
    QCheck2.Gen.(
      quad gen_cfg (int_bound 50)
        (list_size (int_range 1 5) (pair (int_bound 3) (int_range 1 4)))
        (pair bool (int_bound 40)))
    (fun (cfg, round, asks, (answer, past)) ->
      let plan =
        List.fold_left (fun plan (origin, peer) -> ask plan cfg ~round ~peer ~origin) Plan.empty asks
      in
      let origin = fst (List.hd asks) in
      let after =
        if answer then Plan.close plan ~origin
        else Plan.progress plan ~origin ~have:(cfg.repair_batch + past)
      in
      List.for_all
        (fun (o, peer) ->
          if o = origin then
            Plan.last_ask after ~origin ~peer = None
            && (Option.get (Plan.last_ask (ask after cfg ~round ~peer ~origin) ~origin ~peer)).tries = 1
          else Plan.last_ask after ~origin:o ~peer = Plan.last_ask plan ~origin:o ~peer)
        asks)

(* Nobody ever answers: every ask goes to a candidate asked the fewest
   times so far, so no peer is asked twice before every other candidate
   was asked once. *)
let prop_reask_fewest_tries =
  q "planner: a re-ask goes to a candidate with the fewest tries"
    QCheck2.Gen.(triple gen_cfg gen_candidates (list_size (int_range 1 120) (int_bound 4)))
    (fun (cfg, candidates, senders) ->
      let k = List.length candidates in
      let tries = Array.make (k + 1) 0 in
      let plan = ref Plan.empty in
      List.for_all
        (fun (round, from) ->
          let sender = (List.nth candidates (from mod k)).Plan.peer in
          match
            Plan.ask !plan cfg ~round ~sender ~candidates ~origin:0 ~have:0 ~next_held:None
          with
          | None -> true
          | Some (peer, _, p) ->
            plan := p;
            let fewest = List.for_all (fun c -> tries.(peer) <= tries.(c.Plan.peer)) candidates in
            tries.(peer) <- tries.(peer) + 1;
            fewest && (Option.get (Plan.last_ask p ~origin:0 ~peer)).tries = tries.(peer))
        (List.mapi (fun round from -> (round, from)) senders)
      && Array.fold_left ( + ) 0 tries > 0)

let suite =
  ( "anti-entropy",
    [
      tc "digest/repair closes a loss by hand" test_digest_repair_exchange;
      tc "out-of-order updates buffered, applied in order" test_out_of_order_buffered;
      tc "duplicate deliveries dropped" test_duplicates_dropped;
      tc "pull is live across a one-way dead link" test_one_way_dead_link;
      tc "adversarial plans extend the baseline draws" test_adversarial_extends_baseline;
      tc "dead links validated for connectivity" test_dead_link_validation;
      tc "mutate is never the identity" test_mutate_never_identity;
      ae_chaos_seeds "ae chaos: mvr converges on 10 adversarial seeds"
        (module Store.Mvr_store) ~require:`Correct Specf.mvr
        Sim.Workload.register_mix (seeds 1 10);
      ae_chaos_seeds "ae chaos: causal mvr converges on 6 adversarial seeds"
        (module Store.Causal_mvr_store) ~require:`Causal Specf.mvr
        Sim.Workload.register_mix (seeds 11 16);
      ae_chaos_seeds "ae chaos: or-set converges on 6 adversarial seeds"
        (module Store.Orset_store) ~require:`Correct Specf.orset
        Sim.Workload.orset_mix (seeds 17 22);
      ae_chaos_seeds "ae chaos: lww converges on 6 adversarial seeds"
        (module Store.Lww_store) ~require:`Converge Specf.rw_register
        Sim.Workload.register_mix (seeds 23 28);
      tc "ae chaos exercises permanent loss and repair" test_ae_run_exercises_protocol;
      tc "ae chaos deterministic in the seed" test_ae_deterministic;
      tc "shrink minimizes an occ failure to <= 10 ops" test_shrink_minimizes;
      tc "shrink bit-identical across domain counts" test_shrink_parallel_deterministic;
      tc "shrink returns None when the run converges" test_shrink_none_on_converging_run;
      tc "trim: a dropped repair is re-requested and served from the log"
        test_dropped_repair_rerequested;
      tc "trim: a stale request is answered from the floor"
        test_stale_request_answered_from_floor;
      tc "trim: orphans stay exact" test_orphans_exact_across_trim;
      tc "trim: settled across floors and a crash-leaver" test_settled_across_floors;
      tc "trim safety: causal MVR, 24 churn seeds"
        (trim_safety (module Store.Causal_mvr_store) ~mix:Sim.Workload.register_mix);
      tc "trim safety: OR-set, 24 churn seeds"
        (trim_safety (module Store.Causal_orset_store) ~mix:Sim.Workload.orset_mix);
      tc "trim safety: LWW, 24 churn seeds"
        (trim_safety (module Store.Lww_store) ~mix:Sim.Workload.register_mix);
      tc "trim safety: COPS, 24 churn seeds"
        (trim_safety (module Store.Cops_store) ~mix:Sim.Workload.register_mix);
      tc "counters: recovery counts nothing" test_recover_counts_nothing;
      tc "counters: mvr gossip counters equal the trace's envelopes, 16 seeds"
        (counters_match_trace (module Store.Mvr_store) ~churn:false (seeds 1 16));
      tc "counters: causal mvr with churn, 8 seeds"
        (counters_match_trace (module Store.Causal_mvr_store) ~churn:true (seeds 1 8));
      tc "counters: dup_payloads split by cause" test_dup_split;
      tc "hello: answered with the first batch of every origin"
        test_hello_answered_with_every_origin;
      tc "a request is bounded by the first payload held" test_request_bounded_by_held;
      tc "an inflated round trip never delays an ask past max_backoff"
        test_inflated_rtt_capped;
      tc "an ask partly filled by late broadcasts stays open for its answer"
        test_eager_fill_keeps_ask_open;
      tc "bootstrap: a long stream arrives in full repair batches"
        test_bootstrap_long_stream_in_batches;
      prop_codec_roundtrip;
      prop_classify_names_decoded;
      prop_ask_covers_no_held_seq;
      prop_answer_bounded;
      prop_only_first_ask_timed;
      prop_partial_progress_keeps_ask;
      prop_fill_or_answer_closes;
      prop_one_ask_per_gap;
      prop_reask_fewest_tries;
      tc "one ask per gap: a gap closes when its fastest peer dies" test_fastest_peer_dies_mid_gap;
    ] )
