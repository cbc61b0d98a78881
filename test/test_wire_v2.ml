(* Wire v2: compressed clocks and dot sets, version negotiation, and
   frame-level fuzzing of both envelope generations. The chaos harness
   treats a [Malformed] that escapes the CRC frame check as a hard
   error, so the decoding contract tested here is: valid frames of
   either version decode, every truncation raises [Malformed], and no
   input ever crashes or silently misdecodes past the checksum. *)

open Helpers
open Haec
module Vclock = Clock.Vclock
module Dot = Clock.Dot
module AE = Store.Anti_entropy.Make (Store.Mvr_store)

let encoded f = Wire.encode f

let clock_gen =
  (* mixes the three regimes the chooser discriminates: small dense
     values (raw wins), constant runs (run-length wins), and large
     spread values (bit-packing wins) *)
  QCheck2.Gen.(
    let* n = 1 -- 24 in
    let* style = 0 -- 2 in
    match style with
    | 0 -> array_size (return n) (0 -- 30)
    | 1 ->
      let* v = 0 -- 100_000 in
      return (Array.make n v)
    | _ -> array_size (return n) (0 -- 1_000_000))

(* ---------- compressed clocks ---------- *)

let prop_encode_c_roundtrip =
  q "encode_c/decode_any roundtrip" clock_gen (fun a ->
      let v = Vclock.of_array a in
      Vclock.equal v (Wire.decode (encoded (fun e -> Vclock.encode_c e v)) Vclock.decode_any))

let prop_encode_c_never_larger =
  q "encode_c never beats v1 at being large" clock_gen (fun a ->
      let v = Vclock.of_array a in
      String.length (encoded (fun e -> Vclock.encode_c e v))
      <= String.length (encoded (fun e -> Vclock.encode e v)))

let prop_v1_clock_still_decodes =
  q "decode_any reads v1 clocks" clock_gen (fun a ->
      let v = Vclock.of_array a in
      Vclock.equal v (Wire.decode (encoded (fun e -> Vclock.encode e v)) Vclock.decode_any))

let delta_gen =
  QCheck2.Gen.(
    let* prev = clock_gen in
    let* bumps = array_size (return (Array.length prev)) (0 -- 5) in
    return (prev, Array.mapi (fun i p -> p + bumps.(i)) prev))

let prop_delta_c_roundtrip =
  q "encode_delta_c/decode_delta_any roundtrip" delta_gen (fun (p, nxt) ->
      let prev = Vclock.of_array p and next = Vclock.of_array nxt in
      Vclock.equal next
        (Wire.decode
           (encoded (fun e -> Vclock.encode_delta_c e ~prev next))
           (fun d -> Vclock.decode_delta_any d ~prev)))

let prop_delta_c_never_larger =
  q "encode_delta_c never larger than dense" delta_gen (fun (p, nxt) ->
      let prev = Vclock.of_array p and next = Vclock.of_array nxt in
      String.length (encoded (fun e -> Vclock.encode_delta_c e ~prev next))
      <= String.length (encoded (fun e -> Vclock.encode_delta e ~prev next)))

(* the v1 byte layout is a compatibility contract: pin it *)
let test_v1_golden_bytes () =
  Alcotest.(check string) "v1 clock bytes" "\x03\x01\x02\x03"
    (encoded (fun e -> Vclock.encode e (Vclock.of_array [| 1; 2; 3 |])));
  let s = Dot.Set.of_list [ Dot.make ~replica:0 ~seq:1; Dot.make ~replica:2 ~seq:5 ] in
  Alcotest.(check string) "v1 dot set bytes" "\x02\x00\x01\x02\x05"
    (encoded (fun e -> Dot.encode_set e s))

(* ---------- compressed dot sets ---------- *)

let dot_set_gen =
  QCheck2.Gen.(
    let* pairs = list_size (0 -- 20) (pair (0 -- 12) (1 -- 100_000)) in
    return
      (Dot.Set.of_list (List.map (fun (r, s) -> Dot.make ~replica:r ~seq:s) pairs)))

let prop_dot_set_c_roundtrip =
  q "encode_set_c/decode_set_any roundtrip" dot_set_gen (fun s ->
      Dot.Set.equal s
        (Wire.decode (encoded (fun e -> Dot.encode_set_c e s)) Dot.decode_set_any))

let prop_dot_set_c_delta_exact =
  q "set_c_delta matches the emitted sizes" dot_set_gen (fun s ->
      let c = String.length (encoded (fun e -> Dot.encode_set_c e s)) in
      let v1 = String.length (encoded (fun e -> Dot.encode_set e s)) in
      c - v1 = Dot.set_c_delta s)

(* ---------- envelope fuzz: truncation and byte flips ---------- *)

(* a small two-replica session, returning every distinct payload the
   protocol put on the wire: updates, a digest, the request it prompts,
   and the repair batch that answers it *)
let session_payloads () =
  let a = AE.init ~n:2 ~me:0 and b = AE.init ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:1 (Model.Op.Write (vi 2)) in
  let a, lost = AE.send a in
  let b = AE.receive b ~sender:0 p1 in
  let a, digest = AE.send (AE.tick a) in
  let b = AE.receive b ~sender:0 digest in
  let b, request = AE.send b in
  let a = AE.receive a ~sender:1 request in
  let a, repair = AE.send a in
  let b = AE.receive b ~sender:0 repair in
  ignore (a, b);
  [ p1; lost; digest; request; repair ]

(* A session as a v1 replica emitted it, recorded from the last build
   that could still emit v1 (which also pushed repairs): a's update, its
   lost update, b's digest, and a's repair pushed toward b. No replica
   emits these layouts any more; every decoder must still read them. *)
let v1_update = "\001\000\000\t\001\000\002\001\000\000\001\000\002"

let v1_lost_update = "\001\000\001\t\001\001\002\001\000\000\001\000\004"

let v1_digest = "\001\001\002\001\000"

let v1_repair = "\001\003\001\001\000\001\t\001\001\002\001\000\000\001\000\004"

let v1_session_payloads = [ v1_update; v1_lost_update; v1_digest; v1_repair ]

let both_versions () = [ ("v1", v1_session_payloads); ("v2", session_payloads ()) ]

let expect_malformed ~what payload =
  let b = AE.init ~n:2 ~me:1 in
  match AE.receive b ~sender:0 payload with
  | _ -> Alcotest.failf "%s: expected Malformed" what
  | exception Wire.Decoder.Malformed _ -> ()

let test_truncation_fuzz () =
  (* the v2 request ends in the asker's bound (one batch past seq 1, as b
     holds nothing above its gap), so one of the cuts below drops exactly
     that field *)
  Alcotest.(check string) "the fuzzed v2 request carries its bound"
    "\000\002\001\002\000\000\001\032"
    (List.nth (session_payloads ()) 3);
  List.iter
    (fun (version, payloads) ->
      List.iteri
        (fun pi payload ->
          for len = 0 to String.length payload - 1 do
            expect_malformed
              ~what:(Printf.sprintf "%s payload %d cut to %d bytes" version pi len)
              (String.sub payload 0 len)
          done)
        payloads)
    (both_versions ())

let test_sealed_flip_fuzz () =
  (* a corrupted frame must die at the CRC, whatever the inner version *)
  List.iter
    (fun (_, payloads) ->
      List.iter
        (fun payload ->
          let framed = Wire.Frame.seal payload in
          for i = 0 to String.length framed - 1 do
            let bs = Bytes.of_string framed in
            Bytes.set bs i (Char.chr (Char.code (Bytes.get bs i) lxor 0x40));
            match Wire.Frame.unseal (Bytes.to_string bs) with
            | exception Wire.Decoder.Malformed _ -> ()
            | _ -> Alcotest.failf "flipped byte %d of a sealed frame accepted" i
          done)
        payloads)
    (both_versions ())

let prop_receive_total =
  (* arbitrary bytes: receive either applies or raises Malformed *)
  q "anti-entropy receive is total" QCheck2.Gen.string (fun s ->
      let b = AE.init ~n:2 ~me:1 in
      match AE.receive b ~sender:0 s with
      | _ -> true
      | exception Wire.Decoder.Malformed _ -> true)

(* A v1 request has no bound: it is answered with the batch from its
   seq up, as v1 peers expect. *)
let test_v1_request_unbounded () =
  let a = ref (AE.init ~n:2 ~me:0) in
  for v = 1 to 3 do
    let a', _, _ = AE.do_op !a ~obj:0 (Model.Op.Write (vi v)) in
    a := fst (AE.send a')
  done;
  (* one item: a request to replica 0 for origin 0 from seq 1 *)
  let v1_request = "\001\002\000\000\001" in
  Alcotest.(check string) "v1 request classified" "request" (Store.Anti_entropy.classify v1_request);
  let _, repair = AE.send (AE.receive !a ~sender:1 v1_request) in
  Alcotest.(check string) "answered from seq 1 to the end" "repair(2)"
    (Store.Anti_entropy.classify repair)

(* ---------- mixed versions ---------- *)

let drain st =
  let rec go st acc =
    if AE.has_pending st then
      let st, p = AE.send st in
      go st (p :: acc)
    else (st, List.rev acc)
  in
  go st []

(* tick both replicas and exchange everything pending until they settle *)
let rec converge a b fuel =
  if fuel = 0 then Alcotest.fail "replicas did not converge";
  let a = AE.tick a and b = AE.tick b in
  let a, from_a = drain a in
  let b = List.fold_left (fun b p -> AE.receive b ~sender:0 p) b from_a in
  let b, from_b = drain b in
  let a = List.fold_left (fun a p -> AE.receive a ~sender:1 p) a from_b in
  if Vclock.equal (AE.have a) (AE.have b) && AE.settled [| a; b |] then (a, b)
  else converge a b (fuel - 1)

let test_mixed_version_convergence () =
  (* a v2 replica applies a v1 peer's update, digest and repair, and the
     two v2 replicas then converge on what the v1 session wrote *)
  let b = AE.init ~n:2 ~me:1 in
  let b = AE.receive b ~sender:0 v1_update in
  Alcotest.(check int) "b applied the v1 update" 1 (Vclock.get (AE.have b) 0);
  let a = AE.init ~n:2 ~me:0 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, _ = AE.send a in
  let a, _, _ = AE.do_op a ~obj:1 (Model.Op.Write (vi 2)) in
  let a, _lost = AE.send a in
  let a = AE.receive a ~sender:1 v1_digest in
  Alcotest.(check bool) "a reads the v1 digest and, being ahead, asks nothing" false
    (AE.has_pending a);
  let b = AE.receive b ~sender:0 v1_repair in
  Alcotest.(check int) "b applied the v1 repair" 2 (Vclock.get (AE.have b) 0);
  let a, b = converge a b 20 in
  List.iter
    (fun obj ->
      let _, ra, _ = AE.do_op a ~obj Model.Op.Read in
      let _, rb, _ = AE.do_op b ~obj Model.Op.Read in
      Alcotest.(check bool) (Printf.sprintf "reads of object %d agree" obj) true (ra = rb))
    [ 0; 1 ]

(* A crash replays the WAL through a replica built with the same config
   (here a checkpoint every two entries), so the recovered replica's
   next message is byte for byte the one it would have sent uncrashed. *)
let test_recovered_replica_sends_the_same_bytes () =
  let module St = Sim.Stack.Durable (Store.Causal_mvr_store) in
  let cfg = { Store.Store_intf.default with checkpoint_every = Some 2 } in
  let st = ref (St.create cfg ~n:16 ~me:0) in
  for v = 1 to 5 do
    let s, _, _ = St.do_op !st ~obj:(v mod 2) (Model.Op.Write (vi v)) in
    st := fst (St.send s)
  done;
  let next st =
    let st, _, _ = St.do_op st ~obj:0 (Model.Op.Write (vi 9)) in
    snd (St.send st)
  in
  Alcotest.(check string) "the bytes it would have sent uncrashed" (next !st)
    (next (St.recover !st))

let test_v2_lost_repair_rerequested () =
  (* a digest showing a peer behind never makes the holder send anything:
     the replica that lacks the payload asks, and when the answer is lost
     it asks again once its backoff allows *)
  let a = AE.init ~n:2 ~me:0 and b = AE.init ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, _lost_update = AE.send a in
  let b, b_digest = AE.send (AE.tick b) in
  let a = AE.receive a ~sender:1 b_digest in
  Alcotest.(check bool) "a digest from behind prompts nothing" false (AE.has_pending a);
  let a, digest = AE.send (AE.tick a) in
  let b = AE.receive b ~sender:0 digest in
  let b, request = AE.send b in
  Alcotest.(check string) "b asks" "request" (Store.Anti_entropy.classify request);
  let a, _lost_repair = AE.send (AE.receive a ~sender:1 request) in
  (* the same digest again within the backoff asks nothing *)
  let b = AE.receive b ~sender:0 digest in
  Alcotest.(check bool) "re-ask backed off" false (AE.has_pending b);
  (* recovery: b asks again at a later round; the answer is never gated *)
  let a, b = converge a b 20 in
  let _, ra, _ = AE.do_op a ~obj:0 Model.Op.Read in
  let _, rb, _ = AE.do_op b ~obj:0 Model.Op.Read in
  Alcotest.(check bool) "reads agree after the repeated request" true (ra = rb)

(* ---------- config validation ---------- *)

module Stack_mvr = Sim.Stack.Durable (Store.Mvr_store)

let test_config_validation () =
  let d = Store.Store_intf.default in
  let check_invalid name cfg =
    (match Store.Store_intf.validate cfg with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ());
    (* and no replica can be built with it *)
    match Stack_mvr.create cfg ~n:2 ~me:0 with
    | _ -> Alcotest.failf "%s: a replica was built" name
    | exception Invalid_argument _ -> ()
  in
  check_invalid "repair_batch 0" { d with repair_batch = 0 };
  check_invalid "max_backoff 0" { d with max_backoff = 0 };
  check_invalid "full_digest_every -3" { d with full_digest_every = -3 };
  Store.Store_intf.validate d;
  Store.Store_intf.validate Sim.Chaos.default_config;
  (* the settings reach the replica: an empty peer's request is answered
     with at most [repair_batch] of the three missed payloads *)
  let repair_label repair_batch =
    let cfg = { d with repair_batch } in
    let a =
      List.fold_left
        (fun a v ->
          let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi v)) in
          fst (AE.send a))
        (AE.create cfg ~n:2 ~me:0) [ 1; 2; 3 ]
    in
    let a, digest = AE.send (AE.tick a) in
    let _, request = AE.send (AE.receive (AE.create cfg ~n:2 ~me:1) ~sender:0 digest) in
    Store.Anti_entropy.classify (snd (AE.send (AE.receive a ~sender:1 request)))
  in
  Alcotest.(check string) "repair_batch 1" "repair" (repair_label 1);
  Alcotest.(check string) "repair_batch 32" "repair(3)" (repair_label 32)

let suite =
  ( "wire-v2",
    [
      prop_encode_c_roundtrip;
      prop_encode_c_never_larger;
      prop_v1_clock_still_decodes;
      prop_delta_c_roundtrip;
      prop_delta_c_never_larger;
      tc "v1 golden bytes" test_v1_golden_bytes;
      prop_dot_set_c_roundtrip;
      prop_dot_set_c_delta_exact;
      tc "truncation fuzz (v1 + v2 envelopes)" test_truncation_fuzz;
      tc "sealed frame flip fuzz" test_sealed_flip_fuzz;
      prop_receive_total;
      tc "mixed versions converge, each on its own wire" test_mixed_version_convergence;
      tc "recovery resends uncrashed bytes" test_recovered_replica_sends_the_same_bytes;
      tc "v2 lost repair re-requested" test_v2_lost_repair_rerequested;
      tc "config validation" test_config_validation;
      tc "v1 request read without a bound" test_v1_request_unbounded;
    ] )
