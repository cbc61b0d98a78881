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

(* a small two-replica session, produced under [version], returning every
   distinct payload the protocol put on the wire: updates, a digest, and
   a repair batch *)
let with_wire wire = { Store.Store_intf.default with wire }

let session_payloads version =
  let cfg = with_wire version in
  let a = AE.create cfg ~n:2 ~me:0 and b = AE.create cfg ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:1 (Model.Op.Write (vi 2)) in
  let a, lost = AE.send a in
  let b = AE.receive b ~sender:0 p1 in
  let b = AE.tick b in
  let b, digest = AE.send b in
  let a = AE.receive a ~sender:1 digest in
  let a, repair = AE.send a in
  let b = AE.receive b ~sender:0 repair in
  ignore (a, b);
  [ p1; lost; digest; repair ]

let expect_malformed ~what payload =
  let b = AE.init ~n:2 ~me:1 in
  match AE.receive b ~sender:0 payload with
  | _ -> Alcotest.failf "%s: expected Malformed" what
  | exception Wire.Decoder.Malformed _ -> ()

let test_truncation_fuzz () =
  List.iter
    (fun version ->
      List.iteri
        (fun pi payload ->
          for len = 0 to String.length payload - 1 do
            expect_malformed
              ~what:
                (Printf.sprintf "%s payload %d cut to %d bytes"
                   (Wire.Version.name version) pi len)
              (String.sub payload 0 len)
          done)
        (session_payloads version))
    [ Wire.Version.V1; Wire.Version.V2 ]

let test_sealed_flip_fuzz () =
  (* a corrupted frame must die at the CRC, whatever the inner version *)
  List.iter
    (fun version ->
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
        (session_payloads version))
    [ Wire.Version.V1; Wire.Version.V2 ]

let prop_receive_total =
  (* arbitrary bytes: receive either applies or raises Malformed *)
  q "anti-entropy receive is total" QCheck2.Gen.string (fun s ->
      let b = AE.init ~n:2 ~me:1 in
      match AE.receive b ~sender:0 s with
      | _ -> true
      | exception Wire.Decoder.Malformed _ -> true)

(* ---------- per-replica emission ---------- *)

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
  (* a emits v2, b emits v1: each decodes the other, and they converge *)
  let a = AE.create (with_wire Wire.Version.V2) ~n:2 ~me:0 in
  let b = AE.create (with_wire Wire.Version.V1) ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 7)) in
  let a, p = AE.send a in
  let b = AE.receive b ~sender:0 p in
  Alcotest.(check int) "b applied a's v2 update" 1 (Vclock.get (AE.have b) 0);
  let b, _, _ = AE.do_op b ~obj:0 (Model.Op.Write (vi 8)) in
  let b, p = AE.send b in
  let a = AE.receive a ~sender:1 p in
  Alcotest.(check int) "a applied b's v1 update" 1 (Vclock.get (AE.have a) 1);
  let a, b = converge a b 20 in
  let _, ra, _ = AE.do_op a ~obj:0 Model.Op.Read in
  let _, rb, _ = AE.do_op b ~obj:0 Model.Op.Read in
  Alcotest.(check bool) "reads agree" true (ra = rb)

(* The causal store under anti-entropy at n = 16, where v1 and v2 clock
   layouts differ (a v2 clock leads with a 0x00 marker). *)
module CAE = Store.Anti_entropy.Make (Store.Causal_mvr_store)

let is_v2_envelope p = String.length p > 1 && p.[0] = '\x00' && p.[1] = '\x02'

(* Parse an envelope holding one update with the v1 decoders only: the
   envelope, the causal batch inside it, and its dependency and update
   clocks. A v2 layout anywhere fails the parse or leaves bytes over. *)
let strictly_v1_update payload =
  match
    Wire.decode payload (fun dec ->
        if Wire.Decoder.uint dec <> 1 then raise (Wire.Decoder.Malformed "items");
        if Wire.Gossip.decode_kind dec <> Wire.Gossip.Update then
          raise (Wire.Decoder.Malformed "kind");
        let _seq = Wire.Decoder.uint dec in
        let batch = Wire.Decoder.string dec in
        Wire.decode batch (fun dec ->
            let records = Wire.Decoder.uint dec in
            for _ = 1 to records do
              let _origin = Wire.Decoder.uint dec in
              let _useq = Wire.Decoder.uint dec in
              let dep = Vclock.decode dec in
              let _obj = Wire.Decoder.uint dec in
              let vv = Vclock.decode dec in
              let _dot = Dot.decode dec in
              let _value = Model.Value.decode dec in
              if Vclock.size dep <> 16 || Vclock.size vv <> 16 then
                raise (Wire.Decoder.Malformed "clock size")
            done))
  with
  | () -> true
  | exception Wire.Decoder.Malformed _ -> false

let write16 st v =
  let st, _, _ = CAE.do_op st ~obj:0 (Model.Op.Write (vi v)) in
  CAE.send st

let test_emission_is_per_replica () =
  let v1 = with_wire Wire.Version.V1 and v2 = with_wire Wire.Version.V2 in
  let r0 = CAE.create v2 ~n:16 ~me:0 and r1 = CAE.create v1 ~n:16 ~me:1 in
  let r1, from_r1 = write16 r1 1 in
  Alcotest.(check bool) "a v1 replica emits a v1 envelope" false (is_v2_envelope from_r1);
  Alcotest.(check bool) "a v1 replica's update has no v2 clock layout" true
    (strictly_v1_update from_r1);
  let r0 = CAE.receive r0 ~sender:1 from_r1 in
  Alcotest.(check int) "the v2 replica applied it" 1 (Vclock.get (CAE.have r0) 1);
  let r0, from_r0 = write16 r0 2 in
  Alcotest.(check bool) "a v2 replica still emits v2 after receiving v1" true
    (is_v2_envelope from_r0);
  let r0 = CAE.tick r0 in
  let _, digest = CAE.send r0 in
  Alcotest.(check bool) "and so do its digests" true (is_v2_envelope digest);
  (* a state's bytes are a function of that state: replicas built with
     other configs, and whole runs under them, in between change nothing *)
  let r1 = CAE.receive r1 ~sender:0 from_r0 in
  let pending, _, _ = CAE.do_op r1 ~obj:1 (Model.Op.Write (vi 3)) in
  let before = snd (CAE.send pending) in
  let _ = write16 (CAE.create v2 ~n:16 ~me:2) 4 in
  let module C = Sim.Chaos.Make (Store.Causal_mvr_store) in
  let _ = C.run ~config:{ Sim.Chaos.default_config with wire = Wire.Version.V2 } ~seed:1 () in
  Alcotest.(check string) "same state, same bytes" before (snd (CAE.send pending));
  Alcotest.(check bool) "still v1, after a v1 peer heard v2" true
    (strictly_v1_update before)

(* A crash replays the WAL through a replica built with the same config. *)
let test_recovered_replica_keeps_its_wire () =
  let module St = Sim.Stack.Durable (Store.Causal_mvr_store) in
  let cfg = { (with_wire Wire.Version.V1) with checkpoint_every = Some 2 } in
  let st = ref (St.create cfg ~n:16 ~me:0) in
  for v = 1 to 5 do
    let s, _, _ = St.do_op !st ~obj:(v mod 2) (Model.Op.Write (vi v)) in
    st := fst (St.send s)
  done;
  let next st =
    let st, _, _ = St.do_op st ~obj:0 (Model.Op.Write (vi 9)) in
    snd (St.send st)
  in
  let recovered = St.recover !st in
  Alcotest.(check bool) "a recovered v1 replica emits v1" true
    (strictly_v1_update (next recovered));
  Alcotest.(check string) "the bytes it would have sent uncrashed" (next !st)
    (next recovered)

let test_v2_lost_push_requester_path () =
  (* the companion to the v1-pinned backoff test in test_anti_entropy:
     under v2 a push optimistically credits the peer, so when the push is
     lost the stale digest cannot re-trigger it — the gap closes from the
     requester side instead, once a full digest shows b what it misses *)
  let a = AE.init ~n:2 ~me:0 and b = AE.init ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, _lost_update = AE.send a in
  let b = AE.tick b in
  let b, digest = AE.send b in
  let a = AE.receive a ~sender:1 digest in
  Alcotest.(check bool) "push queued" true (AE.has_pending a);
  let a, _lost_push = AE.send a in
  (* a now optimistically believes b is caught up: replaying the same
     stale digest must not trigger another push *)
  let a = AE.receive a ~sender:1 digest in
  Alcotest.(check bool) "stale digest re-push suppressed" false (AE.has_pending a);
  (* recovery: a's periodic full digest tells b it is behind, and b
     requests the gap — the answer path is never gated *)
  let a, b = converge a b 20 in
  let _, ra, _ = AE.do_op a ~obj:0 Model.Op.Read in
  let _, rb, _ = AE.do_op b ~obj:0 Model.Op.Read in
  Alcotest.(check bool) "reads agree after requester-path repair" true (ra = rb)

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
  (* the settings reach the replica: a peer's empty digest is answered
     with at most [repair_batch] of the three missed payloads *)
  let repair_label repair_batch =
    let cfg = { d with repair_batch; wire = Wire.Version.V1 } in
    let a =
      List.fold_left
        (fun a v ->
          let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi v)) in
          fst (AE.send a))
        (AE.create cfg ~n:2 ~me:0) [ 1; 2; 3 ]
    in
    let _, digest = AE.send (AE.tick (AE.create cfg ~n:2 ~me:1)) in
    Store.Anti_entropy.classify (snd (AE.send (AE.receive a ~sender:1 digest)))
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
      tc "emission is per replica (n = 16)" test_emission_is_per_replica;
      tc "a recovered v1 replica still emits v1" test_recovered_replica_keeps_its_wire;
      tc "v2 lost push recovered by requester" test_v2_lost_push_requester_path;
      tc "config validation" test_config_validation;
    ] )
