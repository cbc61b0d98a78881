(* Byzantine-ish input robustness: payloads that parse but violate
   structural invariants (foreign deployment sizes, out-of-range origins)
   must be rejected as malformed, never crash or corrupt state. *)

open Helpers
open Haec
module Op = Model.Op

let expect_malformed name f =
  match f () with
  | exception Wire.Decoder.Malformed _ -> ()
  | _ -> Alcotest.failf "%s: expected Malformed" name

(* a payload produced by a deployment with a different replica count *)
let foreign_payload (module S : Store.Store_intf.S) ~n_foreign =
  let st = S.init ~n:n_foreign ~me:4 in
  let st, _, _ = S.do_op st ~obj:0 (Op.Write (vi 1)) in
  snd (S.send st)

let test_mvr_foreign_vv () =
  let payload = foreign_payload (module Store.Mvr_store) ~n_foreign:8 in
  expect_malformed "eager mvr" (fun () ->
      Store.Mvr_store.receive (Store.Mvr_store.init ~n:3 ~me:0) ~sender:1 payload)

let test_causal_foreign_vv () =
  let payload = foreign_payload (module Store.Causal_mvr_store) ~n_foreign:8 in
  expect_malformed "causal mvr" (fun () ->
      Store.Causal_mvr_store.receive
        (Store.Causal_mvr_store.init ~n:3 ~me:0)
        ~sender:1 payload)

let test_causal_out_of_range_origin () =
  (* origin 4 does not exist in a 3-replica deployment *)
  let payload = foreign_payload (module Store.Causal_reg_store) ~n_foreign:8 in
  let receive payload () =
    Store.Causal_reg_store.receive (Store.Causal_reg_store.init ~n:3 ~me:0) ~sender:1 payload
  in
  expect_malformed "causal reg origin" (receive payload);
  (* a record's seq is derived from its dependency vector at its origin,
     so an origin past that vector is malformed while decoding: replica
     2's one-record batch [1, origin 2, dep...] with origin set to 5 *)
  let own =
    let st, _, _ =
      Store.Causal_reg_store.do_op (Store.Causal_reg_store.init ~n:3 ~me:2) ~obj:0 (Op.Write (vi 1))
    in
    snd (Store.Causal_reg_store.send st)
  in
  Alcotest.(check char) "the origin byte" '\002' own.[1];
  let own = String.sub own 0 1 ^ "\005" ^ String.sub own 2 (String.length own - 2) in
  expect_malformed "causal reg origin past its dependency vector" (receive own)

let test_gossip_relay_foreign_vv () =
  (* an 8-replica deployment's first write: its clock has 8 entries and
     its dot origin 4, neither of which fits 3 replicas *)
  let payload = foreign_payload (module Store.Gossip_relay_store) ~n_foreign:8 in
  expect_malformed "gossip relay" (fun () ->
      Store.Gossip_relay_store.receive
        (Store.Gossip_relay_store.init ~n:3 ~me:0)
        ~sender:1 payload)

let test_gossip_relay_misfit_update () =
  (* each update breaks one check: an 8-entry clock with a valid origin,
     and a 3-entry clock whose dot names replica 5 of 3 *)
  List.iter
    (fun (what, size, origin) ->
      let u =
        {
          Store.Mvr_object.vv = Clock.Vclock.zero ~n:size;
          dot = Clock.Dot.make ~replica:origin ~seq:1;
          value = vi 1;
        }
      in
      let payload =
        Wire.encode (fun enc ->
            Wire.Encoder.list enc
              (fun enc u ->
                Wire.Encoder.uint enc 0;
                Store.Mvr_object.encode_update enc u)
              [ u ])
      in
      expect_malformed what (fun () ->
          Store.Gossip_relay_store.receive
            (Store.Gossip_relay_store.init ~n:3 ~me:0)
            ~sender:1 payload))
    [ ("clock size", 8, 1); ("dot origin", 3, 5) ]

let test_cops_foreign_vv () =
  (* replica 1 of a 4-replica deployment: its global dot origin fits 3
     replicas, its update clock does not *)
  let st = Store.Cops_store.init ~n:4 ~me:1 in
  let st, _, _ = Store.Cops_store.do_op st ~obj:0 (Op.Write (vi 1)) in
  let payload = snd (Store.Cops_store.send st) in
  expect_malformed "cops" (fun () ->
      Store.Cops_store.receive (Store.Cops_store.init ~n:3 ~me:0) ~sender:1 payload)

let test_cops_misfit_update () =
  (* each record's global dot (1, 1) fits; its update breaks one check:
     an 8-entry clock, then an object dot naming replica 5 of 3 *)
  List.iter
    (fun (what, size, origin) ->
      let u =
        {
          Store.Mvr_object.vv = Clock.Vclock.zero ~n:size;
          dot = Clock.Dot.make ~replica:origin ~seq:1;
          value = vi 1;
        }
      in
      let payload =
        Wire.encode (fun enc ->
            Wire.Encoder.list enc
              (fun enc u ->
                Clock.Dot.encode enc (Clock.Dot.make ~replica:1 ~seq:1);
                Wire.Encoder.uint enc 0;
                Store.Mvr_object.encode_update enc u;
                Clock.Dot.encode_set enc Clock.Dot.Set.empty)
              [ u ])
      in
      expect_malformed what (fun () ->
          Store.Cops_store.receive (Store.Cops_store.init ~n:3 ~me:0) ~sender:1 payload))
    [ ("clock size", 8, 1); ("dot origin", 3, 5) ]

let test_packed_clock_length_overflow () =
  (* the varints 0, 32, 2^58, 5: a bit-packed clock (marker 0, width 32)
     claiming 2^58 entries, whose bit count n * width overflows *)
  let input =
    Wire.encode (fun enc -> List.iter (Wire.Encoder.uint enc) [ 0; 32; 1 lsl 58; 5 ])
  in
  Alcotest.(check int) "12 bytes" 12 (String.length input);
  expect_malformed "Vclock.decode_any" (fun () ->
      Wire.decode input Clock.Vclock.decode_any);
  expect_malformed "Decoder.packed_array" (fun () ->
      Wire.decode input (fun dec ->
          ignore (Wire.Decoder.uint dec);
          ignore (Wire.Decoder.uint dec);
          Wire.Decoder.packed_array dec ~n:(1 lsl 58) ~width:32))

(* A length prefix near max_int overflowed [pos + len] and passed the
   bounds check, so [String.sub] raised [Invalid_argument]; the structure-
   aware fuzz of anti-entropy envelopes found it on an update's payload *)
let test_string_length_overflow () =
  let input = Wire.encode (fun enc -> List.iter (Wire.Encoder.uint enc) [ 7; max_int ]) in
  let after_one read dec =
    ignore (Wire.Decoder.uint dec);
    read dec
  in
  expect_malformed "Decoder.string" (fun () -> Wire.decode input (after_one Wire.Decoder.string));
  expect_malformed "Decoder.sub" (fun () ->
      Wire.decode input (after_one (fun dec -> Wire.Decoder.sub dec max_int)));
  (* the same length in an anti-entropy update item: a v2 envelope's
     [0x00] header, the update kind, seq 0, then the length *)
  expect_malformed "anti-entropy update" (fun () ->
      let module AE = Store.Anti_entropy.Make (Store.Mvr_store) in
      AE.receive (AE.init ~n:2 ~me:1) ~sender:0
        (Wire.encode (fun enc -> List.iter (Wire.Encoder.uint enc) [ 0; 0; 0; max_int ])))

let test_state_foreign_join () =
  let payload = foreign_payload (module Store.State_mvr_store) ~n_foreign:8 in
  expect_malformed "state mvr" (fun () ->
      Store.State_mvr_store.receive
        (Store.State_mvr_store.init ~n:3 ~me:0)
        ~sender:1 payload)

let test_state_survives_rejection () =
  (* a rejected payload must not corrupt the existing state *)
  let st = Store.State_mvr_store.init ~n:3 ~me:0 in
  let st, _, _ = Store.State_mvr_store.do_op st ~obj:0 (Op.Write (vi 5)) in
  let payload = foreign_payload (module Store.State_mvr_store) ~n_foreign:8 in
  (match Store.State_mvr_store.receive st ~sender:1 payload with
  | exception Wire.Decoder.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed");
  let _, r, _ = Store.State_mvr_store.do_op st ~obj:0 Op.Read in
  Alcotest.check check_response "state intact" (resp [ 5 ]) r

(* the fuzz net, widened to the newer stores *)
let prop_fuzz_all_stores =
  q ~count:150 "all stores total on garbage" Test_properties.gen_mutated_envelope (fun payload ->
      let probe receive =
        match receive payload with
        | _ -> true
        | exception Wire.Decoder.Malformed _ -> true
      in
      probe (fun p ->
          Store.State_mvr_store.receive (Store.State_mvr_store.init ~n:3 ~me:0) ~sender:1 p)
      && probe (fun p ->
             Store.Causal_reg_store.receive (Store.Causal_reg_store.init ~n:3 ~me:0) ~sender:1 p)
      && probe (fun p ->
             Store.Counter_store.Causal.receive
               (Store.Counter_store.Causal.init ~n:3 ~me:0)
               ~sender:1 p)
      && probe (fun p -> Store.Gsp_store.receive (Store.Gsp_store.init ~n:3 ~me:0) ~sender:1 p)
      && probe (fun p ->
             Store.Gossip_relay_store.receive
               (Store.Gossip_relay_store.init ~n:3 ~me:0)
               ~sender:1 p))

let suite =
  ( "robustness",
    [
      tc "eager mvr rejects foreign version vectors" test_mvr_foreign_vv;
      tc "causal mvr rejects foreign version vectors" test_causal_foreign_vv;
      tc "causal reg rejects out-of-range origins" test_causal_out_of_range_origin;
      tc "gossip relay rejects foreign version vectors" test_gossip_relay_foreign_vv;
      tc "gossip relay rejects a clock size or origin that does not fit"
        test_gossip_relay_misfit_update;
      tc "a packed clock whose bit count overflows is malformed"
        test_packed_clock_length_overflow;
      tc "a length prefix near max_int is malformed" test_string_length_overflow;
      tc "state store rejects foreign states" test_state_foreign_join;
      tc "rejection leaves state intact" test_state_survives_rejection;
      prop_fuzz_all_stores;
      tc "cops rejects foreign version vectors" test_cops_foreign_vv;
      tc "cops rejects a clock size or origin that does not fit" test_cops_misfit_update;
    ] )
