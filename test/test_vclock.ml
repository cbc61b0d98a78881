open Helpers
module Vclock = Haec.Clock.Vclock
module Lamport = Haec.Clock.Lamport
module Dot = Haec.Clock.Dot
module Wire = Haec.Wire

let vc l = Vclock.of_array (Array.of_list l)

let order =
  Alcotest.testable
    (fun ppf -> function
      | Vclock.Equal -> Format.pp_print_string ppf "Equal"
      | Vclock.Before -> Format.pp_print_string ppf "Before"
      | Vclock.After -> Format.pp_print_string ppf "After"
      | Vclock.Concurrent -> Format.pp_print_string ppf "Concurrent")
    ( = )

let test_compare () =
  Alcotest.check order "equal" Vclock.Equal (Vclock.compare_causal (vc [ 1; 2 ]) (vc [ 1; 2 ]));
  Alcotest.check order "before" Vclock.Before (Vclock.compare_causal (vc [ 1; 2 ]) (vc [ 1; 3 ]));
  Alcotest.check order "after" Vclock.After (Vclock.compare_causal (vc [ 2; 2 ]) (vc [ 1; 2 ]));
  Alcotest.check order "concurrent" Vclock.Concurrent
    (Vclock.compare_causal (vc [ 1; 0 ]) (vc [ 0; 1 ]))

let test_tick_merge () =
  let z = Vclock.zero ~n:3 in
  let a = Vclock.tick (Vclock.tick z 0) 0 in
  let b = Vclock.tick z 2 in
  Alcotest.(check (array int)) "tick" [| 2; 0; 0 |] (Vclock.to_array a);
  let m = Vclock.merge a b in
  Alcotest.(check (array int)) "merge" [| 2; 0; 1 |] (Vclock.to_array m);
  Alcotest.(check bool) "a leq m" true (Vclock.leq a m);
  Alcotest.(check bool) "b leq m" true (Vclock.leq b m);
  Alcotest.(check bool) "m not leq a" false (Vclock.leq m a);
  Alcotest.(check int) "sum" 3 (Vclock.sum m)

let test_vclock_errors () =
  Alcotest.check_raises "size mismatch" (Invalid_argument "Vclock: size mismatch") (fun () ->
      ignore (Vclock.merge (vc [ 1 ]) (vc [ 1; 2 ])));
  Alcotest.check_raises "negative" (Invalid_argument "Vclock.of_array: negative entry")
    (fun () -> ignore (Vclock.of_array [| -1 |]))

let test_vclock_wire () =
  let v = vc [ 0; 5; 300; 2 ] in
  let v' = Wire.decode (Wire.encode (fun e -> Vclock.encode e v)) Vclock.decode in
  Alcotest.(check bool) "roundtrip" true (Vclock.equal v v')

let test_in_place () =
  (* copy severs all sharing: mutating the copy leaves the original alone *)
  let a = vc [ 1; 2; 3 ] in
  let c = Vclock.copy a in
  Vclock.tick_into c 0;
  Alcotest.(check (array int)) "tick_into" [| 2; 2; 3 |] (Vclock.to_array c);
  Alcotest.(check (array int)) "original untouched" [| 1; 2; 3 |] (Vclock.to_array a);
  Alcotest.(check int) "sum tracks tick_into" 7 (Vclock.sum c);
  Vclock.merge_into c (vc [ 0; 9; 1 ]);
  Alcotest.(check (array int)) "merge_into" [| 2; 9; 3 |] (Vclock.to_array c);
  Alcotest.(check int) "sum tracks merge_into" 14 (Vclock.sum c);
  Alcotest.(check bool) "equal agrees after mutation" true (Vclock.equal c (vc [ 2; 9; 3 ]));
  Alcotest.(check bool) "leq after mutation" true (Vclock.leq a c);
  Alcotest.(check bool) "lt after mutation" true (Vclock.lt a c)

let test_delta_wire () =
  let prev = vc [ 3; 0; 140; 7 ] in
  let v = vc [ 3; 2; 141; 300 ] in
  let bytes = Wire.encode (fun e -> Vclock.encode_delta e ~prev v) in
  let v' = Wire.decode bytes (fun d -> Vclock.decode_delta d ~prev) in
  Alcotest.(check bool) "delta roundtrip" true (Vclock.equal v v');
  Alcotest.(check int) "sum restored" (Vclock.sum v) (Vclock.sum v');
  (* mostly-zero deltas beat absolute encoding on multi-byte entries *)
  let absolute = Wire.encode (fun e -> Vclock.encode e v) in
  Alcotest.(check bool) "delta no larger" true (String.length bytes <= String.length absolute);
  Alcotest.check_raises "prev above clock"
    (Invalid_argument "Vclock.encode_delta: prev exceeds clock") (fun () ->
      ignore (Wire.encode (fun e -> Vclock.encode_delta e ~prev:v prev)));
  Alcotest.check_raises "size mismatch decoding"
    (Wire.Decoder.Malformed "Vclock.decode_delta: size mismatch") (fun () ->
      ignore (Wire.decode bytes (fun d -> Vclock.decode_delta d ~prev:(vc [ 0; 0 ]))))

let gen_vc n = QCheck2.Gen.(array_size (return n) (int_bound 20))

let prop_delta_roundtrip =
  q "vclock delta codec inverts against any dominated prev"
    QCheck2.Gen.(pair (gen_vc 5) (gen_vc 5))
    (fun (base, inc) ->
      let prev = Vclock.of_array base in
      let v = Vclock.of_array (Array.map2 ( + ) base inc) in
      let v' =
        Wire.decode
          (Wire.encode (fun e -> Vclock.encode_delta e ~prev v))
          (fun d -> Vclock.decode_delta d ~prev)
      in
      Vclock.equal v v' && Vclock.sum v = Vclock.sum v')

let prop_in_place_agree =
  q "in-place tick/merge agree with the pure versions"
    QCheck2.Gen.(triple (gen_vc 4) (gen_vc 4) (int_bound 3))
    (fun (a, b, r) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      let m = Vclock.copy a in
      Vclock.merge_into m b;
      Vclock.tick_into m r;
      let pure = Vclock.tick (Vclock.merge a b) r in
      Vclock.equal m pure && Vclock.sum m = Vclock.sum pure
      && Vclock.compare_causal m pure = Vclock.Equal)

let prop_merge_laws =
  q "vclock merge: commutative, associative, idempotent, monotone"
    QCheck2.Gen.(triple (gen_vc 4) (gen_vc 4) (gen_vc 4))
    (fun (a, b, c) ->
      let a = Vclock.of_array a and b = Vclock.of_array b and c = Vclock.of_array c in
      Vclock.equal (Vclock.merge a b) (Vclock.merge b a)
      && Vclock.equal (Vclock.merge (Vclock.merge a b) c) (Vclock.merge a (Vclock.merge b c))
      && Vclock.equal (Vclock.merge a a) a
      && Vclock.leq a (Vclock.merge a b))

let prop_order_antisymmetry =
  q "vclock order consistency"
    QCheck2.Gen.(pair (gen_vc 4) (gen_vc 4))
    (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      match Vclock.compare_causal a b with
      | Vclock.Equal -> Vclock.compare_causal b a = Vclock.Equal
      | Vclock.Before -> Vclock.compare_causal b a = Vclock.After
      | Vclock.After -> Vclock.compare_causal b a = Vclock.Before
      | Vclock.Concurrent -> Vclock.compare_causal b a = Vclock.Concurrent)

let test_lamport () =
  (* total order, ties by replica *)
  let x = { Lamport.time = 5; replica = 0 } and y = { Lamport.time = 5; replica = 1 } in
  Alcotest.(check bool) "tie by replica" true (Lamport.compare x y < 0);
  let z = { Lamport.time = 6; replica = 0 } in
  Alcotest.(check bool) "time dominates" true (Lamport.compare z y > 0);
  let x' = Wire.decode (Wire.encode (fun e -> Lamport.encode e x)) Lamport.decode in
  Alcotest.(check bool) "wire roundtrip" true (Lamport.equal x x')

let test_dot () =
  let d1 = Dot.make ~replica:1 ~seq:2 and d2 = Dot.make ~replica:1 ~seq:3 in
  Alcotest.(check bool) "order" true (Dot.compare d1 d2 < 0);
  let s = Dot.Set.of_list [ d2; d1; d1 ] in
  Alcotest.(check int) "set dedup" 2 (Dot.Set.cardinal s);
  let s' = Wire.decode (Wire.encode (fun e -> Dot.encode_set e s)) Dot.decode_set in
  Alcotest.(check bool) "set wire roundtrip" true (Dot.Set.equal s s')

let suite =
  ( "vclock",
    [
      tc "compare" test_compare;
      tc "tick and merge" test_tick_merge;
      tc "errors" test_vclock_errors;
      tc "wire roundtrip" test_vclock_wire;
      tc "in-place ops" test_in_place;
      tc "delta wire" test_delta_wire;
      prop_delta_roundtrip;
      prop_in_place_agree;
      prop_merge_laws;
      prop_order_antisymmetry;
      tc "lamport" test_lamport;
      tc "dots" test_dot;
    ] )
