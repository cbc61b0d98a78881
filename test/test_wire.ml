open Helpers
module Wire = Haec.Wire

let roundtrip enc_f dec_f v =
  Wire.decode (Wire.encode (fun e -> enc_f e v)) dec_f

let test_uint_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) "uint" n (roundtrip Wire.Encoder.uint Wire.Decoder.uint n))
    [ 0; 1; 127; 128; 300; 16383; 16384; 1_000_000; max_int ]

let test_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) "int" n (roundtrip Wire.Encoder.int Wire.Decoder.int n))
    [ 0; 1; -1; 63; -64; 64; -65; 1_000_000; -1_000_000; max_int; min_int ]

let test_varint_compact () =
  let size n = String.length (Wire.encode (fun e -> Wire.Encoder.uint e n)) in
  Alcotest.(check int) "small is 1 byte" 1 (size 127);
  Alcotest.(check int) "128 is 2 bytes" 2 (size 128);
  Alcotest.(check int) "16383 is 2 bytes" 2 (size 16383);
  Alcotest.(check int) "16384 is 3 bytes" 3 (size 16384)

let test_string_list_option () =
  let v = ([ "a"; ""; "xyz" ], Some "q") in
  let enc e (l, o) =
    Wire.Encoder.list e Wire.Encoder.string l;
    Wire.Encoder.option e Wire.Encoder.string o
  in
  let dec d =
    let l = Wire.Decoder.list d Wire.Decoder.string in
    let o = Wire.Decoder.option d Wire.Decoder.string in
    (l, o)
  in
  let l, o = roundtrip enc dec v in
  Alcotest.(check (list string)) "list" [ "a"; ""; "xyz" ] l;
  Alcotest.(check (option string)) "option" (Some "q") o

let test_pair_bool_array () =
  let enc e (b, arr) =
    Wire.Encoder.pair e Wire.Encoder.bool (fun e -> Wire.Encoder.array e Wire.Encoder.int) (b, arr)
  in
  let dec d =
    Wire.Decoder.pair d Wire.Decoder.bool (fun d -> Wire.Decoder.array d Wire.Decoder.int)
  in
  let b, arr = roundtrip enc dec (true, [| 1; -2; 3 |]) in
  Alcotest.(check bool) "bool" true b;
  Alcotest.(check (array int)) "array" [| 1; -2; 3 |] arr

let test_malformed () =
  let raises s f =
    match f () with
    | exception Wire.Decoder.Malformed _ -> ()
    | _ -> Alcotest.failf "%s: expected Malformed" s
  in
  raises "truncated varint" (fun () -> Wire.decode "\x80" Wire.Decoder.uint);
  raises "truncated string" (fun () -> Wire.decode "\x05ab" Wire.Decoder.string);
  raises "trailing garbage" (fun () -> Wire.decode "\x01\x02" Wire.Decoder.uint);
  raises "bad bool" (fun () -> Wire.decode "\x07" Wire.Decoder.bool);
  raises "huge list length" (fun () ->
      Wire.decode "\xff\xff\x03" (fun d -> Wire.Decoder.list d Wire.Decoder.uint))

let test_decoder_order () =
  (* decoding is strictly sequential left-to-right *)
  let s =
    Wire.encode (fun e ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.uint e 2;
        Wire.Encoder.uint e 3)
  in
  let got =
    Wire.decode s (fun d ->
        (* bind sequentially: list literals evaluate right-to-left *)
        let a = Wire.Decoder.uint d in
        let b = Wire.Decoder.uint d in
        let c = Wire.Decoder.uint d in
        [ a; b; c ])
  in
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] got

let test_size_accounting () =
  let e = Wire.Encoder.create () in
  Wire.Encoder.uint e 1;
  Alcotest.(check int) "1 byte" 8 (Wire.Encoder.size_bits e);
  Wire.Encoder.string e "abc";
  Alcotest.(check int) "1 + 1 + 3 bytes" 40 (Wire.Encoder.size_bits e);
  Alcotest.(check int) "size_bits of payload" 40 (Wire.size_bits (Wire.Encoder.to_string e))

let test_nested_encode () =
  (* [Wire.encode] reuses a pooled scratch encoder; a callback that itself
     calls [Wire.encode] must still see independent byte streams *)
  let inner = ref "" in
  let outer =
    Wire.encode (fun e ->
        Wire.Encoder.uint e 7;
        inner := Wire.encode (fun e' -> Wire.Encoder.string e' "nested");
        Wire.Encoder.string e "outer")
  in
  Alcotest.(check string) "inner" "nested" (Wire.decode !inner Wire.Decoder.string);
  Alcotest.(check (pair int string)) "outer" (7, "outer")
    (Wire.decode outer (fun d -> Wire.Decoder.pair d Wire.Decoder.uint Wire.Decoder.string))

let test_large_payload () =
  (* forces the encoder past its initial capacity and past the scratch
     retention cap; both the growth path and the next (fresh) scratch use
     must produce intact bytes *)
  let big = String.init 100_000 (fun i -> Char.chr (i land 0xFF)) in
  let go () =
    Wire.decode
      (Wire.encode (fun e -> Wire.Encoder.string e big))
      Wire.Decoder.string
  in
  Alcotest.(check bool) "big roundtrip" true (go () = big);
  Alcotest.(check bool) "after scratch reset" true (go () = big);
  Alcotest.(check string) "small after big" "ok"
    (Wire.decode (Wire.encode (fun e -> Wire.Encoder.string e "ok")) Wire.Decoder.string)

let prop_int_roundtrip =
  q "wire int roundtrip" QCheck2.Gen.int (fun n ->
      roundtrip Wire.Encoder.int Wire.Decoder.int n = n)

let prop_int_list_roundtrip =
  q "wire int list roundtrip"
    QCheck2.Gen.(list int)
    (fun l ->
      roundtrip
        (fun e -> Wire.Encoder.list e Wire.Encoder.int)
        (fun d -> Wire.Decoder.list d Wire.Decoder.int)
        l
      = l)

let prop_string_roundtrip =
  q "wire string roundtrip" QCheck2.Gen.string (fun s ->
      roundtrip Wire.Encoder.string Wire.Decoder.string s = s)

(* ---------- checksummed frames ---------- *)

let test_frame_crc_vector () =
  (* the standard IEEE CRC-32 check value *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Wire.Frame.crc32 "123456789");
  Alcotest.(check int) "crc32 of empty" 0 (Wire.Frame.crc32 "")

(* The bytewise reflected CRC-32, one table lookup per byte: the frozen
   reference the sliced [Wire.Frame.crc32] must agree with. *)
let crc32_reference s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let test_frame_crc_every_tail () =
  (* every length up to 64 covers each tail length of the 8-byte loop
     several times over, on bytes that exercise every table row *)
  for len = 0 to 64 do
    let s = String.init len (fun i -> Char.chr (((i * 97) + (len * 31)) land 0xFF)) in
    Alcotest.(check int) (Printf.sprintf "length %d" len) (crc32_reference s) (Wire.Frame.crc32 s)
  done;
  let all_bytes = String.init 256 Char.chr in
  Alcotest.(check int) "every byte value" (crc32_reference all_bytes) (Wire.Frame.crc32 all_bytes)

let prop_frame_crc_reference =
  q ~count:500 "crc32 agrees with the bytewise reference"
    QCheck2.Gen.(string_size (int_bound 4096))
    (fun s -> Wire.Frame.crc32 s = crc32_reference s)

let test_frame_crc_two_domains () =
  (* replica domains checksum concurrently; released together, neither
     may fail or see a different table *)
  let go = Atomic.make false in
  let crc () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Wire.Frame.crc32 "123456789"
  in
  let d1 = Domain.spawn crc and d2 = Domain.spawn crc in
  Atomic.set go true;
  Alcotest.(check int) "first domain" 0xCBF43926 (Domain.join d1);
  Alcotest.(check int) "second domain" 0xCBF43926 (Domain.join d2)

let test_frame_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "unseal . seal" s (Wire.Frame.unseal (Wire.Frame.seal s)))
    [ ""; "x"; "hello, frame"; String.make 1000 '\xff' ]

let expect_malformed s =
  match Wire.Frame.unseal s with
  | exception Wire.Decoder.Malformed _ -> ()
  | _ -> Alcotest.failf "corrupted frame %S accepted" s

let test_frame_rejects_byte_flips () =
  (* CRC-32 catches every single-byte error, anywhere in the frame *)
  let framed = Wire.Frame.seal "the payload under test" in
  for i = 0 to String.length framed - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string framed in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        expect_malformed (Bytes.to_string b))
      [ 0x01; 0x80; 0xff ]
  done

let test_frame_rejects_resizing () =
  let framed = Wire.Frame.seal "the payload under test" in
  for len = 0 to String.length framed - 1 do
    expect_malformed (String.sub framed 0 len)
  done;
  expect_malformed (framed ^ "\x00");
  expect_malformed ("\x00" ^ framed)

let prop_frame_roundtrip =
  q "frame seal/unseal roundtrip" QCheck2.Gen.string (fun s ->
      Wire.Frame.unseal (Wire.Frame.seal s) = s)

let prop_no_decoder_crash =
  (* arbitrary bytes either decode or raise Malformed; never crash *)
  q "wire decoder total" QCheck2.Gen.string (fun s ->
      match Wire.decode s (fun d -> Wire.Decoder.list d Wire.Decoder.int) with
      | _ -> true
      | exception Wire.Decoder.Malformed _ -> true)

let suite =
  ( "wire",
    [
      tc "uint roundtrip" test_uint_roundtrip;
      tc "int roundtrip" test_int_roundtrip;
      tc "varint compact" test_varint_compact;
      tc "string/list/option" test_string_list_option;
      tc "pair/bool/array" test_pair_bool_array;
      tc "malformed inputs" test_malformed;
      tc "decoder order" test_decoder_order;
      tc "size accounting" test_size_accounting;
      tc "nested encode" test_nested_encode;
      tc "large payload growth" test_large_payload;
      tc "frame crc check value" test_frame_crc_vector;
      tc "frame crc agrees with the bytewise reference at every tail" test_frame_crc_every_tail;
      prop_frame_crc_reference;
      tc "frame roundtrip" test_frame_roundtrip;
      tc "frame rejects byte flips" test_frame_rejects_byte_flips;
      tc "frame rejects resizing" test_frame_rejects_resizing;
      prop_frame_roundtrip;
      prop_int_roundtrip;
      prop_int_list_roundtrip;
      prop_string_roundtrip;
      prop_no_decoder_crash;
      tc "frame crc from two domains at once" test_frame_crc_two_domains;
    ] )
