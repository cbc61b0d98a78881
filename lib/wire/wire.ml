module Version = struct
  (* The frame versions. [V1] is the original layout: every integer a
     LEB128 varint, every vector clock a length-prefixed varint array.
     [V2] adds the compressed layouts (bit-packed / run-length vectors,
     sparse deltas, delta digests, grouped repair runs), each one
     self-describing behind a leading 0x00 marker byte — a position where
     every v1 encoding puts a varint that is at least 1 — so decoders are
     version-agnostic: any replica decodes both formats, and every
     replica emits [V2]. *)
  type t = V1 | V2

  let to_int = function V1 -> 1 | V2 -> 2

  let of_int = function
    | 1 -> Some V1
    | 2 -> Some V2
    | _ -> None

  (* Every replica emits [V2]; this is not process state. [set]
     survives only for callers written against the old process-global
     default: [set V2] is a no-op and [set V1] is refused. *)
  let set = function
    | V2 -> ()
    | V1 -> invalid_arg "Wire.Version.set V1: replicas emit only v2"
end

module Encoder = struct
  (* A bare [Bytes.t] grown in place: [Buffer] pays a closure-guarded
     bounds check and a function call per byte, which dominates varint
     encoding where almost every write is a single byte. Writes go
     through [add_byte] after an explicit [reserve], so the unsafe
     accesses are bounds-checked in one place, once per value. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 64; len = 0 }

  let reset t = t.len <- 0

  let grow t needed =
    let cap = ref (Bytes.length t.buf * 2) in
    while t.len + needed > !cap do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.buf 0 b 0 t.len;
    t.buf <- b

  let[@inline] reserve t n = if t.len + n > Bytes.length t.buf then grow t n

  (* callers must [reserve] first *)
  let[@inline] add_byte t c =
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr c);
    t.len <- t.len + 1

  (* Emit the word as an unsigned bit pattern (logical shifts), so zigzag
     patterns whose top bit is set — from [max_int]/[min_int] — survive.
     The loop writes through a local [buf] binding and stores [len] once
     at the end: going through [add_byte] would pay a call plus a field
     store per byte, which dominates on mostly-1-and-2-byte varints. *)
  let uint_bits t n =
    reserve t 10 (* a 63-bit word is at most ceil(63/7) = 9 varint bytes *);
    let buf = t.buf in
    let rec go pos n =
      if n >= 0 && n < 0x80 then begin
        Bytes.unsafe_set buf pos (Char.unsafe_chr n);
        t.len <- pos + 1
      end
      else begin
        Bytes.unsafe_set buf pos (Char.unsafe_chr (0x80 lor (n land 0x7F)));
        go (pos + 1) (n lsr 7)
      end
    in
    go t.len n

  let uint t n =
    if n < 0 then invalid_arg "Wire.Encoder.uint: negative";
    uint_bits t n

  (* Length-prefixed array of non-negative varints with one reservation
     and one fused loop — a vector clock is the bulk of nearly every
     replicated message, so the per-entry [uint] call overhead matters. *)
  let uint_array t a =
    let n = Array.length a in
    uint_bits t n;
    reserve t (10 * n);
    let buf = t.buf in
    let rec entry i pos =
      if i = n then t.len <- pos
      else begin
        let v = Array.unsafe_get a i in
        if v < 0 then invalid_arg "Wire.Encoder.uint_array: negative";
        let rec go pos v =
          if v < 0x80 then begin
            Bytes.unsafe_set buf pos (Char.unsafe_chr v);
            entry (i + 1) (pos + 1)
          end
          else begin
            Bytes.unsafe_set buf pos (Char.unsafe_chr (0x80 lor (v land 0x7F)));
            go (pos + 1) (v lsr 7)
          end
        in
        go pos v
      end
    in
    entry 0 t.len

  (* Fixed-width bit packing, little-endian bit order, no length prefix:
     the v2 compressed-vector payload. Requires [1 <= width <= 56] (so the
     accumulator, at most 7 pending bits plus one value, fits a 63-bit
     word) and every entry within [width] bits. *)
  let packed_array t a ~width =
    if width < 1 || width > 56 then invalid_arg "Wire.Encoder.packed_array: width";
    let n = Array.length a in
    reserve t (((n * width) + 7) / 8);
    let buf = t.buf in
    let pos = ref t.len in
    let acc = ref 0 and bits = ref 0 in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get a i in
      if v < 0 || v lsr width > 0 then
        invalid_arg "Wire.Encoder.packed_array: entry exceeds width";
      acc := !acc lor (v lsl !bits);
      bits := !bits + width;
      while !bits >= 8 do
        Bytes.unsafe_set buf !pos (Char.unsafe_chr (!acc land 0xFF));
        incr pos;
        acc := !acc lsr 8;
        bits := !bits - 8
      done
    done;
    if !bits > 0 then begin
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (!acc land 0xFF));
      incr pos
    end;
    t.len <- !pos

  (* Zigzag: 0,-1,1,-2,2,... -> 0,1,2,3,4,... so small magnitudes of either
     sign encode in one byte. *)
  let int t n = uint_bits t ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let bool t b =
    reserve t 1;
    add_byte t (if b then 1 else 0)

  let string t s =
    let len = String.length s in
    uint t len;
    reserve t len;
    Bytes.blit_string s 0 t.buf t.len len;
    t.len <- t.len + len

  (* Explicit loops: [List.iter (f t)] would allocate a closure for the
     partial application on every call, which shows up on the per-message
     hot path. *)
  let list t f l =
    uint t (List.length l);
    let rec go = function
      | [] -> ()
      | x :: tl ->
        f t x;
        go tl
    in
    go l

  let array t f a =
    uint t (Array.length a);
    for i = 0 to Array.length a - 1 do
      f t (Array.unsafe_get a i)
    done

  let option t f = function
    | None -> bool t false
    | Some x ->
      bool t true;
      f t x

  let pair t f g (a, b) =
    f t a;
    g t b

  let to_string t = Bytes.sub_string t.buf 0 t.len

  let size_bytes t = t.len

  let size_bits t = 8 * t.len
end

module Decoder = struct
  (* A [pos, limit) window over a shared string: a decoder for a nested
     length-prefixed region ([sub]) is a view into the parent's bytes, not
     a copy, so envelope items can be skipped or decoded in place. *)
  type t = { input : string; mutable pos : int; limit : int }

  exception Malformed of string

  let of_string input = { input; pos = 0; limit = String.length input }

  let of_sub input ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length input then
      invalid_arg "Wire.Decoder.of_sub: window out of bounds";
    { input; pos; limit = pos + len }

  let remaining t = t.limit - t.pos

  let byte t =
    if t.pos >= t.limit then raise (Malformed "truncated input");
    let c = Char.code (String.unsafe_get t.input t.pos) in
    t.pos <- t.pos + 1;
    c

  let peek t =
    if t.pos >= t.limit then raise (Malformed "truncated input");
    Char.code (String.unsafe_get t.input t.pos)

  (* Single-byte varints are the overwhelmingly common case; decode them
     without entering the shift-accumulate loop. *)
  let uint t =
    let pos = t.pos in
    if pos < t.limit then begin
      let b = Char.code (String.unsafe_get t.input pos) in
      if b < 0x80 then begin
        t.pos <- pos + 1;
        b
      end
      else
        let rec go shift acc =
          if shift > Sys.int_size then raise (Malformed "varint overflow");
          let b = byte t in
          let acc = acc lor ((b land 0x7F) lsl shift) in
          if b land 0x80 = 0 then acc else go (shift + 7) acc
        in
        go 0 0
    end
    else raise (Malformed "truncated input")

  (* Fused mirror of [Encoder.uint_array]: one length read, one bounds
     check, then a tight loop with unsafe reads — the vector-clock decode
     underneath every replicated message. *)
  let uint_array t =
    let n = uint t in
    if n < 0 || n > remaining t then raise (Malformed "array length exceeds input");
    if n = 0 then [||]
    else begin
      let a = Array.make n 0 in
      let input = t.input and limit = t.limit in
      let pos = ref t.pos in
      (try
         for i = 0 to n - 1 do
           let p = !pos in
           if p >= limit then raise Exit;
           let b = Char.code (String.unsafe_get input p) in
           if b < 0x80 then begin
             Array.unsafe_set a i b;
             pos := p + 1
           end
           else begin
             let acc = ref (b land 0x7F) and shift = ref 7 in
             incr pos;
             let continue = ref true in
             while !continue do
               if !shift > Sys.int_size then raise (Malformed "varint overflow");
               if !pos >= limit then raise Exit;
               let b = Char.code (String.unsafe_get input !pos) in
               incr pos;
               acc := !acc lor ((b land 0x7F) lsl !shift);
               shift := !shift + 7;
               if b land 0x80 = 0 then continue := false
             done;
             Array.unsafe_set a i !acc
           end
         done
       with Exit -> raise (Malformed "truncated input"));
      t.pos <- !pos;
      a
    end

  (* Inverse of [Encoder.packed_array]: [n] entries of [width] bits each,
     little-endian bit order. The byte budget is checked up front, so a
     bogus [n] cannot trigger an allocation bomb. *)
  let packed_array t ~n ~width =
    if width < 1 || width > 56 then raise (Malformed "packed array: bad width");
    if n < 0 then raise (Malformed "packed array: negative length");
    let bytes = ((n * width) + 7) / 8 in
    if bytes > remaining t then raise (Malformed "packed array exceeds input");
    let a = Array.make n 0 in
    let input = t.input in
    let pos = ref t.pos in
    let acc = ref 0 and bits = ref 0 in
    let mask = (1 lsl width) - 1 in
    for i = 0 to n - 1 do
      while !bits < width do
        acc := !acc lor (Char.code (String.unsafe_get input !pos) lsl !bits);
        incr pos;
        bits := !bits + 8
      done;
      Array.unsafe_set a i (!acc land mask);
      acc := !acc lsr width;
      bits := !bits - width
    done;
    t.pos <- t.pos + bytes;
    a

  let int t =
    let z = uint t in
    (z lsr 1) lxor (-(z land 1))

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | b -> raise (Malformed (Printf.sprintf "bad bool byte %d" b))

  let string t =
    let len = uint t in
    if len < 0 || t.pos + len > t.limit then
      raise (Malformed "string length exceeds input");
    let s = String.sub t.input t.pos len in
    t.pos <- t.pos + len;
    s

  (* Advance past a length-prefixed string without copying it — the
     zero-copy path for classifiers that only need the envelope shape. *)
  let skip_string t =
    let len = uint t in
    if len < 0 || t.pos + len > t.limit then
      raise (Malformed "string length exceeds input");
    t.pos <- t.pos + len

  (* A child decoder over the next [len] bytes (a view, no copy); the
     parent skips past them. *)
  let sub t len =
    if len < 0 || t.pos + len > t.limit then
      raise (Malformed "sub-decoder length exceeds input");
    let child = { input = t.input; pos = t.pos; limit = t.pos + len } in
    t.pos <- t.pos + len;
    child

  (* [List.init]/[Array.init] do not specify the order in which they apply
     their function, so decode with explicit left-to-right loops instead. *)
  let list t f =
    let len = uint t in
    if len < 0 || len > remaining t then raise (Malformed "list length exceeds input");
    let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f t :: acc) in
    go len []

  let array t f =
    let len = uint t in
    if len < 0 || len > remaining t then raise (Malformed "array length exceeds input");
    if len = 0 then [||]
    else begin
      let a = Array.make len (f t) in
      for i = 1 to len - 1 do
        Array.unsafe_set a i (f t)
      done;
      a
    end

  let option t f = if bool t then Some (f t) else None

  let pair t f g =
    let a = f t in
    let b = g t in
    (a, b)

  let at_end t = t.pos = t.limit

  let expect_end t =
    if not (at_end t) then
      raise
        (Malformed
           (Printf.sprintf "trailing garbage: %d of %d bytes unread" (t.limit - t.pos)
              t.limit))
end

(* One long-lived scratch encoder per domain serves every non-nested
   [encode]: the replication hot path serializes one small message at a
   time, and reusing the grown byte block removes the per-message
   allocation. The scratch is domain-local state ([Domain.DLS]) so
   parallel seed sweeps (Haec_util.Par) never share it across domains.
   The [in_use] flag keeps nested [encode] calls (an encoder callback
   that itself encodes) correct by giving inner calls a fresh encoder;
   the scratch block is dropped if an oversized message grew it past
   64 KiB so one outlier doesn't pin memory forever. *)
type scratch = { enc : Encoder.t; mutable in_use : bool }

let scratch_key =
  Domain.DLS.new_key (fun () -> { enc = Encoder.create (); in_use = false })

let scratch_max_bytes = 65536

(* Hand-rolled unwind instead of [Fun.protect]: the latter allocates two
   closures per call, measurable on a path that encodes one small message
   per varint-sized payload. *)
let release_scratch s =
  s.in_use <- false;
  if Bytes.length s.enc.Encoder.buf > scratch_max_bytes then
    s.enc.Encoder.buf <- Bytes.create 64

let encode f =
  let s = Domain.DLS.get scratch_key in
  if s.in_use then begin
    let e = Encoder.create () in
    f e;
    Encoder.to_string e
  end
  else begin
    s.in_use <- true;
    Encoder.reset s.enc;
    match f s.enc with
    | () ->
      let out = Encoder.to_string s.enc in
      release_scratch s;
      out
    | exception exn ->
      release_scratch s;
      raise exn
  end

let decode s f =
  let d = Decoder.of_string s in
  let v = f d in
  Decoder.expect_end d;
  v

let size_bits s = 8 * String.length s

module Frame = struct
  (* Standard reflected CRC-32 (IEEE 802.3 polynomial). Catches every
     burst error up to 32 bits — in particular any single corrupted byte —
     and longer random corruption with probability 1 - 2^-32. The table is
     built eagerly at module initialisation: replica domains seal and
     unseal concurrently, and a [lazy] forced by two domains at once can
     raise [CamlinternalLazy.Undefined] in one of them. *)
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc32 s =
    let c = ref 0xFFFFFFFF in
    String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
    !c lxor 0xFFFFFFFF

  (* Sealing goes through the pooled scratch encoder ([encode]) rather
     than a fresh [Encoder.create] per frame. *)
  let seal payload =
    encode (fun e ->
        Encoder.string e payload;
        Encoder.uint e (crc32 payload))

  let unseal framed =
    let d = Decoder.of_string framed in
    let payload = Decoder.string d in
    let crc = Decoder.uint d in
    Decoder.expect_end d;
    if crc <> crc32 payload then raise (Decoder.Malformed "frame checksum mismatch");
    payload
end

module Gossip = struct
  (* The anti-entropy envelope kinds (Haec_store.Anti_entropy) live here so
     the tag space is fixed at the wire layer: telemetry, tests, and any
     future store transformer agree on what a digest or a repair item is
     without depending on the store library. Tags 6 and 7 are the wire-v2
     additions: a [Digest_delta] carries only the [have] entries that
     changed since the sender's last digest, and [Repair_runs] carries one
     merged per-peer repair as per-origin runs of consecutive sequence
     numbers. V1 emitters never produce them; every decoder accepts
     them. A v2 envelope's [Repair_request] also ends in a [count]
     bounding the gap it asks for. *)
  type kind =
    | Update
    | Digest
    | Repair_request
    | Repair
    | Hello
    | Goodbye
    | Digest_delta
    | Repair_runs

  let tag = function
    | Update -> 0
    | Digest -> 1
    | Repair_request -> 2
    | Repair -> 3
    | Hello -> 4
    | Goodbye -> 5
    | Digest_delta -> 6
    | Repair_runs -> 7

  let name = function
    | Update -> "update"
    | Digest -> "digest"
    | Repair_request -> "repair-request"
    | Repair -> "repair"
    | Hello -> "hello"
    | Goodbye -> "goodbye"
    | Digest_delta -> "digest-delta"
    | Repair_runs -> "repair-runs"

  let encode_kind enc k = Encoder.uint enc (tag k)

  let decode_kind dec =
    match Decoder.uint dec with
    | 0 -> Update
    | 1 -> Digest
    | 2 -> Repair_request
    | 3 -> Repair
    | 4 -> Hello
    | 5 -> Goodbye
    | 6 -> Digest_delta
    | 7 -> Repair_runs
    | t -> raise (Decoder.Malformed (Printf.sprintf "bad gossip kind tag %d" t))
end
