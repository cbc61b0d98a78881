open Haec_wire

(* The component array plus its cached sum. The sum is an order
   homomorphism — [a <= b] componentwise implies [sum a <= sum b] — so it
   settles most comparisons on the replication hot path without touching
   the array: [leq] refutes on [a.sum > b.sum], and [a <= b] with equal
   sums forces [a = b]. The cache is kept exact at construction and by
   the in-place operations, never recomputed lazily. *)
type t = { v : int array; mutable sum : int }

type order = Equal | Before | After | Concurrent

let sum_of = Array.fold_left ( + ) 0

let zero ~n =
  if n <= 0 then invalid_arg "Vclock.zero: n must be positive";
  { v = Array.make n 0; sum = 0 }

let of_array a =
  Array.iter (fun x -> if x < 0 then invalid_arg "Vclock.of_array: negative entry") a;
  { v = Array.copy a; sum = sum_of a }

let to_array t = Array.copy t.v

let size t = Array.length t.v

let get t r = t.v.(r)

let copy t = { v = Array.copy t.v; sum = t.sum }

let tick t r =
  let v' = Array.copy t.v in
  v'.(r) <- v'.(r) + 1;
  { v = v'; sum = t.sum + 1 }

let tick_into t r =
  t.v.(r) <- t.v.(r) + 1;
  t.sum <- t.sum + 1

let check_sizes a b =
  if Array.length a.v <> Array.length b.v then invalid_arg "Vclock: size mismatch"

let merge a b =
  check_sizes a b;
  let n = Array.length a.v in
  let v' = Array.make n 0 in
  let s = ref 0 in
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a.v i and bi = Array.unsafe_get b.v i in
    let m = if ai >= bi then ai else bi in
    Array.unsafe_set v' i m;
    s := !s + m
  done;
  { v = v'; sum = !s }

let merge_into a b =
  check_sizes a b;
  let s = ref a.sum in
  for i = 0 to Array.length a.v - 1 do
    let ai = Array.unsafe_get a.v i and bi = Array.unsafe_get b.v i in
    if bi > ai then begin
      Array.unsafe_set a.v i bi;
      s := !s + (bi - ai)
    end
  done;
  a.sum <- !s

let compare_causal a b =
  check_sizes a b;
  if a == b then Equal
  else begin
    let n = Array.length a.v in
    let some_lt = ref false and some_gt = ref false in
    let i = ref 0 in
    (* stop as soon as both directions are witnessed: Concurrent *)
    while !i < n && not (!some_lt && !some_gt) do
      let ai = Array.unsafe_get a.v !i and bi = Array.unsafe_get b.v !i in
      if ai < bi then some_lt := true else if ai > bi then some_gt := true;
      incr i
    done;
    match (!some_lt, !some_gt) with
    | false, false -> Equal
    | true, false -> Before
    | false, true -> After
    | true, true -> Concurrent
  end

let leq a b =
  check_sizes a b;
  a.sum <= b.sum
  &&
  let n = Array.length a.v in
  let rec go i =
    i >= n || (Array.unsafe_get a.v i <= Array.unsafe_get b.v i && go (i + 1))
  in
  go 0

(* componentwise <= with equal sums forces equality, so strictness is
   just a sum test away *)
let lt a b = a.sum < b.sum && leq a b

let equal a b = Array.length a.v = Array.length b.v && a.sum = b.sum && a.v = b.v

let concurrent a b = compare_causal a b = Concurrent

let compare a b = Stdlib.compare a.v b.v

let sum t = t.sum

let raise_to t i x =
  if i < 0 || i >= Array.length t.v then invalid_arg "Vclock.raise_to: bad index";
  let cur = t.v.(i) in
  if x <= cur then t
  else begin
    let v' = Array.copy t.v in
    v'.(i) <- x;
    { v = v'; sum = t.sum + (x - cur) }
  end

(* Specialized paths (rather than [Encoder.array]/[Decoder.array]): every
   replicated message carries at least one clock, and the generic
   combinators pay an indirect call per entry. Decoding also folds the
   cached sum in the same pass. *)
let encode enc t = Wire.Encoder.uint_array enc t.v

let of_decoded v =
  let s = ref 0 in
  for i = 0 to Array.length v - 1 do
    s := !s + Array.unsafe_get v i
  done;
  { v; sum = !s }

let decode dec = of_decoded (Wire.Decoder.uint_array dec)

(* ---- wire v2: compressed absolute clocks ----

   Self-describing against the v1 layout: a v1 clock starts with its
   length varint, which is at least 1 ([zero] rejects n = 0), so a leading
   0x00 unambiguously marks a compressed layout. After the marker, a
   header byte selects the mode: 0 is run-length (run count, then
   (length, value) pairs), and w in [1, 56] is bit-packing (length varint,
   then ceil(n*w/8) payload bytes, little-endian bit order). The encoder
   computes all three candidate sizes in one pass over the entries and
   emits the smallest — the raw fallback is byte-identical to v1, so a
   compressed clock is never larger than its v1 encoding. *)

let varint_len v =
  let rec go acc v = if v < 0x80 then acc else go (acc + 1) (v lsr 7) in
  go 1 v

let bit_width v =
  let rec go acc v = if v < 2 then acc else go (acc + 1) (v lsr 1) in
  go 1 v

(* guards the run-length decoder against an allocation bomb: a claimed
   clock size far beyond any deployment is malformed, not a request for
   gigabytes *)
let max_decoded_size = 1 lsl 22

let encode_c enc t =
  let v = t.v in
  let n = Array.length v in
  if n = 0 then invalid_arg "Vclock.encode_c: empty clock";
  (* one allocation-free pass: the accumulators are local refs, which the
     compiler keeps in registers (this runs once per encoded clock on the
     replication hot path) *)
  let raw = ref (varint_len n) and maxv = ref 0 in
  let runs = ref 0 and run_bytes = ref 0 and run_val = ref (-1) and run_len = ref 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get v i in
    if x < 0 then invalid_arg "Vclock.encode_c: negative entry";
    raw := !raw + varint_len x;
    if x > !maxv then maxv := x;
    if x = !run_val then incr run_len
    else begin
      if !run_len > 0 then begin
        incr runs;
        run_bytes := !run_bytes + varint_len !run_len + varint_len !run_val
      end;
      run_val := x;
      run_len := 1
    end
  done;
  (* n >= 1, so a last run is open *)
  let runs = !runs + 1 in
  let run_bytes = !run_bytes + varint_len !run_len + varint_len !run_val in
  let raw = !raw in
  let rle = 2 + varint_len runs + run_bytes in
  let w = bit_width !maxv in
  let packed = if w > 56 then max_int else 2 + varint_len n + (((n * w) + 7) / 8) in
  if raw <= rle && raw <= packed then Wire.Encoder.uint_array enc v
  else if packed <= rle then begin
    Wire.Encoder.uint enc 0;
    Wire.Encoder.uint enc w;
    Wire.Encoder.uint enc n;
    Wire.Encoder.packed_array enc v ~width:w
  end
  else begin
    Wire.Encoder.uint enc 0;
    Wire.Encoder.uint enc 0;
    Wire.Encoder.uint enc runs;
    let run_val = ref (Array.unsafe_get v 0) and run_len = ref 1 in
    for i = 1 to n - 1 do
      let x = Array.unsafe_get v i in
      if x = !run_val then incr run_len
      else begin
        Wire.Encoder.uint enc !run_len;
        Wire.Encoder.uint enc !run_val;
        run_val := x;
        run_len := 1
      end
    done;
    Wire.Encoder.uint enc !run_len;
    Wire.Encoder.uint enc !run_val
  end

let decode_any dec =
  if Wire.Decoder.peek dec <> 0 then decode dec
  else begin
    let _marker = Wire.Decoder.uint dec in
    match Wire.Decoder.uint dec with
    | 0 ->
      (* run-length: total size is implicit, so bound it explicitly *)
      let runs = Wire.Decoder.uint dec in
      if runs < 1 || runs > Wire.Decoder.remaining dec then
        raise (Wire.Decoder.Malformed "Vclock.decode_any: run count exceeds input");
      let parts = ref [] in
      let total = ref 0 in
      for _ = 1 to runs do
        let len = Wire.Decoder.uint dec in
        let value = Wire.Decoder.uint dec in
        if len < 1 then raise (Wire.Decoder.Malformed "Vclock.decode_any: empty run");
        total := !total + len;
        if !total > max_decoded_size then
          raise (Wire.Decoder.Malformed "Vclock.decode_any: implausible clock size");
        parts := (len, value) :: !parts
      done;
      let v = Array.make !total 0 in
      let s = ref 0 in
      let i = ref !total in
      List.iter
        (fun (len, value) ->
          for _ = 1 to len do
            decr i;
            Array.unsafe_set v !i value;
            s := !s + value
          done)
        !parts;
      { v; sum = !s }
    | w ->
      let n = Wire.Decoder.uint dec in
      if n < 1 then raise (Wire.Decoder.Malformed "Vclock.decode_any: empty clock");
      of_decoded (Wire.Decoder.packed_array dec ~n ~width:w)
  end

let encode_delta enc ~prev t =
  check_sizes prev t;
  let n = Array.length t.v in
  Wire.Encoder.uint enc n;
  for i = 0 to n - 1 do
    let d = t.v.(i) - prev.v.(i) in
    if d < 0 then invalid_arg "Vclock.encode_delta: prev exceeds clock";
    Wire.Encoder.uint enc d
  done

let decode_delta dec ~prev =
  let n = Wire.Decoder.uint dec in
  if n <> Array.length prev.v then
    raise (Wire.Decoder.Malformed "Vclock.decode_delta: size mismatch");
  let v = Array.make n 0 in
  let s = ref 0 in
  for i = 0 to n - 1 do
    let x = prev.v.(i) + Wire.Decoder.uint dec in
    v.(i) <- x;
    s := !s + x
  done;
  { v; sum = !s }

(* ---- wire v2: sparse deltas ----

   Dependency vectors within one batch differ from their predecessor in
   very few entries (usually one, often none), so listing only the changed
   entries beats the dense delta. Layout after the 0x00 marker: a changed
   count, then (gap, delta) pairs — [gap] the number of unchanged entries
   skipped since the previous changed one, [delta] the strictly positive
   increment. The dense fallback is byte-identical to v1 ([n] >= 1 leads),
   so the sparse form is never larger. *)

let encode_delta_c enc ~prev t =
  check_sizes prev t;
  let n = Array.length t.v in
  if n = 0 then invalid_arg "Vclock.encode_delta_c: empty clock";
  (* one allocation-free pass over local refs, as in [encode_c] *)
  let dense = ref (varint_len n) and sparse = ref 2 and changed = ref 0 and last = ref (-1) in
  for i = 0 to n - 1 do
    let d = Array.unsafe_get t.v i - Array.unsafe_get prev.v i in
    if d < 0 then invalid_arg "Vclock.encode_delta_c: prev exceeds clock";
    if d = 0 then incr dense
    else begin
      dense := !dense + varint_len d;
      sparse := !sparse + varint_len (i - !last - 1) + varint_len d;
      incr changed;
      last := i
    end
  done;
  let dense = !dense and sparse = !sparse and changed = !changed in
  if dense <= sparse then encode_delta enc ~prev t
  else begin
    Wire.Encoder.uint enc 0;
    Wire.Encoder.uint enc changed;
    let last = ref (-1) in
    for i = 0 to n - 1 do
      let d = t.v.(i) - prev.v.(i) in
      if d > 0 then begin
        Wire.Encoder.uint enc (i - !last - 1);
        Wire.Encoder.uint enc d;
        last := i
      end
    done
  end

let decode_delta_any dec ~prev =
  if Wire.Decoder.peek dec <> 0 then decode_delta dec ~prev
  else begin
    let _marker = Wire.Decoder.uint dec in
    let n = Array.length prev.v in
    let count = Wire.Decoder.uint dec in
    if count > n || count > Wire.Decoder.remaining dec then
      raise (Wire.Decoder.Malformed "Vclock.decode_delta_any: bad changed count");
    let v = Array.copy prev.v in
    let s = ref prev.sum in
    let i = ref (-1) in
    for _ = 1 to count do
      let gap = Wire.Decoder.uint dec in
      let d = Wire.Decoder.uint dec in
      i := !i + gap + 1;
      if !i >= n then
        raise (Wire.Decoder.Malformed "Vclock.decode_delta_any: index out of range");
      if d < 1 then raise (Wire.Decoder.Malformed "Vclock.decode_delta_any: zero delta");
      v.(!i) <- v.(!i) + d;
      s := !s + d
    done;
    { v; sum = !s }
  end

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    t.v
