type t = { mutable words : int array; cap : int }

let words_for cap = (cap + 62) / 63

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (words_for cap) 0; cap }

let capacity t = t.cap

let copy t = { words = Array.copy t.words; cap = t.cap }

let check t i =
  if i < 0 || i >= t.cap then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) lor (1 lsl (i mod 63))

let clear t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) land lnot (1 lsl (i mod 63))

let get t i =
  check t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

let union_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.union_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let union_into_changed ~dst src =
  if dst.cap <> src.cap then
    invalid_arg "Bitset.union_into_changed: capacity mismatch";
  let changed = ref false in
  for w = 0 to Array.length dst.words - 1 do
    let old = dst.words.(w) in
    let v = old lor src.words.(w) in
    if v <> old then begin
      dst.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let copy_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.copy_into: capacity mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let inter_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.inter_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let equal a b =
  a.cap = b.cap
  &&
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) <> b.words.(w) then ok := false
  done;
  !ok

(* FNV-1a-style word mix; agrees with [equal] (capacity + word contents). *)
let hash t =
  let h = ref (t.cap * 0x01000193) in
  for w = 0 to Array.length t.words - 1 do
    let x = t.words.(w) in
    h := (!h lxor (x land 0x3FFFFFFF)) * 0x01000193;
    h := (!h lxor (x lsr 30)) * 0x01000193
  done;
  !h land max_int

let is_subset a b =
  if a.cap <> b.cap then invalid_arg "Bitset.is_subset: capacity mismatch";
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t =
  let empty = ref true in
  for w = 0 to Array.length t.words - 1 do
    if t.words.(w) <> 0 then empty := false
  done;
  !empty

let min_elt t =
  let n = Array.length t.words in
  let rec word w =
    if w = n then None
    else if t.words.(w) = 0 then word (w + 1)
    else
      let x = t.words.(w) in
      let rec bit b = if x land (1 lsl b) <> 0 then Some ((w * 63) + b) else bit (b + 1) in
      bit 0
  in
  word 0

let min_elt_from t i =
  let n = Array.length t.words in
  let rec word w mask =
    if w >= n then None
    else
      let x = t.words.(w) land mask in
      if x = 0 then word (w + 1) (-1)
      else
        let rec bit b = if x land (1 lsl b) <> 0 then Some ((w * 63) + b) else bit (b + 1) in
        bit 0
  in
  if i <= 0 then word 0 (-1) else word (i / 63) (-1 lsl (i mod 63))

let iter t f =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to 62 do
        if word land (1 lsl b) <> 0 then f ((w * 63) + b)
      done
  done

let iter_rev t f =
  for w = Array.length t.words - 1 downto 0 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 62 downto 0 do
        if word land (1 lsl b) <> 0 then f ((w * 63) + b)
      done
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun i -> acc := f !acc i);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc i -> i :: acc))

exception Found

let exists t p =
  try
    iter t (fun i -> if p i then raise Found);
    false
  with Found -> true

let for_all t p = not (exists t (fun i -> not (p i)))
