type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: advance the counter by the golden-ratio
   gamma, then scramble with two xor-shift-multiply rounds. Inlined, so
   callers that narrow the result ([int], [float]) never box it. *)
let[@inline] bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = bits64 t in
  { state = seed }

(* Uniform int in [0, bound) by rejection on the top 62 bits, avoiding
   modulo bias. A top-level loop rather than a local [go]: a local one
   would allocate its closure on every draw. *)
let mask = 0x3FFF_FFFF_FFFF_FFFF

let rec draw t bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
  let v = r mod bound in
  if r - v > mask - bound + 1 then draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 random bits mapped to [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_arr t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_arr: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a
