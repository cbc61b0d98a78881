(* [Hashtbl.Make] indexes buckets with the low bits of the hash, so each
   component is folded in through an odd multiplier that carries its low
   bits across the whole word *)
let mix h x = (h * 0x2545F491) + x

module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d

  let hash ((a, b) : t) = mix a b land max_int
end)

let hash3 a b c = mix (mix a b) c land max_int
