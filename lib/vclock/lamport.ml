open Haec_wire

type t = { time : int; replica : int }

let compare a b =
  match Int.compare a.time b.time with 0 -> Int.compare a.replica b.replica | c -> c

let equal a b = compare a b = 0

let encode enc t =
  Wire.Encoder.uint enc t.time;
  Wire.Encoder.uint enc t.replica

let decode dec =
  let time = Wire.Decoder.uint dec in
  let replica = Wire.Decoder.uint dec in
  { time; replica }

let pp ppf t = Format.fprintf ppf "%d@%d" t.time t.replica
