open Haec_wire

type t =
  | Int of int
  | Str of string
  | Pair of int * int

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Str x, Str y -> String.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Pair (x1, y1), Pair (x2, y2) -> (
    match Int.compare x1 x2 with 0 -> Int.compare y1 y2 | c -> c)

let equal a b = compare a b = 0

let sort_uniq = function
  | ([] | [ _ ]) as l -> l
  | [ a; b ] as l ->
    let c = compare a b in
    if c < 0 then l else if c = 0 then [ a ] else [ b; a ]
  | l -> List.sort_uniq compare l

let encode enc = function
  | Int n ->
    Wire.Encoder.uint enc 0;
    Wire.Encoder.int enc n
  | Str s ->
    Wire.Encoder.uint enc 1;
    Wire.Encoder.string enc s
  | Pair (a, b) ->
    Wire.Encoder.uint enc 2;
    Wire.Encoder.int enc a;
    Wire.Encoder.int enc b

let decode dec =
  match Wire.Decoder.uint dec with
  | 0 -> Int (Wire.Decoder.int dec)
  | 1 -> Str (Wire.Decoder.string dec)
  | 2 ->
    let a = Wire.Decoder.int dec in
    let b = Wire.Decoder.int dec in
    Pair (a, b)
  | tag -> raise (Wire.Decoder.Malformed (Printf.sprintf "bad value tag %d" tag))

let pp ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "(%d,%d)" a b

let to_string v = Format.asprintf "%a" pp v
