open Haec_wire

type t =
  | Read
  | Write of Value.t
  | Add of Value.t
  | Remove of Value.t

type response =
  | Ok
  | Vals of Value.t list

let is_read = function Read -> true | Write _ | Add _ | Remove _ -> false

let is_update op = not (is_read op)

let tag = function Read -> 0 | Write _ -> 1 | Add _ -> 2 | Remove _ -> 3

let compare a b =
  match (a, b) with
  | Read, Read -> 0
  | Write x, Write y | Add x, Add y | Remove x, Remove y -> Value.compare x y
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let vals l = Vals (Value.sort_uniq l)

let compare_response a b =
  match (a, b) with
  | Ok, Ok -> 0
  | Ok, Vals _ -> -1
  | Vals _, Ok -> 1
  | Vals xs, Vals ys -> List.compare Value.compare xs ys

let equal_response a b = compare_response a b = 0

let encode enc = function
  | Read -> Wire.Encoder.uint enc 0
  | Write v ->
    Wire.Encoder.uint enc 1;
    Value.encode enc v
  | Add v ->
    Wire.Encoder.uint enc 2;
    Value.encode enc v
  | Remove v ->
    Wire.Encoder.uint enc 3;
    Value.encode enc v

let decode dec =
  match Wire.Decoder.uint dec with
  | 0 -> Read
  | 1 -> Write (Value.decode dec)
  | 2 -> Add (Value.decode dec)
  | 3 -> Remove (Value.decode dec)
  | tag -> raise (Wire.Decoder.Malformed (Printf.sprintf "bad op tag %d" tag))

let pp ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write v -> Format.fprintf ppf "write(%a)" Value.pp v
  | Add v -> Format.fprintf ppf "add(%a)" Value.pp v
  | Remove v -> Format.fprintf ppf "remove(%a)" Value.pp v

let pp_response ppf = function
  | Ok -> Format.pp_print_string ppf "ok"
  | Vals vs ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         Value.pp)
      vs
