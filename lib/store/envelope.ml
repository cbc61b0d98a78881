(** The anti-entropy envelope codec: the one module that reads or writes
    the bytes {!Anti_entropy} puts on the wire (DESIGN.md §4h).

    A v2 envelope, the only one a replica emits, is [0x00, items]: its
    items run to the end of the payload, so it carries no version byte
    and no item count. A v1 envelope is [count >= 1, items], so the
    leading byte tells the two apart. Each item is a
    {!Haec_wire.Wire.Gossip} kind tag and its fields. A v2 request ends
    in a [count] bounding its gap; a v1 request has none. {!fold} is the
    one decoder ({!decode} collects what it folds): it rejects every
    count that exceeds the input before allocating for it, and every
    other framing error, as [Malformed]. A cut or extended v2 envelope
    can still decode, as fewer or more items: integrity is the frame
    CRC's job ({!Haec_wire.Wire.Frame}), on every path that can damage
    bytes. Whether a decoded field fits the receiving deployment (a
    replica id below [n], a clock of size [n]) is the receiver's
    check. *)

open Haec_wire
open Haec_vclock

type item =
  | Update of { seq : int; payload : string }
  | Digest of Vclock.t
  | Digest_delta of (int * int) list
      (** the [(index, value)] entries changed since the sender's last
          digest, indices strictly increasing; sent as index gaps *)
  | Request of { dst : int; origin : int; from_seq : int; count : int option }
      (** asks [dst] for [origin]'s stream from [from_seq]: for [count]
          seqs in a v2 envelope, unbounded ([None]) in a v1 one *)
  | Repair of { dst : int; items : (int * int * string) list }
      (** v1: [(origin, seq, payload)] triples *)
  | Repair_runs of { dst : int; runs : (int * int * string list) list }
      (** [(origin, from_seq, payloads)]: runs of consecutive seqs *)
  | Hello of int  (** the membership epoch announced *)
  | Goodbye of int

type t = { v2 : bool; items : item list }

let kind : item -> Wire.Gossip.kind = function
  | Update _ -> Update
  | Digest _ -> Digest
  | Digest_delta _ -> Digest_delta
  | Request _ -> Repair_request
  | Repair _ -> Repair
  | Repair_runs _ -> Repair_runs
  | Hello _ -> Hello
  | Goodbye _ -> Goodbye

let encode_item enc item =
  let uint = Wire.Encoder.uint and string = Wire.Encoder.string in
  Wire.Gossip.encode_kind enc (kind item);
  match item with
  | Update { seq; payload } ->
    uint enc seq;
    string enc payload
  | Digest clock -> Vclock.encode_c enc clock
  | Digest_delta entries ->
    uint enc (List.length entries);
    let gap last (i, v) = uint enc (i - last - 1); uint enc v; i in
    ignore (List.fold_left gap (-1) entries)
  | Request { dst; origin; from_seq; count } ->
    uint enc dst;
    uint enc origin;
    uint enc from_seq;
    Option.iter (uint enc) count
  | Repair { dst; items } ->
    uint enc dst;
    Wire.Encoder.list enc
      (fun enc (origin, seq, payload) ->
        uint enc origin;
        uint enc seq;
        string enc payload)
      items
  | Repair_runs { dst; runs } ->
    uint enc dst;
    uint enc (List.length runs);
    List.iter
      (fun (origin, from_seq, payloads) ->
        uint enc origin;
        uint enc from_seq;
        uint enc (List.length payloads);
        List.iter (string enc) payloads)
      runs
  | Hello epoch | Goodbye epoch -> uint enc epoch

(* [sized item bytes] is told each item's encoded size, in order *)
let encode ?(sized = fun _ _ -> ()) { v2; items } =
  Wire.encode (fun enc ->
      Wire.Encoder.uint enc (if v2 then 0 else List.length items);
      let rec go = function
        | [] -> ()
        | item :: rest ->
          let start = Wire.Encoder.size_bytes enc in
          encode_item enc item;
          sized item (Wire.Encoder.size_bytes enc - start);
          go rest
      in
      go items)

let malformed what = raise (Wire.Decoder.Malformed ("anti-entropy " ^ what))

let uint = Wire.Decoder.uint

let decode_item ~v2 dec : item =
  match Wire.Gossip.decode_kind dec with
  | Update ->
    let seq = uint dec in
    Update { seq; payload = Wire.Decoder.string dec }
  | Digest -> Digest (Vclock.decode_any dec)
  | Digest_delta ->
    let last = ref (-1) in
    Digest_delta
      (Wire.Decoder.list dec (fun dec ->
           let gap = uint dec in
           let v = uint dec in
           if gap < 0 || gap > max_int - 1 - !last then malformed "digest-delta: bad index";
           last := !last + 1 + gap;
           (!last, v)))
  | Repair_request ->
    let dst = uint dec in
    let origin = uint dec in
    let from_seq = uint dec in
    Request { dst; origin; from_seq; count = (if v2 then Some (uint dec) else None) }
  | Repair ->
    let dst = uint dec in
    let item dec =
      let origin = uint dec in
      let seq = uint dec in
      (origin, seq, Wire.Decoder.string dec)
    in
    Repair { dst; items = Wire.Decoder.list dec item }
  | Repair_runs ->
    let dst = uint dec in
    let run dec =
      let origin = uint dec in
      let from_seq = uint dec in
      (origin, from_seq, Wire.Decoder.list dec Wire.Decoder.string)
    in
    Repair_runs { dst; runs = Wire.Decoder.list dec run }
  | Hello -> Hello (uint dec)
  | Goodbye -> Goodbye (uint dec)

(* The one decoder: fold [f ~v2] over the envelope's items in order, as
   each is decoded, without building the list. Input past the last item,
   or an item that does not decode, raises [Malformed] after [f] has seen
   the items before it. *)
let fold payload ~init f =
  let dec = Wire.Decoder.of_string payload in
  let acc = ref init in
  (match uint dec with
  | 0 ->
    (* v2: every item takes at least its kind byte, so this ends *)
    while not (Wire.Decoder.at_end dec) do
      acc := f ~v2:true !acc (decode_item ~v2:true dec)
    done
  | count ->
    if count < 0 || count > Wire.Decoder.remaining dec then
      malformed "envelope: item count exceeds input";
    for _ = 1 to count do
      acc := f ~v2:false !acc (decode_item ~v2:false dec)
    done;
    Wire.Decoder.expect_end dec);
  !acc

(* an envelope without items can only be v2: a v1 one counts at least 1 *)
let decode payload =
  let v2 = ref true in
  let set ~v2:version items item = v2 := version; item :: items in
  let items = List.rev (fold payload ~init:[] set) in
  { v2 = !v2; items }

(* the trace label of an item, and how many it counts for: a repair
   counts its payloads *)
let name = function
  | Update _ -> "update"
  | Digest _ -> "digest"
  | Digest_delta _ -> "digest-delta"
  | Request _ -> "request"
  | Repair _ | Repair_runs _ -> "repair"
  | Hello _ -> "hello"
  | Goodbye _ -> "goodbye"

let weight = function
  | Repair { items; _ } -> List.length items
  | Repair_runs { runs; _ } ->
    List.fold_left (fun k (_, _, payloads) -> k + List.length payloads) 0 runs
  | _ -> 1

(* Name the items of an envelope for trace labels, in order of first
   appearance, e.g. "update+digest" or "repair(3)". Bytes that are not
   an anti-entropy envelope classify as "". *)
let classify payload =
  match decode payload with
  | exception Wire.Decoder.Malformed _ -> ""
  | { items; _ } ->
    let add counts item =
      let k = name item and w = weight item in
      if List.mem_assoc k counts then
        List.map (fun (k', c) -> (k', if k' = k then c + w else c)) counts
      else counts @ [ (k, w) ]
    in
    List.fold_left add [] items
    |> List.map (fun (k, c) -> if c <= 1 then k else Printf.sprintf "%s(%d)" k c)
    |> String.concat "+"
