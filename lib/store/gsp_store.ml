open Haec_wire
open Haec_vclock
open Haec_model
module Int_map = Map.Make (Int)
module Fqueue = Haec_util.Fqueue

type swrite = {
  origin : int;
  oseq : int;  (** per-origin write counter, from 1 *)
  obj : int;
  value : Value.t;
}

let encode_swrite enc w =
  Wire.Encoder.uint enc w.origin;
  Wire.Encoder.uint enc w.oseq;
  Wire.Encoder.uint enc w.obj;
  Value.encode enc w.value

let decode_swrite dec =
  let origin = Wire.Decoder.uint dec in
  let oseq = Wire.Decoder.uint dec in
  let obj = Wire.Decoder.uint dec in
  let value = Value.decode dec in
  { origin; oseq; obj; value }

type payload =
  | Writes of swrite list  (** client writes travelling to the sequencer *)
  | Orders of (int * swrite) list  (** (global seq, write), from the sequencer *)

let encode_payload enc = function
  | Writes ws ->
    Wire.Encoder.uint enc 0;
    Wire.Encoder.list enc encode_swrite ws
  | Orders os ->
    Wire.Encoder.uint enc 1;
    Wire.Encoder.list enc
      (fun enc (g, w) ->
        Wire.Encoder.uint enc g;
        encode_swrite enc w)
      os

let decode_payload dec =
  match Wire.Decoder.uint dec with
  | 0 -> Writes (Wire.Decoder.list dec decode_swrite)
  | 1 ->
    Orders
      (Wire.Decoder.list dec (fun dec ->
           let g = Wire.Decoder.uint dec in
           let w = decode_swrite dec in
           (g, w)))
  | tag -> raise (Wire.Decoder.Malformed (Printf.sprintf "bad gsp payload tag %d" tag))

type state = {
  n : int;
  me : int;
  (* confirmed global prefix *)
  confirmed : int;  (** number of globally sequenced writes applied *)
  objects : (int * swrite) Int_map.t;  (** obj -> (gseq, winning write) *)
  applied : Dot.Set.t;  (** dots (origin, oseq) of confirmed writes *)
  order_buffer : (int * swrite) list;  (** out-of-order sequencer output *)
  (* this replica's writes not yet confirmed, oldest first *)
  unconfirmed : swrite Fqueue.t;
  next_oseq : int;
  (* outgoing *)
  out_writes : swrite list;  (** newest first *)
  out_orders : (int * swrite) list;  (** newest first; sequencer only *)
  (* sequencer role (me = 0) *)
  next_gseq : int;
  sequenced : Dot.Set.t;  (** dots already assigned a global position *)
}

let name = "gsp-total-order"

let invisible_reads = true

let op_driven = false

let sequencer = 0

let init ~n ~me =
  {
    n;
    me;
    confirmed = 0;
    objects = Int_map.empty;
    applied = Dot.Set.empty;
    order_buffer = [];
    unconfirmed = Fqueue.empty;
    next_oseq = 1;
    out_writes = [];
    out_orders = [];
    next_gseq = 1;
    sequenced = Dot.Set.empty;
  }

(* nothing here depends on the anti-entropy settings *)
let create (_ : Store_intf.config) = init

let dot_of w = Dot.make ~replica:w.origin ~seq:w.oseq

(* apply the contiguous prefix of buffered orders *)
let rec drain t =
  match List.find_opt (fun (g, _) -> g = t.confirmed + 1) t.order_buffer with
  | None -> t
  | Some ((g, w) as entry) ->
    let order_buffer = List.filter (fun e -> e <> entry) t.order_buffer in
    let objects =
      match Int_map.find_opt w.obj t.objects with
      | Some (g', _) when g' > g -> t.objects
      | _ -> Int_map.add w.obj (g, w) t.objects
    in
    (* only own writes sit in [unconfirmed], so a remote confirmation
       never needs the O(n) sweep *)
    let unconfirmed =
      if w.origin <> t.me then t.unconfirmed
      else
        match Fqueue.peek t.unconfirmed with
        | Some u when Dot.equal (dot_of u) (dot_of w) ->
          (* the common case: own writes confirm in issue order *)
          snd (Option.get (Fqueue.pop t.unconfirmed))
        | _ ->
          Fqueue.of_list
            (List.filter
               (fun u -> not (Dot.equal (dot_of u) (dot_of w)))
               (Fqueue.to_list t.unconfirmed))
    in
    drain
      {
        t with
        confirmed = g;
        objects;
        applied = Dot.Set.add (dot_of w) t.applied;
        order_buffer;
        unconfirmed;
      }

(* the sequencer assigns the next global position to a fresh write *)
let sequence t w =
  if Dot.Set.mem (dot_of w) t.sequenced then t
  else
    let entry = (t.next_gseq, w) in
    drain
      {
        t with
        next_gseq = t.next_gseq + 1;
        sequenced = Dot.Set.add (dot_of w) t.sequenced;
        out_orders = entry :: t.out_orders;
        order_buffer = entry :: t.order_buffer;
      }

(* Witness note: the GSP store is deliberately outside the
   write-propagating class, and its visibility is a global prefix rather
   than per-object dots, so we report the minimal sound witness: the
   replica's own unconfirmed writes plus confirmed winners. The E12
   experiment asserts liveness/availability behaviour, not witness
   completeness. *)
let witness_of t =
  let confirmed_winners =
    Int_map.fold (fun obj (_, w) acc -> (obj, dot_of w) :: acc) t.objects []
  in
  let own =
    List.rev (Fqueue.fold (fun acc w -> (w.obj, dot_of w) :: acc) [] t.unconfirmed)
  in
  List.map (fun (obj, dot) -> Store_intf.dots ~obj [ dot ]) (confirmed_winners @ own)

let do_op t ~obj op =
  match op with
  | Op.Read ->
    (* own unconfirmed writes overlay the confirmed prefix *)
    let own_last =
      Fqueue.fold (fun acc w -> if w.obj = obj then Some w else acc) None t.unconfirmed
    in
    let vals =
      match (own_last, Int_map.find_opt obj t.objects) with
      | Some last, _ -> [ last.value ]
      | None, Some (_, w) -> [ w.value ]
      | None, None -> []
    in
    (t, Op.vals vals, lazy { Store_intf.visible = witness_of t; self = None })
  | Op.Write v ->
    let w = { origin = t.me; oseq = t.next_oseq; obj; value = v } in
    let witness = lazy { Store_intf.visible = witness_of t; self = Some (dot_of w) } in
    let t =
      { t with next_oseq = t.next_oseq + 1; unconfirmed = Fqueue.push t.unconfirmed w }
    in
    let t =
      if t.me = sequencer then sequence t w else { t with out_writes = w :: t.out_writes }
    in
    (t, Op.Ok, witness)
  | Op.Add _ | Op.Remove _ -> invalid_arg "Gsp_store: only read/write supported"

let has_pending t = t.out_writes <> [] || t.out_orders <> []

let send t =
  if not (has_pending t) then invalid_arg "Gsp_store.send: nothing pending";
  let payload =
    Wire.encode (fun enc ->
        encode_payload enc
          (if t.out_orders <> [] then Orders (List.rev t.out_orders)
           else Writes (List.rev t.out_writes)))
  in
  (* a send relays everything pending; orders and writes never coexist at
     one replica (only the sequencer emits orders, and its own writes are
     sequenced locally), so one variant always suffices *)
  ({ t with out_writes = []; out_orders = [] }, payload)

let receive t ~sender:_ payload =
  match Wire.decode payload decode_payload with
  | Writes ws ->
    if t.me = sequencer then List.fold_left sequence t ws
    else t (* not the intended recipient: ignore (cf. paper Section 2) *)
  | Orders os ->
    let fresh (g, _) = g > t.confirmed && not (List.exists (fun (g', _) -> g' = g) t.order_buffer) in
    drain { t with order_buffer = List.filter fresh os @ t.order_buffer }
