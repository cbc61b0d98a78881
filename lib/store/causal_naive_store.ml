(** Reference baseline for the delivery-buffer scaling experiment (E20).

    This is the original list-scan causal delivery layer, frozen and
    specialized to the MVR object layer: [receive] dedups each incoming
    record with [List.exists] over the whole buffer and appends with [@],
    and [drain] rescans the entire buffer after every single delivery.
    Both are Theta(B) per record with B buffered records — quadratic over
    a burst — which is exactly what the dependency-indexed buffer in
    {!Causal_core} replaces. Kept (and kept deliberately naive) so the
    before/after scan counts in E20 and the soak benchmark remain
    reproducible from the repo alone; never use it for anything else. *)

open Haec_wire
open Haec_vclock
module Obj = Object_layer.Mvr
module Int_map = Map.Make (Int)

let name = "mvr-causal-naive"

type update_record = {
  origin : int;
  useq : int;
  dep : Vclock.t;
  obj : int;
  u : Obj.update;
}

let encode_record ~wire enc r =
  Wire.Encoder.uint enc r.origin;
  Wire.Encoder.uint enc r.useq;
  Vclock.encode enc r.dep;
  Wire.Encoder.uint enc r.obj;
  Obj.encode_update ~wire enc r.u

let decode_record dec =
  let origin = Wire.Decoder.uint dec in
  let useq = Wire.Decoder.uint dec in
  let dep = Vclock.decode dec in
  let obj = Wire.Decoder.uint dec in
  let u = Obj.decode_update dec in
  { origin; useq; dep; obj; u }

type state = {
  cfg : Store_intf.config;
  n : int;
  me : int;
  clock : int;
  uv : Vclock.t;
  objects : Obj.t Int_map.t;
  pending : update_record list;  (** newest first *)
  buffer : update_record list;
  counters : Store_intf.delivery_stats;
}

let invisible_reads = true

let op_driven = true

let create cfg ~n ~me =
  {
    cfg;
    n;
    me;
    clock = 0;
    uv = Vclock.zero ~n;
    objects = Int_map.empty;
    pending = [];
    buffer = [];
    counters = Store_intf.fresh_delivery_stats ();
  }

let init = create Store_intf.default

let counters t = t.counters

let obj_state t obj =
  match Int_map.find_opt obj t.objects with Some o -> o | None -> Obj.empty ~n:t.n

let apply_remote o u =
  try Obj.apply o u
  with Invalid_argument m -> raise (Wire.Decoder.Malformed ("invalid update: " ^ m))

let expose t r =
  { t with objects = Int_map.add r.obj (apply_remote (obj_state t r.obj) r.u) t.objects }

let deliverable t r =
  Vclock.get t.uv r.origin = r.useq - 1 && Vclock.leq r.dep t.uv

let deliver t r =
  let t =
    {
      t with
      uv = Vclock.tick t.uv r.origin;
      clock = max t.clock (Obj.time_of r.u);
      counters = { t.counters with delivered = t.counters.delivered + 1 };
    }
  in
  expose t r

(* every deliverability check is one of the [scans] E20 counts *)
let drain t =
  let scans = ref 0 in
  let rec go t =
    let rec pick acc = function
      | [] -> None
      | r :: rest ->
        incr scans;
        if deliverable t r then Some (r, List.rev_append acc rest) else pick (r :: acc) rest
    in
    match pick [] t.buffer with
    | None -> t
    | Some (r, buffer) -> go (deliver { t with buffer } r)
  in
  let t = go t in
  { t with counters = { t.counters with scans = t.counters.scans + !scans } }

let visible_now t =
  Int_map.fold (fun obj o acc -> Obj.visible ~obj o :: acc) t.objects []

let do_op t ~obj op =
  let visible_before = lazy (visible_now t) in
  let now = t.clock + 1 in
  let o, rval, update = Obj.do_op (obj_state t obj) ~me:t.me ~now op in
  match update with
  | None ->
    let witness = lazy { Store_intf.visible = Lazy.force visible_before; self = None } in
    ({ t with objects = Int_map.add obj o t.objects }, rval, witness)
  | Some u ->
    let r = { origin = t.me; useq = Vclock.get t.uv t.me + 1; dep = t.uv; obj; u } in
    let t =
      {
        t with
        clock = now;
        uv = Vclock.tick t.uv t.me;
        objects = Int_map.add obj o t.objects;
        pending = r :: t.pending;
      }
    in
    let witness =
      lazy { Store_intf.visible = Lazy.force visible_before; self = Some (Obj.dot_of u) }
    in
    (t, rval, witness)

let has_pending t = t.pending <> []

let send t =
  if not (has_pending t) then invalid_arg (name ^ ".send: nothing pending");
  let payload =
    Wire.encode (fun enc ->
        Wire.Encoder.list enc (encode_record ~wire:t.cfg.wire) (List.rev t.pending))
  in
  ({ t with pending = [] }, payload)

let receive t ~sender:_ payload =
  let records = Wire.decode payload (fun dec -> Wire.Decoder.list dec decode_record) in
  List.iter
    (fun r ->
      if r.origin < 0 || r.origin >= t.n then
        raise (Wire.Decoder.Malformed (Printf.sprintf "origin %d out of range" r.origin));
      if Vclock.size r.dep <> t.n then
        raise
          (Wire.Decoder.Malformed
             (Printf.sprintf "dependency vector has %d entries, expected %d"
                (Vclock.size r.dep) t.n));
      if r.useq < 1 then raise (Wire.Decoder.Malformed "non-positive update sequence"))
    records;
  let fresh r =
    r.useq > Vclock.get t.uv r.origin
    && not (List.exists (fun b -> b.origin = r.origin && b.useq = r.useq) t.buffer)
  in
  let buffer = t.buffer @ List.filter fresh records in
  let max_buffer = max t.counters.max_buffer (List.length buffer) in
  drain { t with buffer; counters = { t.counters with max_buffer } }
