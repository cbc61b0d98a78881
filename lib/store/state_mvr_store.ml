open Haec_wire
open Haec_model
module Int_map = Map.Make (Int)

type state = {
  n : int;
  me : int;
  objects : Mvr_object.t Int_map.t;
  dirty : bool;  (** an update happened since the last send *)
}

let name = "mvr-state-based"

let invisible_reads = true

let op_driven = true

let init ~n ~me = { n; me; objects = Int_map.empty; dirty = false }

let create (_ : Store_intf.config) = init

let obj_state t obj =
  match Int_map.find_opt obj t.objects with
  | Some o -> o
  | None -> Mvr_object.empty ~n:t.n

let visible_now t =
  Int_map.fold (fun obj o acc -> Mvr_object.visible ~obj o :: acc) t.objects []

let do_op t ~obj op =
  match op with
  | Op.Read ->
    let witness = lazy { Store_intf.visible = visible_now t; self = None } in
    (t, Op.vals (Mvr_object.read (obj_state t obj)), witness)
  | Op.Write v ->
    let visible_before = lazy (visible_now t) in
    let o, u = Mvr_object.local_write (obj_state t obj) ~me:t.me v in
    let t = { t with objects = Int_map.add obj o t.objects; dirty = true } in
    let witness =
      lazy
        { Store_intf.visible = Lazy.force visible_before; self = Some u.Mvr_object.dot }
    in
    (t, Op.Ok, witness)
  | Op.Add _ | Op.Remove _ -> invalid_arg "State_mvr_store: only read/write supported"

let has_pending t = t.dirty

let encode_entry enc (obj, o) =
  Wire.Encoder.uint enc obj;
  Mvr_object.encode enc o

let decode_entry dec =
  let obj = Wire.Decoder.uint dec in
  let o = Mvr_object.decode dec in
  (obj, o)

let send t =
  if not t.dirty then invalid_arg "State_mvr_store.send: nothing pending";
  let payload =
    Wire.encode (fun enc ->
        Wire.Encoder.list enc encode_entry (Int_map.bindings t.objects))
  in
  ({ t with dirty = false }, payload)

let receive t ~sender:_ payload =
  let entries = Wire.decode payload (fun dec -> Wire.Decoder.list dec decode_entry) in
  let join_remote o remote =
    try Mvr_object.join o remote
    with Invalid_argument m -> raise (Wire.Decoder.Malformed ("invalid state: " ^ m))
  in
  List.fold_left
    (fun t (obj, remote) ->
      { t with objects = Int_map.add obj (join_remote (obj_state t obj) remote) t.objects })
    t entries
