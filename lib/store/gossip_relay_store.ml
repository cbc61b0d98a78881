open Haec_wire
open Haec_vclock
open Haec_model
module Int_map = Map.Make (Int)

type state = {
  n : int;
  me : int;
  objects : Mvr_object.t Int_map.t;
  pending : (int * Mvr_object.update) list;  (** own updates and relays, newest first *)
  relayed : Dot.Set.t Int_map.t;  (** per object: dots already relayed or originated *)
}

let name = "mvr-gossip-relay"

let invisible_reads = true

let op_driven = false

let init ~n ~me = { n; me; objects = Int_map.empty; pending = []; relayed = Int_map.empty }

let create (_ : Store_intf.config) = init

let obj_state t obj =
  match Int_map.find_opt obj t.objects with
  | Some o -> o
  | None -> Mvr_object.empty ~n:t.n

let relayed_of t obj =
  match Int_map.find_opt obj t.relayed with Some s -> s | None -> Dot.Set.empty

let mark_relayed t obj dot =
  { t with relayed = Int_map.add obj (Dot.Set.add dot (relayed_of t obj)) t.relayed }

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
    let t =
      {
        t with
        objects = Int_map.add obj o t.objects;
        pending = (obj, u) :: t.pending;
      }
    in
    let t = mark_relayed t obj u.Mvr_object.dot in
    let witness =
      lazy
        {
          Store_intf.visible = Lazy.force visible_before;
          self = Some u.Mvr_object.dot;
        }
    in
    (t, Op.Ok, witness)
  | Op.Add _ | Op.Remove _ -> invalid_arg "Gossip_relay_store: only read/write supported"

let has_pending t = t.pending <> []

let encode_entry enc (obj, u) =
  Wire.Encoder.uint enc obj;
  Mvr_object.encode_update enc u

let decode_entry dec =
  let obj = Wire.Decoder.uint dec in
  let u = Mvr_object.decode_update dec in
  (obj, u)

let send t =
  if not (has_pending t) then invalid_arg "Gossip_relay_store.send: nothing pending";
  let payload =
    Wire.encode (fun enc ->
        Wire.Encoder.list enc encode_entry (List.rev t.pending))
  in
  ({ t with pending = [] }, payload)

let receive t ~sender:_ payload =
  let entries = Wire.decode payload (fun dec -> Wire.Decoder.list dec decode_entry) in
  (* a clock or dot origin sized for another deployment parses but would
     index out of bounds on apply: reject the input before any of it lands *)
  List.iter (fun (_, u) -> Mvr_object.check_fits ~n:t.n u) entries;
  List.fold_left
    (fun t (obj, u) ->
      let t =
        { t with objects = Int_map.add obj (Mvr_object.apply (obj_state t obj) u) t.objects }
      in
      (* relay anything not relayed before — this is what makes a message
         pending without any client operation *)
      if Dot.Set.mem u.Mvr_object.dot (relayed_of t obj) then t
      else mark_relayed { t with pending = (obj, u) :: t.pending } obj u.Mvr_object.dot)
    t entries
