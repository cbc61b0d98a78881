open Haec_wire
open Haec_vclock
open Haec_model
module Int_map = Map.Make (Int)

type entry = {
  ts : Lamport.t;
  dot : Dot.t;
  value : Value.t;
}

type obj_state = {
  current : entry option;
  seen : Dot.Set.t;  (** dots of all applied writes, for the witness *)
}

type state = {
  n : int;
  me : int;
  clock : Lamport.t;
  next_seq : int;  (** per-replica write counter for dot assignment *)
  objects : obj_state Int_map.t;
  pending : (int * entry) list;
}

let name = "lww-register"

let invisible_reads = true

let op_driven = true

let init ~n ~me =
  {
    n;
    me;
    clock = Lamport.zero ~replica:me;
    next_seq = 1;
    objects = Int_map.empty;
    pending = [];
  }

(* nothing here depends on the anti-entropy settings *)
let create (_ : Store_intf.config) = init

let empty_obj = { current = None; seen = Dot.Set.empty }

let obj_state t obj =
  match Int_map.find_opt obj t.objects with Some o -> o | None -> empty_obj

let better a b =
  (* the entry that wins LWW conflict resolution *)
  if Lamport.compare a.ts b.ts >= 0 then a else b

let apply_entry o e =
  if Dot.Set.mem e.dot o.seen then o
  else
    {
      current = (match o.current with None -> Some e | Some c -> Some (better c e));
      seen = Dot.Set.add e.dot o.seen;
    }

(* dot seqs are per replica across objects, so an object's dots are no
   prefix: each object lists them, in descending order *)
let visible_now t =
  Int_map.fold
    (fun obj o acc -> Store_intf.dots ~obj (Dot.Set.fold List.cons o.seen []) :: acc)
    t.objects []

let do_op t ~obj op =
  match op with
  | Op.Read ->
    let o = obj_state t obj in
    let vals = match o.current with None -> [] | Some e -> [ e.value ] in
    let witness = lazy { Store_intf.visible = visible_now t; self = None } in
    (t, Op.vals vals, witness)
  | Op.Write v ->
    let visible_before = lazy (visible_now t) in
    let clock = Lamport.tick t.clock in
    let dot = Dot.make ~replica:t.me ~seq:t.next_seq in
    let e = { ts = clock; dot; value = v } in
    let t =
      {
        t with
        clock;
        next_seq = t.next_seq + 1;
        objects = Int_map.add obj (apply_entry (obj_state t obj) e) t.objects;
        pending = (obj, e) :: t.pending;
      }
    in
    let witness =
      lazy { Store_intf.visible = Lazy.force visible_before; self = Some dot }
    in
    (t, Op.Ok, witness)
  | Op.Add _ | Op.Remove _ -> invalid_arg "Lww_store: only read/write supported"

let has_pending t = t.pending <> []

let encode_entry enc (obj, e) =
  Wire.Encoder.uint enc obj;
  Lamport.encode enc e.ts;
  Dot.encode enc e.dot;
  Value.encode enc e.value

let decode_entry dec =
  let obj = Wire.Decoder.uint dec in
  let ts = Lamport.decode dec in
  let dot = Dot.decode dec in
  let value = Value.decode dec in
  (obj, { ts; dot; value })

let send t =
  if not (has_pending t) then invalid_arg "Lww_store.send: nothing pending";
  let payload =
    Wire.encode (fun enc -> Wire.Encoder.list enc encode_entry (List.rev t.pending))
  in
  ({ t with pending = [] }, payload)

let receive t ~sender:_ payload =
  let entries = Wire.decode payload (fun dec -> Wire.Decoder.list dec decode_entry) in
  List.fold_left
    (fun t (obj, e) ->
      let t = { t with clock = Lamport.witness t.clock e.ts } in
      { t with objects = Int_map.add obj (apply_entry (obj_state t obj) e) t.objects })
    t entries
