(** Eager delivery layer, generic over the object layer: received updates
    are applied immediately, with no cross-object causal buffering. The
    resulting store is write-propagating and eventually consistent but
    causally consistent only under causally ordered delivery — the
    Dynamo-style design. *)

open Haec_wire
module Int_map = Map.Make (Int)

module Make
    (Obj : Object_layer.OBJECT) (N : sig
      val name : string
    end) =
struct
  type state = {
    n : int;
    me : int;
    clock : int;
        (** Lamport's clock: at least the time of every applied update, and
            moved past each received one (Lamport's receive rule) *)
    objects : Obj.t Int_map.t;
    pending : (int * Obj.update) list;  (** newest first *)
  }

  let name = N.name

  let invisible_reads = true

  let op_driven = true

  let init ~n ~me = { n; me; clock = 0; objects = Int_map.empty; pending = [] }

  let create (_ : Store_intf.config) = init

  let obj_state t obj =
    match Int_map.find_opt obj t.objects with Some o -> o | None -> Obj.empty ~n:t.n

  let visible_now t =
    Int_map.fold (fun obj o acc -> Obj.visible ~obj o :: acc) t.objects []

  let do_op t ~obj op =
    let visible_before = lazy (visible_now t) in
    let now = t.clock + 1 in
    let o, rval, update = Obj.do_op (obj_state t obj) ~me:t.me ~now op in
    let t = { t with objects = Int_map.add obj o t.objects } in
    match update with
    | None ->
      (t, rval, lazy { Store_intf.visible = Lazy.force visible_before; self = None })
    | Some u ->
      ( { t with clock = now; pending = (obj, u) :: t.pending },
        rval,
        lazy { Store_intf.visible = Lazy.force visible_before; self = Some (Obj.dot_of u) }
      )

  let has_pending t = t.pending <> []

  let encode_entry enc (obj, u) =
    Wire.Encoder.uint enc obj;
    Obj.encode_update enc u

  let decode_entry dec =
    let obj = Wire.Decoder.uint dec in
    let u = Obj.decode_update dec in
    (obj, u)

  let send t =
    if not (has_pending t) then invalid_arg (N.name ^ ".send: nothing pending");
    let payload =
      Wire.encode (fun enc ->
          Wire.Encoder.list enc encode_entry (List.rev t.pending))
    in
    ({ t with pending = [] }, payload)

  (* a remote update that parses but violates structural invariants (e.g.
     a version vector sized for a different deployment) is a framing
     problem of the input, not a programming error here *)
  let apply_remote o u =
    try Obj.apply o u
    with Invalid_argument m -> raise (Wire.Decoder.Malformed ("invalid update: " ^ m))

  let receive t ~sender:_ payload =
    let entries = Wire.decode payload (fun dec -> Wire.Decoder.list dec decode_entry) in
    List.fold_left
      (fun t (obj, u) ->
        {
          t with
          clock = 1 + max t.clock (Obj.time_of u);
          objects = Int_map.add obj (apply_remote (obj_state t obj) u) t.objects;
        })
      t entries
end
