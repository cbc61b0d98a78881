open Haec_util
open Haec_model

type shape = Register | Mvr | Orset | Counter

type t = {
  name : string;
  apply : ctx:Abstract.t -> target:int -> Op.response;
  shape : shape;
}

(* All update operations return Ok in every Figure 1 specification; only
   reads consult the context. *)
let on_read name shape read =
  {
    name;
    shape;
    apply =
      (fun ~ctx ~target ->
        match (Abstract.event ctx target).Event.op with
        | Op.Read -> read ctx target
        | Op.Write _ | Op.Add _ | Op.Remove _ -> Op.Ok);
  }

let rw_register =
  on_read "rw-register" Register (fun ctx target ->
      (* the last write event in H' *)
      let rec last_write i =
        if i < 0 then Op.vals []
        else
          match (Abstract.event ctx i).Event.op with
          | Op.Write v -> Op.vals [ v ]
          | Op.Read | Op.Add _ | Op.Remove _ -> last_write (i - 1)
      in
      last_write (target - 1))

(* Vis respects H order, so an event visible to a later one is exactly an
   event in the union of the later ones' rows: each read below unions the
   rows of the events that can hide a value, then keeps the events outside
   that union, in O(m) row unions rather than O(m²) vis tests. *)

let mvr =
  on_read "mvr" Mvr (fun ctx target ->
      let dominated = Bitset.create (Abstract.length ctx) in
      for e = 0 to target - 1 do
        match (Abstract.event ctx e).Event.op with
        | Op.Write _ -> Bitset.union_into ~dst:dominated (Abstract.vis_row ctx e)
        | Op.Read | Op.Add _ | Op.Remove _ -> ()
      done;
      let values = ref [] in
      for e = 0 to target - 1 do
        match (Abstract.event ctx e).Event.op with
        | Op.Write v -> if not (Bitset.get dominated e) then values := v :: !values
        | Op.Read | Op.Add _ | Op.Remove _ -> ()
      done;
      Op.vals !values)

let orset =
  on_read "orset" Orset (fun ctx target ->
      (* per removed value, the adds visible to one of its removes *)
      let removed = Hashtbl.create 8 in
      for e = 0 to target - 1 do
        match (Abstract.event ctx e).Event.op with
        | Op.Remove v -> (
          let row = Abstract.vis_row ctx e in
          match Hashtbl.find_opt removed v with
          | Some acc -> Bitset.union_into ~dst:acc row
          | None -> Hashtbl.replace removed v row)
        | Op.Read | Op.Write _ | Op.Add _ -> ()
      done;
      let values = ref [] in
      for e = 0 to target - 1 do
        match (Abstract.event ctx e).Event.op with
        | Op.Add v ->
          let hidden =
            match Hashtbl.find_opt removed v with
            | Some acc -> Bitset.get acc e
            | None -> false
          in
          if not hidden then values := v :: !values
        | Op.Read | Op.Write _ | Op.Remove _ -> ()
      done;
      Op.vals !values)

let counter =
  on_read "counter" Counter (fun ctx target ->
      let total = ref 0 in
      for e1 = 0 to target - 1 do
        match (Abstract.event ctx e1).Event.op with
        | Op.Add _ -> incr total
        | Op.Remove _ -> decr total
        | Op.Read | Op.Write _ -> ()
      done;
      Op.vals [ Value.Int !total ])

let response_in spec a e =
  let ctx, target = Abstract.context a e in
  spec.apply ~ctx ~target

let mismatch e d ~expected =
  Format.asprintf "event %d (%a): expected %a, recorded %a" e Event.pp_do d
    Op.pp_response expected Op.pp_response d.Event.rval

let check_event spec a e =
  let expected = response_in spec a e in
  let d = Abstract.event a e in
  if Op.equal_response expected d.Event.rval then Ok () else Error (mismatch e d ~expected)

let check_correct ~spec_of a =
  let rec go e =
    if e >= Abstract.length a then Ok ()
    else
      let spec = spec_of (Abstract.event a e).Event.obj in
      match check_event spec a e with Ok () -> go (e + 1) | Error _ as err -> err
  in
  go 0

let is_correct ~spec_of a = match check_correct ~spec_of a with Ok () -> true | Error _ -> false

let with_correct_responses ~spec_of a =
  (* Responses never influence other events' specified responses, so one
     pass over the original suffices. *)
  let h = Abstract.events a in
  let h' =
    Array.mapi
      (fun e d ->
        { d with Event.rval = response_in (spec_of d.Event.obj) a e })
      h
  in
  Abstract.create ~n:(Abstract.n_replicas a) h' ~vis:(Abstract.vis_pairs a)
