open Haec_wire
open Haec_vclock
open Haec_model

type update = {
  vv : Vclock.t;
  dot : Dot.t;
  value : Value.t;
}

type t = {
  n : int;
  cc : Vclock.t;
  sibs : update list;
}

let empty ~n = { n; cc = Vclock.zero ~n; sibs = [] }

let local_write t ~me value =
  let vv = Vclock.tick t.cc me in
  let dot = Dot.make ~replica:me ~seq:(Vclock.get vv me) in
  let u = { vv; dot; value } in
  ({ t with cc = vv; sibs = [ u ] }, u)

let apply t u =
  (* Stale or duplicate: the dot is already covered by the causal context,
     so some applied write dominates it (see the module doc invariant). *)
  if u.dot.Dot.seq <= Vclock.get t.cc u.dot.Dot.replica then t
  else
    let survivors = List.filter (fun s -> not (Vclock.leq s.vv u.vv)) t.sibs in
    { t with cc = Vclock.merge t.cc u.vv; sibs = u :: survivors }

let read t = List.sort_uniq Value.compare (List.map (fun s -> s.value) t.sibs)

let siblings t = t.sibs

let causal_context t = t.cc

let visible ~obj t = Store_intf.frontier ~obj t.cc

(* The clock codec is the only version-dependent part: v2 emits the
   compressed self-describing form, and [decode_update] accepts either
   via the marker byte, so mixed-version peers interoperate without any
   per-connection negotiation state. *)
let encode_clock ~wire enc v =
  match wire with
  | Wire.Version.V1 -> Vclock.encode enc v
  | Wire.Version.V2 -> Vclock.encode_c enc v

let encode_update ~wire enc u =
  encode_clock ~wire enc u.vv;
  Dot.encode enc u.dot;
  Value.encode enc u.value

let decode_update dec =
  let vv = Vclock.decode_any dec in
  let dot = Dot.decode dec in
  let value = Value.decode dec in
  { vv; dot; value }

let covered cc (u : update) = u.dot.Dot.seq <= Vclock.get cc u.dot.Dot.replica

let same_dot a b = Dot.equal a.dot b.dot

let join a b =
  if a.n <> b.n then invalid_arg "Mvr_object.join: replica count mismatch";
  let in_ l u = List.exists (same_dot u) l in
  let keep mine other_cc other_sibs =
    (* survive if the other side also has it, or never heard of it *)
    List.filter (fun s -> in_ other_sibs s || not (covered other_cc s)) mine
  in
  let from_a = keep a.sibs b.cc b.sibs in
  let from_b =
    List.filter (fun s -> not (in_ from_a s)) (keep b.sibs a.cc a.sibs)
  in
  { n = a.n; cc = Vclock.merge a.cc b.cc; sibs = from_a @ from_b }

let encode ~wire enc t =
  Wire.Encoder.uint enc t.n;
  encode_clock ~wire enc t.cc;
  Wire.Encoder.list enc (encode_update ~wire) t.sibs

let decode dec =
  let n = Wire.Decoder.uint dec in
  let cc = Vclock.decode_any dec in
  let sibs = Wire.Decoder.list dec decode_update in
  { n; cc; sibs }
