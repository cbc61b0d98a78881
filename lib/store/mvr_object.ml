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

(* the siblings [u] does not dominate, in order; a top-level loop, so a
   remote write allocates no filter closure *)
let rec survivors u = function
  | [] -> []
  | s :: rest ->
    if Vclock.leq s.vv u.vv then survivors u rest else s :: survivors u rest

let apply t u =
  (* Stale or duplicate: the dot is already covered by the causal context,
     so some applied write dominates it (see the module doc invariant). *)
  if u.dot.Dot.seq <= Vclock.get t.cc u.dot.Dot.replica then t
  else { t with cc = Vclock.merge t.cc u.vv; sibs = u :: survivors u t.sibs }

let read t = Value.sort_uniq (List.map (fun s -> s.value) t.sibs)

let siblings t = t.sibs

let visible ~obj t = Store_intf.frontier ~obj t.cc

(* Clocks go out in the compressed self-describing form; [decode_update]
   also accepts the v1 varint array via the marker byte, so v1 peers
   interoperate without any per-connection negotiation state. *)
let encode_update enc u =
  Vclock.encode_c enc u.vv;
  Dot.encode enc u.dot;
  Value.encode enc u.value

let decode_update dec =
  let vv = Vclock.decode_any dec in
  let dot = Dot.decode dec in
  let value = Value.decode dec in
  { vv; dot; value }

let check_fits ~n u =
  if Vclock.size u.vv <> n then
    raise
      (Wire.Decoder.Malformed
         (Printf.sprintf "version vector has %d entries, expected %d" (Vclock.size u.vv) n));
  let r = u.dot.Dot.replica in
  if r < 0 || r >= n then
    raise (Wire.Decoder.Malformed (Printf.sprintf "dot origin %d out of range" r))

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

let encode enc t =
  Wire.Encoder.uint enc t.n;
  Vclock.encode_c enc t.cc;
  Wire.Encoder.list enc encode_update t.sibs

let decode dec =
  let n = Wire.Decoder.uint dec in
  let cc = Vclock.decode_any dec in
  let sibs = Wire.Decoder.list dec decode_update in
  { n; cc; sibs }
