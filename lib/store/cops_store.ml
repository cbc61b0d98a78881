open Haec_wire
open Haec_vclock
open Haec_model
module Int_map = Map.Make (Int)
module Dot_map = Map.Make (Dot)

(* Global update identifiers: (replica, per-replica update counter),
   distinct from the MVR object layer's per-object dots. *)
type update_record = {
  dot : Dot.t;  (** global id of this update *)
  obj : int;
  u : Mvr_object.update;
  deps : Dot.Set.t;  (** nearest dependencies (global dots) *)
}

(* An unmarked batch is a record list, so it starts with a count >= 1
   ([send] refuses an empty pending queue). A marked batch prepends
   [0x00, 2] and compresses each record's dependency set; the update
   clocks compress through {!Mvr_object.encode_update} in either batch.
   Decoding dispatches on the leading byte, so a replica reads either
   batch, and v1 peers' batches too. *)

let encode_record ~marked enc r =
  Dot.encode enc r.dot;
  Wire.Encoder.uint enc r.obj;
  Mvr_object.encode_update enc r.u;
  (if marked then Dot.encode_set_c else Dot.encode_set) enc r.deps

let decode_record ~v2 dec =
  let dot = Dot.decode dec in
  let obj = Wire.Decoder.uint dec in
  let u = Mvr_object.decode_update dec in
  let deps = if v2 then Dot.decode_set_any dec else Dot.decode_set dec in
  { dot; obj; u; deps }

type state = {
  n : int;
  me : int;
  next_seq : int;
  applied : Dot.Set.t;  (** global dots of applied updates (incl. own) *)
  ctx : Dot.Set.t;  (** the dependency frontier: applied updates not yet
                        subsumed by a later applied update's deps *)
  objects : Mvr_object.t Int_map.t;
  pending : update_record list;  (** newest first *)
  buffer : update_record Dot_map.t;
      (** remote updates awaiting dependencies, keyed by their global dot *)
  waiting : Dot.t list Dot_map.t;
      (** wakeup index: [waiting.(d)] holds the dots of buffered records
          parked until dependency [d] is applied; each buffered record
          sits in at most one bucket *)
}

let name = "mvr-cops-deps"

let invisible_reads = true

let op_driven = true

let init ~n ~me =
  {
    n;
    me;
    next_seq = 1;
    applied = Dot.Set.empty;
    ctx = Dot.Set.empty;
    objects = Int_map.empty;
    pending = [];
    buffer = Dot_map.empty;
    waiting = Dot_map.empty;
  }

let create (_ : Store_intf.config) = init

let obj_state t obj =
  match Int_map.find_opt obj t.objects with
  | Some o -> o
  | None -> Mvr_object.empty ~n:t.n

let visible_now t =
  Int_map.fold (fun obj o acc -> Mvr_object.visible ~obj o :: acc) t.objects []

(* Apply an update to the object layer and fold it into the dependency
   frontier: the update subsumes its own dependencies, so they leave the
   context. Keeping only the frontier is what makes dependency lists
   short — on the Theorem 12 workload, exactly one dot per writer. *)
let apply_obj t r =
  {
    t with
    applied = Dot.Set.add r.dot t.applied;
    ctx = Dot.Set.add r.dot (Dot.Set.diff t.ctx r.deps);
    objects = Int_map.add r.obj (Mvr_object.apply (obj_state t r.obj) r.u) t.objects;
  }

(* some dependency not yet applied, or [None] when deliverable *)
let missing_dep t deps =
  Dot.Set.fold
    (fun d acc ->
      match acc with
      | Some _ -> acc
      | None -> if Dot.Set.mem d t.applied then None else Some d)
    deps None

(* Process newly buffered records: each is either applied — waking the
   records parked on its dot — or parked under one still-missing
   dependency. A record is re-examined once per dependency that becomes
   satisfied instead of once per scan of the whole buffer. *)
let drain_from t dots =
  let st = ref t in
  let work = Queue.create () in
  List.iter (fun d -> Queue.add d work) dots;
  while not (Queue.is_empty work) do
    let dot = Queue.pop work in
    match Dot_map.find_opt dot !st.buffer with
    | None -> ()
    | Some r -> (
      if Dot.Set.mem r.dot !st.applied then
        st := { !st with buffer = Dot_map.remove dot !st.buffer }
      else
        match missing_dep !st r.deps with
        | Some d ->
          let bucket =
            match Dot_map.find_opt d !st.waiting with Some b -> b | None -> []
          in
          st := { !st with waiting = Dot_map.add d (r.dot :: bucket) !st.waiting }
        | None ->
          st := apply_obj { !st with buffer = Dot_map.remove dot !st.buffer } r;
          (match Dot_map.find_opt r.dot !st.waiting with
          | None -> ()
          | Some woken ->
            st := { !st with waiting = Dot_map.remove r.dot !st.waiting };
            List.iter (fun d -> Queue.add d work) woken))
  done;
  !st

let do_op t ~obj op =
  match op with
  | Op.Read ->
    (* reads change nothing (invisible reads): the dependency context
       already covers everything applied, folded in by [apply_obj] *)
    let o = obj_state t obj in
    let witness = lazy { Store_intf.visible = visible_now t; self = None } in
    (t, Op.vals (Mvr_object.read o), witness)
  | Op.Write v ->
    let visible_before = lazy (visible_now t) in
    let o, u = Mvr_object.local_write (obj_state t obj) ~me:t.me v in
    let dot = Dot.make ~replica:t.me ~seq:t.next_seq in
    let r = { dot; obj; u; deps = t.ctx } in
    let t = { t with next_seq = t.next_seq + 1; pending = r :: t.pending } in
    (* apply_obj folds the write into the frontier: its deps (the whole
       previous context) leave, the new dot enters *)
    let t = apply_obj { t with objects = Int_map.add obj o t.objects } r in
    let witness =
      lazy { Store_intf.visible = Lazy.force visible_before; self = Some u.Mvr_object.dot }
    in
    (t, Op.Ok, witness)
  | Op.Add _ | Op.Remove _ -> invalid_arg "Cops_store: only read/write supported"

let has_pending t = t.pending <> []

let send t =
  if not (has_pending t) then invalid_arg "Cops_store.send: nothing pending";
  let payload =
    Wire.encode (fun enc ->
        let records = List.rev t.pending in
        (* the marked batch costs 2 bytes up front and compresses only
           the dependency sets (the update's clocks compress under either
           layout), so emit it exactly when the sets pay for the marker *)
        let marked = List.fold_left (fun a r -> a + Dot.set_c_delta r.deps) 2 records < 0 in
        if marked then begin
          Wire.Encoder.uint enc 0;
          Wire.Encoder.uint enc 2
        end;
        Wire.Encoder.list enc (encode_record ~marked) records)
  in
  ({ t with pending = [] }, payload)

let receive t ~sender:_ payload =
  let records =
    Wire.decode payload (fun dec ->
        if Wire.Decoder.peek dec <> 0 then
          Wire.Decoder.list dec (decode_record ~v2:false)
        else begin
          ignore (Wire.Decoder.uint dec);
          (match Wire.Decoder.uint dec with
          | 2 -> ()
          | v ->
            raise
              (Wire.Decoder.Malformed (Printf.sprintf "unknown batch version %d" v)));
          Wire.Decoder.list dec (decode_record ~v2:true)
        end)
  in
  (* an update sized for another deployment parses but would index out
     of bounds on apply: reject the batch before any of it lands *)
  List.iter
    (fun r ->
      if r.dot.Dot.replica < 0 || r.dot.Dot.replica >= t.n then
        raise (Wire.Decoder.Malformed "update origin out of range");
      Mvr_object.check_fits ~n:t.n r.u)
    records;
  let fresh r = (not (Dot.Set.mem r.dot t.applied)) && not (Dot_map.mem r.dot t.buffer) in
  let fresh_records = List.filter fresh records in
  let buffer =
    List.fold_left (fun b r -> Dot_map.add r.dot r b) t.buffer fresh_records
  in
  drain_from { t with buffer } (List.map (fun r -> r.dot) fresh_records)
