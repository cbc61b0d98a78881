(** Causal-broadcast delivery layer, generic over the object layer and an
    exposure policy.

    Delivery: every local update gets a per-replica sequence number and
    carries its dependency vector (the origin's update-vector at creation
    time), in the style of Ahamad et al.'s causal memory — this is the
    baseline whose Theta(n lg k)-bit messages Section 6 of the paper
    compares against. A received update whose dependencies are not yet
    satisfied is buffered until they are, so the store complies with a
    causally consistent abstract execution under *any* network
    behaviour.

    The buffer is dependency-indexed rather than a scanned list: records
    are keyed by [(origin, useq)], and a record whose preconditions fail
    is parked under the {e first} precondition it is missing — the pair
    [(origin', seq')] meaning "wake me when the update-vector entry for
    [origin'] reaches [seq']". Delivering one update advances exactly one
    update-vector entry by one, so it wakes exactly the records parked
    under that new value; each woken record is re-checked and either
    delivered (cascading further wakeups) or re-parked under its next
    missing precondition. A record is therefore re-examined once per
    precondition that becomes true, not once per delivery — near-linear
    where the old full-rescan [drain] was quadratic over a buffered burst.
    All index structures are persistent maps: store states are pure
    values, and callers (tests, benchmarks, the delayed-read experiments)
    do reuse old states after deriving new ones.

    The exposure policy reproduces the Section 5.3 counter-example: with
    [expose_after_reads = 0] updates reach the object layer immediately and
    reads are invisible (the plain causally consistent store); with [K > 0]
    a delivered remote update is hidden until [K] further local reads have
    executed, which makes reads state-changing — deliberately violating
    Definition 16 and thereby escaping Theorem 6. *)

open Haec_wire
open Haec_vclock
open Haec_model
module Int_map = Map.Make (Int)
module Fqueue = Haec_util.Fqueue

module type POLICY = sig
  val name : string

  val expose_after_reads : int
end

module Immediate = struct
  let expose_after_reads = 0
end

(* the [prev] of a batch's first record, which decodes absolutely *)
let no_prev = Vclock.zero ~n:1

module Make (Obj : Object_layer.OBJECT) (P : POLICY) = struct
  type update_record = {
    origin : int;
    useq : int;  (** per-origin update sequence number, from 1 *)
    dep : Vclock.t;  (** origin's update-vector just before this update *)
    obj : int;
    u : Obj.update;
  }

  (* Batch framing: the first record carries its dependency vector
     absolutely, every later one as entrywise deltas against its
     predecessor's. Deps within one origin's batch are componentwise
     non-decreasing (the update-vector only grows between local updates),
     so the deltas are non-negative and mostly zero — one varint byte per
     entry instead of up to five. The reference point is always inside
     the same message, so loss, duplication, and reordering of whole
     messages cannot desynchronize the codec. *)
  (* One record, its dependency vector framed against [prev], the
     vector of the record before it; the first record of a batch has no
     [prev] and carries its vector absolutely. Both legs are compressed:
     the absolute head clock via the packed/run-length chooser and each
     later delta sparsely (only changed entries); decode also accepts the
     v1 forms via the marker byte, so the batch stays self-describing.
     [useq] is not sent: a record's origin made it right after the
     update-vector [dep], so it is [dep.(origin) + 1]. *)
  let encode_record enc ~prev r =
    Wire.Encoder.uint enc r.origin;
    if prev == no_prev then Vclock.encode_c enc r.dep
    else Vclock.encode_delta_c enc ~prev r.dep;
    Wire.Encoder.uint enc r.obj;
    Obj.encode_update enc r.u

  (* encode a batch given newest first, oldest first: recurse to the
     oldest record and encode on the way back; returns the last vector *)
  let rec encode_from_oldest enc = function
    | [] -> no_prev
    | r :: older ->
      let prev = encode_from_oldest enc older in
      encode_record enc ~prev r;
      r.dep

  let encode_newest_first enc records =
    Wire.Encoder.uint enc (List.length records);
    ignore (encode_from_oldest enc records)

  let encode_batch enc records = encode_newest_first enc (List.rev records)

  (* Hand records [i, len) of a batch to [f] as each is decoded, in batch
     order; [prev] is the dependency vector of record [i - 1], and is
     never read for the first. *)
  let rec iter_records dec f ~len i ~prev =
    if i < len then begin
      let origin = Wire.Decoder.uint dec in
      let dep = if i = 0 then Vclock.decode_any dec else Vclock.decode_delta_any dec ~prev in
      if origin >= Vclock.size dep then
        raise (Wire.Decoder.Malformed (Printf.sprintf "origin %d outside its dependency vector" origin));
      let useq = Vclock.get dep origin + 1 in
      let obj = Wire.Decoder.uint dec in
      let u = Obj.decode_update dec in
      f { origin; useq; dep; obj; u };
      iter_records dec f ~len (i + 1) ~prev:dep
    end

  let iter_batch dec f = iter_records dec f ~len:(Wire.Decoder.uint dec) 0 ~prev:no_prev

  let decode_batch dec =
    let acc = ref [] in
    iter_batch dec (fun r -> acc := r :: !acc);
    List.rev !acc

  type state = {
    n : int;
    me : int;
    clock : int;  (** witnesses the time of every applied update *)
    uv : Vclock.t;  (** update-vector: applied updates per origin *)
    objects : Obj.t Int_map.t;
    pending : update_record list;  (** local updates not yet broadcast, newest first *)
    buffer : update_record Int_map.t Int_map.t;
        (** remote updates awaiting dependencies, keyed origin -> useq *)
    buffered : int;  (** number of records in [buffer] *)
    waiting : (int * int) list Int_map.t Int_map.t;
        (** wakeup index: [waiting.(o).(s)] holds the [(origin, useq)] keys
            of buffered records parked until the update-vector entry for
            [o] reaches [s]; each buffered record sits in at most one
            bucket *)
    reads : int;  (** local reads executed, drives hidden-update exposure *)
    hidden : (update_record * int) Fqueue.t;
        (** delivered but unexposed updates in delivery order, each with
            the [reads] value at which it ripens *)
    counters : Store_intf.delivery_stats;  (** this replica's buffer work *)
  }

  let name = P.name

  let invisible_reads = P.expose_after_reads = 0

  let op_driven = true

  let init ~n ~me =
    {
      n;
      me;
      clock = 0;
      uv = Vclock.zero ~n;
      objects = Int_map.empty;
      pending = [];
      buffer = Int_map.empty;
      buffered = 0;
      waiting = Int_map.empty;
      reads = 0;
      hidden = Fqueue.empty;
      counters = Store_intf.fresh_delivery_stats ();
    }

  let create (_ : Store_intf.config) = init

  let counters t = t.counters

  (* [Int_map.find_opt] would allocate its [Some] on every hit *)
  let find_or k m ~default = match Int_map.find k m with v -> v | exception Not_found -> default

  let object_in objects ~n obj =
    match Int_map.find obj objects with o -> o | exception Not_found -> Obj.empty ~n

  let obj_state t obj = object_in t.objects ~n:t.n obj

  let apply_remote o u =
    try Obj.apply o u
    with Invalid_argument m -> raise (Wire.Decoder.Malformed ("invalid update: " ^ m))

  let expose t r =
    { t with objects = Int_map.add r.obj (apply_remote (obj_state t r.obj) r.u) t.objects }

  (* ---- buffer index plumbing ---- *)

  let find_rec buffer o s =
    match Int_map.find_opt o buffer with None -> None | Some m -> Int_map.find_opt s m

  let mem_rec buffer o s = find_rec buffer o s <> None

  let add_rec buffer r =
    let m = find_or r.origin buffer ~default:Int_map.empty in
    Int_map.add r.origin (Int_map.add r.useq r m) buffer

  let remove_rec buffer o s =
    match Int_map.find_opt o buffer with
    | None -> buffer
    | Some m ->
      let m = Int_map.remove s m in
      if Int_map.is_empty m then Int_map.remove o buffer else Int_map.add o m buffer

  let add_wait w ~blocker:(bo, bs) key =
    let seqs = find_or bo w ~default:Int_map.empty in
    let keys = find_or bs seqs ~default:[] in
    Int_map.add bo (Int_map.add bs (key :: keys) seqs) w

  (* The first precondition of [r] not satisfied by [uv], as the
     [(origin, seq)] the update-vector must reach, or [None] when [r] is
     deliverable. One call is the indexed analogue of one full
     deliverability scan of the old list buffer, so the caller counts it
     as one of the [scans] the E20 experiment compares. *)
  let blocker uv r =
    if Vclock.get uv r.origin < r.useq - 1 then Some (r.origin, r.useq - 1)
    else begin
      let n = Vclock.size uv in
      let rec go j =
        if j >= n then None
        else
          let need = Vclock.get r.dep j in
          if need > Vclock.get uv j then Some (j, need) else go (j + 1)
      in
      go 0
    end

  let visible_now t =
    Int_map.fold (fun obj o acc -> Obj.visible ~obj o :: acc) t.objects []

  (* A local read advances the read counter and exposes the ripe prefix
     of the hidden queue, in delivery order. Ripen thresholds are
     non-decreasing along the queue (the countdown [K] is a constant), so
     the ripe entries are exactly a prefix. *)
  let tick_hidden t =
    let reads = t.reads + 1 in
    let rec expose_ready t =
      match Fqueue.pop t.hidden with
      | Some ((r, at), rest) when at <= reads -> expose_ready (expose { t with hidden = rest } r)
      | _ -> t
    in
    expose_ready { t with reads }

  (* One witness closure over the pre-op state: [t] is a pure value, so
     forcing it later sees exactly what the operation saw. A read that
     leaves its object as it was returns [t] itself, with no copy. *)
  let do_op t ~obj op =
    let t = if Op.is_read op && P.expose_after_reads > 0 then tick_hidden t else t in
    let now = t.clock + 1 in
    let o, rval, update = Obj.do_op (obj_state t obj) ~me:t.me ~now op in
    match update with
    | None ->
      let witness = lazy { Store_intf.visible = visible_now t; self = None } in
      let objects = Int_map.add obj o t.objects in
      ((if objects == t.objects then t else { t with objects }), rval, witness)
    | Some u ->
      let witness =
        lazy { Store_intf.visible = visible_now t; self = Some (Obj.dot_of u) }
      in
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
      (t, rval, witness)

  let has_pending t = t.pending <> []

  let send t =
    if not (has_pending t) then invalid_arg (P.name ^ ".send: nothing pending");
    let payload = Wire.encode (fun enc -> encode_newest_first enc t.pending) in
    ({ t with pending = [] }, payload)

  (* the working state of one [receive] *)
  type cascade = {
    uv : Vclock.t;
    mutable buffer : update_record Int_map.t Int_map.t;
    mutable buffered : int;
    mutable waiting : (int * int) list Int_map.t Int_map.t;
    mutable objects : Obj.t Int_map.t;
    mutable hidden : (update_record * int) Fqueue.t;
    mutable clock : int;
    mutable fresh : int;
    mutable scans : int;
    mutable delivered : int;
    mutable woken_rev : (int * int) list;
        (** keys of parked records deliveries woke and nothing examined
            yet, latest first *)
  }

  (* structural validation beyond parsing: origins and vector sizes must
     fit this deployment, or buffering/merging would fail later *)
  let validate (t : state) r =
    if r.origin < 0 || r.origin >= t.n then
      raise (Wire.Decoder.Malformed (Printf.sprintf "origin %d out of range" r.origin));
    if Vclock.size r.dep <> t.n then
      raise
        (Wire.Decoder.Malformed
           (Printf.sprintf "dependency vector has %d entries, expected %d" (Vclock.size r.dep)
              t.n));
    if r.useq < 1 then raise (Wire.Decoder.Malformed "non-positive update sequence")

  (* queue the records parked until the update-vector entry for [o]
     reaches [s], and take their bucket out of [waiting] *)
  let wake c ~o ~s =
    match Int_map.find_opt o c.waiting with
    | None -> ()
    | Some seqs -> (
      match Int_map.find_opt s seqs with
      | None -> ()
      | Some keys ->
        let seqs = Int_map.remove s seqs in
        c.waiting <-
          (if Int_map.is_empty seqs then Int_map.remove o c.waiting
           else Int_map.add o seqs c.waiting);
        c.woken_rev <- List.rev_append keys c.woken_rev)

  (* One deliverability check of [r], a record of this payload or
     ([parked]) one already in the buffer: deliver it if it is ready,
     else park it under its first missing precondition. *)
  let examine (t : state) c r ~parked =
    c.scans <- c.scans + 1;
    match blocker c.uv r with
    | Some b ->
      if not parked then begin
        c.buffer <- add_rec c.buffer r;
        c.buffered <- c.buffered + 1
      end;
      c.waiting <- add_wait c.waiting ~blocker:b (r.origin, r.useq)
    | None ->
      if parked then begin
        c.buffer <- remove_rec c.buffer r.origin r.useq;
        c.buffered <- c.buffered - 1
      end;
      c.delivered <- c.delivered + 1;
      Vclock.tick_into c.uv r.origin;
      c.clock <- max c.clock (Obj.time_of r.u);
      if P.expose_after_reads = 0 then
        c.objects <-
          Int_map.add r.obj
            (apply_remote (object_in c.objects ~n:t.n r.obj) r.u)
            c.objects
      else c.hidden <- Fqueue.push c.hidden (r, t.reads + P.expose_after_reads);
      (* this delivery advanced exactly one update-vector entry: wake
         exactly the records parked on its new value *)
      wake c ~o:r.origin ~s:(Vclock.get c.uv r.origin)

  (* Records are examined in batch order as they are decoded, then the
     buffered records their deliveries woke, in wake order. A record
     ready when examined goes straight to the object layer; only one
     that must wait enters [buffer] and parks in [waiting]. A record
     already applied, or already buffered (before this payload or
     earlier in it), is skipped: a payload that repeats a key buffers it
     once. [fresh] counts the records not skipped, so [max_buffer] is the
     peak as if the whole payload had been buffered first, and [scans]
     counts one deliverability check per examination, as the indexed
     buffer always has. A [Malformed] record raises before the new state
     exists, so [t] is untouched. *)
  let receive (t : state) ~sender:_ payload =
    (* The whole cascade works on one uniquely-owned copy of the
       update-vector, ticked in place per delivery; the original [t.uv]
       (aliased as [dep] by earlier local updates) is never mutated. *)
    let c =
      {
        uv = Vclock.copy t.uv;
        buffer = t.buffer;
        buffered = t.buffered;
        waiting = t.waiting;
        objects = t.objects;
        hidden = t.hidden;
        clock = t.clock;
        fresh = 0;
        scans = 0;
        delivered = 0;
        woken_rev = [];
      }
    in
    let dec = Wire.Decoder.of_string payload in
    iter_batch dec (fun r ->
        validate t r;
        if r.useq > Vclock.get c.uv r.origin && not (mem_rec c.buffer r.origin r.useq) then begin
          c.fresh <- c.fresh + 1;
          examine t c r ~parked:false
        end);
    Wire.Decoder.expect_end dec;
    (* in wake order: each round examines what the last one woke *)
    while c.woken_rev <> [] do
      let woken = List.rev c.woken_rev in
      c.woken_rev <- [];
      List.iter
        (fun (o, s) ->
          match find_rec c.buffer o s with None -> () | Some r -> examine t c r ~parked:true)
        woken
    done;
    if c.fresh = 0 then t
    else
      {
        t with
        uv = c.uv;
        clock = c.clock;
        objects = c.objects;
        buffer = c.buffer;
        buffered = c.buffered;
        waiting = c.waiting;
        hidden = c.hidden;
        counters =
          {
            scans = t.counters.scans + c.scans;
            delivered = t.counters.delivered + c.delivered;
            max_buffer = max t.counters.max_buffer (t.buffered + c.fresh);
          };
      }
end
