(** Causal-broadcast delivery layer, generic over the object layer and an
    exposure policy.

    Delivery: every local update gets a per-replica sequence number and
    carries its dependency vector (the origin's update-vector at creation
    time), in the style of Ahamad et al.'s causal memory — this is the
    baseline whose Theta(n lg k)-bit messages Section 6 of the paper
    compares against. Received updates are buffered until their
    dependencies are satisfied, so the store complies with a causally
    consistent abstract execution under *any* network behaviour.

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
  let encode_batch ~wire enc records =
    (* wire v2 compresses both legs of the dependency framing: the
       absolute head clock via the packed/run-length chooser and each
       later delta sparsely (only changed entries); decode accepts either
       form via the marker byte, so the batch stays self-describing *)
    let v2 = wire = Wire.Version.V2 in
    Wire.Encoder.uint enc (List.length records);
    let prev = ref None in
    List.iter
      (fun r ->
        Wire.Encoder.uint enc r.origin;
        Wire.Encoder.uint enc r.useq;
        (match !prev with
        | None -> if v2 then Vclock.encode_c enc r.dep else Vclock.encode enc r.dep
        | Some p ->
          if v2 then Vclock.encode_delta_c enc ~prev:p r.dep
          else Vclock.encode_delta enc ~prev:p r.dep);
        prev := Some r.dep;
        Wire.Encoder.uint enc r.obj;
        Obj.encode_update ~wire enc r.u)
      records

  let decode_batch dec =
    let len = Wire.Decoder.uint dec in
    let rec go n prev acc =
      if n = 0 then List.rev acc
      else begin
        let origin = Wire.Decoder.uint dec in
        let useq = Wire.Decoder.uint dec in
        let dep =
          match prev with
          | None -> Vclock.decode_any dec
          | Some p -> Vclock.decode_delta_any dec ~prev:p
        in
        let obj = Wire.Decoder.uint dec in
        let u = Obj.decode_update dec in
        go (n - 1) (Some dep) ({ origin; useq; dep; obj; u } :: acc)
      end
    in
    go len None []

  type state = {
    cfg : Store_intf.config;
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

  let create cfg ~n ~me =
    {
      cfg;
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

  let init = create Store_intf.default

  let counters t = t.counters

  let obj_state t obj =
    match Int_map.find_opt obj t.objects with Some o -> o | None -> Obj.empty ~n:t.n

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
    let m =
      match Int_map.find_opt r.origin buffer with Some m -> m | None -> Int_map.empty
    in
    Int_map.add r.origin (Int_map.add r.useq r m) buffer

  let remove_rec buffer o s =
    match Int_map.find_opt o buffer with
    | None -> buffer
    | Some m ->
      let m = Int_map.remove s m in
      if Int_map.is_empty m then Int_map.remove o buffer else Int_map.add o m buffer

  let add_wait w ~blocker:(bo, bs) key =
    let seqs = match Int_map.find_opt bo w with Some s -> s | None -> Int_map.empty in
    let keys = match Int_map.find_opt bs seqs with Some k -> k | None -> [] in
    Int_map.add bo (Int_map.add bs (key :: keys) seqs) w

  (* remove and return the whole bucket parked on [(bo, bs)] *)
  let pop_wait w ~blocker:(bo, bs) =
    match Int_map.find_opt bo w with
    | None -> ([], w)
    | Some seqs -> (
      match Int_map.find_opt bs seqs with
      | None -> ([], w)
      | Some keys ->
        let seqs = Int_map.remove bs seqs in
        let w =
          if Int_map.is_empty seqs then Int_map.remove bo w else Int_map.add bo seqs w
        in
        (keys, w))

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

  let do_op t ~obj op =
    let t = if Op.is_read op && P.expose_after_reads > 0 then tick_hidden t else t in
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
    if not (has_pending t) then invalid_arg (P.name ^ ".send: nothing pending");
    let payload =
      Wire.encode (fun enc -> encode_batch ~wire:t.cfg.wire enc (List.rev t.pending))
    in
    ({ t with pending = [] }, payload)

  let receive t ~sender:_ payload =
    let records = Wire.decode payload decode_batch in
    (* structural validation beyond parsing: origins and vector sizes must
       fit this deployment, or buffering/merging would fail later *)
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
    (* buffer every record neither applied nor buffered yet, checking
       each against the buffer so far: a payload that repeats a key
       buffers it once *)
    let buffer, fresh_rev, count =
      List.fold_left
        (fun ((buffer, fresh_rev, count) as acc) r ->
          if r.useq <= Vclock.get t.uv r.origin || mem_rec buffer r.origin r.useq then acc
          else (add_rec buffer r, r :: fresh_rev, count + 1))
        (t.buffer, [], 0) records
    in
    match List.rev fresh_rev with
    | [] -> t
    | fresh_records ->
      (* The whole receive cascade works on one uniquely-owned copy of the
         update-vector, ticked in place per delivery; the original [t.uv]
         (aliased as [dep] by earlier local updates) is never mutated. *)
      let uv = Vclock.copy t.uv in
      let buffer = ref buffer in
      let buffered = ref (t.buffered + count) in
      let waiting = ref t.waiting in
      let objects = ref t.objects in
      let hidden = ref t.hidden in
      let clock = ref t.clock in
      let max_buffer = max t.counters.max_buffer !buffered in
      let scans = ref 0 and delivered = ref 0 in
      let work = Queue.create () in
      List.iter (fun r -> Queue.add (r.origin, r.useq) work) fresh_records;
      while not (Queue.is_empty work) do
        let o, s = Queue.pop work in
        match find_rec !buffer o s with
        | None -> () (* already delivered in this cascade *)
        | Some r ->
          if Vclock.get uv r.origin >= r.useq then begin
            (* duplicate of an already-applied update *)
            buffer := remove_rec !buffer o s;
            decr buffered
          end
          else begin
            incr scans;
            match blocker uv r with
            | Some b -> waiting := add_wait !waiting ~blocker:b (o, s)
            | None ->
              buffer := remove_rec !buffer o s;
              decr buffered;
              incr delivered;
              Vclock.tick_into uv r.origin;
              clock := max !clock (Obj.time_of r.u);
              if P.expose_after_reads = 0 then
                objects :=
                  Int_map.add r.obj
                    (apply_remote
                       (match Int_map.find_opt r.obj !objects with
                       | Some o -> o
                       | None -> Obj.empty ~n:t.n)
                       r.u)
                    !objects
              else hidden := Fqueue.push !hidden (r, t.reads + P.expose_after_reads);
              (* this delivery advanced exactly one update-vector entry:
                 wake exactly the records parked on its new value *)
              let keys, w = pop_wait !waiting ~blocker:(r.origin, Vclock.get uv r.origin) in
              waiting := w;
              List.iter (fun k -> Queue.add k work) keys
          end
      done;
      {
        t with
        uv;
        clock = !clock;
        objects = !objects;
        buffer = !buffer;
        buffered = !buffered;
        waiting = !waiting;
        hidden = !hidden;
        counters =
          {
            scans = t.counters.scans + !scans;
            delivered = t.counters.delivered + !delivered;
            max_buffer;
          };
      }
end
