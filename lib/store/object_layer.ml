(** Object layers: the per-object replicated data type, independent of the
    delivery discipline. A store is the product of an object layer (MVR,
    LWW register, op-based counter, ...) and a delivery layer (eager
    {!Eager_core} or causally buffered {!Causal_core}).

    Invariant required of [visible]: under causally ordered application
    of updates, the summary names exactly the update events whose effects
    (including being causally overwritten) the replica has incorporated —
    the per-object visibility witness. The MVR layer reports its causal
    context as a frontier; the dot-set layers list their dots as extras,
    in descending dot order. *)

open Haec_wire
open Haec_vclock
open Haec_model
module Int_map = Map.Make (Int)

(* Shared by the dot-generating object layers: the highest sequence number
   seen per replica, maintained incrementally so [next_seq] is a lookup
   instead of a fold over every dot ever observed (which made each update
   op O(|seen|) and a long run quadratic). The cache is advanced at every
   dot insertion, so it stays exact under duplicated and replayed
   deliveries. *)
let bump_max (d : Dot.t) m =
  let cur = match Int_map.find_opt d.Dot.replica m with Some s -> s | None -> 0 in
  if d.Dot.seq > cur then Int_map.add d.Dot.replica d.Dot.seq m else m

let max_seq m me = match Int_map.find_opt me m with Some s -> s | None -> 0

let descending set = Dot.Set.fold List.cons set []

module type OBJECT = sig
  val kind : string

  type t
  (** per-object replica state *)

  type update
  (** the propagated effect of one update operation *)

  val empty : n:int -> t

  val do_op : t -> me:int -> now:int -> Op.t -> t * Op.response * update option
  (** Handle one client operation locally. [now] is a causally monotone
      logical time supplied by the delivery layer (strictly greater than
      the time of every update already applied at this replica, across all
      objects); object layers that arbitrate conflicts by timestamp must
      use it, or cross-object causal chains can contradict their
      arbitration order (a cyclic conflict order — caught by
      [Haec_consistency.Causal_hist]). Returns [Some update] exactly when
      the operation is an update (to be broadcast). Raises
      [Invalid_argument] on operations outside the object's vocabulary. *)

  val apply : t -> update -> t
  (** Apply a remote update. Must be idempotent and insensitive to
      duplicated delivery. Ordering guarantees depend on the delivery
      layer. *)

  val dot_of : update -> Dot.t
  (** Unique per-object identifier of the update: [(origin, seq)] with
      [seq] contiguous per origin. *)

  val time_of : update -> int
  (** The logical time embedded in the update, for the delivery layer's
      clock to witness (Lamport's receive rule); 0 for layers that carry
      no timestamps. *)

  val visible : obj:int -> t -> Store_intf.summary
  (** The object's visibility witness, as object [obj]. *)

  val encode_update : Wire.Encoder.t -> update -> unit
  (** Emits the v2 layout; {!decode_update} also reads v1. *)

  val decode_update : Wire.Decoder.t -> update
end

(** Figure 1b: the multi-valued register, wrapping {!Mvr_object}. *)
module Mvr : OBJECT = struct
  let kind = "mvr"

  type t = Mvr_object.t

  type update = Mvr_object.update

  let empty = Mvr_object.empty

  let do_op t ~me ~now:_ op =
    match op with
    | Op.Read -> (t, Op.vals (Mvr_object.read t), None)
    | Op.Write v ->
      let t, u = Mvr_object.local_write t ~me v in
      (t, Op.Ok, Some u)
    | Op.Add _ | Op.Remove _ -> invalid_arg "Mvr object: only read/write supported"

  let apply = Mvr_object.apply

  let dot_of (u : update) = u.Mvr_object.dot

  let time_of _ = 0

  let visible = Mvr_object.visible

  let encode_update = Mvr_object.encode_update

  let decode_update = Mvr_object.decode_update
end

(** Figure 1a under a deterministic total order: the last-writer-wins
    register. Conflicts between concurrent writes are resolved by Lamport
    timestamp (ties by replica id), so a read returns at most one value. *)
module Lww_register : OBJECT = struct
  let kind = "lww-register"

  type entry = {
    ts : Lamport.t;
    dot : Dot.t;
    value : Value.t;
  }

  type t = {
    n : int;
    current : entry option;
    seen : Dot.Set.t;
    maxes : int Int_map.t;  (** per-replica max seq in [seen] *)
  }

  type update = entry

  let empty ~n = { n; current = None; seen = Dot.Set.empty; maxes = Int_map.empty }

  let next_seq t me = max_seq t.maxes me + 1

  let better a b = if Lamport.compare a.ts b.ts >= 0 then a else b

  let apply t e =
    if Dot.Set.mem e.dot t.seen then t
    else
      {
        t with
        current = (match t.current with None -> Some e | Some c -> Some (better c e));
        seen = Dot.Set.add e.dot t.seen;
        maxes = bump_max e.dot t.maxes;
      }

  let do_op t ~me ~now op =
    match op with
    | Op.Read ->
      ignore now;
      let vals = match t.current with None -> [] | Some e -> [ e.value ] in
      (t, Op.vals vals, None)
    | Op.Write v ->
      (* [now] already dominates every applied update's time, including
         this object's current winner *)
      let ts = { Lamport.time = now; replica = me } in
      let e = { ts; dot = Dot.make ~replica:me ~seq:(next_seq t me); value = v } in
      (apply t e, Op.Ok, Some e)
    | Op.Add _ | Op.Remove _ -> invalid_arg "Lww_register object: only read/write supported"

  let dot_of e = e.dot

  let time_of e = e.ts.Lamport.time

  let visible ~obj t = Store_intf.dots ~obj (descending t.seen)

  let encode_update enc e =
    Lamport.encode enc e.ts;
    Dot.encode enc e.dot;
    Value.encode enc e.value

  let decode_update dec =
    let ts = Lamport.decode dec in
    let dot = Dot.decode dec in
    let value = Value.decode dec in
    { ts; dot; value }
end

(** Figure 1c: the observed-remove set. Add-wins semantics: each [add]
    gets a unique dot; a [remove] deletes exactly the add-dots its replica
    had observed, so an add concurrent with a remove of the same value
    survives. Tombstones guard against an add arriving after a remove that
    already covered it. The [known] dot set (including adds known only
    through a remove's observed set) is the visibility witness. *)
module Orset : OBJECT = struct
  let kind = "orset"

  type update =
    | Uadd of { dot : Dot.t; value : Value.t }
    | Uremove of { dot : Dot.t; removed : Dot.Set.t }

  type t = {
    n : int;
    entries : (Dot.t * Value.t) list;  (** live add-dots *)
    tombstones : Dot.Set.t;  (** add-dots covered by some applied remove *)
    known : Dot.Set.t;
    maxes : int Int_map.t;  (** per-replica max seq in [known] *)
  }

  let empty ~n =
    {
      n;
      entries = [];
      tombstones = Dot.Set.empty;
      known = Dot.Set.empty;
      maxes = Int_map.empty;
    }

  let next_seq t me = max_seq t.maxes me + 1

  let apply t = function
    | Uadd { dot; value } ->
      if Dot.Set.mem dot t.known then t
      else
        {
          t with
          entries = (dot, value) :: t.entries;
          known = Dot.Set.add dot t.known;
          maxes = bump_max dot t.maxes;
        }
    | Uremove { dot; removed } ->
      if Dot.Set.mem dot t.known then t
      else
        {
          t with
          entries = List.filter (fun (d, _) -> not (Dot.Set.mem d removed)) t.entries;
          tombstones = Dot.Set.union t.tombstones removed;
          known = Dot.Set.add dot (Dot.Set.union t.known removed);
          maxes = Dot.Set.fold bump_max removed (bump_max dot t.maxes);
        }

  let do_op t ~me ~now:_ op =
    match op with
    | Op.Read -> (t, Op.vals (List.map snd t.entries), None)
    | Op.Add v ->
      let u = Uadd { dot = Dot.make ~replica:me ~seq:(next_seq t me); value = v } in
      (apply t u, Op.Ok, Some u)
    | Op.Remove v ->
      let removed =
        List.fold_left
          (fun acc (d, value) -> if Value.equal value v then Dot.Set.add d acc else acc)
          Dot.Set.empty t.entries
      in
      let u = Uremove { dot = Dot.make ~replica:me ~seq:(next_seq t me); removed } in
      (apply t u, Op.Ok, Some u)
    | Op.Write _ -> invalid_arg "Orset object: only read/add/remove supported"

  let dot_of = function Uadd { dot; _ } | Uremove { dot; _ } -> dot

  let time_of _ = 0

  let visible ~obj t = Store_intf.dots ~obj (descending t.known)

  let encode_update enc = function
    | Uadd { dot; value } ->
      Wire.Encoder.uint enc 0;
      Dot.encode enc dot;
      Value.encode enc value
    | Uremove { dot; removed } ->
      Wire.Encoder.uint enc 1;
      Dot.encode enc dot;
      Dot.encode_set enc removed

  let decode_update dec =
    match Wire.Decoder.uint dec with
    | 0 ->
      let dot = Dot.decode dec in
      let value = Value.decode dec in
      Uadd { dot; value }
    | 1 ->
      let dot = Dot.decode dec in
      let removed = Dot.decode_set dec in
      Uremove { dot; removed }
    | tag -> raise (Wire.Decoder.Malformed (Printf.sprintf "bad orset update tag %d" tag))
end

(** An op-based PN-counter: [Add _] increments, [Remove _] decrements, a
    read returns the total — matching the counter specification in
    [Haec_spec.Spec]. Extension beyond Figure 1 exercising a commutative,
    conflict-free object in the same framework. *)
module Pn_counter : OBJECT = struct
  let kind = "pn-counter"

  type update = {
    dot : Dot.t;
    delta : int;
  }

  type t = {
    n : int;
    total : int;
    seen : Dot.Set.t;
    maxes : int Int_map.t;  (** per-replica max seq in [seen] *)
  }

  let empty ~n = { n; total = 0; seen = Dot.Set.empty; maxes = Int_map.empty }

  let next_seq t me = max_seq t.maxes me + 1

  let apply t u =
    if Dot.Set.mem u.dot t.seen then t
    else
      {
        t with
        total = t.total + u.delta;
        seen = Dot.Set.add u.dot t.seen;
        maxes = bump_max u.dot t.maxes;
      }

  let do_op t ~me ~now:_ op =
    match op with
    | Op.Read -> (t, Op.vals [ Value.Int t.total ], None)
    | Op.Add _ ->
      let u = { dot = Dot.make ~replica:me ~seq:(next_seq t me); delta = 1 } in
      (apply t u, Op.Ok, Some u)
    | Op.Remove _ ->
      let u = { dot = Dot.make ~replica:me ~seq:(next_seq t me); delta = -1 } in
      (apply t u, Op.Ok, Some u)
    | Op.Write _ -> invalid_arg "Pn_counter object: only read/add/remove supported"

  let dot_of u = u.dot

  let time_of _ = 0

  let visible ~obj t = Store_intf.dots ~obj (descending t.seen)

  let encode_update enc u =
    Dot.encode enc u.dot;
    Wire.Encoder.int enc u.delta

  let decode_update dec =
    let dot = Dot.decode dec in
    let delta = Wire.Decoder.int dec in
    { dot; delta }
end
