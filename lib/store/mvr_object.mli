(** Per-object multi-valued register state (the object layer shared by the
    eager and the causally consistent MVR stores).

    Classic version-vector MVR (Dynamo/Riak style): each write is tagged
    with a per-object version vector that dominates everything the writer
    had seen of the object, so concurrent writes survive as siblings and
    causally dominated ones are discarded. The dot of a write to this
    object by replica [r] is [(r, vv[r])]; the object's causal context [cc]
    (component-wise max of all applied version vectors) is dot-prefix
    closed, which makes the visibility witness the context itself. *)

open Haec_wire
open Haec_vclock
open Haec_model

type update = {
  vv : Vclock.t;
  dot : Dot.t;
  value : Value.t;
}

type t

val empty : n:int -> t

val local_write : t -> me:int -> Value.t -> t * update
(** Produce a write dominating everything seen so far; the new sibling set
    is the singleton written value. *)

val apply : t -> update -> t
(** Apply a remote update. Idempotent; safe under reordering and
    duplication: stale updates (dot already covered by [cc]) are dropped,
    dominated siblings are discarded. *)

val read : t -> Value.t list
(** Current sibling values (canonically sorted). *)

val siblings : t -> update list

val causal_context : t -> Vclock.t

val visible : obj:int -> t -> Store_intf.summary
(** The object-level visibility witness: the causal context as a
    frontier, covering every write dot it names. *)

val encode_update : wire:Wire.Version.t -> Wire.Encoder.t -> update -> unit
(** The clocks in [wire]'s layout; {!decode_update} reads either. *)

val decode_update : Wire.Decoder.t -> update

val join : t -> t -> t
(** State-based (CvRDT) merge: least upper bound of the two states. A
    sibling known to the other side (dot covered by its causal context)
    but absent from its sibling set was causally overwritten there and is
    dropped — the ORSWOT join rule. Commutative, associative and
    idempotent. *)

val encode : wire:Wire.Version.t -> Wire.Encoder.t -> t -> unit
(** Full-state serialization, for state-based replication. *)

val decode : Wire.Decoder.t -> t
