(** Observable causal consistency (Definition 18).

    A causally consistent abstract execution is OCC if, whenever a read
    returns (at least) two writes [w0, w1], there exist witness writes
    [w0', w1'] to two further distinct objects such that [wi'] is visible to
    [w_(1-i)] but not to [wi], and every write to [obj(wi')] visible to [wi]
    is visible to [wi'] (condition 4, which rules out the Figure 3b
    "pretend the witness was ordered" escape). The witnesses certify to any
    client that [w0] and [w1] cannot be ordered either way, so their
    concurrency is observable.

    The checker treats every object as an MVR, matching the paper's setting;
    it identifies the write events behind a read's returned values using the
    paper's convention that every write writes a distinct value.

    {b Cost.} For an execution of [N] events with [W] updates on [k]
    objects, {!check} first builds U[o] (each object's update events, one
    [N]-bit row per object) and a [(object, value)] index of the writes —
    O(N + kN/63), and nothing at all when no read returns two or more
    values. Each returned pair then filters the [W] candidates once per
    side: O(W) bit tests, plus for each candidate passing conditions 2–3
    one O(N/63)-word subset test for condition 4, against a masked row
    [vis_row(wi) ∩ U[obj(wi')]] built once per [(wi, object)] per call.
    {!witnesses_for} builds the same indexes for its single pair. *)

open Haec_model
open Haec_spec

type violation = {
  read : int;  (** index of the offending read in H *)
  w0 : int;
  w1 : int;  (** the returned pair with no witnesses *)
}

val check : Abstract.t -> (violation list, string) result
(** [Ok []] means OCC (given causal consistency, checked separately).
    [Ok vs] lists every returned pair lacking witnesses. [Error _] means the
    execution is outside the checkable class (a returned value with no or
    multiple matching write events). *)

val is_occ : Abstract.t -> bool
(** Causally consistent and no violations. *)

val writes_of_values :
  (int * Value.t, int list) Hashtbl.t -> obj:int -> Value.t list -> (int list, string) result
(** [writes_of_values by_value ~obj vs]: the write events behind the
    values [vs] a read of [obj] returned, given every write's index by
    [(object, value)]. [Error] names the first value written by no event
    or by several: the execution is then outside the checkable class,
    and {!check} returns that message. *)

val witnesses_for : Abstract.t -> read:int -> w0:int -> w1:int -> (int * int) option
(** The witness pair [(w0', w1')] of Definition 18 for the given returned
    write pair, if any. *)
