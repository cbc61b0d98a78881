(** Epoch-stamped view of a dynamic replica set.

    The replica-id space is a fixed {e capacity}: ids [0 .. initial-1] are
    members from time zero, ids [initial .. capacity-1] form a reserve
    pool. A reserve replica enters the set with {!join} (it boots empty
    and is {e bootstrapping}: it takes no client reads until the runner
    {!promote}s it after anti-entropy catch-up), a member exits for good
    with {!leave}, optionally after {!retire} has stopped it serving while
    it hands its own updates off. Ids are never reused — a departed replica cannot
    rejoin, which is what lets fixed-size vector clocks survive churn:
    a departed origin's entry simply stops advancing.

    The epoch counts view changes: every join and every leave bumps it by
    one, and the trace events ({!Haec_model.Event.Join} / [Leave]) carry
    the epoch in force after the change. Promotion is not a view change —
    it flips local read availability only — so it leaves the epoch alone.

    The view is immutable; the runner owns the authoritative copy and the
    store protocols learn of changes only through wire-level announcements
    ({!Haec_wire.Wire.Gossip.Hello} / [Goodbye]) — eventually-accurate
    membership knowledge is all eventual consistency needs (Dubois et al.,
    see PAPERS.md). *)

type status = Reserve | Bootstrapping | Serving | Leaving | Departed

type t

val create : capacity:int -> initial:int -> t
(** Epoch 0; ids below [initial] serving, the rest reserve. *)

val capacity : t -> int

val initial : t -> int

val epoch : t -> int

val status : t -> int -> status

val is_member : t -> int -> bool
(** Bootstrapping, serving or leaving. *)

val is_serving : t -> int -> bool

val join : t -> int -> t
(** Reserve -> bootstrapping; bumps the epoch. Raises [Invalid_argument]
    unless the replica is in reserve (ids are never reused). *)

val promote : t -> int -> t
(** Bootstrapping -> serving; the epoch is unchanged. *)

val retire : t -> int -> t
(** Bootstrapping or serving -> leaving: still a member, no longer
    serving; the epoch is unchanged. *)

val leave : t -> int -> t
(** Member -> departed; bumps the epoch. *)

val members : t -> int list
(** Bootstrapping, serving and leaving ids, ascending. *)

val serving : t -> int list

val n_members : t -> int

val status_name : status -> string

val pp : Format.formatter -> t -> unit
