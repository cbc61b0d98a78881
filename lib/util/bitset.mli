(** Fixed-capacity mutable bitsets.

    The reference checkers materialise visibility rows as bitsets, which
    keeps their row unions and subset tests a word at a time. *)

type t

val create : int -> t
(** All bits clear. Capacity is fixed. *)

val capacity : t -> int

val copy : t -> t

val set : t -> int -> unit

val clear : t -> int -> unit

val get : t -> int -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ors [src] into [dst]. Requires equal capacity. *)

val union_into_changed : dst:t -> t -> bool
(** Like {!union_into}, but reports whether [dst] gained any bit — the
    word-level change test that drives transitive-closure saturation
    without recomputing cardinals. *)

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst src] overwrites [dst] with [src]'s bits (no allocation;
    lets hot loops reuse one scratch row). Requires equal capacity. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] ands [src] into [dst]. Requires equal capacity. *)

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash, compatible with {!equal} — usable as a [Hashtbl]
    key via [Hashtbl.Make]. *)

val is_subset : t -> t -> bool
(** [is_subset a b] iff every bit of [a] is set in [b]. *)

val cardinal : t -> int

val is_empty : t -> bool

val min_elt : t -> int option
(** Smallest element, if any. *)

val min_elt_from : t -> int -> int option
(** [min_elt_from t i]: the smallest element [>= i], if any, found a
    word at a time. *)

val iter : t -> (int -> unit) -> unit
(** Calls the function on each set bit, ascending. *)

val iter_rev : t -> (int -> unit) -> unit
(** Calls the function on each set bit, descending. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val to_list : t -> int list

val exists : t -> (int -> bool) -> bool

val for_all : t -> (int -> bool) -> bool
