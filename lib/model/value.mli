(** Values written to / stored in replicated objects.

    [Pair (j, i)] exists because the Theorem 12 construction writes the
    pair (j, i) as the j-th value of object x_i (Figure 4a). *)

open Haec_wire

type t =
  | Int of int
  | Str of string
  | Pair of int * int

val compare : t -> t -> int

val equal : t -> t -> bool

val sort_uniq : t list -> t list
(** [List.sort_uniq compare]. Lists of up to two values, what nearly every
    register read returns, are sorted without allocating the closures
    [List.sort_uniq] builds on each call. *)

val encode : Wire.Encoder.t -> t -> unit

val decode : Wire.Decoder.t -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
