(** Lamport timestamps with replica-id tie-breaking.

    Used by the last-writer-wins register object: timestamps are totally
    ordered, so concurrent writes are (arbitrarily but deterministically)
    ordered — the concurrency-hiding behaviour discussed in Section 3.4.
    The clock itself (tick on a write, advance past each received time) is
    kept by the delivery layer as a plain integer; this module only orders,
    encodes and prints the stamps. *)

open Haec_wire

type t = { time : int; replica : int }

val compare : t -> t -> int
(** Total order: by time, ties broken by replica id. *)

val equal : t -> t -> bool

val encode : Wire.Encoder.t -> t -> unit

val decode : Wire.Decoder.t -> t

val pp : Format.formatter -> t -> unit
