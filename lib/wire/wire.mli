(** Compact binary wire format.

    Every message a store broadcasts is serialized through this module, so
    that the message-size measurements of the Theorem 12 experiment count
    real bytes rather than abstract estimates.

    Integers use LEB128 varints (7 payload bits per byte); signed integers
    are zigzag-mapped first, so small magnitudes of either sign stay short.
    Lists and strings are length-prefixed.

    {b Frame versions.} [V1] is the layout above. [V2] adds compressed
    layouts — bit-packed / run-length vector clocks, sparse delta vectors,
    delta digests, grouped repair runs — each self-describing behind a
    leading [0x00] marker byte, a position where every v1 encoding puts a
    varint that is at least 1. Decoders are therefore version-agnostic
    (anything decodes both formats); every replica emits [V2]. *)

module Version : sig
  type t = V1 | V2

  val set : t -> unit
  (** Stateless: [set V2] does nothing and [set V1] raises
      [Invalid_argument], since every replica emits [V2]; this remains
      only for callers that still pin the old default. *)
end

module Encoder : sig
  type t

  val create : unit -> t

  val uint : t -> int -> unit
  (** LEB128 varint. Requires a non-negative argument. *)

  val uint_array : t -> int array -> unit
  (** Length-prefixed array of varints, fused into a single reservation
      and write loop. Requires non-negative entries. *)

  val packed_array : t -> int array -> width:int -> unit
  (** Fixed-width bit packing, little-endian bit order, {e no} length
      prefix — the caller frames [Array.length] itself. Requires
      [1 <= width <= 56] and every entry within [width] bits (raises
      [Invalid_argument] otherwise). *)

  val int : t -> int -> unit
  (** Zigzag + LEB128; accepts any int. *)

  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Length-prefixed bytes. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Length-prefixed sequence. *)

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val pair : t -> (t -> 'a -> unit) -> (t -> 'b -> unit) -> 'a * 'b -> unit

  val to_string : t -> string
  (** The bytes accumulated so far. *)

  val size_bytes : t -> int

  val size_bits : t -> int
end

module Decoder : sig
  type t
  (** A [pos, limit) window over a shared input string; sub-decoders
      ({!sub}) are views into the parent's bytes, never copies. *)

  exception Malformed of string
  (** Raised when the input cannot be decoded: truncation, varint overflow,
      or a length prefix exceeding the remaining input. *)

  val of_string : string -> t

  val uint : t -> int

  val uint_array : t -> int array
  (** Fused inverse of {!Encoder.uint_array}: one length read, one bounds
      check, one tight loop. *)

  val packed_array : t -> n:int -> width:int -> int array
  (** Inverse of {!Encoder.packed_array} for [n] entries of [width] bits.
      The byte budget is validated before allocating. *)

  val int : t -> int

  val bool : t -> bool

  val string : t -> string

  val sub : t -> int -> t
  (** [sub t len] is a child decoder viewing the next [len] bytes; the
      parent skips past them. Raises [Malformed] if fewer remain. *)

  val peek : t -> int
  (** The next byte without consuming it. Raises [Malformed] at end of
      input. The v2 format dispatch: a leading [0x00] marks a compressed
      layout, anything else is a v1 varint. *)

  val list : t -> (t -> 'a) -> 'a list

  val array : t -> (t -> 'a) -> 'a array

  val option : t -> (t -> 'a) -> 'a option

  val pair : t -> (t -> 'a) -> (t -> 'b) -> 'a * 'b

  val remaining : t -> int
  (** Bytes of input not yet consumed. Lets length-prefixed decoders
      reject a bogus count before allocating for it. *)

  val at_end : t -> bool

  val expect_end : t -> unit
  (** Raises [Malformed] unless all input has been consumed. *)
end

module Frame : sig
  (** Checksummed transport envelope.

      The fault-injection harness corrupts message bytes in transit; a
      store must never apply corrupted state silently. Sealing a payload
      appends a CRC-32 so that {!unseal} rejects any in-flight mutation as
      {!Decoder.Malformed} — the same exception stores raise on
      structurally invalid input — modelling the checksum every real
      transport performs before bytes reach the application. *)

  val crc32 : string -> int
  (** Reflected IEEE CRC-32 of the bytes, in [0, 2^32). *)

  val seal : string -> string
  (** Length-prefixed payload followed by its CRC-32. Runs through the
      pooled per-domain scratch encoder, so sealing allocates nothing
      beyond the result. *)

  val unseal : string -> string
  (** Inverse of {!seal}. Raises {!Decoder.Malformed} on truncation,
      trailing garbage, or checksum mismatch. *)
end

val encode : (Encoder.t -> unit) -> string
(** [encode f] runs [f] on a fresh encoder and returns the bytes. *)

val decode : string -> (Decoder.t -> 'a) -> 'a
(** [decode s f] decodes with [f] and checks the whole input was consumed.
    Raises {!Decoder.Malformed} on any framing error. *)

val size_bits : string -> int
(** Size of a serialized message in bits (8 per byte). *)
