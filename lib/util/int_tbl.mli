(** Hash tables keyed on small int tuples, with a monomorphic hash and
    equality.

    The polymorphic [Hashtbl] hashes a tuple key by walking it through
    the generic C hash and compares keys with polymorphic [compare]; on
    bookkeeping maps looked up once or more per simulated event that is
    a measurable share of the run. These instances mix the components
    arithmetically and compare them as ints. *)

module Pair : Hashtbl.S with type key = int * int

module Triple : Hashtbl.S with type key = int * int * int

val hash3 : int -> int -> int -> int
(** The hash {!Triple} uses, for keys that carry three ints in another
    shape. *)
