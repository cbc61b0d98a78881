(** Hash tables keyed on small int tuples, with a monomorphic hash and
    equality.

    The polymorphic [Hashtbl] hashes a tuple key by walking it through
    the generic C hash and compares keys with polymorphic [compare]; on
    bookkeeping maps looked up once or more per event that is a
    measurable share of the run. These instances mix the components
    arithmetically and compare them as ints. Users: the live cluster's
    capture keeps its sent-message set in a {!Pair} table, and
    [Sim.Witness] hashes its [(obj, dot)] keys with {!hash3}. The
    simulator runner's span bookkeeping, once the main user, keeps dense
    arrays indexed by message seq and do index instead. *)

module Pair : Hashtbl.S with type key = int * int

val hash3 : int -> int -> int -> int
(** Three ints mixed the way {!Pair} mixes two, for keys that carry
    three ints in another shape. *)
