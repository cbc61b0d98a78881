(** Polynomial-time causal-consistency checking of register histories by
    bad-pattern detection (after Bouajjani, Enea, Guerraoui, Hamza, "On
    verifying causal consistency", POPL 2017).

    The exhaustive {!Search} decides compliance exactly but only for a
    handful of events; this module scales to arbitrary histories for the
    *register* (single-value read) case with differentiated writes. It
    derives the reads-from relation from returned values, saturates the
    causal order [co = (session-order ∪ reads-from)+], and looks for the
    bad patterns that characterize non-causally-consistent register
    histories:

    - [Thin_air_read]: a read returns a value nobody wrote;
    - [Cyclic_co]: session order and reads-from are cyclically dependent;
    - [Write_co_init_read]: a read returns the initial (empty) value even
      though a same-object write causally precedes it;
    - [Write_co_read]: a read returns a write that is causally overwritten
      (w1 -> w2 -> r in [co] with w1, w2 same-object writes and r reading
      w1);
    - [Cyclic_cf] (causal convergence only): the conflict/arbitration
      order forced by reads — [w1 -> w2] whenever some read returns [w2]
      while [w1] causally precedes the read — is cyclic with [co], so no
      single total order can arbitrate the conflicts. The paper's
      framework resolves register conflicts by the one total order [H] of
      the abstract execution, so its register model is causal
      *convergence*; plain causal consistency omits this pattern.

    A returned pattern is a genuine violation (soundness). For histories
    where every read returns at most one value and writes are
    differentiated, absence of bad patterns means the history is causally
    consistent as a register history. Multi-value (MVR) reads are out of
    scope and reported as [Unsupported]. *)

open Haec_model

type bad_pattern =
  | Thin_air_read of { read : int }
  | Cyclic_co of { witness : int }
      (** an event on a causal cycle *)
  | Write_co_init_read of { read : int; write : int }
  | Write_co_read of { read : int; overwritten : int; overwriting : int }
  | Cyclic_cf of { witness : int }
      (** a write on a cycle of causality + forced arbitration *)

type model =
  [ `Cc  (** plain causal consistency *)
  | `Ccv  (** causal convergence: the paper's register framework *) ]

type verdict =
  | Consistent  (** no bad pattern: causally consistent register history *)
  | Violation of bad_pattern
  | Unsupported of string
      (** multi-value reads or duplicated write values *)

val check_events : ?model:model -> n:int -> Event.do_event list -> verdict
(** Indices in the verdict refer to positions in the given list.
    [model] defaults to [`Ccv]. Internally the causal order is saturated
    word-parallel over bitset adjacency rows and the bad patterns are
    row-intersection queries; verdicts (including witness indices) are
    identical to the frozen list-based implementation that the tests keep
    as its oracle. *)

val check : ?model:model -> Execution.t -> verdict
(** Convenience: checks the do events of an execution. *)

val pp_verdict : Format.formatter -> verdict -> unit
