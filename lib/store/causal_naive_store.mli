(** The original list-scan causal MVR store, frozen as the quadratic
    baseline for the E20 delivery-buffer scaling experiment and the soak
    benchmark. Semantically equivalent to {!Causal_mvr_store} (same wire
    behaviour up to encoding, same delivered states); only its buffer data
    structure differs. Do not use it outside measurements. *)

include Store_intf.S

val counters : state -> Store_intf.delivery_stats
(** This replica's buffer work counters. *)
