(** Causally consistent MVR store.

    Causal broadcast with dependency vectors (Ahamad et al. style): remote
    updates are buffered until their causal dependencies have been applied,
    so every execution complies with a causally consistent abstract
    execution regardless of network reordering. Write-propagating
    (invisible reads, op-driven messages) and eventually consistent.

    This is the Section 6 baseline: its messages carry vector clocks whose
    entries grow with the number of operations, i.e. Theta(n lg k) bits —
    the upper bound matching the Theorem 12 lower bound when [s >= n]. *)

include Store_intf.S

val counters : state -> Store_intf.delivery_stats
(** This replica's delivery-buffer work counters (scans, deliveries, peak
    buffered); the E20 soak benchmark sums and maxes them over the
    replicas. *)
