(** Assembling metrics snapshots from runs and from saved traces.

    Two producers feed the same snapshot format: a live {!Runner.Make}
    run exports its registry directly, and {!wire_of_execution} recomputes
    the wire-level metrics offline from a saved trace, so `haec_cli
    metrics` can audit a run without re-executing the store.

    {!snapshot} also derives the run-level gauges, most importantly the
    Theorem 12 floor: a causally consistent write-propagating store must,
    in some execution with [n] replicas, [s] objects and [k] writes per
    writer, send a message of at least [min{n-2, s-1} * lg k] bits
    (paper Section 6). Exporting the floor next to the measured maximum
    message size turns the paper's lower bound into a continuously
    monitored quantity: [wire.max_message_bits >= theorem12_floor_bits]
    on every causal-store run. *)

open Haec_model
open Haec_obs

val theorem12_floor_bits : n:int -> s:int -> k:int -> float
(** [min (n-2) (s-1) * log2 k], clamped to [0.] when the construction is
    degenerate ([n < 3], [s < 2] or [k <= 1]). *)

val max_writes_per_replica : Execution.t -> int
(** The run's [k]: update do-events at the busiest replica. *)

val objects_of : Execution.t -> int
(** The run's [s], inferred as [1 + max object index] over do events
    (0 when there are none). *)

val wire_of_execution : Execution.t -> Metrics.Registry.t
(** Recompute wire metrics from the trace alone: [wire.messages] (total
    and per replica, from send events), the [wire.payload_bytes]
    histogram, [wire.deliveries], [wire.duplicates] (receives of an
    already-delivered message id at the same replica) and [wire.fanout]
    (deliveries per sent message). Counts sends and receives that made it
    into the trace — scheduling-level duplicates a crash swallowed are
    invisible here, so live and offline duplicate counts may differ on
    faulty runs; messages, payload bytes and deliveries always agree. *)

val audit_spans : Execution.t -> Span.t list -> string list
(** Audit a span stream against the recorded trace: transmit spans and
    send events must match 1:1 on message id, and per (message,
    destination) the delivered+duplicate flight count must equal the
    receive count. Returns the mismatches; empty means consistent. *)

val snapshot :
  ?meta:(string * Json.t) list ->
  ?objects:int ->
  Execution.t ->
  Metrics.Registry.t ->
  Metrics_io.snapshot
(** Derive the run gauges into [reg] — [theorem12_floor_bits] (with [s]
    from [?objects], default {!objects_of}, and [k] from
    {!max_writes_per_replica}), [wire.max_message_bits] and
    [wire.total_bytes] — then summarize everything as a snapshot with the
    given metadata. *)
