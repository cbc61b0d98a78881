(** Span-stream export.

    Two formats: a JSONL stream (header line with magic/version/meta,
    then one JSON object per span, its kind under ["span"]), and
    Chrome trace-event JSON loadable in
    Perfetto or [chrome://tracing] — one track per replica plus a
    gossip track, async arrows for message flight, repair rounds and
    bootstrap windows as slices. *)

val magic : string
val version : int

val to_jsonl : ?meta:(string * Json.t) list -> Span.t list -> string

val to_chrome : ?time_scale:float -> n:int -> Span.t list -> Json.t
(** [to_chrome ~n spans] renders a [{"traceEvents": [...]}] document for
    [n] replica tracks (tids [0..n-1]) plus a gossip track (tid [n]).
    [time_scale] maps sim time to microseconds; the default [1000.]
    treats one sim-time unit as 1 ms. *)

val save : ?meta:(string * Json.t) list -> string -> Span.t list -> unit
val save_chrome : ?time_scale:float -> n:int -> string -> Span.t list -> unit
