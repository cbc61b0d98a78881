(** Graphviz (dot) rendering of executions and abstract executions, for
    debugging schedules and inspecting visibility relations. Pipe the
    output through `dot -Tsvg` to draw the paper-style diagrams: one
    horizontal lane per replica, solid arrows for messages, dashed arrows
    for visibility. *)

open Haec_model
open Haec_spec

val abstract_to_dot :
  ?title:string -> ?transitive_edges:bool -> Abstract.t -> string
(** One node per do event, clustered by replica; dashed edges for
    visibility. With [transitive_edges = false] (default) edges implied by
    transitivity through another drawn edge are elided to keep diagrams
    readable. *)

val execution_to_dot : ?title:string -> Execution.t -> string
(** One node per event, clustered by replica; solid edges for program
    order along a lane and for send -> receive message delivery. *)

val timeline : ?width:int -> ?title:string -> Execution.t -> string
(** ASCII timeline of a trace: one row per replica over event-index
    buckets ([width] columns, default 72). Glyphs: [o] op, [s] send,
    [r] receive, [X] crash, [^] recover, [J] join, [L] graceful leave,
    [C] crash-leave; a dotted baseline marks membership. Join/Leave
    epoch boundaries (trace format v3) are drawn as a marker row under
    the lanes, labelled with the epoch each transition bumped the view
    to; labels too close to share a row go on further rows. *)
