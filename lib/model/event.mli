(** Events of a concrete execution (Section 2).

    Three kinds, exactly as in the paper: a [do] models a client invoking an
    operation and immediately receiving a response (high availability: no
    communication happens inside a [do]); [send] broadcasts a message;
    [receive] delivers one.

    Beyond the paper's failure-free model, an execution may also record
    crash–recovery faults: [crash] marks the instant a replica loses its
    volatile state and stops taking events, [recover] the instant it
    resumes from durable state. Between a [crash] and its matching
    [recover] the replica has no events at all — well-formedness
    ({!Execution.check_well_formed}) enforces this.

    Dynamic membership adds [join] and [leave]: a [join] marks the instant
    a reserve replica enters the replica set (booting empty), a [leave]
    the instant a member departs for good — gracefully (it flushed its
    pending message first) or as a crash-leave (it simply vanished; repair
    is up to the surviving replicas). Both carry the membership epoch in
    force {e after} the change; epochs increase strictly across the
    execution. A replica has no events before its [join] or after its
    [leave]. *)

type do_event = {
  replica : int;
  obj : int;
  op : Op.t;
  rval : Op.response;
}

type t =
  | Do of do_event
  | Send of { replica : int; msg : Message.t }
  | Receive of { replica : int; msg : Message.t }
  | Crash of { replica : int }
  | Recover of { replica : int }
  | Join of { replica : int; epoch : int }
  | Leave of { replica : int; epoch : int; graceful : bool }

val replica : t -> int
(** [R(e)]: the replica at which the event occurs. *)

val msg : t -> Message.t option
(** The message attribute of a [send]/[receive]; [None] for a [do]. *)

val as_do : t -> do_event option

val pp : Format.formatter -> t -> unit

val pp_do : Format.formatter -> do_event -> unit
