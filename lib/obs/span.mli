(** Per-op lifecycle spans decomposing visibility lag.

    A span stream is derived purely from simulated-time event data —
    never from a wall clock — so streams are deterministic per seed and
    bit-identical at any [-j] domain count. *)

type flight_outcome = Delivered | Dropped | Duplicate

type op = {
  op : int;  (** do-event index in the execution *)
  origin : int;
  obj : int;
  issue : float;  (** sim time the op was issued at the origin *)
  sent : float;  (** sim time its carrying message was first flushed *)
}

type transmit = {
  src : int;
  seq : int;
  sent : float;
  bytes : int;
  kinds : string;
      (** protocol item kinds riding in the payload (e.g.
          ["update+digest"]); [""] if unclassified *)
  ops : int list;  (** do indices first carried by this message *)
}

type flight = {
  f_src : int;
  f_seq : int;
  f_dst : int;
  f_sent : float;
  f_at : float;  (** arrival time, or loss time for [Dropped] *)
  f_outcome : flight_outcome;
}

type visible = {
  v_op : int;
  v_origin : int;
  v_obj : int;
  v_observer : int;
  issue_at : float;
  sent_at : float;
  arrived_at : float;
  applied_at : float;
  visible_at : float;
  direct : bool;
      (** the observer received a direct copy of the carrying message;
          when [false] the op reached it via anti-entropy repair *)
  boot_overlap : float;
      (** raw overlap of the observer's bootstrap window with
          [\[applied, visible\]]; clamped by {!breakdown} *)
}

type bootstrap = {
  b_replica : int;
  b_epoch : int;
  b_join : float;
  b_promoted : float;
}

type repair_round = { round : int; r_at : float; r_interval : float }

type t =
  | Op of op
  | Transmit of transmit
  | Flight of flight
  | Visible of visible
  | Bootstrap of bootstrap
  | Repair_round of repair_round

type breakdown = {
  encode_wait : float;  (** issue → first flush of the carrying message *)
  network : float;  (** flush → first arrival (or loss) at the observer *)
  repair_wait : float;  (** arrival-gap when the direct copy was lost *)
  dep_wait : float;  (** buffered on causal dependencies / not yet witnessed *)
  bootstrap_refusal : float;  (** observer refused ops while bootstrapping *)
  total : float;
      (** float sum of the components in field order — the value the
          simulator records as the op's Definition 17 visibility lag,
          so components sum to the measured lag bit-for-bit *)
}

val breakdown : visible -> breakdown
(** The single definition site of the lag decomposition. *)

val outcome_name : flight_outcome -> string
val kind_name : t -> string
val pp : Format.formatter -> t -> unit

(** The span recorder: an append-only list of spans.

    Spans are recorded only by the replay that E23 and [haec_cli trace]
    force, so the log keeps them as they come. A [Transmit] keeps its
    payload, and {!iter} and {!to_list} classify its [kinds] from that
    payload when a caller reads it. A log references only its own list
    and the payload strings already on the wire — never the producer
    that filled it. *)
module Log : sig
  type span := t

  type t

  val create : ?classify:(string -> string) -> unit -> t
  (** [classify] labels a [Transmit] payload with its protocol item
      kinds when the span is read; without it [kinds] is [""]. *)

  val length : t -> int
  (** Spans recorded so far. *)

  val op : t -> op:int -> origin:int -> obj:int -> issue:float -> sent:float -> unit

  val transmit :
    t -> src:int -> seq:int -> sent:float -> payload:string -> ops:int list -> unit
  (** [bytes] is the payload's length. *)

  val flight :
    t -> src:int -> seq:int -> dst:int -> sent:float -> at:float -> flight_outcome -> unit

  val visible : t -> visible -> unit

  val bootstrap : t -> bootstrap -> unit

  val repair_round : t -> repair_round -> unit

  val iter : t -> (span -> unit) -> unit
  (** Every span in emission order. *)

  val to_list : t -> span list
  (** [iter]'s spans as a list. *)
end
