(** The data-store interface: one replica's state machine (Section 2).

    A store is a pure state machine. [do_op] handles a client operation
    without any communication (high availability); [send] serializes
    everything the replica wants to broadcast and clears the pending flag
    (the paper's "a send event relays everything the replica has to send");
    [receive] applies a (possibly duplicated, reordered) message.

    Beyond the paper's model, [do_op] also returns a {!witness}: the
    visibility information the replica itself used to answer, from which
    the simulator assembles a witness abstract execution that the run
    complies with by construction. This sidesteps the (NP-hard) search for
    a complying abstract execution on large runs; the witness is then fed
    to the correctness / causality / OCC / eventual-consistency checkers. *)

open Haec_model
open Haec_vclock

(** Instrumentation kept by delivery layers that buffer remote updates
    ({!Causal_core}, {!Causal_naive_store}): how much work one replica's
    buffer did. The record is part of the replica state, so it follows the
    state: an old state keeps its old counts. A durable replay re-does the
    buffering and so counts it again — these measure work, not traffic.
    The soak benchmark (E20) sums and maxes them over the replicas to show
    how buffer cost scales with the number of buffered records. *)
type delivery_stats = {
  scans : int;  (** deliverability checks performed against buffered records *)
  delivered : int;  (** records handed to the object layer (or the hidden queue) *)
  max_buffer : int;  (** peak number of simultaneously buffered records *)
}

let fresh_delivery_stats () = { scans = 0; delivered = 0; max_buffer = 0 }

(** Wire traffic of one replica of the anti-entropy gossip layer
    ({!Anti_entropy}), kept in its state like {!delivery_stats}. Counts are
    per broadcast payload (the simulator fans one payload out to [n-1]
    peers); bytes are wire bytes of the encoded items inside those
    payloads, so the E21 digest/repair traffic columns measure real
    encoded bytes. A crash-recovery replay sends nothing, so the replica
    stacks ({!Haec_sim.Stack}) carry these counters across it unchanged. *)
type gossip_stats = {
  digests : int;  (** digest items sent *)
  digest_bytes : int;
  repairs : int;  (** repair items sent (pushes and request answers) *)
  repair_bytes : int;
  requests : int;  (** repair-request items sent *)
  request_bytes : int;
  updates : int;  (** fresh update items sent *)
  update_bytes : int;
  dup_payloads : int;  (** received update/repair payloads already logged (duplicates) *)
  repair_applied : int;  (** previously missing payloads obtained through a repair *)
  memberships : int;  (** hello/goodbye membership items sent *)
  membership_bytes : int;
  digest_deltas : int;  (** wire-v2 delta digests sent in place of full digests *)
  digests_elided : int;  (** gossip rounds whose digest was suppressed as redundant (v2) *)
}

let fresh_gossip_stats () =
  {
    digests = 0;
    digest_bytes = 0;
    repairs = 0;
    repair_bytes = 0;
    requests = 0;
    request_bytes = 0;
    updates = 0;
    update_bytes = 0;
    dup_payloads = 0;
    repair_applied = 0;
    memberships = 0;
    membership_bytes = 0;
    digest_deltas = 0;
    digests_elided = 0;
  }

(** Field-wise sum: the traffic of several replicas. *)
let add_gossip_stats a b =
  {
    digests = a.digests + b.digests;
    digest_bytes = a.digest_bytes + b.digest_bytes;
    repairs = a.repairs + b.repairs;
    repair_bytes = a.repair_bytes + b.repair_bytes;
    requests = a.requests + b.requests;
    request_bytes = a.request_bytes + b.request_bytes;
    updates = a.updates + b.updates;
    update_bytes = a.update_bytes + b.update_bytes;
    dup_payloads = a.dup_payloads + b.dup_payloads;
    repair_applied = a.repair_applied + b.repair_applied;
    memberships = a.memberships + b.memberships;
    membership_bytes = a.membership_bytes + b.membership_bytes;
    digest_deltas = a.digest_deltas + b.digest_deltas;
    digests_elided = a.digests_elided + b.digests_elided;
  }

(** What one object shows an operation: the updates to [obj] visible to
    it, as a frontier plus extras. Dots are store-defined update
    identifiers, unique per object. A causal context is a frontier, so
    the MVR layers report one summary of [n] counts per object, however
    long the history; layers whose visible dots need not form prefixes
    list them as extras. *)
type summary = {
  obj : int;
  frontier : Vclock.t option;
      (** [Some v]: the dots [(r, 1..v[r])] of every origin [r] are
          visible *)
  extras : Dot.t list;
      (** further visible dots, above the frontier or with no frontier at
          all, in the store's order *)
}

type witness = {
  visible : summary list;
      (** the updates visible to this operation, as per-object summaries
          in the store's order; an object may have several *)
  self : Dot.t option;
      (** the dot this store assigned to the operation, if it is an update *)
}

let frontier ~obj v = { obj; frontier = Some v; extras = [] }

let dots ~obj extras = { obj; frontier = None; extras }

(** Every [(obj, dot)] a witness names, in its canonical order: summaries
    in list order, each one's frontier origin ascending then seq
    ascending, then its extras. The full enumeration the recorder
    ({!Haec_sim.Witness.fresh}) avoids; the tests' references read
    witnesses through it. *)
let visible_keys w =
  List.concat_map
    (fun s ->
      let prefix =
        match s.frontier with
        | None -> []
        | Some v ->
          List.concat
            (List.init (Vclock.size v) (fun r ->
                 List.init (Vclock.get v r) (fun k -> (s.obj, Dot.make ~replica:r ~seq:(k + 1)))))
      in
      prefix @ List.map (fun d -> (s.obj, d)) s.extras)
    w.visible

(** A replica's settings, fixed when it is created and kept in its state:
    every message a replica emits is a function of its own state and
    inputs, so two replicas configured differently can run side by side
    in one process. *)
type config = {
  wire : Haec_wire.Wire.Version.t;
      (** the frame version this replica emits; decoders accept both *)
  repair_batch : int;  (** anti-entropy: repair payloads answered per origin and digest *)
  max_backoff : int;  (** anti-entropy: cap on the push and re-request backoff, in rounds *)
  full_digest_every : int;
      (** anti-entropy, wire v2: an absolute digest every this many rounds *)
  checkpoint_every : int option;
      (** durable image: fold the WAL into the snapshot every [k] entries;
          [None] never auto-checkpoints *)
}

let default =
  {
    wire = Haec_wire.Wire.Version.V2;
    repair_batch = 32;
    max_backoff = 32;
    full_digest_every = 4;
    checkpoint_every = None;
  }

(** Raises [Invalid_argument] naming the first anti-entropy setting
    below 1: a zero batch or backoff deadlocks repair. *)
let validate c =
  let at_least_1 name v =
    if v < 1 then invalid_arg (Printf.sprintf "%s must be >= 1 (got %d)" name v)
  in
  at_least_1 "repair_batch" c.repair_batch;
  at_least_1 "max_backoff" c.max_backoff;
  at_least_1 "full_digest_every" c.full_digest_every

module type S = sig
  type state

  val name : string

  val invisible_reads : bool
  (** Definition 16: client reads do not change the replica state. *)

  val op_driven : bool
  (** Definition 15: messages become pending only due to client operations,
      never merely from receiving a message. *)

  val create : config -> n:int -> me:int -> state
  (** Initial state of replica [me] out of [n], emitting as [config] says. *)

  val init : n:int -> me:int -> state
  (** [create default]. *)

  val do_op : state -> obj:int -> Op.t -> state * Op.response * witness Lazy.t
  (** The witness is lazy: runs that do not check consistency never
      force it. For the MVR stores a forced witness costs one frontier
      per object. *)

  val has_pending : state -> bool
  (** Whether a send event is enabled ("has a message pending"). *)

  val send : state -> state * string
  (** The pending broadcast payload, deterministic in the state; afterwards
      no message is pending. Raises [Invalid_argument] if none pending. *)

  val receive : state -> sender:int -> string -> state
end

(** A store that survives crashes: alongside the volatile replica state it
    maintains a durable image — a wire-encoded checkpoint plus a
    write-ahead log of everything applied since — from which {!recover}
    rebuilds the replica after a crash wipes its volatile memory. See
    {!Durable.Make}, which derives this for any store. *)
module type DURABLE = sig
  include S

  val checkpoint : state -> state
  (** Fold the write-ahead log into the serialized snapshot. Idempotent. *)

  val recover : state -> state
  (** The state after a crash: volatile memory is discarded and rebuilt by
      decoding the snapshot and replaying it plus every post-checkpoint
      log entry through a fresh replica. Raises
      [Haec_wire.Wire.Decoder.Malformed] if the durable image is corrupt. *)

  val wal_length : state -> int
  (** Number of log entries applied since the last checkpoint. *)

  val snapshot_bytes : state -> int
  (** Size of the serialized checkpoint, in bytes. *)
end
