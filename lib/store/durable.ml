(** Crash durability as a store transformer.

    [Make (S)] wraps any store with a durable image: a serialized
    checkpoint (the store's replay log up to the last checkpoint, encoded
    through the wire layer) plus a write-ahead log of every state-changing
    input applied since — client updates, received payloads (already in
    [S]'s own wire encoding), and sends. A crash discards the volatile
    inner state; {!Make.recover} rebuilds it by decoding the checkpoint
    and replaying everything through a fresh replica built with the same
    {!Store_intf.config}. Because stores are pure deterministic state
    machines, the rebuilt replica is observationally identical to the one
    that crashed, down to the bytes it emits.

    Reads are logged only for stores whose reads change state
    (Definition 16 violators such as {!Delayed_store}); for everyone else
    the log stays update-only. The config's [checkpoint_every = Some k]
    folds the log into the checkpoint every [k] entries (the chaos
    harness uses {!auto_checkpoint_every}); [None] never does, so the
    live hot path never encodes a WAL entry. The cadence changes neither
    the snapshot bytes nor what [recover] rebuilds. The checkpoint is the
    whole replay log since [create], not a copy of live state: its size and the
    cost of {!Make.recover} grow with every logged input. A checkpoint
    appends one encoded chunk holding only the entries logged since the
    previous one, so checkpointing costs O(new entries), and the
    serialized snapshot — the entry count followed by the chunks — is
    byte-for-byte the encoding of the whole log as one list. *)

open Haec_wire
open Haec_model

let auto_checkpoint_every = 32

module Make (S : Store_intf.S) : sig
  include Store_intf.DURABLE

  val inner : state -> S.state
  (** The wrapped volatile state, read-only — for observation hooks such as
      {!Anti_entropy.Make.settled} that inspect the protocol layer under
      the durable image. *)

  val map_inner : (S.state -> S.state) -> state -> state
  (** Apply a function to the wrapped state {e without logging anything}.
      Only for inputs the inner protocol regenerates on its own (the
      anti-entropy gossip tick): a state change that influences the inner
      replica's logged-replay behavior must instead go through
      {!do_op}/{!receive}/{!send}, or recovery would not reproduce it. *)
end = struct
  type entry =
    | Apply of { obj : int; op : Op.t }
    | Deliver of { sender : int; payload : string }
    | Sent

  let encode_entry enc = function
    | Apply { obj; op } ->
      Wire.Encoder.uint enc 0;
      Wire.Encoder.uint enc obj;
      Op.encode enc op
    | Deliver { sender; payload } ->
      Wire.Encoder.uint enc 1;
      Wire.Encoder.uint enc sender;
      Wire.Encoder.string enc payload
    | Sent -> Wire.Encoder.uint enc 2

  let decode_entry dec =
    match Wire.Decoder.uint dec with
    | 0 ->
      let obj = Wire.Decoder.uint dec in
      let op = Op.decode dec in
      Apply { obj; op }
    | 1 ->
      let sender = Wire.Decoder.uint dec in
      let payload = Wire.Decoder.string dec in
      Deliver { sender; payload }
    | 2 -> Sent
    | tag -> raise (Wire.Decoder.Malformed (Printf.sprintf "bad log entry tag %d" tag))

  type state = {
    cfg : Store_intf.config;  (** also the inner replica's, and the cadence's *)
    n : int;
    me : int;
    inner : S.state;  (** volatile: lost at a crash *)
    chunks_rev : string list;
        (** durable: the replay log up to the last checkpoint, one encoded
            chunk per checkpoint, newest first *)
    snap_len : int;  (** entries across [chunks_rev] *)
    chunk_bytes : int;  (** bytes across [chunks_rev] *)
    wal_rev : entry list;  (** durable: entries since the checkpoint, newest first *)
    wal_len : int;
  }

  let name = "durable(" ^ S.name ^ ")"

  let invisible_reads = S.invisible_reads

  let op_driven = S.op_driven

  let create cfg ~n ~me =
    {
      cfg;
      n;
      me;
      inner = S.create cfg ~n ~me;
      chunks_rev = [];
      snap_len = 0;
      chunk_bytes = 0;
      wal_rev = [];
      wal_len = 0;
    }

  let init = create Store_intf.default

  let inner t = t.inner

  let map_inner f t = { t with inner = f t.inner }

  (* The serialized snapshot is the entry count followed by the chunks:
     exactly [Wire.Encoder.list] over every entry. *)
  let count_prefix t = Wire.encode (fun enc -> Wire.Encoder.uint enc t.snap_len)

  let snapshot_entries t =
    let snapshot = String.concat "" (count_prefix t :: List.rev t.chunks_rev) in
    Wire.decode snapshot (fun dec -> Wire.Decoder.list dec decode_entry)

  let checkpoint t =
    if t.wal_len = 0 then t
    else
      let chunk =
        Wire.encode (fun enc -> List.iter (encode_entry enc) (List.rev t.wal_rev))
      in
      {
        t with
        chunks_rev = chunk :: t.chunks_rev;
        snap_len = t.snap_len + t.wal_len;
        chunk_bytes = t.chunk_bytes + String.length chunk;
        wal_rev = [];
        wal_len = 0;
      }

  let log t e =
    let t = { t with wal_rev = e :: t.wal_rev; wal_len = t.wal_len + 1 } in
    match t.cfg.checkpoint_every with
    | Some every when t.wal_len >= every -> checkpoint t
    | Some _ | None -> t

  let replay_entry inner = function
    | Apply { obj; op } ->
      let inner, _, _ = S.do_op inner ~obj op in
      inner
    | Deliver { sender; payload } -> S.receive inner ~sender payload
    | Sent -> if S.has_pending inner then fst (S.send inner) else inner

  let recover t =
    let fresh = S.create t.cfg ~n:t.n ~me:t.me in
    let inner = List.fold_left replay_entry fresh (snapshot_entries t) in
    let inner = List.fold_left replay_entry inner (List.rev t.wal_rev) in
    { t with inner }

  let wal_length t = t.wal_len

  let snapshot_bytes t = String.length (count_prefix t) + t.chunk_bytes

  let do_op t ~obj op =
    let inner, rval, witness = S.do_op t.inner ~obj op in
    let t = { t with inner } in
    let t =
      (* reads of invisible-read stores cannot change state: keep the log
         update-only *)
      if S.invisible_reads && Op.is_read op then t else log t (Apply { obj; op })
    in
    (t, rval, witness)

  let has_pending t = S.has_pending t.inner

  let send t =
    let inner, payload = S.send t.inner in
    (log { t with inner } Sent, payload)

  let receive t ~sender payload =
    (* a Malformed payload raises here, before anything reaches the log:
       garbage is rejected at the door and never becomes durable *)
    let inner = S.receive t.inner ~sender payload in
    log { t with inner } (Deliver { sender; payload })
end
