(** Crash durability as a store transformer.

    [Make (S)] wraps any store with a durable snapshot: a sealed image of
    the inner state, plus the store's replay log since that image,
    encoded through the wire layer — client updates, received payloads
    (already in [S]'s own wire encoding), sends, and for a replica stack
    ({!Make_controlled}) its control inputs: the gossip tick and the
    membership announcements. A crash discards the volatile inner state;
    {!Make.recover} unseals the image and replays the log written since
    it. Every input that changes the inner state is logged, and stores
    are pure deterministic state machines, so the rebuilt replica equals
    the one that crashed, down to its ask table, its round counter and
    the bytes it emits next, whenever the image was taken.

    Reads are logged only for stores whose reads change state
    (Definition 16 violators such as {!Delayed_store}); for everyone else
    the log stays update-only. Every [chunk_entries] logged inputs fold
    into one encoded chunk, live and simulated alike, so fewer than
    [chunk_entries] entries (and payload copies) are ever held decoded,
    and {!Make.recover} decodes one chunk at a time. Whenever the chunks
    folded since the image outweigh it, the image is retaken from the
    current inner state ([Marshal], sealed by {!Wire.Frame.seal} so a cut
    or flipped image is [Malformed]) and the chunks are dropped. The
    snapshot therefore stays under about two images plus one chunk, and
    a recovery replays at most one image's worth of log, however long
    the replica has run. When the image is taken depends on byte sizes,
    so it moves the snapshot's memory and a recovery's replay work, and
    nothing a recovered replica does. The image is read back only by the
    process that wrote it, never from the wire. *)

open Haec_wire
open Haec_model

(* big enough that a chunk's header and list cell are noise beside its
   bytes, small enough that the decoded tail stays a few payloads *)
let chunk_entries = 32

(** A store with control inputs: what changes its state besides client
    ops, receives and sends. The anti-entropy layer's are its gossip
    tick and its membership announcements. *)
module type CONTROLLED = sig
  include Store_intf.S

  val tick : state -> state
  val announce_join : epoch:int -> state -> state
  val announce_leave : epoch:int -> state -> state
end

module Make_controlled (S : CONTROLLED) : sig
  include Store_intf.DURABLE

  val inner : state -> S.state
  (** The wrapped volatile state, read-only — for observation hooks such as
      {!Anti_entropy.Make.settled} that inspect the protocol layer under
      the durable image. *)

  val tick : state -> state
  val announce_join : epoch:int -> state -> state
  val announce_leave : epoch:int -> state -> state
  (** [S]'s control inputs, logged like every other input, so a recovery
      replays them. *)
end = struct
  type entry =
    | Apply of { obj : int; op : Op.t }
    | Deliver of { sender : int; payload : string }
    | Sent
    | Tick
    | Join of int
    | Leave of int

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
    | Tick -> Wire.Encoder.uint enc 3
    | Join epoch ->
      Wire.Encoder.uint enc 4;
      Wire.Encoder.uint enc epoch
    | Leave epoch ->
      Wire.Encoder.uint enc 5;
      Wire.Encoder.uint enc epoch

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
    | 3 -> Tick
    | 4 -> Join (Wire.Decoder.uint dec)
    | 5 -> Leave (Wire.Decoder.uint dec)
    | tag -> raise (Wire.Decoder.Malformed (Printf.sprintf "bad log entry tag %d" tag))

  type state = {
    inner : S.state;  (** volatile: lost at a crash *)
    image : string;  (** durable: the inner state at the last image, marshalled and sealed *)
    chunks_rev : string list;
        (** durable: the replay log from the image up to the last fold,
            one encoded chunk per fold, newest first *)
    snap_len : int;  (** entries across [chunks_rev] *)
    chunk_bytes : int;  (** bytes across [chunks_rev] *)
    wal_rev : entry list;  (** durable: entries since the last fold, newest first *)
    wal_len : int;
  }

  let name = "durable(" ^ S.name ^ ")"

  let invisible_reads = S.invisible_reads

  let op_driven = S.op_driven

  (* a durable state whose image is [inner] and whose log is empty *)
  let imaged inner =
    {
      inner;
      image = Wire.Frame.seal (Marshal.to_string inner []);
      chunks_rev = [];
      snap_len = 0;
      chunk_bytes = 0;
      wal_rev = [];
      wal_len = 0;
    }

  let create cfg ~n ~me = imaged (S.create cfg ~n ~me)

  let init = create Store_intf.default

  let inner t = t.inner

  let checkpoint t =
    if t.wal_len = 0 then t
    else
      let chunk =
        Wire.encode (fun enc -> List.iter (encode_entry enc) (List.rev t.wal_rev))
      in
      let chunk_bytes = t.chunk_bytes + String.length chunk in
      (* the log since the image now outweighs it: image the state instead *)
      if chunk_bytes > String.length t.image then imaged t.inner
      else
        {
          t with
          chunks_rev = chunk :: t.chunks_rev;
          snap_len = t.snap_len + t.wal_len;
          chunk_bytes;
          wal_rev = [];
          wal_len = 0;
        }

  let log t e =
    let t = { t with wal_rev = e :: t.wal_rev; wal_len = t.wal_len + 1 } in
    if t.wal_len >= chunk_entries then checkpoint t else t

  let replay_entry inner = function
    | Apply { obj; op } ->
      let inner, _, _ = S.do_op inner ~obj op in
      inner
    | Deliver { sender; payload } -> S.receive inner ~sender payload
    | Sent -> if S.has_pending inner then fst (S.send inner) else inner
    | Tick -> S.tick inner
    | Join epoch -> S.announce_join ~epoch inner
    | Leave epoch -> S.announce_leave ~epoch inner

  (* only the entry being replayed is ever decoded; [recover] checks the
     entry count, so a lost or cut chunk is [Malformed] *)
  let replay_chunk (inner, entries) chunk =
    let dec = Wire.Decoder.of_string chunk in
    let inner = ref inner and entries = ref entries in
    while not (Wire.Decoder.at_end dec) do
      inner := replay_entry !inner (decode_entry dec);
      incr entries
    done;
    (!inner, !entries)

  let recover t =
    (* the CRC vouches for the bytes [imaged] marshalled *)
    let base : S.state = Marshal.from_string (Wire.Frame.unseal t.image) 0 in
    let inner, entries = List.fold_left replay_chunk (base, 0) (List.rev t.chunks_rev) in
    if entries <> t.snap_len then raise (Wire.Decoder.Malformed "durable log: entry count");
    let inner = List.fold_left replay_entry inner (List.rev t.wal_rev) in
    { t with inner }

  let wal_length t = t.wal_len

  let snapshot_bytes t = String.length t.image + t.chunk_bytes

  let do_op t ~obj op =
    let inner, rval, witness = S.do_op t.inner ~obj op in
    let t =
      (* reads of invisible-read stores cannot change state: keep the log
         update-only, and a read that left the inner state as it was
         leaves [t] as it was *)
      if S.invisible_reads && Op.is_read op then
        if inner == t.inner then t else { t with inner }
      else log { t with inner } (Apply { obj; op })
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

  let tick t = log { t with inner = S.tick t.inner } Tick

  let announce_join ~epoch t = log { t with inner = S.announce_join ~epoch t.inner } (Join epoch)

  let announce_leave ~epoch t =
    log { t with inner = S.announce_leave ~epoch t.inner } (Leave epoch)
end

module Make (S : Store_intf.S) : sig
  include Store_intf.DURABLE

  val inner : state -> S.state
  (** As {!Make_controlled.inner}. *)
end = Make_controlled (struct
  include S

  (* a plain store has no control inputs *)
  let tick t = t
  let announce_join ~epoch:_ t = t
  let announce_leave ~epoch:_ t = t
end)
