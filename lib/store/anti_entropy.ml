(** Protocol-level anti-entropy as a store transformer.

    [Make (S)] wraps any store with a digest/repair protocol so that
    replicas close their own delivery gaps over the wire: nothing
    retransmits a lost message. Every broadcast of the inner store leaves
    as an update numbered [(origin, seq)], and every replica logs what it
    applies, so any replica can repair any origin's stream. A gossip
    {!Make.tick} queues a digest of [have], the contiguous prefix of each
    origin's stream applied. A replica that sees a digest ahead of [have]
    asks one peer that can fill the gap once the whole envelope is in,
    and that peer answers ungated: repair is pulled, since only the
    replica that lacks a payload knows it lacks it. The ask stays open
    until a repair addressed to the asker arrives for that origin or
    [have] passes the window asked for, so payloads that fill part of
    the window on the way do not prompt a second ask. Payloads are
    deduplicated against the log and applied in per-origin order, so the
    inner store sees an exactly-once, per-origin-FIFO stream. While ticks
    fire and the links alive both ways connect the replicas (Section 2),
    every update reaches every replica.

    Three modules split the protocol:
    - {!Envelope} owns the format: v1 and v2 framing, the item kinds and
      their fields, and the one decoder that [receive] and {!classify}
      both go through.
    - {!Repair_plan} owns the policy: the ask table with its backoff and
      round-trip estimates, the ask rule (which one peer to ask for a
      gap, and how much of it), when an ask closes, and the answer rule
      (how much of the log answers an ask). This module only lists the
      peers that could fill a gap, and reports progress and answers.
    - This module owns the state: the repair log and its trim, [have],
      each peer's [view] and [reported], the outbound queue, digest
      elision, membership and the counters.

    {b Control state.} Digests, requests and repairs are regenerated from
    state, so a crash that loses them costs nothing. A durable replica
    stack ([Haec_sim.Stack.Durable]) logs [tick] and the membership
    announcements beside the data inputs, so its recovery rebuilds this
    state exactly, counters included.

    {b Trimming.} A payload leaves the log once every member holds it.
    Per peer the replica keeps [reported], what the peer itself proved to
    hold (its digests and its own contiguous stream), and [view], which
    also counts what it was seen sending: enough to ask it, not to trim
    on. At the end of every [receive], origin [o]'s log is cut below the
    minimum of [have(o)] and of [reported(o)] over the peers that have
    not said goodbye, and [floor(o)] rises to it; [tick] never moves it.
    An id that never joined holds every floor at 0, so a joiner
    bootstraps from seq 0; a crash-leaver holds it down for good.

    {b Wire v2.} A digest that repeats the last one is elided (a full one
    is forced every [full_digest_every] rounds), otherwise only changed
    entries go out as a delta; one round's repairs toward one destination
    go out merged as runs. An update or repair proves what its sender
    holds, so a v2 receiver lifts its view of the sender and ingests
    repairs addressed to others; a v1 peer's frames get the v1 rules.

    {b Dynamic membership.} A joiner's [Hello] ({!Make.announce_join})
    counts as an ask for everything: every peer answers with the first
    batch of every origin it logs and a digest. A graceful leave announces
    [Goodbye], a crash-leave nothing, and {!Make.settled} demands
    agreement only up to what the surviving logs can reconstruct.
    Membership knowledge is an epoch high-water mark and a departed set,
    the minimal, eventually accurate knowledge eventual consistency needs
    of a failure detector (Dubois et al., PAPERS.md). *)

open Haec_vclock

let classify = Envelope.classify

module Make (S : Store_intf.S) : sig
  include Store_intf.S

  val tick : state -> state
  (** Advance the gossip round counter and queue a digest broadcast (the
      store then [has_pending]) — unless the digest would
      repeat the last one sent and no full digest is due, in which case
      the round stays quiet and the elision is counted. Called by the
      runtime's gossip driver; a durable stack logs it — see the module
      comment. *)

  val settled : state array -> bool
  (** Whether the given (live member) states have converged: nobody has
      anything queued or pending, and every state has applied, for every
      origin [o], exactly the longest contiguous prefix of [o]'s stream
      that the union of the given logs can still reconstruct (its
      {e reach}). On a static replica set this coincides with "all [have]
      vectors equal and no orphans" — each origin's own log holds its full
      stream — but under crash-leaves the reach may end at a seq that died
      with the leaver, and later orphaned payloads are then tolerated
      forever. An observation-only hook for the simulator's quiescence
      detection; the replicas themselves never see each other's state. *)

  val inner : state -> S.state

  val rounds : state -> int

  val have : state -> Vclock.t

  val orphans : state -> int
  (** Logged payloads beyond the contiguous applied prefix (received
      out-of-order, waiting for a gap to fill). *)

  val floor : state -> Vclock.t
  (** Per origin, the trimmed prefix of its stream: every member that has
      not said goodbye has proven it holds it, so it is no longer logged.
      Never above [have]. *)

  val log_entries : state -> int
  (** Payloads in the repair log: the window [floor, have) of every
      origin, plus orphans. *)

  val log_bytes : state -> int
  (** Payload bytes in the repair log. *)

  val queue_depth : state -> int
  (** Control items (digest markers, requests, repairs, membership
      announcements) queued for the next broadcast — the transformer's
      outbound backlog. A healthy replica drains to 0 at every [send];
      sustained growth between sends means the transport is not keeping
      up with repair traffic (backpressure). *)

  val pending_bytes : state -> int
  (** Repair payload bytes sitting in the outbound queue (the dominant
      term of the backlog; control items are O(1) bytes each). Like
      {!queue_depth} this is a pre-[send] backpressure signal, not a
      wire-bytes measure — the encoder may still dedup and
      run-compress these payloads at send time. *)

  val epoch : state -> int
  (** Highest membership epoch announced by or to this replica; 0 until
      any [Hello]/[Goodbye] is seen. *)

  val knows_departed : state -> peer:int -> bool
  (** Whether this replica heard a [Goodbye] from the peer. *)

  val announce_join : epoch:int -> state -> state
  (** Queue a [Hello] (with a digest of the — empty — local state) for the
      next broadcast. Applied by the runner to a replica entering the set;
      a control input, like {!tick}. *)

  val announce_leave : epoch:int -> state -> state
  (** Queue a [Goodbye] for the next broadcast: a graceful leave. A
      crash-leave announces nothing. *)

  val counters : state -> Store_intf.gossip_stats
  (** This replica's traffic counters: what its [send]s put on the wire
      and what its [receive]s deduplicated or repaired. *)
end = struct
  module Int_map = Map.Make (Int)
  module Int_set = Set.Make (Int)

  type peer = {
    view : Vclock.t;
        (** pointwise max of every digest heard from this peer and of the
            payloads it was seen sending *)
    reported : Vclock.t;
        (** what the peer itself has proven to hold — its digests and
            its own contiguous update stream; bounds the stable prefix *)
    rtt : Repair_plan.rtt option;  (** [None] until an ask to this peer is timed *)
  }

  (* control items queued for the next broadcast; a digest is a marker,
     not a snapshot — the [have] vector is read at send time so it always
     reflects the updates travelling in the same payload. The marker
     resolves at send time to a full digest, a delta against the last
     digest sent, or nothing; [force_full] (membership traffic) pins it
     to a full digest. Repairs are merged per destination at send time *)
  type out_item =
    | Out_digest of { force_full : bool }
    | Out_request of { dst : int; origin : int; from_seq : int; upto : int }
    | Out_repair of { dst : int; items : (int * int * string) list }
    | Out_hello of int  (** membership epoch being announced *)
    | Out_goodbye of int

  let is_digest = function Out_digest _ -> true | _ -> false

  let is_repair = function Out_repair _ -> true | _ -> false

  (* {!Durable} images this record with [Marshal] and re-images when the
     log since outweighs the image, so its layout decides the re-image
     points; those move only the snapshot's memory, since a recovery
     replays every input since the image.

     States are values: a caller may keep an old state and use it after
     deriving a new one. [receive] and [send] therefore make one private
     copy on entry ({!own}) and set the mutable fields of that copy in
     place, item by item, instead of copying all eighteen fields per
     item; every other function copies with [{ t with ... }]. A
     [Malformed] raised part-way drops the private copy, so the caller's
     state is untouched. *)
  type state = {
    cfg : Store_intf.config;  (** the anti-entropy tunables *)
    n : int;
    me : int;
    mutable inner : S.state;
    mutable log : string Int_map.t Int_map.t;  (** origin -> seq -> payload, seq >= floor *)
    mutable logged : int;  (** total payloads in [log] *)
    mutable log_bytes : int;  (** total payload bytes in [log] *)
    mutable have : Vclock.t;  (** contiguous applied prefix per origin *)
    mutable floor : Vclock.t;  (** per origin, the trimmed prefix every member holds *)
    mutable peers : peer Int_map.t;
    mutable plan : Repair_plan.t;  (** the asks made, per origin and peer *)
    rounds : int;
    mutable outq_rev : out_item list;
    mutable epoch : int;  (** highest membership epoch seen *)
    mutable away : Int_set.t;  (** peers that said goodbye *)
    mutable last_sent_digest : Vclock.t option;  (** [have] as of the last digest sent *)
    mutable last_full_round : int;  (** round of the last full digest sent *)
    mutable counters : Store_intf.gossip_stats;
  }

  (* the private copy [receive] and [send] mutate *)
  let own t = { t with inner = t.inner }

  let name = "anti-entropy(" ^ S.name ^ ")"

  let invisible_reads = S.invisible_reads

  (* receiving a digest can enqueue a request, and a request a repair:
     messages become pending without any client operation, so the
     transformer is not op-driven (Definition 15) even when the inner
     store is *)
  let op_driven = false

  let create cfg ~n ~me =
    Store_intf.validate cfg;
    let peers = ref Int_map.empty in
    for p = 0 to n - 1 do
      if p <> me then
        peers :=
          Int_map.add p { view = Vclock.zero ~n; reported = Vclock.zero ~n; rtt = None } !peers
    done;
    {
      cfg;
      n;
      me;
      inner = S.create cfg ~n ~me;
      log = Int_map.empty;
      logged = 0;
      log_bytes = 0;
      have = Vclock.zero ~n;
      floor = Vclock.zero ~n;
      peers = !peers;
      plan = Repair_plan.empty;
      rounds = 0;
      outq_rev = [];
      epoch = 0;
      away = Int_set.empty;
      last_sent_digest = None;
      last_full_round = 0;
      counters = Store_intf.fresh_gossip_stats ();
    }

  let init = create Store_intf.default

  let inner t = t.inner

  let rounds t = t.rounds

  let have t = t.have

  let floor t = t.floor

  let log_entries t = t.logged

  let log_bytes t = t.log_bytes

  let counters t = t.counters

  (* the log holds exactly [floor, have) of every origin, plus orphans *)
  let orphans t = t.logged - (Vclock.sum t.have - Vclock.sum t.floor)

  let queue_depth t = List.length t.outq_rev

  let pending_bytes t =
    List.fold_left
      (fun acc item ->
        match item with
        | Out_repair { items; _ } ->
          List.fold_left (fun a (_, _, p) -> a + String.length p) acc items
        | Out_digest _ | Out_request _ | Out_hello _ | Out_goodbye _ -> acc)
      0 t.outq_rev

  let epoch t = t.epoch

  let knows_departed t ~peer = Int_set.mem peer t.away

  let announce_join ~epoch t =
    {
      t with
      epoch = max epoch t.epoch;
      outq_rev =
        Out_digest { force_full = true }
        :: Out_hello epoch
        :: List.filter (fun o -> not (is_digest o)) t.outq_rev;
    }

  let announce_leave ~epoch t =
    { t with epoch = max epoch t.epoch; outq_rev = Out_goodbye epoch :: t.outq_rev }

  let log_find t ~origin ~seq =
    match Int_map.find_opt origin t.log with
    | None -> None
    | Some m -> Int_map.find_opt seq m

  (* the functions from here to [receive] set fields of the private
     copy {!own} made *)

  (* [Int_map.find_opt] would allocate its [Some] on every hit *)
  let find_or k m ~default = match Int_map.find k m with v -> v | exception Not_found -> default

  let log_add t ~origin ~seq payload =
    let m = find_or origin t.log ~default:Int_map.empty in
    t.log <- Int_map.add origin (Int_map.add seq payload m) t.log;
    t.logged <- t.logged + 1;
    t.log_bytes <- t.log_bytes + String.length payload

  (* apply every payload of [origin] that is now contiguous with the
     applied prefix, in sequence order; then close the asks for [origin]
     whose window is filled *)
  let rec cascade t ~origin =
    match Int_map.find (Vclock.get t.have origin) (Int_map.find origin t.log) with
    | exception Not_found ->
      t.plan <- Repair_plan.progress t.plan ~origin ~have:(Vclock.get t.have origin)
    | payload ->
      t.inner <- S.receive t.inner ~sender:origin payload;
      t.have <- Vclock.tick t.have origin;
      cascade t ~origin

  (* what one envelope's payloads did, folded into the counters once at
     the end of [receive] rather than copying the state per payload.
     Duplicates are split by how they came: an eager update, a repair
     addressed to us, or a repair addressed to a third party *)
  type tally = {
    mutable dup_updates : int;
    mutable dup_repairs : int;
    mutable dup_overheard : int;
    mutable repaired : int;
    mutable digest : bool;  (** the envelope carried a digest *)
  }

  let ingest tally t ~origin ~seq ~payload ~via =
    if seq < Vclock.get t.have origin || log_find t ~origin ~seq <> None then begin
      (match via with
      | `Update -> tally.dup_updates <- tally.dup_updates + 1
      | `Repair -> tally.dup_repairs <- tally.dup_repairs + 1
      | `Overheard -> tally.dup_overheard <- tally.dup_overheard + 1)
    end
    else begin
      if via <> `Update then tally.repaired <- tally.repaired + 1;
      log_add t ~origin ~seq payload;
      cascade t ~origin
    end

  (* [v] credited with [from_seq, upto) of [origin]'s stream, which the
     peer was seen to hold. [from_seq] must attach to the prefix [v]
     already credits, else the evidence is non-contiguous and proves
     nothing about the prefix. *)
  let lift v ~origin ~from_seq ~upto =
    let cur = Vclock.get v origin in
    if from_seq <= cur && upto > cur then Vclock.raise_to v origin upto else v

  let set_peer t ~peer (p : peer) ~view ~reported =
    if view != p.view || reported != p.reported then
      t.peers <- Int_map.add peer { p with view; reported } t.peers

  (* the sender of an update or repair item demonstrably holds the
     payloads it sent: lift our view of its contiguous prefix without
     waiting for its next digest, so a request can go to it one round
     earlier *)
  let note_peer_has t ~peer ~origin ~from_seq ~upto =
    match Int_map.find_opt peer t.peers with
    | None -> ()
    | Some p ->
      set_peer t ~peer p ~view:(lift p.view ~origin ~from_seq ~upto) ~reported:p.reported

  (* the consecutively logged payloads of [origin]'s stream that answer
     an ask for [from_seq, upto) ({!Repair_plan.answer}) *)
  let batch_from ?(upto = max_int) t ~origin ~from_seq =
    let start, stop =
      Repair_plan.answer t.cfg ~floor:(Vclock.get t.floor origin) ~from_seq ~upto
    in
    let rec go seq acc =
      if seq >= stop then List.rev acc
      else
        match log_find t ~origin ~seq with
        | None -> List.rev acc
        | Some payload -> go (seq + 1) ((origin, seq, payload) :: acc)
    in
    go start []

  let malformed fmt = Printf.ksprintf (fun s -> raise (Haec_wire.Wire.Decoder.Malformed s)) fmt

  let check_replica t what r =
    if r < 0 || r >= t.n then malformed "anti-entropy %s: replica %d" what r

  let peer_exn t ~sender what =
    match Int_map.find_opt sender t.peers with
    | Some p -> p
    | None -> malformed "anti-entropy %s: bad sender" what

  (* a digest shows what the peer holds; the asks it prompts wait for
     the end of the envelope ({!ask}), so a repair riding behind the
     digest is applied before anything is asked for *)
  let on_digest tally t ~sender ~view ~reported =
    if Vclock.size view <> t.n then malformed "anti-entropy digest: wrong vector size";
    let p = peer_exn t ~sender "digest" in
    tally.digest <- true;
    set_peer t ~peer:sender p ~view:(Vclock.merge p.view view)
      ~reported:(Vclock.merge p.reported reported)

  (* for every gap the digest from [sender] shows, hand {!Repair_plan.ask}
     the peers that can fill it: those that have not said goodbye and
     whose view is past [have]. It picks at most one to ask *)
  let ask t ~sender =
    match Int_map.find_opt sender t.peers with
    | None -> ()
    | Some shown ->
      for origin = 0 to t.n - 1 do
        let have = Vclock.get t.have origin in
        if Vclock.get shown.view origin > have then begin
          let candidates =
            Int_map.fold
              (fun peer (p : peer) acc ->
                if Vclock.get p.view origin > have && not (Int_set.mem peer t.away) then
                  { Repair_plan.peer; rtt = p.rtt } :: acc
                else acc)
              t.peers []
          in
          let next_held =
            Option.bind (Int_map.find_opt origin t.log) (fun m ->
                Option.map fst (Int_map.find_first_opt (fun s -> s > have) m))
          in
          match
            Repair_plan.ask t.plan t.cfg ~round:t.rounds ~sender ~candidates ~origin ~have
              ~next_held
          with
          | None -> ()
          | Some (dst, upto, plan) ->
            t.plan <- plan;
            t.outq_rev <- Out_request { dst; origin; from_seq = have; upto } :: t.outq_rev
        end
      done

  (* a repair from [peer] answering our ask for [origin]'s gap may time
     its round trip ({!Repair_plan.answered}) *)
  let time_answer t ~peer ~origin =
    match Int_map.find_opt peer t.peers with
    | None -> ()
    | Some p -> (
      match Repair_plan.answered t.plan ~rtt:p.rtt ~round:t.rounds ~peer ~origin with
      | None -> ()
      | Some rtt -> t.peers <- Int_map.add peer { p with rtt = Some rtt } t.peers)

  (* [v2] says the enclosing envelope was a v2 frame: the broadcast-
     exploiting rules (view inference, opportunistic repair ingestion)
     apply only then, so a v1 peer's frames are read under the rules
     that peer assumed *)
  let receive_item tally t ~sender ~v2 (item : Envelope.item) =
    match item with
    | Update { seq; payload } ->
      (match Int_map.find sender t.peers with
      | exception Not_found -> ()
      | p ->
        (* a sender's own stream is contiguous by construction; sending
           seq proves it holds it *)
        set_peer t ~peer:sender p
          ~view:(if v2 then lift p.view ~origin:sender ~from_seq:0 ~upto:(seq + 1) else p.view)
          ~reported:(lift p.reported ~origin:sender ~from_seq:seq ~upto:(seq + 1)));
      ingest tally t ~origin:sender ~seq ~payload ~via:`Update
    | Digest clock -> on_digest tally t ~sender ~view:clock ~reported:clock
    | Digest_delta entries ->
      (* rebase the changed entries on our view of the sender and on what
         it has proven — entrywise max keeps this loss- and reorder-safe,
         since entries only ever grow *)
      let p = peer_exn t ~sender "digest-delta" in
      let view, reported =
        List.fold_left
          (fun (view, reported) (i, v) ->
            if i >= t.n then malformed "anti-entropy digest-delta: index out of range";
            (Vclock.raise_to view i v, Vclock.raise_to reported i v))
          (p.view, p.reported) entries
      in
      on_digest tally t ~sender ~view ~reported
    | Request { dst; origin; from_seq; count } ->
      check_replica t "repair-request" dst;
      check_replica t "repair-request" origin;
      (* a broadcast transport delivers asks addressed to others too *)
      if dst = t.me then begin
        (* an explicit ask is answered ungated: the requester paces itself;
           a v1 ask is unbounded *)
        let upto = match count with Some c -> from_seq + c | None -> max_int in
        match batch_from t ~origin ~from_seq ~upto with
        | [] -> ()
        | items -> t.outq_rev <- Out_repair { dst = sender; items } :: t.outq_rev
      end
    | Repair { dst; items } ->
      check_replica t "repair" dst;
      List.iter (fun (origin, _, _) -> check_replica t "repair" origin) items;
      if v2 then
        List.iter
          (fun (origin, seq, _) ->
            note_peer_has t ~peer:sender ~origin ~from_seq:seq ~upto:(seq + 1))
          items;
      if dst = t.me then
        List.iter
          (fun (origin, seq, payload) ->
            ingest tally t ~origin ~seq ~payload ~via:`Repair;
            t.plan <- Repair_plan.close t.plan ~origin)
          items
    | Repair_runs { dst; runs } ->
      (* the bytes reached every replica, so even when [dst] is a third
         party we ingest what we ourselves lack (the log dedups), and we
         credit the sender with holding the runs. The destination is
         credited with nothing: only its own digests say what it got *)
      check_replica t "repair-runs" dst;
      let via = if dst = t.me then `Repair else `Overheard in
      List.iter
        (fun (origin, from_seq, payloads) ->
          check_replica t "repair-runs" origin;
          note_peer_has t ~peer:sender ~origin ~from_seq
            ~upto:(from_seq + List.length payloads);
          if dst = t.me then time_answer t ~peer:sender ~origin;
          List.iteri
            (fun i payload -> ingest tally t ~origin ~seq:(from_seq + i) ~payload ~via)
            payloads;
          (* the answer is in: what it left missing is asked for anew *)
          if dst = t.me then t.plan <- Repair_plan.close t.plan ~origin)
        runs
    | Hello epoch ->
      (* a joiner enters empty, so its hello asks for everything: answer
         with the first batch of every origin's stream we log, and with a
         digest from which it requests the rest *)
      if not (List.exists is_digest t.outq_rev) then
        t.outq_rev <- Out_digest { force_full = true } :: t.outq_rev;
      (let first origin = batch_from t ~origin ~from_seq:0 in
       match List.concat_map first (List.init t.n Fun.id) with
       | [] -> ()
       | items -> t.outq_rev <- Out_repair { dst = sender; items } :: t.outq_rev);
      t.epoch <- max epoch t.epoch;
      t.away <- Int_set.remove sender t.away
    | Goodbye epoch ->
      t.epoch <- max epoch t.epoch;
      t.away <- Int_set.add sender t.away

  (* stable(o): the prefix of origin [o]'s stream that we and every peer
     that has not said goodbye have proven to hold. Nobody can ask for it
     again, so it leaves the log. Only received inputs move it, never
     [tick]. *)
  let stable t o =
    let s = ref (Vclock.get t.have o) in
    for q = 0 to t.n - 1 do
      if not (Int_set.mem q t.away) then
        match Int_map.find q t.peers with
        | p -> if Vclock.get p.reported o < !s then s := Vclock.get p.reported o
        | exception Not_found -> ()
    done;
    !s

  let trim t =
    for o = 0 to t.n - 1 do
      let s = stable t o in
      if s > Vclock.get t.floor o then begin
        let m = find_or o t.log ~default:Int_map.empty in
        let below, at, above = Int_map.split s m in
        let kept = match at with Some p -> Int_map.add s p above | None -> above in
        t.log <- (if Int_map.is_empty kept then Int_map.remove o t.log else Int_map.add o kept t.log);
        t.logged <- t.logged - Int_map.cardinal below;
        t.log_bytes <- Int_map.fold (fun _ p b -> b - String.length p) below t.log_bytes;
        t.floor <- Vclock.raise_to t.floor o s
      end
    done

  let receive t ~sender payload =
    check_replica t "sender" sender;
    let tally =
      { dup_updates = 0; dup_repairs = 0; dup_overheard = 0; repaired = 0; digest = false }
    in
    let t0 = t in
    let t = own t in
    Envelope.fold payload ~init:() (fun ~v2 () item -> receive_item tally t ~sender ~v2 item);
    (* ask only once the whole envelope is in: a repair that rode behind
       the digest has already closed part of the gap *)
    if tally.digest then ask t ~sender;
    let dups = tally.dup_updates + tally.dup_repairs + tally.dup_overheard in
    if dups > 0 || tally.repaired > 0 then begin
      let c = t.counters in
      t.counters <-
        {
          c with
          dup_payloads = c.dup_payloads + dups;
          dup_updates = c.dup_updates + tally.dup_updates;
          dup_repairs = c.dup_repairs + tally.dup_repairs;
          dup_overheard = c.dup_overheard + tally.dup_overheard;
          repair_applied = c.repair_applied + tally.repaired;
        }
    end;
    (* the stable prefix moves only with [have], a peer's [reported] or
       a goodbye *)
    if t.have != t0.have || t.peers != t0.peers || t.away != t0.away then trim t;
    t

  (* a read that leaves the inner store as it was leaves [t] as it was *)
  let do_op t ~obj op =
    let inner, rval, witness = S.do_op t.inner ~obj op in
    ((if inner == t.inner then t else { t with inner }), rval, witness)

  let has_pending t = t.outq_rev <> [] || S.has_pending t.inner

  let tick t =
    let t = { t with rounds = t.rounds + 1 } in
    if List.exists is_digest t.outq_rev then t
    else if
      (* elision: nothing changed since the last digest went out and no
         periodic full digest is due — stay quiet this round *)
      t.rounds - t.last_full_round < t.cfg.full_digest_every
      && (match t.last_sent_digest with
         | Some d -> Vclock.equal d t.have
         | None -> false)
      && not (S.has_pending t.inner)
    then { t with counters = { t.counters with digests_elided = t.counters.digests_elided + 1 } }
    else { t with outq_rev = Out_digest { force_full = false } :: t.outq_rev }

  (* group per-destination repair payloads — already deduplicated and
     sorted by (origin, seq) — into runs of consecutive seqs per origin *)
  let to_runs items =
    let rec go acc cur = function
      | [] -> List.rev (match cur with None -> acc | Some r -> r :: acc)
      | (origin, seq, payload) :: rest -> (
        match cur with
        | Some (o, from_seq, ps_rev, next) when o = origin && seq = next ->
          go acc (Some (o, from_seq, payload :: ps_rev, next + 1)) rest
        | Some r -> go (r :: acc) (Some (origin, seq, [ payload ], seq + 1)) rest
        | None -> go acc (Some (origin, seq, [ payload ], seq + 1)) rest)
    in
    List.map
      (fun (origin, from_seq, ps_rev, _) -> (origin, from_seq, List.rev ps_rev))
      (go [] None items)

  (* Merge the round's repairs per destination and deduplicate: several
     digests (or requests) in one round routinely ask for overlapping
     prefixes, and one copy serves them all. Every receiver
     opportunistically ingests any repair in the broadcast, whoever it is
     addressed to, so a payload already present for one destination need
     not repeat for another. *)
  let merged_repairs outs =
    if not (List.exists is_repair outs) then []
    else
      let merged_repair dst =
        List.concat_map
          (function Out_repair { dst = d; items } when d = dst -> items | _ -> [])
          outs
        |> List.sort_uniq (fun (o1, s1, _) (o2, s2, _) -> compare (o1, s1) (o2, s2))
      in
      let seen = Hashtbl.create 64 in
      List.filter_map
        (fun dst ->
          let items =
            List.filter
              (fun (o, s, _) ->
                if Hashtbl.mem seen (o, s) then false
                else begin
                  Hashtbl.add seen (o, s) ();
                  true
                end)
              (merged_repair dst)
          in
          if items = [] then None else Some (Envelope.Repair_runs { dst; runs = to_runs items }))
        (List.filter_map (function Out_repair { dst; _ } -> Some dst | _ -> None) outs
        |> List.sort_uniq compare)

  (* the queued requests and membership announcements, in order *)
  let rec queued_items = function
    | [] -> []
    | Out_request { dst; origin; from_seq; upto } :: rest ->
      Envelope.Request { dst; origin; from_seq; count = Some (upto - from_seq) } :: queued_items rest
    | Out_hello epoch :: rest -> Envelope.Hello epoch :: queued_items rest
    | Out_goodbye epoch :: rest -> Envelope.Goodbye epoch :: queued_items rest
    | (Out_digest _ | Out_repair _) :: rest -> queued_items rest

  (* what one sent item adds to the counters *)
  let count_sent (c : Store_intf.gossip_stats) (item : Envelope.item) bytes =
    match item with
    | Update _ -> { c with updates = c.updates + 1; update_bytes = c.update_bytes + bytes }
    | Digest _ -> { c with digests = c.digests + 1; digest_bytes = c.digest_bytes + bytes }
    | Digest_delta _ ->
      { c with digest_deltas = c.digest_deltas + 1; digest_bytes = c.digest_bytes + bytes }
    | Request _ -> { c with requests = c.requests + 1; request_bytes = c.request_bytes + bytes }
    | Repair _ | Repair_runs _ ->
      { c with repairs = c.repairs + 1; repair_bytes = c.repair_bytes + bytes }
    | Hello _ | Goodbye _ ->
      { c with memberships = c.memberships + 1; membership_bytes = c.membership_bytes + bytes }

  let send t =
    if not (has_pending t) then invalid_arg "Anti_entropy.send: nothing pending";
    (* a fresh inner broadcast takes the next slot of my stream: my own
       stream is contiguous by construction, so the next sequence number
       is exactly have(me) *)
    let t = own t in
    let update =
      if S.has_pending t.inner then begin
        let inner, payload = S.send t.inner in
        let seq = Vclock.get t.have t.me in
        t.inner <- inner;
        log_add t ~origin:t.me ~seq payload;
        t.have <- Vclock.tick t.have t.me;
        [ Envelope.Update { seq; payload } ]
      end
      else []
    in
    let outs = List.rev t.outq_rev in
    let digest_marker = List.exists is_digest outs in
    let force_full =
      List.exists (function Out_digest { force_full } -> force_full | _ -> false) outs
    in
    let repairs = merged_repairs outs in
    (* resolve the digest marker against [have] as it is now — after the
       update above ticked it *)
    let digest_mode =
      if not digest_marker then `Absent
      else if
        force_full
        || t.last_sent_digest = None
        || t.rounds - t.last_full_round >= t.cfg.full_digest_every
      then `Full
      else
        match t.last_sent_digest with
        | Some d when Vclock.equal d t.have -> `Elide
        | Some d -> `Delta d
        | None -> `Full
    in
    let digest =
      match digest_mode with
      | `Absent | `Elide -> []
      | `Full -> [ Envelope.Digest t.have ]
      | `Delta prev ->
        let changed i =
          let v = Vclock.get t.have i in
          if v <> Vclock.get prev i then Some (i, v) else None
        in
        [ Envelope.Digest_delta (List.filter_map changed (List.init t.n Fun.id)) ]
    in
    let queued = queued_items outs in
    let c =
      ref
        (match digest_mode with
        | `Elide -> { t.counters with digests_elided = t.counters.digests_elided + 1 }
        | `Absent | `Full | `Delta _ -> t.counters)
    in
    let item_bytes = ref 0 in
    let payload =
      Envelope.encode
        ~sized:(fun item bytes ->
          item_bytes := !item_bytes + bytes;
          c := count_sent !c item bytes)
        { v2 = true; items = update @ digest @ queued @ repairs }
    in
    (* what no item counted is the envelope's header *)
    t.counters <- { !c with framing_bytes = !c.framing_bytes + String.length payload - !item_bytes };
    t.outq_rev <- [];
    (match digest_mode with
    | `Full ->
      t.last_sent_digest <- Some t.have;
      t.last_full_round <- t.rounds
    | `Delta _ -> t.last_sent_digest <- Some t.have
    | `Absent | `Elide -> ());
    (t, payload)

  (* reach(o): the longest contiguous prefix of origin [o]'s stream that
     the union of the given logs can reconstruct. On a static set this is
     just [o]'s own send count ([o]'s log of its own stream is contiguous
     by construction), but payloads that died with a crash-leaver cap the
     reach of its stream at the first permanently lost seq — later seqs
     some survivor may hold stay orphaned forever and must not block
     quiescence. *)
  let settled states =
    Array.length states = 0
    || begin
         let n = states.(0).n in
         (* every log still holds its stream from its own floor up, so the
            union is contiguous at least to the highest floor *)
         let reach o =
           let rec go seq =
             if Array.exists (fun t -> log_find t ~origin:o ~seq <> None) states then
               go (seq + 1)
             else seq
           in
           go (Array.fold_left (fun a t -> max a (Vclock.get t.floor o)) 0 states)
         in
         let target = Array.init n reach in
         Array.for_all
           (fun t ->
             t.outq_rev = []
             && (not (S.has_pending t.inner))
             && begin
                  let ok = ref true in
                  for o = 0 to n - 1 do
                    if Vclock.get t.have o <> target.(o) then ok := false
                  done;
                  !ok
                end)
           states
       end
end
