(** Protocol-level anti-entropy as a store transformer.

    [Make (S)] wraps any store with a digest/repair protocol so that
    replicas detect and close their own delivery gaps over the wire —
    neither the simulator nor the live runtime retransmits a lost
    message:

    - every broadcast of the inner store leaves as a sequence-numbered
      {e update} item ([(origin, seq)] with [origin] the sender and [seq]
      its send counter), and every replica logs the payloads it applies —
      its own and every peer's — so any replica can repair any origin's
      stream for anybody else, until every member holds them (see
      {e Trimming} below);
    - a gossip {e tick} (driven by the simulator clock) queues a {e digest}
      broadcast: the replica's version vector [have], whose component [o]
      counts the contiguous prefix of origin [o]'s stream it has applied;
    - a received digest is compared against [have], once the whole
      envelope it came in has been applied: where the peer is ahead, the
      replica sends it a targeted {e repair request} for the gap — from
      [have(o)] up to the first payload of [o] it already holds past the
      gap, or one batch when it holds none — which the peer answers
      ungated with a batched {e repair} of at most [repair_batch]
      payloads — an explicit ask is never throttled, the asker paces
      itself. Where the peer is behind, nothing is sent: the
      replica that lacks a payload is the only one that knows it lacks
      it (a digest races the payloads it reports, which may still be in
      flight), so repair is {e pulled};
    - repairs and direct updates alike are deduplicated against the log
      and applied to the inner store in per-origin sequence order, so the
      inner replica sees an exactly-once, per-origin-FIFO stream no matter
      how the network duplicated, reordered, or dropped.

    A request backs off per (origin, peer), exponentially in gossip
    rounds and capped at [max_backoff], never infinitely; progress on an
    origin resets its backoff toward every peer. The first wait toward a
    peer is its measured round trip: an answer to a first ask (Karn's
    rule) is timed in rounds and smoothed as RFC 6298 does, and the wait
    is [srtt + 2 rttvar], between 1 and [max_backoff]; later waits
    double. So repair stays live: as
    long as ticks keep firing and the network is sufficiently connected
    in the sense of the paper's Section 2 (the undirected graph of pairs
    with both directions alive is connected), every update reaches every
    replica even when some links are permanently dead. A payload travels
    pull by pull along links alive both ways — the holder's digest
    reaches the asker, the request reaches the holder, the repair comes
    back — and a request lost on a link dead one way never holds back the
    request to the next peer whose digest shows the same gap.

    Digests, repairs, and requests are control traffic: they carry no
    sequence numbers of their own and are regenerated from state, so a
    crash that loses the queued control items costs nothing — the next
    tick re-announces, and the durable replay of the logged update stream
    ({!Durable.Make}) reconstructs [have] and the log exactly. The
    backoff table and the round-trip estimates are control state too:
    the replay rebuilds them from what it replays, not as they were.

    {b Counters.} Each replica counts its own traffic in its state
    ({!Make.counters}). A durable replay rebuilds the state from [init],
    so it would recount logged sends that never reach the wire again and
    miss the digests of unlogged ticks; the replica stacks
    ([Haec_sim.Stack]) therefore carry the crashed replica's counters
    across recovery ({!Make.set_counters}).

    {b Trimming.} A payload leaves the log once every member holds it.
    Per peer the replica keeps [reported]: what that peer has itself
    proven to hold — its full digests, its digest deltas rebased on
    [reported], and its own update stream while contiguous. It is not
    [view], which digest deltas rebase on and requests read: [view] also
    takes the payloads the peer was seen sending as evidence of what it
    holds, good enough to ask it but not what it reported applying. At
    the end of every [receive], origin [o]'s log is cut below
    [stable(o)], the minimum of [have(o)] and of [reported(o)] over the
    peers that have not said goodbye, and [floor(o)] rises to it. Only
    received inputs move the floor, never [tick], so the durable replay
    rebuilds the same trimmed log. An id that has never joined reports
    nothing and so holds every floor at 0 until it does, which is what
    lets a joiner bootstrap from seq 0 (ids are never reused). A
    crash-leaver, which never says goodbye, holds the floor down for
    good. Below the floor nobody can be missing anything, so a stale or
    duplicated request is answered from the floor, and {!Make.settled}
    scans each origin from the highest floor among the given states.

    {b Wire v2.} Every replica emits the v2 encoding (DESIGN.md §4h),
    tuned by its configuration ({!Store_intf.config}, fixed at [create]
    and kept in the state: [repair_batch], [max_backoff] and
    [full_digest_every]). The envelope leads with a [0x00, 2] version
    marker (a v1 envelope starts with its item count, which is at least
    1, so the two framings are self-describing); full digests are
    compressed vector clocks; a digest whose [have] already matches the
    last one sent is {e elided} entirely (a full digest is still forced
    every [full_digest_every] rounds, bounding staleness), and otherwise
    only the {e changed} entries go out as a
    {!Haec_wire.Wire.Gossip.Digest_delta}; the repairs queued in one
    round toward one destination are merged, deduplicated, and encoded
    as {!Haec_wire.Wire.Gossip.Repair_runs} —
    per-origin runs of consecutive sequence numbers, so the per-payload
    [(origin, seq)] labels collapse into one run header; a
    {!Haec_wire.Wire.Gossip.Repair_request} ends in a [count] bounding
    the gap it asks for (a v1 request has none and is answered
    unbounded). Two further
    rules exploit the broadcast transport: an update or repair item
    proves what its {e sender} holds, so receivers lift their view of
    the sender accordingly and can ask it without waiting for a digest;
    and repair payloads addressed to a third replica are ingested
    opportunistically, since the bytes arrived anyway. Decoding is
    version-agnostic throughout — every v2 layout hides behind a marker
    byte no v1 item starts with — so a replica still decodes the v1
    frames of older peers, and what it emits never depends on what it
    has received.

    {b Dynamic membership.} A joining replica announces itself with a
    {!Haec_wire.Wire.Gossip.Hello} (via {!Make.announce_join}, applied by
    the runner) that rides with its first — empty — digest. A hello
    counts as an ask for everything: every peer that hears it answers
    with the first [repair_batch] payloads of every origin's stream it
    logs and a digest of its own, from which the joiner requests the
    rest, so the ordinary digest/request machinery performs the
    bootstrap state transfer without a dedicated protocol. A graceful
    leave announces a {!Haec_wire.Wire.Gossip.Goodbye}
    ({!Make.announce_leave}); a crash-leave announces nothing, and the
    survivors converge among themselves — the reach-based {!Make.settled}
    predicate demands agreement only up to the longest contiguous prefix
    of each origin's stream that the surviving logs can still
    reconstruct, so payloads that died with a crash-leaver (orphaning
    later seqs) do not wedge quiescence. Membership knowledge here is
    deliberately minimal and eventually accurate — an epoch high-water
    mark and a departed set — matching what eventual consistency
    actually requires of a failure detector (Dubois et al., PAPERS.md);
    the authoritative epoch-stamped view lives in the simulator
    ({!Haec_sim.Membership}). *)

open Haec_wire
open Haec_vclock

(* Pure classifier for trace labels: name the protocol items riding in an
   encoded anti-entropy envelope without touching any state. Repair items
   report their payload count. Payloads that are not anti-entropy
   envelopes (some other transport's bytes) classify as "". *)
let classify payload =
  match
    Wire.decode payload (fun dec ->
        (* v2 envelopes lead with a 0x00 marker and a version byte; a v1
           envelope starts with its item count >= 1 *)
        let v2 = Wire.Decoder.peek dec = 0 in
        if v2 then begin
          let _ = Wire.Decoder.uint dec in
          let v = Wire.Decoder.uint dec in
          if Wire.Version.of_int v = None then
            raise (Wire.Decoder.Malformed "anti-entropy envelope: unknown version")
        end;
        let count = Wire.Decoder.uint dec in
        let items = ref [] in
        let add name extra =
          match List.assoc_opt name !items with
          | Some r -> r := !r + extra
          | None -> items := !items @ [ (name, ref extra) ]
        in
        for _ = 1 to count do
          match Wire.Gossip.decode_kind dec with
          | Wire.Gossip.Update ->
            let _ = Wire.Decoder.uint dec in
            Wire.Decoder.skip_string dec;
            add "update" 1
          | Wire.Gossip.Digest ->
            let _ = Vclock.decode_any dec in
            add "digest" 1
          | Wire.Gossip.Digest_delta ->
            let pairs = Wire.Decoder.uint dec in
            for _ = 1 to pairs do
              let _ = Wire.Decoder.uint dec in
              let _ = Wire.Decoder.uint dec in
              ()
            done;
            add "digest-delta" 1
          | Wire.Gossip.Repair_request ->
            let _ = Wire.Decoder.uint dec in
            let _ = Wire.Decoder.uint dec in
            let _ = Wire.Decoder.uint dec in
            (* a v2 request also bounds the gap it asks for *)
            if v2 then ignore (Wire.Decoder.uint dec);
            add "request" 1
          | Wire.Gossip.Repair ->
            let _ = Wire.Decoder.uint dec in
            let k = ref 0 in
            let _ =
              Wire.Decoder.list dec (fun dec ->
                  let _ = Wire.Decoder.uint dec in
                  let _ = Wire.Decoder.uint dec in
                  Wire.Decoder.skip_string dec;
                  incr k)
            in
            add "repair" !k
          | Wire.Gossip.Repair_runs ->
            let _ = Wire.Decoder.uint dec in
            let runs = Wire.Decoder.uint dec in
            let k = ref 0 in
            for _ = 1 to runs do
              let _ = Wire.Decoder.uint dec in
              let _ = Wire.Decoder.uint dec in
              let c = Wire.Decoder.uint dec in
              if c > Wire.Decoder.remaining dec then
                raise (Wire.Decoder.Malformed "repair-runs: bad payload count");
              for _ = 1 to c do
                Wire.Decoder.skip_string dec
              done;
              k := !k + c
            done;
            add "repair" !k
          | Wire.Gossip.Hello ->
            let _ = Wire.Decoder.uint dec in
            add "hello" 1
          | Wire.Gossip.Goodbye ->
            let _ = Wire.Decoder.uint dec in
            add "goodbye" 1
        done;
        !items)
  with
  | items ->
    String.concat "+"
      (List.map
         (fun (name, r) -> if !r <= 1 then name else Printf.sprintf "%s(%d)" name !r)
         items)
  | exception _ -> ""

module Make (S : Store_intf.S) : sig
  include Store_intf.S

  val tick : state -> state
  (** Advance the gossip round counter and queue a digest broadcast (the
      store then [has_pending]) — unless the digest would
      repeat the last one sent and no full digest is due, in which case
      the round stays quiet and the elision is counted. Called by the
      simulator's gossip driver; deliberately {e not} a logged input —
      see the module comment. *)

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
      unlogged control state, like {!tick}. *)

  val announce_leave : epoch:int -> state -> state
  (** Queue a [Goodbye] for the next broadcast: a graceful leave. A
      crash-leave announces nothing. *)

  val counters : state -> Store_intf.gossip_stats
  (** This replica's traffic counters: what its [send]s put on the wire
      and what its [receive]s deduplicated or repaired. *)

  val set_counters : Store_intf.gossip_stats -> state -> state
  (** Replace the counters and nothing else. Only for carrying a
      replica's counters across a crash-recovery replay, which re-runs
      sends that never reach the wire again. *)
end = struct
  module Int_map = Map.Make (Int)
  module Int_set = Set.Make (Int)

  (* a peer's smoothed round trip, in gossip rounds (RFC 6298) *)
  type rtt = { srtt : float; rttvar : float }

  type peer = {
    view : Vclock.t;
        (** pointwise max of every digest heard from this peer and of the
            payloads it was seen sending *)
    reported : Vclock.t;
        (** what the peer itself has proven to hold — its digests and
            its own contiguous update stream; bounds the stable prefix *)
    rtt : rtt option;  (** from timed asks to this peer; [None] until one is answered *)
  }

  (* the last ask of one origin's gap toward one peer *)
  type ask = {
    due : int;  (** earliest round to ask that peer again *)
    backoff : int;  (** rounds the next re-ask waits *)
    asked_at : int;  (** round of the last ask *)
    tries : int;
        (** asks since the last progress; only an answer to the first is
            timed (Karn's rule: a re-asked gap's answer is ambiguous) *)
  }

  (* control items queued for the next broadcast; a digest is a marker,
     not a snapshot — the [have] vector is read at send time so it always
     reflects the updates travelling in the same payload. The marker
     resolves at send time to a full digest, a delta against the last
     digest sent, or nothing; [force_full] (membership traffic) pins it
     to a full digest. *)
  type out_item =
    | Out_digest of { force_full : bool }
    | Out_request of { dst : int; origin : int; from_seq : int; upto : int }
    | Out_repair of { dst : int; items : (int * int * string) list }
    | Out_hello of int  (** membership epoch being announced *)
    | Out_goodbye of int

  let is_digest = function Out_digest _ -> true | _ -> false

  type state = {
    cfg : Store_intf.config;  (** the anti-entropy tunables *)
    n : int;
    me : int;
    inner : S.state;
    log : string Int_map.t Int_map.t;  (** origin -> seq -> payload, seq >= floor *)
    logged : int;  (** total payloads in [log] *)
    log_bytes : int;  (** total payload bytes in [log] *)
    have : Vclock.t;  (** contiguous applied prefix per origin *)
    floor : Vclock.t;  (** per origin, the trimmed prefix every member holds *)
    peers : peer Int_map.t;
    req : ask Int_map.t Int_map.t;  (** origin -> peer -> the last ask *)
    rounds : int;
    outq_rev : out_item list;
    epoch : int;  (** highest membership epoch seen *)
    away : Int_set.t;  (** peers that said goodbye *)
    last_sent_digest : Vclock.t option;  (** [have] as of the last digest sent *)
    last_full_round : int;  (** round of the last full digest sent *)
    counters : Store_intf.gossip_stats;
  }

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
          Int_map.add p
            { view = Vclock.zero ~n; reported = Vclock.zero ~n; rtt = None }
            !peers
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
      req = Int_map.empty;
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

  let set_counters counters t = { t with counters }

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

  let log_add t ~origin ~seq payload =
    let m =
      match Int_map.find_opt origin t.log with Some m -> m | None -> Int_map.empty
    in
    { t with log = Int_map.add origin (Int_map.add seq payload m) t.log;
             logged = t.logged + 1;
             log_bytes = t.log_bytes + String.length payload }

  (* apply every payload of [origin] that is now contiguous with the
     applied prefix, in sequence order; progress resets the request
     backoff of [origin] toward every peer, so the next gap is chased
     eagerly again *)
  let rec cascade t ~origin =
    let next = Vclock.get t.have origin in
    match log_find t ~origin ~seq:next with
    | None -> t
    | Some payload ->
      let inner = S.receive t.inner ~sender:origin payload in
      let t =
        {
          t with
          inner;
          have = Vclock.tick t.have origin;
          req = Int_map.remove origin t.req;
        }
      in
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
      | `Overheard -> tally.dup_overheard <- tally.dup_overheard + 1);
      t
    end
    else begin
      if via <> `Update then tally.repaired <- tally.repaired + 1;
      cascade (log_add t ~origin ~seq payload) ~origin
    end

  (* the sender of an update or repair item demonstrably holds the
     payloads it sent: lift our view of its contiguous prefix without
     waiting for its next digest, so a request can go to it one round
     earlier. [from_seq] must attach to the prefix we already credit the
     peer with, else the evidence is non-contiguous and proves nothing
     about the prefix. *)
  let note_peer_has t ~peer ~origin ~from_seq ~upto =
    match Int_map.find_opt peer t.peers with
    | None -> t
    | Some p ->
      let cur = Vclock.get p.view origin in
      if from_seq > cur || upto <= cur then t
      else
        let view = Vclock.raise_to p.view origin upto in
        { t with peers = Int_map.add peer { p with view } t.peers }

  (* raise what the peer has itself proven to hold *)
  let note_reported t ~peer f =
    match Int_map.find_opt peer t.peers with
    | None -> t
    | Some p -> { t with peers = Int_map.add peer { p with reported = f p.reported } t.peers }

  (* a batch of [origin]'s stream in [from_seq, upto): consecutive
     logged payloads, at most [repair_batch] — stopping at the first gap
     never sends less than the contiguous prefix the requester is missing.
     Below the floor every member already holds the stream, so a stale
     or duplicated ask starts at the floor *)
  let batch_from ?(upto = max_int) t ~origin ~from_seq =
    let cap = t.cfg.repair_batch in
    let rec go seq acc count =
      if count = cap || seq >= upto then List.rev acc
      else
        match log_find t ~origin ~seq with
        | None -> List.rev acc
        | Some payload -> go (seq + 1) ((origin, seq, payload) :: acc) (count + 1)
    in
    go (max from_seq (Vclock.get t.floor origin)) [] 0

  (* a digest shows what the peer holds; the asks it prompts wait for
     the end of the envelope ({!ask}), so a repair riding behind the
     digest is applied before anything is asked for *)
  let on_digest t ~sender clock =
    if Vclock.size clock <> t.n then
      raise (Wire.Decoder.Malformed "anti-entropy digest: wrong vector size");
    let p =
      match Int_map.find_opt sender t.peers with
      | Some p -> p
      | None -> raise (Wire.Decoder.Malformed "anti-entropy digest: bad sender")
    in
    { t with peers = Int_map.add sender { p with view = Vclock.merge p.view clock } t.peers }

  (* the first wait before re-asking [p]: its measured round trip plus
     twice the deviation, or one round until an ask to it was timed *)
  let first_backoff t p =
    match p.rtt with
    | None -> 1
    | Some { srtt; rttvar } ->
      max 1 (min t.cfg.max_backoff (int_of_float (Float.ceil (srtt +. (2.0 *. rttvar)))))

  (* ask [peer] for every gap its view shows it can fill: from [have(o)]
     up to the first payload we already hold past the gap, or one batch
     when we hold none. Each (origin, peer) pair backs off on its own, so
     an ask lost on a dead link toward one peer never holds back the ask
     to the next peer whose digest shows the same gap *)
  let ask t ~peer =
    match Int_map.find_opt peer t.peers with
    | None -> t
    | Some p ->
      let t = ref t in
      for o = 0 to t.contents.n - 1 do
        let cur = !t in
        let from_seq = Vclock.get cur.have o in
        if Vclock.get p.view o > from_seq then begin
          let asked = Option.value (Int_map.find_opt o cur.req) ~default:Int_map.empty in
          let prev = Int_map.find_opt peer asked in
          if match prev with Some a -> cur.rounds >= a.due | None -> true then begin
            let backoff, tries =
              match prev with Some a -> (a.backoff, a.tries + 1) | None -> (first_backoff cur p, 1)
            in
            let upto =
              let batch = from_seq + cur.cfg.repair_batch in
              match Int_map.find_opt o cur.log with
              | None -> batch
              | Some m -> (
                match Int_map.find_first_opt (fun s -> s > from_seq) m with
                | Some (s, _) -> min s batch
                | None -> batch)
            in
            let a =
              {
                due = cur.rounds + backoff;
                backoff = min (2 * backoff) cur.cfg.max_backoff;
                asked_at = cur.rounds;
                tries;
              }
            in
            t :=
              {
                cur with
                outq_rev = Out_request { dst = peer; origin = o; from_seq; upto } :: cur.outq_rev;
                req = Int_map.add o (Int_map.add peer a asked) cur.req;
              }
          end
        end
      done;
      !t

  (* a repair from [peer] answering our first ask for [origin]'s gap
     times the round trip (RFC 6298's gains, in rounds) *)
  let time_answer t ~peer ~origin =
    match Option.bind (Int_map.find_opt origin t.req) (Int_map.find_opt peer) with
    | Some { tries = 1; asked_at; _ } -> (
      match Int_map.find_opt peer t.peers with
      | None -> t
      | Some p ->
        let r = float_of_int (t.rounds - asked_at) in
        let rtt =
          match p.rtt with
          | None -> { srtt = r; rttvar = r /. 2.0 }
          | Some { srtt; rttvar } ->
            {
              srtt = (0.875 *. srtt) +. (0.125 *. r);
              rttvar = (0.75 *. rttvar) +. (0.25 *. Float.abs (srtt -. r));
            }
        in
        { t with peers = Int_map.add peer { p with rtt = Some rtt } t.peers })
    | Some _ | None -> t

  let check_replica t what r =
    if r < 0 || r >= t.n then
      raise
        (Wire.Decoder.Malformed (Printf.sprintf "anti-entropy %s: replica %d" what r))

  (* [v2] says the enclosing envelope was a v2 frame: the broadcast-
     exploiting rules (view inference, opportunistic repair ingestion)
     apply only then, so a v1 peer's frames are read under the rules
     that peer assumed *)
  let receive_item tally t ~sender ~v2 dec =
    match Wire.Gossip.decode_kind dec with
    | Wire.Gossip.Update ->
      let seq = Wire.Decoder.uint dec in
      let payload = Wire.Decoder.string dec in
      check_replica t "update" sender;
      let t =
        if v2 then
          (* a sender's own stream is contiguous by construction *)
          note_peer_has t ~peer:sender ~origin:sender ~from_seq:0 ~upto:(seq + 1)
        else t
      in
      let t =
        note_reported t ~peer:sender (fun r ->
            if seq <= Vclock.get r sender then Vclock.raise_to r sender (seq + 1) else r)
      in
      ingest tally t ~origin:sender ~seq ~payload ~via:`Update
    | Wire.Gossip.Digest ->
      let clock = Vclock.decode_any dec in
      check_replica t "digest" sender;
      tally.digest <- true;
      let t = on_digest t ~sender clock in
      note_reported t ~peer:sender (Vclock.merge clock)
    | Wire.Gossip.Digest_delta ->
      (* only the entries that changed since the sender's last digest,
         as (index-gap, absolute value) pairs; reconstruct a full clock
         against our current view of the sender — entrywise max keeps
         this loss- and reorder-safe, since entries only ever grow *)
      check_replica t "digest-delta" sender;
      let p =
        match Int_map.find_opt sender t.peers with
        | Some p -> p
        | None -> raise (Wire.Decoder.Malformed "anti-entropy digest-delta: bad sender")
      in
      let pairs = Wire.Decoder.uint dec in
      if pairs > t.n then
        raise (Wire.Decoder.Malformed "anti-entropy digest-delta: too many entries");
      let clock = ref p.view in
      let proven = ref p.reported in
      let idx = ref (-1) in
      for _ = 1 to pairs do
        let gap = Wire.Decoder.uint dec in
        let v = Wire.Decoder.uint dec in
        idx := !idx + 1 + gap;
        if !idx >= t.n then
          raise (Wire.Decoder.Malformed "anti-entropy digest-delta: index out of range");
        clock := Vclock.raise_to !clock !idx v;
        (* the same entries rebased on what the peer has proven: the
           unchanged ones are only known to be at least that *)
        proven := Vclock.raise_to !proven !idx v
      done;
      tally.digest <- true;
      let t = on_digest t ~sender !clock in
      note_reported t ~peer:sender (Vclock.merge !proven)
    | Wire.Gossip.Repair_request ->
      let dst = Wire.Decoder.uint dec in
      let origin = Wire.Decoder.uint dec in
      let from_seq = Wire.Decoder.uint dec in
      (* a v2 ask names how much of the stream it lacks; a v1 ask is
         unbounded *)
      let upto = if v2 then from_seq + Wire.Decoder.uint dec else max_int in
      check_replica t "repair-request" dst;
      check_replica t "repair-request" origin;
      if dst <> t.me then t (* broadcast transport: not addressed to us *)
      else begin
        (* an explicit ask is answered ungated: the requester paces itself *)
        match batch_from t ~origin ~from_seq ~upto with
        | [] -> t
        | items -> { t with outq_rev = Out_repair { dst = sender; items } :: t.outq_rev }
      end
    | Wire.Gossip.Repair ->
      let dst = Wire.Decoder.uint dec in
      let items =
        Wire.Decoder.list dec (fun dec ->
            let origin = Wire.Decoder.uint dec in
            let seq = Wire.Decoder.uint dec in
            let payload = Wire.Decoder.string dec in
            (origin, seq, payload))
      in
      check_replica t "repair" dst;
      List.iter (fun (origin, _, _) -> check_replica t "repair" origin) items;
      let t =
        if v2 then
          List.fold_left
            (fun t (origin, seq, _) ->
              note_peer_has t ~peer:sender ~origin ~from_seq:seq ~upto:(seq + 1))
            t items
        else t
      in
      if dst <> t.me then t
      else
        List.fold_left
          (fun t (origin, seq, payload) -> ingest tally t ~origin ~seq ~payload ~via:`Repair)
          t items
    | Wire.Gossip.Repair_runs ->
      (* one merged repair toward [dst]: per-origin runs of consecutive
         seqs. The bytes reached every replica, so even when [dst] is a
         third party we ingest what we ourselves lack (the log dedups),
         and we credit the sender with holding the runs. The destination
         is credited with nothing: only its own digests say what it got *)
      let dst = Wire.Decoder.uint dec in
      let runs = Wire.Decoder.uint dec in
      if runs > Wire.Decoder.remaining dec then
        raise (Wire.Decoder.Malformed "anti-entropy repair-runs: bad run count");
      check_replica t "repair-runs" dst;
      let via = if dst = t.me then `Repair else `Overheard in
      let t = ref t in
      for _ = 1 to runs do
        let origin = Wire.Decoder.uint dec in
        let from_seq = Wire.Decoder.uint dec in
        let count = Wire.Decoder.uint dec in
        if count > Wire.Decoder.remaining dec then
          raise (Wire.Decoder.Malformed "anti-entropy repair-runs: bad payload count");
        check_replica !t "repair-runs" origin;
        t := note_peer_has !t ~peer:sender ~origin ~from_seq ~upto:(from_seq + count);
        if dst = !t.me then t := time_answer !t ~peer:sender ~origin;
        for j = 0 to count - 1 do
          let payload = Wire.Decoder.string dec in
          t := ingest tally !t ~origin ~seq:(from_seq + j) ~payload ~via
        done
      done;
      !t
    | Wire.Gossip.Hello ->
      let epoch = Wire.Decoder.uint dec in
      check_replica t "hello" sender;
      (* a joiner enters empty, so its hello asks for everything: answer
         with the first batch of every origin's stream we log, and with a
         digest from which it requests the rest *)
      let outq_rev =
        if List.exists is_digest t.outq_rev then t.outq_rev
        else Out_digest { force_full = true } :: t.outq_rev
      in
      let outq_rev =
        let first origin = batch_from t ~origin ~from_seq:0 in
        match List.concat_map first (List.init t.n Fun.id) with
        | [] -> outq_rev
        | items -> Out_repair { dst = sender; items } :: outq_rev
      in
      { t with outq_rev; epoch = max epoch t.epoch; away = Int_set.remove sender t.away }
    | Wire.Gossip.Goodbye ->
      let epoch = Wire.Decoder.uint dec in
      check_replica t "goodbye" sender;
      { t with epoch = max epoch t.epoch; away = Int_set.add sender t.away }

  (* stable(o): the prefix of origin [o]'s stream that we and every peer
     that has not said goodbye have proven to hold. Nobody can ask for it
     again, so it leaves the log. Only received inputs move it — never
     [tick] — so a durable replay rebuilds the same trimmed log. *)
  let trim t =
    let stable = Vclock.to_array t.have in
    Int_map.iter
      (fun q p ->
        if not (Int_set.mem q t.away) then
          for o = 0 to t.n - 1 do
            let r = Vclock.get p.reported o in
            if r < stable.(o) then stable.(o) <- r
          done)
      t.peers;
    let t = ref t in
    for o = 0 to t.contents.n - 1 do
      let s = stable.(o) in
      let cur = !t in
      if s > Vclock.get cur.floor o then begin
        let m = Option.value (Int_map.find_opt o cur.log) ~default:Int_map.empty in
        let below, at, above = Int_map.split s m in
        let kept = match at with Some p -> Int_map.add s p above | None -> above in
        let count, bytes =
          Int_map.fold (fun _ p (c, b) -> (c + 1, b + String.length p)) below (0, 0)
        in
        t :=
          {
            cur with
            log =
              (if Int_map.is_empty kept then Int_map.remove o cur.log
               else Int_map.add o kept cur.log);
            logged = cur.logged - count;
            log_bytes = cur.log_bytes - bytes;
            floor = Vclock.raise_to cur.floor o s;
          }
      end
    done;
    !t

  let receive t ~sender payload =
    check_replica t "sender" sender;
    (* fold the envelope's items in order through the state; [Wire.decode]
       checks the whole input was consumed *)
    Wire.decode payload (fun dec ->
        (* a v2 envelope leads with [0x00, 2]; a v1 one with its item
           count. Either is accepted, though this replica emits only v2 *)
        let v2 = Wire.Decoder.peek dec = 0 in
        if v2 then begin
          let _ = Wire.Decoder.uint dec in
          if Wire.Version.of_int (Wire.Decoder.uint dec) <> Some Wire.Version.V2 then
            raise (Wire.Decoder.Malformed "anti-entropy envelope: unknown version")
        end;
        let count = Wire.Decoder.uint dec in
        if count > Wire.Decoder.remaining dec then
          raise (Wire.Decoder.Malformed "anti-entropy envelope: item count exceeds input");
        let t = ref t in
        let tally =
          { dup_updates = 0; dup_repairs = 0; dup_overheard = 0; repaired = 0; digest = false }
        in
        for _ = 1 to count do
          t := receive_item tally !t ~sender ~v2 dec
        done;
        (* ask only once the whole envelope is in: a repair that rode
           behind the digest has already closed part of the gap *)
        let t = if tally.digest then ask !t ~peer:sender else !t in
        let c = t.counters in
        let dups = tally.dup_updates + tally.dup_repairs + tally.dup_overheard in
        trim
          (if dups = 0 && tally.repaired = 0 then t
           else
             {
               t with
               counters =
                 {
                   c with
                   dup_payloads = c.dup_payloads + dups;
                   dup_updates = c.dup_updates + tally.dup_updates;
                   dup_repairs = c.dup_repairs + tally.dup_repairs;
                   dup_overheard = c.dup_overheard + tally.dup_overheard;
                   repair_applied = c.repair_applied + tally.repaired;
                 };
             }))

  let do_op t ~obj op =
    let inner, rval, witness = S.do_op t.inner ~obj op in
    ({ t with inner }, rval, witness)

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

  let send t =
    if not (has_pending t) then invalid_arg "Anti_entropy.send: nothing pending";
    (* a fresh inner broadcast takes the next slot of my stream: my own
       stream is contiguous by construction, so the next sequence number
       is exactly have(me) *)
    let t, update =
      if S.has_pending t.inner then begin
        let inner, payload = S.send t.inner in
        let seq = Vclock.get t.have t.me in
        let t = log_add { t with inner } ~origin:t.me ~seq payload in
        ({ t with have = Vclock.tick t.have t.me }, Some (seq, payload))
      end
      else (t, None)
    in
    let outs = List.rev t.outq_rev in
    let digest_marker = List.exists is_digest outs in
    let force_full =
      List.exists (function Out_digest { force_full } -> force_full | _ -> false) outs
    in
    (* merge the round's repairs per destination and deduplicate: several
       digests (or requests) in one round routinely ask for overlapping
       prefixes, and one copy serves them all *)
    let repair_dsts =
      List.filter_map (function Out_repair { dst; _ } -> Some dst | _ -> None) outs
      |> List.sort_uniq compare
    in
    let merged_repair dst =
      List.concat_map
        (function Out_repair { dst = d; items } when d = dst -> items | _ -> [])
        outs
      |> List.sort_uniq (fun (o1, s1, _) (o2, s2, _) -> compare (o1, s1) (o2, s2))
    in
    (* every receiver opportunistically ingests any repair in the
       broadcast, whoever it is addressed to — so a payload already
       present for one destination need not repeat for another *)
    let repair_packets =
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
          if items = [] then None else Some (dst, items))
        repair_dsts
    in
    let outs =
      List.filter (function Out_digest _ | Out_repair _ -> false | _ -> true) outs
    in
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
    let count =
      (if update = None then 0 else 1)
      + (match digest_mode with `Full | `Delta _ -> 1 | `Absent | `Elide -> 0)
      + List.length outs + List.length repair_packets
    in
    let c = ref t.counters in
    let payload =
      Wire.encode (fun enc ->
          (* envelope version marker: a v1 envelope starts with its item
             count, which is always >= 1 *)
          Wire.Encoder.uint enc 0;
          Wire.Encoder.uint enc (Wire.Version.to_int Wire.Version.V2);
          Wire.Encoder.uint enc count;
          let mark = ref (Wire.Encoder.size_bytes enc) in
          let bytes () =
            let now = Wire.Encoder.size_bytes enc in
            let d = now - !mark in
            mark := now;
            d
          in
          (match update with
          | None -> ()
          | Some (seq, payload) ->
            Wire.Gossip.encode_kind enc Wire.Gossip.Update;
            Wire.Encoder.uint enc seq;
            Wire.Encoder.string enc payload;
            c := { !c with updates = !c.updates + 1; update_bytes = !c.update_bytes + bytes () });
          (match digest_mode with
          | `Absent -> ()
          | `Elide -> c := { !c with digests_elided = !c.digests_elided + 1 }
          | `Full ->
            Wire.Gossip.encode_kind enc Wire.Gossip.Digest;
            Vclock.encode_c enc t.have;
            c := { !c with digests = !c.digests + 1; digest_bytes = !c.digest_bytes + bytes () }
          | `Delta prev ->
            Wire.Gossip.encode_kind enc Wire.Gossip.Digest_delta;
            let changed = ref [] in
            for i = t.n - 1 downto 0 do
              if Vclock.get t.have i <> Vclock.get prev i then
                changed := i :: !changed
            done;
            Wire.Encoder.uint enc (List.length !changed);
            let last = ref (-1) in
            List.iter
              (fun i ->
                Wire.Encoder.uint enc (i - !last - 1);
                Wire.Encoder.uint enc (Vclock.get t.have i);
                last := i)
              !changed;
            c :=
              { !c with digest_deltas = !c.digest_deltas + 1;
                        digest_bytes = !c.digest_bytes + bytes () });
          List.iter
            (function
              | Out_digest _ | Out_repair _ -> ()
              | Out_request { dst; origin; from_seq; upto } ->
                Wire.Gossip.encode_kind enc Wire.Gossip.Repair_request;
                Wire.Encoder.uint enc dst;
                Wire.Encoder.uint enc origin;
                Wire.Encoder.uint enc from_seq;
                Wire.Encoder.uint enc (upto - from_seq);
                c :=
                  { !c with requests = !c.requests + 1;
                            request_bytes = !c.request_bytes + bytes () }
              | Out_hello epoch ->
                Wire.Gossip.encode_kind enc Wire.Gossip.Hello;
                Wire.Encoder.uint enc epoch;
                c :=
                  { !c with memberships = !c.memberships + 1;
                            membership_bytes = !c.membership_bytes + bytes () }
              | Out_goodbye epoch ->
                Wire.Gossip.encode_kind enc Wire.Gossip.Goodbye;
                Wire.Encoder.uint enc epoch;
                c :=
                  { !c with memberships = !c.memberships + 1;
                            membership_bytes = !c.membership_bytes + bytes () })
            outs;
          List.iter
            (fun (dst, items) ->
              Wire.Gossip.encode_kind enc Wire.Gossip.Repair_runs;
              Wire.Encoder.uint enc dst;
              let runs = to_runs items in
              Wire.Encoder.uint enc (List.length runs);
              List.iter
                (fun (origin, from_seq, payloads) ->
                  Wire.Encoder.uint enc origin;
                  Wire.Encoder.uint enc from_seq;
                  Wire.Encoder.uint enc (List.length payloads);
                  List.iter (Wire.Encoder.string enc) payloads)
                runs;
              c := { !c with repairs = !c.repairs + 1; repair_bytes = !c.repair_bytes + bytes () })
            repair_packets)
    in
    let t =
      {
        t with
        outq_rev = [];
        last_sent_digest =
          (match digest_mode with
          | `Full | `Delta _ -> Some t.have
          | `Absent | `Elide -> t.last_sent_digest);
        last_full_round =
          (match digest_mode with `Full -> t.rounds | _ -> t.last_full_round);
        counters = !c;
      }
    in
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
