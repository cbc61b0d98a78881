open Haec_util
open Haec_model
open Haec_vclock
open Haec_wire
module Obs = Haec_obs.Metrics

exception Divergence of { in_flight : int; pending : int; budget : int }

type stats = {
  crashes : int;
  recoveries : int;
  dropped : int;
  corrupt_rejected : int;
  corrupt_collisions : int;
  lost_permanent : int;
  gossip_rounds : int;
  joins : int;
  leaves : int;
}

(* How the runner talks membership to the store protocol: [progress] is an
   observation-only read of how far a state has caught up (the anti-entropy
   [have] vector, read through the durable layer), [on_join]/[on_leave]
   queue the wire-level announcements on the replica itself. Like the
   gossip tick, these mutate only unlogged control state. *)
type 'state membership_hooks = {
  progress : 'state -> Haec_vclock.Vclock.t;
  on_join : epoch:int -> 'state -> 'state;
  on_leave : epoch:int -> graceful:bool -> 'state -> 'state;
}

(* Dense growable columns of the span bookkeeping, indexed by small ints:
   a message's seq at its source, a do index, or [do_index * n + replica].
   An absent time reads NaN, an absent op set [[]]. *)
module Times = struct
  type t = { mutable a : float array }

  let create () = { a = [||] }

  let get c i = if i < Array.length c.a then c.a.(i) else Float.nan

  let set c i x =
    if i >= Array.length c.a then begin
      let g = Array.make (max 64 (2 * (i + 1))) Float.nan in
      Array.blit c.a 0 g 0 (Array.length c.a);
      c.a <- g
    end;
    c.a.(i) <- x

  (* the first time recorded at [i] stands *)
  let first c i x = if Float.is_nan (get c i) then set c i x
end

module Ops = struct
  type t = { mutable a : int list array }

  let create () = { a = [||] }

  let get c i = if i < Array.length c.a then c.a.(i) else []

  let set c i x =
    if i >= Array.length c.a then begin
      let g = Array.make (max 64 (2 * (i + 1))) [] in
      Array.blit c.a 0 g 0 (Array.length c.a);
      c.a <- g
    end;
    c.a.(i) <- x
end

module Make (S : Haec_store.Store_intf.S) = struct
  type delivery = { dst : int; msg : Message.t }

  (* The gossip driver of a protocol-level recovery store: every
     [interval] of simulated time the runner ticks each live replica
     (queuing its digest broadcast) and flushes it; [settled] is the
     quiescence oracle — observation-only omniscience over the replica
     states, while repair itself stays on the wire. *)
  type gossip = {
    interval : float;
    tick : S.state -> S.state;
    settled : S.state array -> bool;
  }

  type t = {
    n : int;  (** the id-space capacity; members may be a subset *)
    rng : Rng.t;
    policy : Net_policy.t option;
    faults : Fault_plan.t option;
    gossip : gossip option;
    mutable membership : Membership.t;
    hooks : S.state membership_hooks option;
    bootstrap : (int, Vclock.t * float) Hashtbl.t;
        (** bootstrapping replica -> (catch-up target, join time) *)
    mutable leaving : int list;
        (** graceful leavers waiting for a member to hold their own stream *)
    mutable next_gossip : float;
    recover_state : replica:int -> S.state -> S.state;
    auto_send : bool;
    record_witness : bool;
    states : S.state array;
    down : bool array;
    mutable events_rev : Event.t list;
    send_seq : int array;
    queue : delivery Pqueue.t;
    mutable now_ : float;
    (* fault statistics *)
    mutable s_crashes : int;
    mutable s_recoveries : int;
    mutable s_dropped : int;
    mutable s_corrupt_rejected : int;
    mutable s_corrupt_collisions : int;
    mutable s_lost_permanent : int;
    mutable s_gossip_rounds : int;
    mutable s_joins : int;
    mutable s_leaves : int;
    mutable s_bootstrap_bytes : int;
        (** payload bytes delivered to bootstrapping replicas *)
    bootstrap_hist : Obs.Histogram.t;  (** join-to-serving latency *)
    (* witness bookkeeping, indexed by do-event position in H: each
       replica's filter of the updates it has witnessed, and the deltas
       resolved in H order (see {!Witness}) *)
    mutable do_count : int;
    seen : Witness.seen array;
    wit : Witness.t;
    mutable do_time : float array;  (* do index -> sim time, growable *)
    (* per-link monotone delivery times, for FIFO policies *)
    mutable fifo_last : float array;
    (* wire telemetry *)
    msg_count : int array;  (* sends per replica *)
    payload_hist : Obs.Histogram.t;  (* bytes per sent payload *)
    fanout_hist : Obs.Histogram.t;  (* deliveries scheduled per send *)
    mutable s_duplicates : int;
    mutable s_deliveries : int;
    lag_hist : Obs.Histogram.t;  (* visibility lag, one sample per resolved delta entry *)
    (* span tracing: the per-op lifecycle decomposition of visibility lag
       (see {!Haec_obs.Span}). All bookkeeping is keyed on sim-time data
       already flowing through the runner, so the stream is bit-identical
       at any [-j]. Implies [record_witness]. *)
    record_spans : bool;
    log : Haec_obs.Span.Log.t;
    unsent_ops : (int * int) list array;
        (** per replica: (do index, obj) of updates awaiting their first
            flush, reverse order *)
    op_sent : Times.t;  (* do index -> first-flush time *)
    (* per source, indexed by the message's seq *)
    msg_ops : Ops.t array;  (* do indices first carried *)
    sent_time : Times.t array;  (* send time *)
    delivered : Times.t array;  (* [seq * n + dst] -> first delivery *)
    (* indexed by [do_index * n + observer] *)
    arrive : Times.t;  (* first direct arrival *)
    dropped_at : Times.t;  (* first loss of a direct copy *)
    applied : Times.t;  (* protocol apply time *)
    payload_ops : Ops.t array;
        (* per origin, by protocol seq -> do indices; lets repair
           deliveries, which carry re-encoded payloads under fresh message
           ids, still attribute their apply times to the originating ops *)
    boot_epoch : int array;  (* joiner -> epoch stamped at join, or -1 *)
    boot_join : float array;
    boot_promoted : float array;
        (* replica -> its bootstrap window: NaN join if it never joined,
           [infinity] promoted until promotion *)
  }

  let create ?(seed = 42) ?(config = Haec_store.Store_intf.default)
      ?(record_witness = true) ?(record_spans = false) ?(auto_send = true) ?policy ?faults
      ?gossip ?initial ?hooks ?classify ?(recover_state = fun ~replica:_ st -> st) ~n () =
    if n <= 0 then invalid_arg "Runner.create: n must be positive";
    let initial = match initial with None -> n | Some i -> i in
    if initial <= 0 || initial > n then
      invalid_arg "Runner.create: initial members must be in [1, n]";
    let gossip =
      match gossip with
      | None -> None
      | Some ((interval, _, _) as g) ->
        if interval <= 0.0 then invalid_arg "Runner.create: gossip interval must be positive";
        let interval, tick, settled = g in
        Some { interval; tick; settled }
    in
    {
      n;
      rng = Rng.create seed;
      policy;
      faults;
      gossip;
      membership = Membership.create ~capacity:n ~initial;
      hooks;
      bootstrap = Hashtbl.create 8;
      leaving = [];
      next_gossip = (match gossip with Some g -> g.interval | None -> infinity);
      recover_state;
      auto_send;
      record_witness;
      states = Array.init n (fun me -> S.create config ~n ~me);
      down = Array.make n false;
      events_rev = [];
      send_seq = Array.make n 0;
      queue = Pqueue.create ();
      now_ = 0.0;
      s_crashes = 0;
      s_recoveries = 0;
      s_dropped = 0;
      s_corrupt_rejected = 0;
      s_corrupt_collisions = 0;
      s_lost_permanent = 0;
      s_gossip_rounds = 0;
      s_joins = 0;
      s_leaves = 0;
      s_bootstrap_bytes = 0;
      bootstrap_hist = Obs.Histogram.create ();
      do_count = 0;
      seen = Array.init n (fun _ -> Witness.seen ());
      wit = Witness.create ();
      do_time = [||];
      fifo_last = Array.make (n * n) 0.0;
      msg_count = Array.make n 0;
      payload_hist = Obs.Histogram.create ();
      fanout_hist = Obs.Histogram.create ();
      s_duplicates = 0;
      s_deliveries = 0;
      lag_hist = Obs.Histogram.create ();
      record_spans = record_spans && record_witness;
      log = Haec_obs.Span.Log.create ?classify ();
      unsent_ops = Array.make n [];
      op_sent = Times.create ();
      msg_ops = Array.init n (fun _ -> Ops.create ());
      sent_time = Array.init n (fun _ -> Times.create ());
      delivered = Array.init n (fun _ -> Times.create ());
      arrive = Times.create ();
      dropped_at = Times.create ();
      applied = Times.create ();
      payload_ops = Array.init n (fun _ -> Ops.create ());
      boot_epoch = Array.make n (-1);
      boot_join = Array.make n Float.nan;
      boot_promoted = Array.make n Float.nan;
    }

  let n_replicas t = t.n

  let now t = t.now_

  let is_down t ~replica = t.down.(replica)

  let stats t =
    {
      crashes = t.s_crashes;
      recoveries = t.s_recoveries;
      dropped = t.s_dropped;
      corrupt_rejected = t.s_corrupt_rejected;
      corrupt_collisions = t.s_corrupt_collisions;
      lost_permanent = t.s_lost_permanent;
      gossip_rounds = t.s_gossip_rounds;
      joins = t.s_joins;
      leaves = t.s_leaves;
    }

  let visibility_lag t = t.lag_hist

  let span_log t = t.log

  let spans t = Haec_obs.Span.Log.to_list t.log

  let membership t = t.membership

  let is_member t ~replica = Membership.is_member t.membership replica

  let is_serving t ~replica = Membership.is_serving t.membership replica

  let bootstrap_bytes t = t.s_bootstrap_bytes

  let bootstrap_latency t = t.bootstrap_hist

  let metrics t =
    let reg = Obs.Registry.create () in
    let c name v = Obs.Counter.add (Obs.Registry.counter reg name) v in
    c "wire.messages" (Array.fold_left ( + ) 0 t.msg_count);
    Array.iteri (fun r v -> c (Printf.sprintf "wire.messages.r%d" r) v) t.msg_count;
    Obs.Registry.register reg "wire.payload_bytes" (Obs.Registry.Histogram t.payload_hist);
    Obs.Registry.register reg "wire.fanout" (Obs.Registry.Histogram t.fanout_hist);
    c "wire.deliveries" t.s_deliveries;
    c "wire.duplicates" t.s_duplicates;
    c "wire.dropped" t.s_dropped;
    c "wire.corrupt_rejected" t.s_corrupt_rejected;
    c "wire.lost_permanent" t.s_lost_permanent;
    Obs.Registry.register reg "visibility.lag" (Obs.Registry.Histogram t.lag_hist);
    c "sim.ops" t.do_count;
    c "sim.crashes" t.s_crashes;
    c "sim.recoveries" t.s_recoveries;
    c "sim.gossip_rounds" t.s_gossip_rounds;
    c "sim.joins" t.s_joins;
    c "sim.leaves" t.s_leaves;
    c "sim.bootstrap_bytes" t.s_bootstrap_bytes;
    Obs.Registry.register reg "bootstrap.latency" (Obs.Registry.Histogram t.bootstrap_hist);
    Obs.Gauge.set (Obs.Registry.gauge reg "sim.now") t.now_;
    reg

  let has_pending t ~replica = S.has_pending t.states.(replica)

  let record t e = t.events_rev <- e :: t.events_rev

  (* a message's send time; one this runner never sent (handed to
     [deliver_msg] from outside) counts as sent now *)
  let sent_at t ~src ~seq =
    let s = Times.get t.sent_time.(src) seq in
    if Float.is_nan s then t.now_ else s

  (* a delivery the network will never perform (dead or faulted link,
     crashed or crash-departed destination, corrupted frame): nothing
     retransmits it, the store protocol alone must make up for it *)
  let lose_permanently t { dst; msg } =
    t.s_dropped <- t.s_dropped + 1;
    t.s_lost_permanent <- t.s_lost_permanent + 1;
    if t.record_spans then begin
      let src = msg.Message.sender and seq = msg.Message.seq in
      Haec_obs.Span.Log.flight t.log ~src ~seq ~dst ~sent:(sent_at t ~src ~seq) ~at:t.now_
        Haec_obs.Span.Dropped;
      List.iter
        (fun i -> Times.first t.dropped_at ((i * t.n) + dst) t.now_)
        (Ops.get t.msg_ops.(src) seq)
    end

  let schedule_deliveries t ~src msg =
    match t.policy with
    | None -> ()
    | Some p ->
      let scheduled = ref 0 in
      for dst = 0 to t.n - 1 do
        (* reserve and departed ids are not on the network: a broadcast
           simply does not address them (no loss is counted) *)
        if dst <> src && Membership.is_member t.membership dst then begin
          let dead =
            match t.faults with
            | Some f -> Fault_plan.link_dead f ~src ~dst ~at:t.now_
            | None -> false
          in
          if dead then lose_permanently t { dst; msg }
          else begin
            let d = p.Net_policy.delay t.rng ~now:t.now_ ~src ~dst in
            let at = t.now_ +. max 0.0 d in
            let at =
              (* bounded reordering: an adversarial extra latency in
                 [0, jitter), drawn per delivery, lets messages overtake
                 each other within the window *)
              match t.faults with
              | Some f ->
                let jitter = Fault_plan.reorder_jitter f ~now:t.now_ in
                if jitter > 0.0 then at +. Rng.float t.rng jitter else at
              | None -> at
            in
            let at =
              if p.Net_policy.fifo then begin
                let link = (src * t.n) + dst in
                let clamped = max at (t.fifo_last.(link) +. 1e-9) in
                t.fifo_last.(link) <- clamped;
                clamped
              end
              else at
            in
            let link_faulted =
              match t.faults with
              | Some f -> Fault_plan.link_dropped f ~src ~dst ~at <> None
              | None -> false
            in
            if link_faulted then lose_permanently t { dst; msg }
            else begin
              Pqueue.add t.queue ~priority:at { dst; msg };
              incr scheduled;
              (match p.Net_policy.duplicate t.rng ~now:t.now_ with
              | Some extra ->
                Pqueue.add t.queue ~priority:(at +. max 0.0 extra) { dst; msg };
                incr scheduled;
                t.s_duplicates <- t.s_duplicates + 1
              | None -> ());
              (match t.faults with
              | Some f -> (
                match Fault_plan.duplication f ~now:t.now_ with
                | Some (p_dup, copies) when Rng.chance t.rng p_dup ->
                  for _ = 1 to copies do
                    let extra = max 0.01 (p.Net_policy.delay t.rng ~now:t.now_ ~src ~dst) in
                    Pqueue.add t.queue ~priority:(at +. extra) { dst; msg };
                    incr scheduled;
                    t.s_duplicates <- t.s_duplicates + 1
                  done
                | Some _ | None -> ())
              | None -> ())
            end
          end
        end
      done;
      Obs.Histogram.observe t.fanout_hist (float_of_int !scheduled)

  (* The common send path: pull one payload, wrap, record, schedule. Span
     bookkeeping happens before delivery scheduling, so a same-instant
     loss (dead link) already sees the transmit. An op's carrying message
     is pinned the first time the protocol's own self-progress component
     ticks across a send (read through [hooks.progress]); without hooks
     any flush is assumed to carry everything issued since the last. *)
  let send_one t ~replica =
    let before_self =
      match t.hooks with
      | Some h when t.record_spans ->
        Some (Vclock.get (h.progress t.states.(replica)) replica)
      | _ -> None
    in
    let state, payload = S.send t.states.(replica) in
    t.states.(replica) <- state;
    let seq = t.send_seq.(replica) in
    let msg = { Message.sender = replica; seq; payload } in
    t.send_seq.(replica) <- t.send_seq.(replica) + 1;
    t.msg_count.(replica) <- t.msg_count.(replica) + 1;
    Obs.Histogram.observe t.payload_hist (float_of_int (String.length payload));
    if t.record_spans then begin
      Times.set t.sent_time.(replica) seq t.now_;
      let carried =
        match (before_self, t.hooks) with
        | Some before, Some h ->
          let after = Vclock.get (h.progress t.states.(replica)) replica in
          if after > before then Some (after - 1) else None
        | _ -> Some (-1)
      in
      let ops =
        match carried with
        | None -> []
        | Some proto_seq ->
          let pending = List.rev t.unsent_ops.(replica) in
          t.unsent_ops.(replica) <- [];
          if proto_seq >= 0 then Ops.set t.payload_ops.(replica) proto_seq (List.map fst pending);
          pending
      in
      List.iter
        (fun (i, obj) ->
          Times.set t.op_sent i t.now_;
          Haec_obs.Span.Log.op t.log ~op:i ~origin:replica ~obj ~issue:t.do_time.(i) ~sent:t.now_)
        ops;
      let op_ids = List.map fst ops in
      Ops.set t.msg_ops.(replica) seq op_ids;
      Haec_obs.Span.Log.transmit t.log ~src:replica ~seq ~sent:t.now_ ~payload ~ops:op_ids
    end;
    record t (Event.Send { replica; msg });
    schedule_deliveries t ~src:replica msg;
    msg

  let flush t ~replica =
    if t.down.(replica) || not (S.has_pending t.states.(replica)) then None
    else Some (send_one t ~replica)

  let auto_flush t ~replica = if t.auto_send then ignore (flush t ~replica)

  (* Assemble the lifecycle of (update [op], observer) at witness time.
     Timestamps are clamped monotone issue <= sent <= arrived <= applied
     <= visible; each missing stage falls back to the previous one, which
     zeroes the corresponding breakdown component. [direct] records
     whether the observer ever received the carrying message itself —
     when it did not (the direct copy was lost), the arrival-to-apply gap
     is repair wait, not dependency wait. *)
  let assemble_visible t ~op ~origin ~obj ~observer ~issue =
    let visible = t.now_ in
    let or_else x fallback = if Float.is_nan x then fallback else x in
    let sent = Float.max issue (or_else (Times.get t.op_sent op) issue) in
    let k = (op * t.n) + observer in
    let arrive = Times.get t.arrive k in
    let direct = not (Float.is_nan arrive) in
    let arrived = or_else arrive (or_else (Times.get t.dropped_at k) sent) in
    let arrived = Float.min visible (Float.max sent arrived) in
    let applied = or_else (Times.get t.applied k) arrived in
    let applied = Float.min visible (Float.max arrived applied) in
    let j = t.boot_join.(observer) in
    let boot_overlap =
      if Float.is_nan j then 0.0
      else Float.max 0.0 (Float.min t.boot_promoted.(observer) visible -. Float.max j applied)
    in
    {
      Haec_obs.Span.v_op = op;
      v_origin = origin;
      v_obj = obj;
      v_observer = observer;
      issue_at = issue;
      sent_at = sent;
      arrived_at = arrived;
      applied_at = applied;
      visible_at = visible;
      direct;
      boot_overlap;
    }

  (* A bootstrapping replica has joined but not caught up: letting it
     answer reads would surface stale-causal anomalies the checkers cannot
     attribute, so the runner refuses the operation outright — the paper's
     high-availability guarantee is scoped to serving members. *)
  let op t ~replica ~obj o =
    if t.down.(replica) then
      invalid_arg (Printf.sprintf "Runner.op: replica %d is crashed" replica);
    if not (Membership.is_serving t.membership replica) then
      invalid_arg
        (Printf.sprintf "Runner.op: replica %d is %s, not serving" replica
           (Membership.status_name (Membership.status t.membership replica)));
    let state, rval, witness = S.do_op t.states.(replica) ~obj o in
    t.states.(replica) <- state;
    let d = { Event.replica; obj; op = o; rval } in
    record t (Event.Do d);
    if t.record_witness then begin
      let j = t.do_count in
      if j = Array.length t.do_time then begin
        let grown = Array.make (max 64 (2 * j)) 0.0 in
        Array.blit t.do_time 0 grown 0 j;
        t.do_time <- grown
      end;
      t.do_time.(j) <- t.now_;
      (* The delta holds exactly the updates this replica witnesses for
         the first time, and never its own (see {!Witness}). Visibility
         lag: record how long each was in flight in simulated time
         (staleness, Definition 17's "eventually visible" made
         quantitative). *)
      let delta = Witness.fresh t.seen.(replica) ~obj (Lazy.force witness) in
      Witness.record t.wit d delta ~on_new:(fun i obj_i ->
          let t0 = t.do_time.(i) in
          if t.record_spans then begin
            (* the measured lag is defined as the breakdown's component
               sum (see {!Haec_obs.Span.breakdown}), so attribution is
               exact by construction *)
            let origin = (Witness.event t.wit i).Event.replica in
            let v = assemble_visible t ~op:i ~origin ~obj:obj_i ~observer:replica ~issue:t0 in
            Haec_obs.Span.Log.visible t.log v;
            Obs.Histogram.observe t.lag_hist (Haec_obs.Span.breakdown v).total
          end
          else Obs.Histogram.observe t.lag_hist (t.now_ -. t0));
      if t.record_spans && Op.is_update o then
        t.unsent_ops.(replica) <- (j, obj) :: t.unsent_ops.(replica)
    end;
    t.do_count <- t.do_count + 1;
    auto_flush t ~replica;
    rval

  (* Remove a member for good. A graceful leaver says goodbye and flushes
     everything it still holds locally before departing; a crash-leaver
     vanishes mid-protocol — in-flight deliveries addressed to it die with
     it, permanently, and any update only it had logged is simply gone
     (the reach-based settled check accounts for that). *)
  let depart t ~replica ~graceful =
    t.membership <- Membership.leave t.membership replica;
    let epoch = Membership.epoch t.membership in
    t.s_leaves <- t.s_leaves + 1;
    Hashtbl.remove t.bootstrap replica;
    if graceful then begin
      (match t.hooks with
      | Some h -> t.states.(replica) <- h.on_leave ~epoch ~graceful t.states.(replica)
      | None -> ());
      (* the farewell flush: drain every pending payload in one go *)
      while S.has_pending t.states.(replica) do
        ignore (send_one t ~replica)
      done
    end;
    (* either way the leaver is off the network now: deliveries already in
       flight toward it are moot (graceful: it flushed; crash-leave: lost
       for good — count those) *)
    let inflight = Pqueue.to_list t.queue in
    Pqueue.clear t.queue;
    List.iter
      (fun (at, d) ->
        if d.dst <> replica then Pqueue.add t.queue ~priority:at d
        else if not graceful then lose_permanently t d)
      inflight;
    record t (Event.Leave { replica; epoch; graceful })

  (* A graceful leaver has handed off once another staying member that is
     up holds its whole own stream. Observation-only, like [settled]: the
     hand-off itself rides ordinary digest/repair traffic. *)
  let handed_off t ~replica =
    match t.hooks with
    | None -> true
    | Some h ->
      let own = Vclock.get (h.progress t.states.(replica)) replica in
      List.exists
        (fun r ->
          r <> replica
          && (not t.down.(r))
          && Membership.status t.membership r <> Membership.Leaving
          && Vclock.get (h.progress t.states.(r)) replica >= own)
        (Membership.members t.membership)

  (* run wherever a member's progress can advance: deliveries, recoveries *)
  let depart_handed_off t =
    if t.leaving <> [] then begin
      let ready, waiting =
        List.partition (fun r -> (not t.down.(r)) && handed_off t ~replica:r) t.leaving
      in
      t.leaving <- waiting;
      List.iter (fun replica -> depart t ~replica ~graceful:true) ready
    end

  (* Promotion check: a bootstrapping replica becomes serving once its
     progress vector has caught up to the catch-up target captured at join
     time. Driven from deliveries — progress only advances when a repair
     or update lands. *)
  let maybe_promote t ~replica =
    match Hashtbl.find_opt t.bootstrap replica with
    | None -> ()
    | Some (target, since) -> (
      match t.hooks with
      | None -> ()
      | Some h ->
        if Vclock.leq target (h.progress t.states.(replica)) then begin
          Hashtbl.remove t.bootstrap replica;
          t.membership <- Membership.promote t.membership replica;
          Obs.Histogram.observe t.bootstrap_hist (t.now_ -. since);
          if t.record_spans then begin
            t.boot_join.(replica) <- since;
            t.boot_promoted.(replica) <- t.now_;
            let epoch =
              if t.boot_epoch.(replica) >= 0 then t.boot_epoch.(replica)
              else Membership.epoch t.membership
            in
            Haec_obs.Span.Log.bootstrap t.log
              { b_replica = replica; b_epoch = epoch; b_join = since; b_promoted = t.now_ }
          end
        end)

  let deliver_msg t ~dst msg =
    if dst = msg.Message.sender then
      invalid_arg "Runner.deliver_msg: replica cannot receive its own message";
    if t.down.(dst) then
      invalid_arg (Printf.sprintf "Runner.deliver_msg: replica %d is crashed" dst);
    let bootstrapping = Hashtbl.mem t.bootstrap dst in
    let before_progress =
      match t.hooks with
      | Some h when t.record_spans -> Some (h.progress t.states.(dst))
      | _ -> None
    in
    t.states.(dst) <- S.receive t.states.(dst) ~sender:msg.Message.sender msg.Message.payload;
    t.s_deliveries <- t.s_deliveries + 1;
    if t.record_spans then begin
      let src = msg.Message.sender and seq = msg.Message.seq in
      let k = (seq * t.n) + dst in
      let dup = not (Float.is_nan (Times.get t.delivered.(src) k)) in
      Haec_obs.Span.Log.flight t.log ~src ~seq ~dst ~sent:(sent_at t ~src ~seq) ~at:t.now_
        (if dup then Haec_obs.Span.Duplicate else Haec_obs.Span.Delivered);
      if not dup then begin
        Times.set t.delivered.(src) k t.now_;
        List.iter
          (fun i -> Times.first t.arrive ((i * t.n) + dst) t.now_)
          (Ops.get t.msg_ops.(src) seq)
      end;
      (* the protocol's progress vector names exactly which (origin, seq)
         streams advanced under this delivery — direct applies, repair
         applies and orphan-cascade applies all land here *)
      match (before_progress, t.hooks) with
      | Some before, Some h ->
        let after = h.progress t.states.(dst) in
        for o = 0 to t.n - 1 do
          let b = Vclock.get before o and a = Vclock.get after o in
          for s = b to a - 1 do
            List.iter
              (fun i -> Times.first t.applied ((i * t.n) + dst) t.now_)
              (Ops.get t.payload_ops.(o) s)
          done
        done
      | _ -> ()
    end;
    if bootstrapping then begin
      t.s_bootstrap_bytes <- t.s_bootstrap_bytes + String.length msg.Message.payload;
      maybe_promote t ~replica:dst
    end;
    record t (Event.Receive { replica = dst; msg });
    (* non-op-driven stores may now have a message pending *)
    auto_flush t ~replica:dst;
    depart_handed_off t

  let crash t ~replica =
    if t.down.(replica) then
      invalid_arg (Printf.sprintf "Runner.crash: replica %d is already down" replica);
    if not (Membership.is_member t.membership replica) then
      invalid_arg (Printf.sprintf "Runner.crash: replica %d is not a member" replica);
    t.down.(replica) <- true;
    t.s_crashes <- t.s_crashes + 1;
    record t (Event.Crash { replica });
    (* the crash takes every in-flight delivery addressed to it down too *)
    let inflight = Pqueue.to_list t.queue in
    Pqueue.clear t.queue;
    List.iter
      (fun (at, d) ->
        if d.dst = replica then lose_permanently t d else Pqueue.add t.queue ~priority:at d)
      inflight

  let recover t ~replica =
    if not t.down.(replica) then
      invalid_arg (Printf.sprintf "Runner.recover: replica %d is not down" replica);
    t.states.(replica) <- t.recover_state ~replica t.states.(replica);
    t.down.(replica) <- false;
    t.s_recoveries <- t.s_recoveries + 1;
    record t (Event.Recover { replica });
    auto_flush t ~replica;
    depart_handed_off t

  (* Bring a reserve id into the replica set. The joiner boots empty; its
     catch-up target is everything any serving member has witnessed at this
     instant (the pointwise max of their progress vectors), and it is
     promoted to serving only once repair has carried it there — until
     then [op] refuses it. Requires the anti-entropy stack: only a wire
     repair protocol can transfer state into an empty replica. *)
  let join t ~replica =
    if t.gossip = None then
      invalid_arg "Runner.join: dynamic membership requires a gossip driver";
    let hooks =
      match t.hooks with
      | Some h -> h
      | None -> invalid_arg "Runner.join: dynamic membership requires membership hooks"
    in
    t.membership <- Membership.join t.membership replica;
    let epoch = Membership.epoch t.membership in
    t.s_joins <- t.s_joins + 1;
    record t (Event.Join { replica; epoch });
    let target =
      List.fold_left
        (fun acc r -> Vclock.merge acc (hooks.progress t.states.(r)))
        (Vclock.zero ~n:t.n)
        (Membership.serving t.membership)
    in
    t.states.(replica) <- hooks.on_join ~epoch t.states.(replica);
    Hashtbl.replace t.bootstrap replica (target, t.now_);
    if t.record_spans then begin
      t.boot_epoch.(replica) <- epoch;
      t.boot_join.(replica) <- t.now_;
      t.boot_promoted.(replica) <- infinity
    end;
    (* an empty cluster history needs no catch-up: promote on the spot *)
    maybe_promote t ~replica;
    ignore (flush t ~replica)

  (* A graceful leaver that is the only holder of part of its own stream
     stops serving at once but keeps gossiping as a member; it departs
     once a survivor holds the stream, so a payload whose every copy was
     lost on the wire does not die with it. *)
  let leave t ~replica ~graceful =
    if t.down.(replica) then
      invalid_arg
        (Printf.sprintf "Runner.leave: replica %d is down; recover it first or crash-leave" replica);
    if (not graceful) || handed_off t ~replica then depart t ~replica ~graceful
    else begin
      t.membership <- Membership.retire t.membership replica;
      Hashtbl.remove t.bootstrap replica;
      t.leaving <- t.leaving @ [ replica ]
    end

  (* One gossip round: advance the clock to the round's scheduled time,
     tick every live replica (queuing its digest) and flush it. Crashed
     replicas skip the round and resume announcing after recovery. A round
     that comes due while the whole system is already settled is skipped
     (the timer still advances): every replica would only announce a
     vector every other replica already has, and the resulting deliveries
     would keep the queue busy past the next timer forever — quiescence
     would then depend on every digest of a round landing inside one
     interval, a coin-flip that can take thousands of rounds to win. *)
  (* the quiescence oracle only ever looks at current members: reserve
     states are untouched inits and departed states are frozen husks —
     neither has anything left to say *)
  let member_states t =
    Array.of_list (List.map (fun r -> t.states.(r)) (Membership.members t.membership))

  let fire_gossip_round t =
    match t.gossip with
    | None -> ()
    | Some g ->
      t.now_ <- max t.now_ t.next_gossip;
      t.next_gossip <- t.next_gossip +. g.interval;
      if not (g.settled (member_states t)) then begin
        t.s_gossip_rounds <- t.s_gossip_rounds + 1;
        if t.record_spans then
          Haec_obs.Span.Log.repair_round t.log
            { round = t.s_gossip_rounds; r_at = t.now_; r_interval = g.interval };
        for r = 0 to t.n - 1 do
          if Membership.is_member t.membership r && not t.down.(r) then begin
            t.states.(r) <- g.tick t.states.(r);
            ignore (flush t ~replica:r)
          end
        done
      end

  (* the next gossip round fires in event order, before any queued event
     scheduled after it *)
  let gossip_due t =
    t.gossip <> None
    &&
    match Pqueue.peek t.queue with
    | Some (at, _) -> t.next_gossip <= at
    | None -> false

  (* Deliver one scheduled message, routing it through the fault layer: a
     down destination swallows it for good, and an active corruption window
     may mangle its bytes — the checksummed frame rejects the mangled copy
     as [Malformed], which is a loss like any other. *)
  let step t =
    if gossip_due t then begin
      fire_gossip_round t;
      true
    end
    else
      match Pqueue.pop t.queue with
      | None -> false
    | Some (at, ({ dst; msg } as d)) ->
      t.now_ <- max t.now_ at;
      (if not (Membership.is_member t.membership dst) then
         (* a straggler addressed to a replica that has since departed:
            moot, not lost — the leave already settled the accounting *)
         ()
       else if t.down.(dst) then lose_permanently t d
       else
         let corrupt_p =
           match t.faults with
           | Some f -> Fault_plan.corruption_p f ~now:t.now_
           | None -> 0.0
         in
         if corrupt_p > 0.0 && Rng.chance t.rng corrupt_p then begin
           (* [Fault_plan.mutate] is never the identity, so an unseal that
              succeeds can only be a checksum collision *)
           let mangled = Fault_plan.mutate t.rng (Wire.Frame.seal msg.Message.payload) in
           (match Wire.Frame.unseal mangled with
           | exception Wire.Decoder.Malformed _ ->
             t.s_corrupt_rejected <- t.s_corrupt_rejected + 1
           | _ ->
             (* checksum collision (~2^-32): treat as loss *)
             t.s_corrupt_collisions <- t.s_corrupt_collisions + 1);
           lose_permanently t d
         end
         else deliver_msg t ~dst msg);
      true

  let advance_to t time =
    let rec go () =
      let next_ev =
        match Pqueue.peek t.queue with Some (at, _) -> at | None -> infinity
      in
      if t.gossip <> None && t.next_gossip <= time && t.next_gossip <= next_ev then begin
        fire_gossip_round t;
        go ()
      end
      else if next_ev <= time then begin
        ignore (step t);
        go ()
      end
      else t.now_ <- max t.now_ time
    in
    go ()

  let in_flight t = Pqueue.length t.queue

  let pending_count t =
    let c = ref 0 in
    List.iter
      (fun r -> if (not t.down.(r)) && S.has_pending t.states.(r) then incr c)
      (Membership.members t.membership);
    !c

  let run_until_quiescent ?(max_events = 1_000_000) t =
    if t.policy = None then invalid_arg "Runner.run_until_quiescent: no policy";
    let budget = ref max_events in
    let rec go () =
      if !budget <= 0 then
        raise
          (Divergence
             {
               in_flight = Pqueue.length t.queue;
               pending = pending_count t;
               budget = max_events;
             });
      decr budget;
      if step t then go ()
      else begin
        (* queue empty: flush any pending messages, and keep going *)
        let flushed = ref false in
        List.iter
          (fun r ->
            if (not t.down.(r)) && S.has_pending t.states.(r) then begin
              ignore (flush t ~replica:r);
              flushed := true
            end)
          (Membership.members t.membership);
        if !flushed then go ()
        else
          (* nothing in flight and nothing to flush; with a gossip driver
             quiescence additionally means the protocol has converged —
             otherwise keep firing rounds until it has (the event budget
             backstops a protocol that cannot converge). Rounds pause while
             any replica is down: gossip cannot repair into a crashed
             replica, so the run parks until the caller recovers it. *)
          match t.gossip with
          | None -> ()
          | Some g ->
            if List.exists (fun r -> t.down.(r)) (Membership.members t.membership) then ()
            else if g.settled (member_states t) then ()
            else begin
              fire_gossip_round t;
              go ()
            end
      end
    in
    go ()

  let replica_state t r = t.states.(r)

  let execution t =
    Execution.of_list ~n:t.n ~initial:(Membership.initial t.membership)
      (List.rev t.events_rev)

  let messages_sent t =
    List.filter_map
      (function
        | Event.Send { msg; _ } -> Some msg
        | Event.Do _ | Event.Receive _ | Event.Crash _ | Event.Recover _ | Event.Join _
        | Event.Leave _ -> None)
      (List.rev t.events_rev)

  let last_message t ~replica =
    let rec find = function
      | [] -> None
      | Event.Send { msg; _ } :: _ when msg.Message.sender = replica -> Some msg
      | _ :: rest -> find rest
    in
    find t.events_rev

  let witness_abstract t =
    if not t.record_witness then failwith "Runner.witness_abstract: recording disabled";
    Witness.abstract t.wit ~n:t.n

  let witness_deltas t f =
    if not t.record_witness then failwith "Runner.witness_deltas: recording disabled";
    Witness.iter t.wit f
  end
