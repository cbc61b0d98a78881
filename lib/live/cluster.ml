open Haec_util
open Haec_model
open Haec_wire
open Haec_vclock
open Haec_spec
module Obs = Haec_obs.Metrics
module Store_intf = Haec_store.Store_intf
module Fault_plan = Haec_sim.Fault_plan
module Witness = Haec_sim.Witness

module type STACK = Haec_sim.Stack.S

type config = {
  replicas : int;
  seed : int;
  objects : int;
  mix : Load.mix;
  zipf : float;
  duration : float;
  rate : float;
  batch : int;
  gossip_interval : float;
  ring_capacity : int;
  capture : bool;
  faults : Fault_plan.t option;
  drop_p : float;
  heal_by : float;
  stack : Haec_store.Store_intf.config;
}

let default =
  {
    replicas = 2;
    seed = 42;
    objects = 64;
    mix = Load.register_mix;
    zipf = 0.0;
    duration = 1.0;
    rate = 0.0;
    batch = 8;
    gossip_interval = 0.001;
    ring_capacity = 1024;
    capture = false;
    faults = None;
    drop_p = 0.0;
    heal_by = 0.0;
    stack = Haec_store.Store_intf.default;
  }

type outcome = Healed of { degraded_settled : bool } | Diverged of string

type replica_stats = {
  ops : int;
  issued : int;
  reads : int;
  updates : int;
  frames_sent : int;
  frames_recv : int;
  frames_rejected : int;
  payload_bytes : int;
  wire_bytes : int;
  bytes_recv : int;
  stalls : int;
  crashes : int;
  crash_lost : int;
  queue_depth_peak : int;
  pending_bytes_peak : int;
  gossip : Store_intf.gossip_stats;
}

type result = {
  cfg : config;
  elapsed : float;
  drain_elapsed : float;
  converged : bool;
  outcome : outcome;
  availability : float;
  total_ops : int;
  total_issued : int;
  total_updates : int;
  ops_per_sec : float;
  lag_ms : Obs.Histogram.t;
  recovery_ms : Obs.Histogram.t;
  frames : int;
  payload_bytes : int;
  wire_bytes : int;
  max_payload_bytes : int;
  stalls : int;
  crashes : int;
  frames_rejected : int;
  queue_depth_peak : int;
  pending_bytes_peak : int;
  per_replica : replica_stats array;
  fault_totals : Faults.totals option;
  fault_links : (int * int * Faults.totals) list;
  registry : Obs.Registry.t;
  gossip : Store_intf.gossip_stats;
  trace : Execution.t option;
  witness : Abstract.t option;
}

(* what travels through a ring: the sealed frame, the sender's send
   counter (message identity for the trace), and the issue time of the
   oldest client op the frame carries (NaN for pure control traffic) *)
type frame = { bytes : string; seq : int; issued_at : float }

(* a timestamped local event plus, for do events under capture, the
   store's witness cut down to the updates this replica had not yet
   witnessed (a {!Haec_sim.Witness.fresh} delta) *)
type tev = { at : float; ev : Event.t; wit : Witness.delta option }

module Make (S : STACK) = struct
  type node = {
    me : int;
    n : int;
    cfg : config;
    clock : unit -> float;
    mutable state : S.state;
    inbox : frame Spsc.t array;  (* indexed by source replica *)
    outbox : frame Spsc.t array;  (* indexed by destination replica *)
    rng : Rng.t;
    samp : Load.sampler;
    g : Load.gen;
    mutable send_seq : int;
    mutable dos : int;
    mutable reads : int;
    mutable frames_sent : int;
    mutable frames_recv : int;
    mutable payload_bytes : int;
    mutable wire_bytes : int;
    mutable bytes_recv : int;
    mutable stalls : int;
    stalls_by : int array;  (* per destination, for live.ring.stall.* *)
    mutable max_payload : int;
    mutable qd_peak : int;
    mutable pb_peak : int;
    lag : Obs.Histogram.t;
    mutable oldest_unflushed : float;  (* NaN when no unflushed update *)
    mutable last_tick : float;
    mutable events_rev : tev list;
    seen : Witness.seen;  (* capture: the keys this replica has witnessed *)
    mutable on_full : int -> unit;
        (* invoked (with the full destination) until the push succeeds;
           the live loop drains its own inbox — peers blocked pushing to
           us make progress once we pop, so the mesh cannot deadlock *)
    faults : Faults.t option;
    up : bool Atomic.t array;
        (* shared liveness board: cell [r] is written only by domain [r]
           (crash teardown/restart); everyone reads it *)
    mutable crash_sched : (float * float) array;
        (* this replica's wall-clock (at, recover_at) windows, ascending *)
    mutable crash_idx : int;
    mutable crashes : int;
    mutable frames_rejected : int;  (* Malformed at unseal: corrupted in flight *)
    mutable crash_lost : int;  (* inbox frames discarded at restart *)
    delayed : (float * frame) list array;
        (* per destination, ascending by release time: frames a reorder
           window is holding back *)
  }

  let make_node cfg ~me ~clock ~rings ~faults ~up =
    let n = cfg.replicas in
    {
      me;
      n;
      cfg;
      clock;
      state = S.create cfg.stack ~n ~me;
      inbox = Array.init n (fun src -> rings.(src).(me));
      outbox = rings.(me);
      rng = Rng.create (cfg.seed + (me * 1_000_003));
      samp = Load.sampler ~objects:cfg.objects ~theta:cfg.zipf;
      g = Load.gen ~replica:me cfg.mix;
      send_seq = 0;
      dos = 0;
      reads = 0;
      frames_sent = 0;
      frames_recv = 0;
      payload_bytes = 0;
      wire_bytes = 0;
      bytes_recv = 0;
      stalls = 0;
      stalls_by = Array.make n 0;
      max_payload = 0;
      qd_peak = 0;
      pb_peak = 0;
      lag = Obs.Histogram.create ();
      oldest_unflushed = Float.nan;
      last_tick = 0.0;
      events_rev = [];
      seen = Witness.seen ();
      on_full = (fun _ -> ());
      faults;
      up;
      crash_sched = [||];
      crash_idx = 0;
      crashes = 0;
      frames_rejected = 0;
      crash_lost = 0;
      delayed = Array.make n [];
    }

  let receive_frame node ~src (f : frame) =
    node.frames_recv <- node.frames_recv + 1;
    node.bytes_recv <- node.bytes_recv + String.length f.bytes;
    match Wire.Frame.unseal f.bytes with
    | exception Wire.Decoder.Malformed _ ->
      (* corrupted in flight: the checksum rejects it at the door and the
         replica keeps draining — the lost content is ordinary loss that
         anti-entropy repair heals *)
      node.frames_rejected <- node.frames_rejected + 1
    | payload ->
      let before = Vclock.get (S.progress node.state) src in
      node.state <- S.receive node.state ~sender:src payload;
      if
        Vclock.get (S.progress node.state) src > before
        && not (Float.is_nan f.issued_at)
      then Obs.Histogram.observe node.lag ((node.clock () -. f.issued_at) *. 1000.0);
      if node.cfg.capture then
        node.events_rev <-
          {
            at = node.clock ();
            ev =
              Event.Receive
                { replica = node.me;
                  msg = { Message.sender = src; seq = f.seq; payload } };
            wit = None;
          }
          :: node.events_rev

  let drain node =
    let got = ref 0 in
    for src = 0 to node.n - 1 do
      if src <> node.me then begin
        let ring = node.inbox.(src) in
        let more = ref true in
        while !more do
          match Spsc.try_pop ring with
          | None -> more := false
          | Some f ->
            incr got;
            receive_frame node ~src f
        done
      end
    done;
    !got

  (* The ring never blocks: full means the consumer is behind (drain our
     own inbox via [on_full] and retry — the mesh cannot deadlock) or
     crashed (the frame dies on the wire, like bytes sent to a dead
     process). *)
  let push_ring node ~dst f =
    let rec go () =
      if not (Atomic.get node.up.(dst)) then
        match node.faults with
        | Some fl -> Faults.note_crash_lost fl ~src:node.me ~dst
        | None -> ()
      else if Spsc.try_push node.outbox.(dst) f then ()
      else begin
        node.stalls <- node.stalls + 1;
        node.stalls_by.(dst) <- node.stalls_by.(dst) + 1;
        node.on_full dst;
        go ()
      end
    in
    go ()

  let rec insert_delayed q release f =
    match q with
    | [] -> [ (release, f) ]
    | (r0, _) :: _ when release < r0 -> (release, f) :: q
    | e :: rest -> e :: insert_delayed rest release f

  (* release frames a reorder window was holding back *)
  let pump_delayed node =
    match node.faults with
    | None -> ()
    | Some _ ->
      let now = node.clock () in
      for dst = 0 to node.n - 1 do
        let rec pump () =
          match node.delayed.(dst) with
          | (release, f) :: rest when release <= now ->
            node.delayed.(dst) <- rest;
            push_ring node ~dst f;
            pump ()
          | _ -> ()
        in
        pump ()
      done

  let rec flush node =
    if S.has_pending node.state then begin
      let st, payload = S.send node.state in
      node.state <- st;
      let seq = node.send_seq in
      node.send_seq <- seq + 1;
      let plen = String.length payload in
      node.payload_bytes <- node.payload_bytes + plen;
      if plen > node.max_payload then node.max_payload <- plen;
      node.frames_sent <- node.frames_sent + 1;
      if node.cfg.capture then
        node.events_rev <-
          {
            at = node.clock ();
            ev =
              Event.Send
                { replica = node.me;
                  msg = { Message.sender = node.me; seq; payload } };
            wit = None;
          }
          :: node.events_rev;
      let bytes = Wire.Frame.seal payload in
      let f = { bytes; seq; issued_at = node.oldest_unflushed } in
      node.oldest_unflushed <- Float.nan;
      for dst = 0 to node.n - 1 do
        if dst <> node.me then begin
          match node.faults with
          | None ->
            node.wire_bytes <- node.wire_bytes + String.length bytes;
            push_ring node ~dst f
          | Some fl ->
            let now = node.clock () in
            List.iter
              (fun (release, bytes') ->
                (* wire bytes count what the sender put on the link; what
                   a drop loses is counted in the fault totals instead *)
                node.wire_bytes <- node.wire_bytes + String.length bytes';
                let f' = if bytes' == bytes then f else { f with bytes = bytes' } in
                if release <= now then push_ring node ~dst f'
                else node.delayed.(dst) <- insert_delayed node.delayed.(dst) release f')
              (Faults.transform fl ~src:node.me ~dst ~now bytes)
        end
      done;
      flush node
    end

  (* A crash window: the replica's volatile memory and every frame queued
     for or addressed to it die; only the durable image survives. The
     domain itself is kept — each ring has exactly one legal producer and
     consumer — so the teardown is semantic: state dropped, no events
     until Recover, inbox discarded at restart. [S.recover] keeps the
     replica's protocol counters as they were at the crash. Returns
     [false] when the run ended while the replica was down (it then stays
     down). *)
  let crash_restart node ~phase ~recover_at =
    node.crashes <- node.crashes + 1;
    if node.cfg.capture then
      node.events_rev <-
        { at = node.clock (); ev = Event.Crash { replica = node.me }; wit = None }
        :: node.events_rev;
    Atomic.set node.up.(node.me) false;
    (* delayed outbound frames were the dead process's memory *)
    for dst = 0 to node.n - 1 do
      (match (node.faults, node.delayed.(dst)) with
      | Some fl, (_ :: _ as q) ->
        List.iter (fun _ -> Faults.note_crash_lost fl ~src:node.me ~dst) q
      | _ -> ());
      node.delayed.(dst) <- []
    done;
    let rec wait () =
      if Atomic.get phase >= 2 then false
      else if node.clock () < recover_at then begin
        Domain.cpu_relax ();
        wait ()
      end
      else begin
        (* restart: rebuild from the durable image (WAL replay through a
           fresh replica) and discard whatever the rings held for the
           dead process — those losses are permanent until anti-entropy
           repair heals them *)
        node.state <- S.recover node.state;
        for src = 0 to node.n - 1 do
          if src <> node.me then begin
            let more = ref true in
            while !more do
              match Spsc.try_pop node.inbox.(src) with
              | None -> more := false
              | Some _ -> node.crash_lost <- node.crash_lost + 1
            done
          end
        done;
        node.oldest_unflushed <- Float.nan;
        node.last_tick <- node.clock ();
        if node.cfg.capture then
          node.events_rev <-
            { at = node.clock ();
              ev = Event.Recover { replica = node.me };
              wit = None }
            :: node.events_rev;
        Atomic.set node.up.(node.me) true;
        true
      end
    in
    wait ()

  let issue node ~count =
    for _ = 1 to count do
      let obj = Load.sample node.samp node.rng in
      let op = Load.next node.g node.rng in
      (match op with Op.Read -> node.reads <- node.reads + 1 | _ -> ());
      if Op.is_update op && Float.is_nan node.oldest_unflushed then
        node.oldest_unflushed <- node.clock ();
      let st, rval, wit = S.do_op node.state ~obj op in
      node.state <- st;
      node.dos <- node.dos + 1;
      if node.cfg.capture then
        node.events_rev <-
          {
            at = node.clock ();
            ev = Event.Do { Event.replica = node.me; obj; op; rval };
            wit = Some (Witness.fresh node.seen ~obj (Lazy.force wit));
          }
          :: node.events_rev
    done

  let maybe_tick node ~now =
    if now -. node.last_tick >= node.cfg.gossip_interval then begin
      node.last_tick <- now;
      node.state <- S.tick node.state;
      flush node
    end

  let sample_backpressure node =
    let qd = S.queue_depth node.state in
    if qd > node.qd_peak then node.qd_peak <- qd;
    let pb = S.pending_bytes node.state in
    if pb > node.pb_peak then node.pb_peak <- pb

  (* phase protocol: 0 = load, 1 = drain (no new client ops, keep
     gossiping until the coordinator sees global settlement), 2 = stop *)
  type snap = { s_state : S.state; s_phase : int }

  let live_loop node ~phase ~cell =
    let cfg = node.cfg in
    let pacing = cfg.rate > 0.0 in
    let interval =
      if pacing then float_of_int cfg.batch /. cfg.rate else 0.0
    in
    (match node.faults with
    | Some fl -> node.crash_sched <- Faults.crash_schedule fl ~replica:node.me
    | None -> ());
    node.last_tick <- node.clock ();
    let next_issue = ref (node.clock ()) in
    let iters = ref 0 in
    let running = ref true in
    while !running do
      incr iters;
      (if node.crash_idx < Array.length node.crash_sched then begin
         let at, recover_at = node.crash_sched.(node.crash_idx) in
         if node.clock () >= at then begin
           node.crash_idx <- node.crash_idx + 1;
           if not (crash_restart node ~phase ~recover_at) then running := false
         end
       end);
      if !running then begin
        let got = drain node in
        let ph = Atomic.get phase in
        if ph = 0 then begin
          if not pacing then begin
            issue node ~count:cfg.batch;
            flush node
          end
          else begin
            let now = node.clock () in
            if now >= !next_issue then begin
              issue node ~count:cfg.batch;
              flush node;
              next_issue := !next_issue +. interval;
              (* descheduled for a while: skip forward instead of bursting *)
              if !next_issue < now -. (10.0 *. interval) then next_issue := now
            end
            else if got = 0 then Domain.cpu_relax ()
          end
        end;
        (* answer control traffic (repairs, requests) promptly even when
           not issuing *)
        if got > 0 && S.has_pending node.state then flush node;
        pump_delayed node;
        maybe_tick node ~now:(node.clock ());
        if ph > 0 || !iters land 1023 = 0 then begin
          sample_backpressure node;
          Atomic.set cell (Some { s_state = node.state; s_phase = ph })
        end;
        if ph = 1 then begin
          if S.has_pending node.state then flush node;
          if got = 0 then Domain.cpu_relax ()
        end
        else if ph >= 2 then running := false
      end
    done

  (* Interleave the per-replica event logs into one execution, ordering
     by timestamp but never emitting a receive before its send: each
     step picks the earliest enabled head. An enabled head always
     exists — a cycle of receives each waiting on a send behind another
     blocked receive would be a causal cycle, impossible since every
     send precedes its receives in real time on its own replica — but a
     blocked fallback keeps the merge total regardless of clock skew.
     The witness is assembled by the simulator's recorder in the same
     pass: each do event's delta resolves against the self dots of
     earlier merged do events, giving vis edges that respect H order by
     construction. *)
  let assemble ~n nodes =
    let per = Array.map (fun node -> Array.of_list (List.rev node.events_rev)) nodes
    in
    let idx = Array.make n 0 in
    let sent = Int_tbl.Pair.create 1024 in
    let total = Array.fold_left (fun a evs -> a + Array.length evs) 0 per in
    let events_rev = ref [] in
    let wit = Witness.create () in
    for _ = 1 to total do
      let best = ref (-1) in
      let best_at = ref infinity in
      let blocked = ref (-1) in
      let blocked_at = ref infinity in
      for r = 0 to n - 1 do
        if idx.(r) < Array.length per.(r) then begin
          let te = per.(r).(idx.(r)) in
          let is_blocked =
            match te.ev with
            | Event.Receive { msg; _ } ->
              not (Int_tbl.Pair.mem sent (msg.Message.sender, msg.Message.seq))
            | _ -> false
          in
          if is_blocked then begin
            if te.at < !blocked_at then begin
              blocked := r;
              blocked_at := te.at
            end
          end
          else if te.at < !best_at then begin
            best := r;
            best_at := te.at
          end
        end
      done;
      let r = if !best >= 0 then !best else !blocked in
      let te = per.(r).(idx.(r)) in
      idx.(r) <- idx.(r) + 1;
      (match te.ev with
      | Event.Send { msg; _ } ->
        Int_tbl.Pair.replace sent (msg.Message.sender, msg.Message.seq) ()
      | Event.Do de ->
        Witness.record wit de (Option.value te.wit ~default:Witness.no_delta)
      | _ -> ());
      events_rev := te.ev :: !events_rev
    done;
    (Execution.of_list ~n (List.rev !events_rev), Witness.abstract wit ~n)

  let harvest cfg ~elapsed ~drain_elapsed ~outcome ~availability ~recovery_ms
      ~faults nodes =
    let n = cfg.replicas in
    let converged = match outcome with Healed _ -> true | Diverged _ -> false in
    let per_replica =
      Array.map
        (fun node ->
          {
            ops = node.dos;
            issued = Load.issued node.g;
            reads = node.reads;
            updates = Load.writes node.g;
            frames_sent = node.frames_sent;
            frames_recv = node.frames_recv;
            frames_rejected = node.frames_rejected;
            payload_bytes = node.payload_bytes;
            wire_bytes = node.wire_bytes;
            bytes_recv = node.bytes_recv;
            stalls = node.stalls;
            crashes = node.crashes;
            crash_lost = node.crash_lost;
            queue_depth_peak = node.qd_peak;
            pending_bytes_peak = node.pb_peak;
            gossip = S.counters node.state;
          })
        nodes
    in
    let sum f = Array.fold_left (fun a r -> a + f r) 0 per_replica in
    let peak f = Array.fold_left (fun a r -> max a (f r)) 0 per_replica in
    let total_ops = sum (fun r -> r.ops) in
    let total_issued = sum (fun r -> r.issued) in
    let total_updates = sum (fun r -> r.updates) in
    let frames = sum (fun r -> r.frames_sent) in
    let payload_bytes = sum (fun r -> r.payload_bytes) in
    let wire_bytes = sum (fun r -> r.wire_bytes) in
    let stalls = sum (fun r -> r.stalls) in
    let max_payload_bytes =
      Array.fold_left (fun a node -> max a node.max_payload) 0 nodes
    in
    let queue_depth_peak = peak (fun r -> r.queue_depth_peak) in
    let pending_bytes_peak = peak (fun r -> r.pending_bytes_peak) in
    let lag_ms = Obs.Histogram.create () in
    Array.iter (fun node -> Obs.Histogram.merge_into lag_ms node.lag) nodes;
    let gossip =
      Array.fold_left
        (fun a (r : replica_stats) -> Store_intf.add_gossip_stats a r.gossip)
        (Store_intf.fresh_gossip_stats ()) per_replica
    in
    let ops_per_sec =
      if elapsed > 0.0 then float_of_int total_ops /. elapsed else 0.0
    in
    let reg = Obs.Registry.create () in
    let c name v = Obs.Counter.add (Obs.Registry.counter reg name) v in
    let g name v = Obs.Gauge.set (Obs.Registry.gauge reg name) v in
    c "live.ops" total_ops;
    c "live.issued" total_issued;
    c "live.updates" total_updates;
    c "live.frames" frames;
    c "live.payload_bytes" payload_bytes;
    c "live.wire_bytes" wire_bytes;
    c "live.stalls" stalls;
    c "live.ring.stall" stalls;
    Array.iter
      (fun node ->
        Array.iteri
          (fun dst v ->
            if v > 0 then
              c (Printf.sprintf "live.ring.stall.r%d_r%d" node.me dst) v)
          node.stalls_by)
      nodes;
    c "live.crashes" (sum (fun r -> r.crashes));
    c "live.frames.rejected" (sum (fun r -> r.frames_rejected));
    c "live.crash_lost" (sum (fun r -> r.crash_lost));
    g "live.ops_per_sec" ops_per_sec;
    g "live.converged" (if converged then 1.0 else 0.0);
    g "live.availability" availability;
    g "live.degraded_settled"
      (match outcome with
      | Healed { degraded_settled = true } -> 1.0
      | Healed _ | Diverged _ -> 0.0);
    g "live.queue_depth_peak" (float_of_int queue_depth_peak);
    g "live.pending_bytes_peak" (float_of_int pending_bytes_peak);
    Obs.Registry.register reg "live.lag_ms" (Obs.Registry.Histogram lag_ms);
    Obs.Registry.register reg "live.recovery_ms"
      (Obs.Registry.Histogram recovery_ms);
    let fault_totals = Option.map Faults.totals faults in
    let fault_links =
      match faults with None -> [] | Some fl -> Faults.per_link fl
    in
    (match fault_totals with
    | Some (t : Faults.totals) ->
      c "faults.drops" t.drops;
      c "faults.delays" t.delays;
      c "faults.dups" t.dups;
      c "faults.corrupts" t.corrupts;
      c "faults.crash_lost" t.crash_lost
    | None -> ());
    (* the repair log the replicas still hold at the end of the run *)
    let log_sum f = Array.fold_left (fun a node -> a + f node.state) 0 nodes in
    Haec_sim.Stack.publish reg gossip ~log_entries:(log_sum S.log_entries)
      ~log_bytes:(log_sum S.log_bytes);
    let trace, witness =
      if cfg.capture then begin
        let exec, wit = assemble ~n nodes in
        (Some exec, Some wit)
      end
      else (None, None)
    in
    {
      cfg;
      elapsed;
      drain_elapsed;
      converged;
      outcome;
      availability;
      total_ops;
      total_issued;
      total_updates;
      ops_per_sec;
      lag_ms;
      recovery_ms;
      frames;
      payload_bytes;
      wire_bytes;
      max_payload_bytes;
      stalls;
      crashes = sum (fun r -> r.crashes);
      frames_rejected = sum (fun r -> r.frames_rejected);
      queue_depth_peak;
      pending_bytes_peak;
      per_replica;
      fault_totals;
      fault_links;
      registry = reg;
      gossip;
      trace;
      witness;
    }

  let validate cfg =
    if cfg.replicas < 1 then invalid_arg "Cluster.run: replicas must be >= 1";
    if cfg.objects < 1 then invalid_arg "Cluster.run: objects must be >= 1";
    if cfg.batch < 1 then invalid_arg "Cluster.run: batch must be >= 1";
    if cfg.ring_capacity < 2 then
      invalid_arg "Cluster.run: ring capacity must be >= 2";
    if not (Float.is_finite cfg.gossip_interval) || cfg.gossip_interval < 0.0
    then invalid_arg "Cluster.run: gossip interval must be >= 0";
    if not (Load.is_update_mix cfg.mix) then
      invalid_arg "Cluster.run: mix never updates, nothing would replicate";
    if (not (Float.is_finite cfg.drop_p)) || cfg.drop_p < 0.0 || cfg.drop_p >= 1.0
    then invalid_arg "Cluster.run: drop probability must be in [0, 1)";
    if not (Float.is_finite cfg.heal_by) || cfg.heal_by < 0.0 then
      invalid_arg "Cluster.run: heal-by must be >= 0";
    match cfg.faults with
    | Some plan when plan.Fault_plan.crashes <> [] && not S.durable ->
      invalid_arg
        "Cluster.run: crash windows need a durable stack (Stack.Durable) — a \
         volatile replica has nothing to recover from"
    | Some _ | None -> ()

  (* undirected reachability components over the up replicas: an edge
     needs both directions currently carrying frames (probabilistic loss
     is not a cut — a lossy link is still a link) *)
  let components ~n ~ups ~faults ~now =
    let alive i j =
      match faults with
      | None -> true
      | Some fl ->
        Faults.reachable fl ~src:i ~dst:j ~now
        && Faults.reachable fl ~src:j ~dst:i ~now
    in
    let seen = Array.make n false in
    let comps = ref [] in
    for r = 0 to n - 1 do
      if ups.(r) && not seen.(r) then begin
        seen.(r) <- true;
        let stack = ref [ r ] in
        let members = ref [] in
        while !stack <> [] do
          let i = List.hd !stack in
          stack := List.tl !stack;
          members := i :: !members;
          for j = 0 to n - 1 do
            if ups.(j) && (not seen.(j)) && j <> i && alive i j then begin
              seen.(j) <- true;
              stack := j :: !stack
            end
          done
        done;
        comps := !members :: !comps
      end
    done;
    !comps

  let run cfg =
    validate cfg;
    (* a NaN fails every comparison, so test finiteness first: a NaN
       duration would end the load phase at once, an infinite one never *)
    if (not (Float.is_finite cfg.duration)) || cfg.duration <= 0.0 then
      invalid_arg "Cluster.run: duration must be finite and > 0";
    if (not (Float.is_finite cfg.rate)) || cfg.rate < 0.0 then
      invalid_arg "Cluster.run: rate must be finite and >= 0 (0 = saturation)";
    let n = cfg.replicas in
    let faults =
      match (cfg.faults, cfg.drop_p > 0.0) with
      | None, false -> None
      | plan, _ ->
        Some
          (Faults.make
             ~plan:(Option.value plan ~default:Fault_plan.none)
             ~drop_p:cfg.drop_p ~seed:(cfg.seed + 0x5eed) ~n)
    in
    let rings =
      Array.init n (fun _ -> Array.init n (fun _ -> Spsc.create cfg.ring_capacity))
    in
    let phase = Atomic.make 0 in
    let cells = Array.init n (fun _ -> Atomic.make None) in
    let up = Array.init n (fun _ -> Atomic.make true) in
    let gate = Atomic.make false in
    let clock = Unix.gettimeofday in
    let domains =
      Array.init n (fun me ->
          Domain.spawn (fun () ->
              let node = make_node cfg ~me ~clock ~rings ~faults ~up in
              node.on_full <- (fun _ -> ignore (drain node));
              while not (Atomic.get gate) do
                Domain.cpu_relax ()
              done;
              live_loop node ~phase ~cell:cells.(me);
              node))
    in
    let t0 = clock () in
    (* bind plan time to the load-phase origin; the gate write below
       publishes it to every domain *)
    Option.iter (fun fl -> Faults.start fl ~t0) faults;
    Atomic.set gate true;
    let rec sleep_until t =
      let now = clock () in
      if now < t then begin
        Unix.sleepf (Float.min 0.01 (t -. now));
        sleep_until t
      end
    in
    sleep_until (t0 +. cfg.duration);
    let elapsed = clock () -. t0 in
    Atomic.set phase 1;
    let t1 = clock () in
    (* the full-set settlement deadline starts when the last healing
       fault has healed — a partition scheduled to heal mid-drain must
       not eat the budget for post-heal repair *)
    let heal_wall =
      match faults with
      | None -> t1
      | Some fl -> Float.max t1 (Faults.last_heal fl)
    in
    let heal_by =
      if cfg.heal_by > 0.0 then cfg.heal_by
      else Float.max 10.0 (5.0 *. cfg.duration)
    in
    let deadline = heal_wall +. heal_by in
    (* Converged when, twice in a row: every up node has published a
       phase-1 snapshot and the full member set forms one reachable
       component whose snapshot states are settled. This is exactly data
       convergence: a phase-1 snapshot of replica i carries every update
       i will ever issue (logs are monotone and phase 1 issues none), so
       the union over the snapshots covers the whole system, and
       settledness of the snapshots means every replica already held all
       of it — an un-broadcast update or an in-flight repair keeps some
       snapshot unsettled. While faults degrade the cluster (a replica
       down, a partition open), settledness is tracked per reachable
       component instead: all components settled twice in a row is the
       degraded steady state the paper's availability claims are about,
       recorded in the outcome. Ring occupancy is deliberately NOT
       consulted: even a converged cluster sends a full digest every
       [full_digest_every] gossip ticks, so "rings empty" could time the
       poll out on a converged cluster. *)
    let converged = ref false in
    let degraded_settled = ref false in
    let full_streak = ref 0 in
    let degraded_streak = ref 0 in
    let settle_at = ref Float.nan in
    while (not !converged) && clock () < deadline do
      Unix.sleepf 0.002;
      let now = clock () in
      let ups = Array.map Atomic.get up in
      let snaps = Array.map Atomic.get cells in
      let have_snap r =
        match snaps.(r) with Some s -> s.s_phase >= 1 | None -> false
      in
      let state_of r =
        match snaps.(r) with Some s -> s.s_state | None -> assert false
      in
      let comps = components ~n ~ups ~faults ~now in
      let n_up = Array.fold_left (fun a u -> if u then a + 1 else a) 0 ups in
      if n_up > 0 && List.for_all (List.for_all have_snap) comps then begin
        let ok =
          List.for_all
            (fun c -> S.settled (Array.of_list (List.map state_of c)))
            comps
        in
        let full =
          n_up = n && match comps with [ c ] -> List.length c = n | _ -> false
        in
        if ok && full then begin
          degraded_streak := 0;
          incr full_streak;
          if !full_streak >= 2 then begin
            converged := true;
            settle_at := clock ()
          end
        end
        else if ok then begin
          full_streak := 0;
          incr degraded_streak;
          if !degraded_streak >= 2 then degraded_settled := true
        end
        else begin
          full_streak := 0;
          degraded_streak := 0
        end
      end
      else begin
        full_streak := 0;
        degraded_streak := 0
      end
    done;
    Atomic.set phase 2;
    let nodes = Array.map Domain.join domains in
    let drain_elapsed = clock () -. t1 in
    let outcome =
      if !converged then Healed { degraded_settled = !degraded_settled }
      else begin
        let stuck = ref [] in
        Array.iteri
          (fun r cell ->
            if not (Atomic.get cell) then stuck := r :: !stuck)
          up;
        let downs = List.rev !stuck in
        Diverged
          (Printf.sprintf
             "full-set settlement missed the post-heal deadline (heal + %.1fs)%s"
             heal_by
             (match downs with
             | [] -> ""
             | rs ->
               Printf.sprintf "; still down: %s"
                 (String.concat ", "
                    (List.map (fun r -> "R" ^ string_of_int r) rs))))
      end
    in
    (* recovery latency: from each fault's heal instant to the full-set
       settle — one sample per fired crash window, or one for the plan's
       last heal when it carried no crashes *)
    let recovery_ms = Obs.Histogram.create () in
    (match (faults, !converged) with
    | Some fl, true ->
      let t = !settle_at in
      let any = ref false in
      for r = 0 to n - 1 do
        Array.iter
          (fun (_, recover_at) ->
            if recover_at <= t then begin
              any := true;
              Obs.Histogram.observe recovery_ms
                (Float.max 0.0 (t -. recover_at) *. 1000.0)
            end)
          (Faults.crash_schedule fl ~replica:r)
      done;
      if not !any then begin
        let h = Faults.last_heal fl in
        if h > t0 then
          Obs.Histogram.observe recovery_ms (Float.max 0.0 (t -. h) *. 1000.0)
      end
    | _ -> ());
    let availability =
      match faults with
      | None -> 1.0
      | Some fl ->
        if elapsed <= 0.0 then 1.0
        else
          1.0
          -. Faults.downtime fl ~from_:t0 ~until:(t0 +. elapsed)
             /. (float_of_int n *. elapsed)
    in
    harvest cfg ~elapsed ~drain_elapsed ~outcome ~availability ~recovery_ms
      ~faults nodes

  let run_inline ?(ops_per_replica = 64) ?(tick_every = 8) cfg =
    let cfg = { cfg with capture = true; rate = 0.0 } in
    validate cfg;
    if cfg.faults <> None || cfg.drop_p > 0.0 then
      invalid_arg
        "Cluster.run_inline: fault injection needs the multi-domain runtime";
    if ops_per_replica < 1 then
      invalid_arg "Cluster.run_inline: ops_per_replica must be >= 1";
    if tick_every < 1 then
      invalid_arg "Cluster.run_inline: tick_every must be >= 1";
    let n = cfg.replicas in
    let vt = ref 0.0 in
    let clock () =
      vt := !vt +. 1e-6;
      !vt
    in
    let rings =
      Array.init n (fun _ -> Array.init n (fun _ -> Spsc.create cfg.ring_capacity))
    in
    let up = Array.init n (fun _ -> Atomic.make true) in
    let nodes =
      Array.init n (fun me -> make_node cfg ~me ~clock ~rings ~faults:None ~up)
    in
    Array.iter
      (fun node -> node.on_full <- (fun dst -> ignore (drain nodes.(dst))))
      nodes;
    let t0 = Unix.gettimeofday () in
    for round = 1 to ops_per_replica do
      Array.iter
        (fun node ->
          ignore (drain node);
          issue node ~count:1;
          flush node)
        nodes;
      if round mod tick_every = 0 then
        Array.iter
          (fun node ->
            node.state <- S.tick node.state;
            flush node)
          nodes
    done;
    let states () = Array.map (fun node -> node.state) nodes in
    let quiet () =
      Array.for_all (fun row -> Array.for_all Spsc.is_empty row) rings
      && Array.for_all (fun node -> not (S.has_pending node.state)) nodes
    in
    let done_ () = quiet () && S.settled (states ()) in
    let guard = ref 0 in
    while (not (done_ ())) && !guard < 10_000 do
      incr guard;
      Array.iter
        (fun node ->
          ignore (drain node);
          if S.has_pending node.state then flush node)
        nodes;
      if quiet () && not (S.settled (states ())) then
        Array.iter
          (fun node ->
            node.state <- S.tick node.state;
            flush node)
          nodes
    done;
    if not (done_ ()) then failwith "Cluster.run_inline: did not reach quiescence";
    let elapsed = Unix.gettimeofday () -. t0 in
    harvest cfg ~elapsed ~drain_elapsed:0.0
      ~outcome:(Healed { degraded_settled = false })
      ~availability:1.0
      ~recovery_ms:(Obs.Histogram.create ())
      ~faults:None nodes
end
