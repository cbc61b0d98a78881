open Haec_model
module Obs = Haec_obs.Metrics

let theorem12_floor_bits ~n ~s ~k =
  let n' = min (n - 2) (s - 1) in
  if n' <= 0 || k <= 1 then 0.0 else float_of_int n' *. Float.log2 (float_of_int k)

let max_writes_per_replica exec =
  let counts = Array.make (Execution.n_replicas exec) 0 in
  List.iter
    (fun (_, (d : Event.do_event)) ->
      if Op.is_update d.Event.op then
        counts.(d.Event.replica) <- counts.(d.Event.replica) + 1)
    (Execution.do_events exec);
  Array.fold_left max 0 counts

let objects_of exec =
  List.fold_left
    (fun acc (_, (d : Event.do_event)) -> max acc (d.Event.obj + 1))
    0 (Execution.do_events exec)

let wire_of_execution exec =
  let n = Execution.n_replicas exec in
  let msg_count = Array.make n 0 in
  let payload_hist = Obs.Histogram.create () in
  let deliveries = ref 0 in
  let duplicates = ref 0 in
  (* per sent message id: how many deliveries; per (id, dst): duplicates *)
  let delivered : (Message.id, int) Hashtbl.t = Hashtbl.create 64 in
  let seen_at : (Message.id * int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (function
      | Event.Send { replica; msg } ->
        msg_count.(replica) <- msg_count.(replica) + 1;
        Obs.Histogram.observe payload_hist (float_of_int (Message.size_bytes msg));
        Hashtbl.replace delivered (Message.id msg) 0
      | Event.Receive { replica; msg } ->
        incr deliveries;
        let id = Message.id msg in
        (match Hashtbl.find_opt delivered id with
        | Some c -> Hashtbl.replace delivered id (c + 1)
        | None -> ());
        if Hashtbl.mem seen_at (id, replica) then incr duplicates
        else Hashtbl.add seen_at (id, replica) ()
      | Event.Do _ | Event.Crash _ | Event.Recover _ | Event.Join _ | Event.Leave _ -> ())
    (Execution.events exec);
  let fanout_hist = Obs.Histogram.create () in
  Hashtbl.iter
    (fun _ c -> Obs.Histogram.observe fanout_hist (float_of_int c))
    delivered;
  let reg = Obs.Registry.create () in
  let c name v = Obs.Counter.add (Obs.Registry.counter reg name) v in
  c "wire.messages" (Array.fold_left ( + ) 0 msg_count);
  Array.iteri (fun r v -> c (Printf.sprintf "wire.messages.r%d" r) v) msg_count;
  Obs.Registry.register reg "wire.payload_bytes" (Obs.Registry.Histogram payload_hist);
  Obs.Registry.register reg "wire.fanout" (Obs.Registry.Histogram fanout_hist);
  c "wire.deliveries" !deliveries;
  c "wire.duplicates" !duplicates;
  reg

(* Audit the runner's span stream against the recorded trace: transmit spans
   and send events must match 1:1 on message id, and per (message, dst)
   the delivered+duplicate flight count must equal the receive count.
   Returns the mismatches; empty means the stream is consistent. *)
let audit_spans exec spans =
  let sends : (Message.id, unit) Hashtbl.t = Hashtbl.create 64 in
  let recvs : (Message.id * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (function
      | Event.Send { msg; _ } -> Hashtbl.replace sends (Message.id msg) ()
      | Event.Receive { replica; msg } ->
        let key = (Message.id msg, replica) in
        let c = match Hashtbl.find_opt recvs key with Some c -> c | None -> 0 in
        Hashtbl.replace recvs key (c + 1)
      | Event.Do _ | Event.Crash _ | Event.Recover _ | Event.Join _ | Event.Leave _ -> ())
    (Execution.events exec);
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let tx : (Message.id, unit) Hashtbl.t = Hashtbl.create 64 in
  let fl : (Message.id * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Haec_obs.Span.t) ->
      match s with
      | Haec_obs.Span.Transmit x ->
        let id = (x.src, x.seq) in
        if Hashtbl.mem tx id then err "duplicate transmit span m%d.%d" x.src x.seq;
        Hashtbl.replace tx id ()
      | Haec_obs.Span.Flight f when f.f_outcome <> Haec_obs.Span.Dropped ->
        let key = ((f.f_src, f.f_seq), f.f_dst) in
        let c = match Hashtbl.find_opt fl key with Some c -> c | None -> 0 in
        Hashtbl.replace fl key (c + 1)
      | Haec_obs.Span.Flight _ | Haec_obs.Span.Op _ | Haec_obs.Span.Visible _
      | Haec_obs.Span.Bootstrap _ | Haec_obs.Span.Repair_round _ -> ())
    spans;
  Hashtbl.iter
    (fun (src, seq) () ->
      if not (Hashtbl.mem tx (src, seq)) then
        err "send m%d.%d has no transmit span" src seq)
    sends;
  Hashtbl.iter
    (fun (src, seq) () ->
      if not (Hashtbl.mem sends (src, seq)) then
        err "transmit span m%d.%d has no send event" src seq)
    tx;
  Hashtbl.iter
    (fun (((src, seq), dst) as key) c ->
      let got = match Hashtbl.find_opt fl key with Some g -> g | None -> 0 in
      if got <> c then
        err "m%d.%d->%d: %d receive events but %d arrival flights" src seq dst c got)
    recvs;
  Hashtbl.iter
    (fun (((src, seq), dst) as key) c ->
      if not (Hashtbl.mem recvs key) then
        err "m%d.%d->%d: %d arrival flights but no receive event" src seq dst c)
    fl;
  List.rev !errors

let snapshot ?(meta = []) ?objects exec reg =
  let n = Execution.n_replicas exec in
  let s = match objects with Some s -> s | None -> objects_of exec in
  let k = max_writes_per_replica exec in
  Obs.Gauge.set
    (Obs.Registry.gauge reg "theorem12_floor_bits")
    (theorem12_floor_bits ~n ~s ~k);
  Obs.Gauge.set
    (Obs.Registry.gauge reg "wire.max_message_bits")
    (float_of_int (Execution.max_message_bits exec));
  Obs.Gauge.set
    (Obs.Registry.gauge reg "wire.total_bytes")
    (float_of_int (Execution.total_message_bits exec / 8));
  Haec_obs.Metrics_io.snapshot ~meta reg
