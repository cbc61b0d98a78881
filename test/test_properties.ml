(* Property-based tests (qcheck). Most properties are driven by a random
   seed from which workloads, schedules and deliveries are derived
   deterministically — shrinking a seed re-runs a smaller universe. *)

open Helpers
open Haec
module Vclock = Clock.Vclock
module Mvr_object = Store.Mvr_object
module Execution = Model.Execution
module Op = Model.Op
module Value = Model.Value

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* ---------- MVR object layer: CRDT laws ---------- *)

(* produce a batch of updates from several simulated writers that know
   random prefixes of each other *)
let random_updates rng ~n ~count =
  let states = Array.init n (fun _ -> Mvr_object.empty ~n) in
  let updates = ref [] in
  for i = 1 to count do
    let me = Rng.int rng n in
    (* occasionally learn someone else's updates first *)
    List.iter
      (fun u -> if Rng.chance rng 0.4 then states.(me) <- Mvr_object.apply states.(me) u)
      !updates;
    let st, u = Mvr_object.local_write states.(me) ~me (Value.Int (1000 + i)) in
    states.(me) <- st;
    updates := u :: !updates
  done;
  List.rev !updates

let apply_all st updates = List.fold_left Mvr_object.apply st updates

let read_of updates =
  Mvr_object.read (apply_all (Mvr_object.empty ~n:4) updates)

let prop_mvr_order_insensitive =
  q ~count:100 "mvr object: delivery order insensitive" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let updates = random_updates rng ~n:4 ~count:8 in
      let reference = read_of updates in
      let ok = ref true in
      for _ = 1 to 10 do
        let shuffled = Rng.shuffle_list rng updates in
        if read_of shuffled <> reference then ok := false
      done;
      !ok)

let prop_mvr_idempotent =
  q ~count:100 "mvr object: duplicated delivery is a no-op" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let updates = random_updates rng ~n:4 ~count:8 in
      let doubled = List.concat_map (fun u -> [ u; u ]) updates in
      read_of doubled = read_of updates)

let prop_mvr_local_write_dominates =
  q ~count:100 "mvr object: a local write leaves one sibling" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let updates = random_updates rng ~n:4 ~count:6 in
      let st = apply_all (Mvr_object.empty ~n:4) updates in
      let st, _ = Mvr_object.local_write st ~me:0 (Value.Int 7) in
      Mvr_object.read st = [ Value.Int 7 ])

(* ---------- stores: strong convergence under arbitrary delivery ---------- *)

module Converge (S : Store.Store_intf.S) = struct
  (* n replicas do random ops; all messages are collected; then every
     replica receives all messages (not its own) in an independently
     shuffled order, possibly with duplicates. All replicas must agree on
     every object. *)
  let run ~seed ~n ~objects ~ops ~mix () =
    let rng = Rng.create seed in
    let states = Array.init n (fun me -> S.init ~n ~me) in
    let messages = ref [] in
    let value = ref 0 in
    for _ = 1 to ops do
      let me = Rng.int rng n in
      let obj = Rng.int rng objects in
      let op =
        incr value;
        match mix with
        | `Register -> if Rng.bool rng then Op.Read else Op.Write (Value.Int !value)
        | `Set -> (
          match Rng.int rng 3 with
          | 0 -> Op.Read
          | 1 -> Op.Add (Value.Int (!value mod 5))
          | _ -> Op.Remove (Value.Int (!value mod 5)))
      in
      let st, _, _ = S.do_op states.(me) ~obj op in
      states.(me) <- st;
      if S.has_pending states.(me) then begin
        let st, payload = S.send states.(me) in
        states.(me) <- st;
        messages := (me, payload) :: !messages
      end
    done;
    let messages = List.rev !messages in
    for me = 0 to n - 1 do
      let order = Rng.shuffle_list rng (List.filter (fun (s, _) -> s <> me) messages) in
      List.iter
        (fun (sender, payload) ->
          states.(me) <- S.receive states.(me) ~sender payload;
          (* duplicate some deliveries *)
          if Rng.chance rng 0.2 then states.(me) <- S.receive states.(me) ~sender payload)
        order;
      (* drain any relays so non-op-driven stores converge too *)
      while S.has_pending states.(me) do
        let st, _ = S.send states.(me) in
        states.(me) <- st
      done
    done;
    let agree = ref true in
    for obj = 0 to objects - 1 do
      let read me =
        let _, r, _ = S.do_op states.(me) ~obj Op.Read in
        r
      in
      let r0 = read 0 in
      for me = 1 to n - 1 do
        if not (Op.equal_response (read me) r0) then agree := false
      done
    done;
    !agree
end

module Converge_mvr = Converge (Store.Mvr_store)
module Converge_causal = Converge (Store.Causal_mvr_store)
module Converge_orset = Converge (Store.Orset_store)
module Converge_lww = Converge (Store.Lww_store)
module Converge_cops = Converge (Store.Cops_store)
module Converge_state = Converge (Store.State_mvr_store)

let prop_mvr_strong_convergence =
  q ~count:60 "mvr store: strong convergence, any delivery order" seed_gen (fun seed ->
      Converge_mvr.run ~seed ~n:4 ~objects:3 ~ops:25 ~mix:`Register ())

let prop_causal_strong_convergence =
  q ~count:60 "causal store: strong convergence, any delivery order" seed_gen (fun seed ->
      Converge_causal.run ~seed ~n:4 ~objects:3 ~ops:25 ~mix:`Register ())

let prop_orset_strong_convergence =
  q ~count:60 "orset store: strong convergence, any delivery order" seed_gen (fun seed ->
      Converge_orset.run ~seed ~n:4 ~objects:2 ~ops:25 ~mix:`Set ())

let prop_lww_strong_convergence =
  q ~count:60 "lww store: strong convergence, any delivery order" seed_gen (fun seed ->
      Converge_lww.run ~seed ~n:4 ~objects:3 ~ops:25 ~mix:`Register ())

let prop_cops_strong_convergence =
  q ~count:60 "cops store: strong convergence, any delivery order" seed_gen (fun seed ->
      Converge_cops.run ~seed ~n:4 ~objects:3 ~ops:25 ~mix:`Register ())

let prop_state_strong_convergence =
  q ~count:60 "state store: strong convergence, any delivery order" seed_gen (fun seed ->
      Converge_state.run ~seed ~n:4 ~objects:3 ~ops:25 ~mix:`Register ())

(* ---------- Proposition 2: returned writes happen-before the read ---------- *)

module Rmvr = Sim.Runner.Make (Store.Mvr_store)

let random_run seed =
  let rng = Rng.create seed in
  let policies =
    [|
      Sim.Net_policy.reliable_fifo ();
      Sim.Net_policy.random_delay ();
      Sim.Net_policy.lossy ();
    |]
  in
  let policy = Rng.pick_arr rng policies in
  let sim = Rmvr.create ~seed ~n:3 ~policy () in
  let steps = Sim.Workload.generate ~rng ~n:3 ~objects:3 ~ops:30 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> Rmvr.op sim ~replica ~obj op)
    ~advance:(Rmvr.advance_to sim) steps;
  Rmvr.run_until_quiescent sim;
  sim

let prop_proposition2 =
  q ~count:40 "Proposition 2: v in rval(r) => write(v) hb r" seed_gen (fun seed ->
      let sim = random_run seed in
      let exec = Rmvr.execution sim in
      let hb = Model.Hb.compute exec in
      (* index writes by value *)
      let write_idx = Hashtbl.create 32 in
      List.iter
        (fun (i, d) ->
          match d.Model.Event.op with
          | Op.Write v -> Hashtbl.replace write_idx (d.Model.Event.obj, v) i
          | _ -> ())
        (Execution.do_events exec);
      List.for_all
        (fun (i, d) ->
          match (d.Model.Event.op, d.Model.Event.rval) with
          | Op.Read, Op.Vals vs ->
            List.for_all
              (fun v ->
                match Hashtbl.find_opt write_idx (d.Model.Event.obj, v) with
                | Some w -> Model.Hb.hb hb w i
                | None -> false)
              vs
          | _ -> true)
        (Execution.do_events exec))

(* ---------- happens-before: cross-validation ---------- *)

let prop_hb_matches_naive =
  q ~count:40 "hb labelling agrees with naive transitive closure" seed_gen (fun seed ->
      let sim = random_run seed in
      let exec = Rmvr.execution sim in
      let hb = Model.Hb.compute exec in
      let len = Execution.length exec in
      (* naive: direct edges = program order + send->receive, then closure *)
      let direct = Array.make_matrix len len false in
      let last = Hashtbl.create 8 in
      let send_of = Hashtbl.create 16 in
      List.iteri
        (fun i e ->
          let r = Model.Event.replica e in
          (match Hashtbl.find_opt last r with
          | Some j -> direct.(j).(i) <- true
          | None -> ());
          Hashtbl.replace last r i;
          match e with
          | Model.Event.Send { msg; _ } -> Hashtbl.replace send_of (Model.Message.id msg) i
          | Model.Event.Receive { msg; _ } ->
            direct.(Hashtbl.find send_of (Model.Message.id msg)).(i) <- true
          | Model.Event.Do _ | Model.Event.Crash _ | Model.Event.Recover _
          | Model.Event.Join _ | Model.Event.Leave _ -> ())
        (Execution.events exec);
      for k = 0 to len - 1 do
        for i = 0 to len - 1 do
          if direct.(i).(k) then
            for j = 0 to len - 1 do
              if direct.(k).(j) then direct.(i).(j) <- true
            done
        done
      done;
      let ok = ref true in
      for i = 0 to len - 1 do
        for j = 0 to len - 1 do
          if i <> j && Model.Hb.hb hb i j <> direct.(i).(j) then ok := false
        done
      done;
      !ok)

let prop_hb_partial_order =
  q ~count:30 "hb is a strict partial order" seed_gen (fun seed ->
      let sim = random_run seed in
      let hb = Model.Hb.compute (Rmvr.execution sim) in
      let len = Execution.length (Rmvr.execution sim) in
      let ok = ref true in
      for i = 0 to len - 1 do
        if Model.Hb.hb hb i i then ok := false;
        for j = 0 to len - 1 do
          if Model.Hb.hb hb i j && Model.Hb.hb hb j i then ok := false
        done
      done;
      !ok)

(* ---------- witness abstract executions on random runs ---------- *)

let prop_witness_valid =
  q ~count:40 "eager-store witness: correct, complies, eventual" seed_gen (fun seed ->
      let sim = random_run seed in
      let exec = Rmvr.execution sim in
      let witness = Rmvr.witness_abstract sim in
      Specf.is_correct ~spec_of:mvr_spec witness
      && Compliance.complies exec witness)

module Rcausal = Sim.Runner.Make (Store.Causal_mvr_store)

let random_causal_run seed =
  let rng = Rng.create seed in
  let sim = Rcausal.create ~seed ~n:3 ~policy:(Sim.Net_policy.random_delay ()) () in
  let steps = Sim.Workload.generate ~rng ~n:3 ~objects:2 ~ops:14 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> Rcausal.op sim ~replica ~obj op)
    ~advance:(Rcausal.advance_to sim) steps;
  Rcausal.run_until_quiescent sim;
  sim

let prop_causal_closed_witness_correct =
  q ~count:40 "causal store: closed witness stays correct (causal consistency)" seed_gen
    (fun seed ->
      let sim = random_causal_run seed in
      let closed = Abstract.transitive_closure (Rcausal.witness_abstract sim) in
      Specf.is_correct ~spec_of:mvr_spec closed)

(* ---------- revealing transform ---------- *)

let prop_revealing =
  q ~count:40 "make_revealing: revealing, correct, causal" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let a =
        if Rng.bool rng then
          Construction.Occ_gen.planted rng ~n:3 ~groups:(1 + Rng.int rng 3) ()
        else Construction.Occ_gen.sequential rng ~n:3 ~objects:3 ~ops:(4 + Rng.int rng 8)
      in
      let r, _ = Construction.Revealing.make_revealing a in
      Construction.Revealing.is_revealing r
      && Specf.is_correct ~spec_of:mvr_spec r
      && Causal.is_causally_consistent r)

(* ---------- Theorem 6 on rejection-sampled OCC witnesses ---------- *)

module T6 = Construction.Theorem6.Make (Store.Mvr_store)

let prop_theorem6_on_simulated_occ =
  (* closed witnesses of causal-store runs that happen to be OCC must be
     realized by the eager store with zero mismatches *)
  q ~count:30 "Theorem 6 on OCC closed witnesses of causal runs" seed_gen (fun seed ->
      let sim = random_causal_run seed in
      let closed = Abstract.transitive_closure (Rcausal.witness_abstract sim) in
      if not (Occ.is_occ closed) then true (* rejection sampling *)
      else begin
        let a, _ = Construction.Revealing.make_revealing closed in
        (T6.construct a).T6.mismatches = []
      end)

(* ---------- search soundness ---------- *)

let prop_search_sound =
  q ~count:25 "search solutions are correct, causal and comply" seed_gen (fun seed ->
      let sim = random_causal_run seed in
      let exec = Rcausal.execution sim in
      let dos = List.length (Execution.do_events exec) in
      if dos > 7 then true
      else
        let target = Search.target_of_execution exec in
        match Search.search ~max_states:2_000_000 ~spec_of:mvr_spec target with
        | Search.Found a ->
          Specf.is_correct ~spec_of:mvr_spec a
          && Causal.is_causally_consistent a
          && Compliance.complies exec a
        | Search.No_solution -> false (* the witness itself is a solution! *)
        | Search.Gave_up -> true)

(* ---------- store payload fuzzing ---------- *)

(* Real anti-entropy envelopes of one checked store, and a replica to
   feed mutants of them to: three replicas run the store's workload over
   a broadcast that loses every third delivery and gossip every fourth
   op; a fourth replica joins halfway and leaves at the end, so every
   item kind the replicas emit occurs. *)
let ae_exchange (e : Haec_experiments.Stores.entry) =
  let (module S) = e.store in
  let module AE = Store.Anti_entropy.Make (S) in
  let n = 4 in
  let st = Array.init n (fun me -> AE.init ~n ~me) in
  let sent = ref [] and deliveries = ref 0 in
  let flush_all () =
    for src = 0 to n - 1 do
      if AE.has_pending st.(src) then begin
        let s, p = AE.send st.(src) in
        st.(src) <- s;
        sent := p :: !sent;
        for dst = 0 to n - 1 do
          incr deliveries;
          if dst <> src && !deliveries mod 3 <> 0 then st.(dst) <- AE.receive st.(dst) ~sender:src p
        done
      end
    done
  in
  let steps = Sim.Workload.generate ~rng:(Rng.create 7) ~n:3 ~objects:3 ~ops:32 e.mix in
  List.iteri
    (fun i (step : Sim.Workload.step) ->
      let s, _, _ = AE.do_op st.(step.replica) ~obj:step.obj step.op in
      st.(step.replica) <- s;
      if i = 16 then st.(3) <- AE.announce_join ~epoch:1 st.(3);
      if i mod 4 = 3 then Array.iteri (fun r s -> st.(r) <- AE.tick s) st;
      flush_all ();
      flush_all ())
    steps;
  st.(3) <- AE.announce_leave ~epoch:2 st.(3);
  flush_all ();
  (List.rev !sent, fun p -> ignore (AE.receive st.(1) ~sender:0 p))

let ae_exchanges = lazy (List.map ae_exchange Haec_experiments.Stores.checked)

(* the offset past [skip] varints from [off] *)
let rec skip_varints s off skip =
  if skip = 0 || off >= String.length s then off
  else if Char.code s.[off] < 0x80 then skip_varints s (off + 1) (skip - 1)
  else skip_varints s (off + 1) skip

let set_varint s off v =
  let next = min (String.length s) (skip_varints s off 1) in
  String.sub s 0 off
  ^ Wire.encode (fun enc -> Wire.Encoder.uint enc v)
  ^ String.sub s next (String.length s - next)

(* where the envelope's marker and each item's fields start, from the
   sizes the codec reports while re-encoding it *)
let field_starts payload =
  let sizes = ref [] in
  let p =
    Store.Envelope.encode
      ~sized:(fun _ bytes -> sizes := bytes :: !sizes)
      (Store.Envelope.decode payload)
  in
  let header = String.length p - List.fold_left ( + ) 0 !sizes in
  (* the marker, which any other value turns into a v1 item count; an
     item's fields follow its tag *)
  0 :: snd (List.fold_left_map (fun off b -> (off + b, off + 1)) header (List.rev !sizes))

(* a real input from [sources], paired with a mutant of it: 1-4 bytes set
   to random, 0x00 or 0xFF, cut short, or with one varint field (one that
   [fields] lists, or up to two varints past it) set to 0, 2^k or max.
   One draw in four is an arbitrary string instead, paired with itself:
   garbage no encoder produced is one more source *)
let gen_mutated ~sources ~fields =
  let open QCheck2.Gen in
  let big = int_bound 1_000_000 in
  let byte = oneof [ int_bound 255; return 0; return 0xFF ] in
  let value = oneof [ return 0; map (fun k -> 1 lsl k) (int_bound 61); return max_int ] in
  let mutated =
    big >>= fun pick ->
    let sources = Lazy.force sources in
    let s = List.nth sources (pick mod List.length sources) in
    let len = String.length s in
    map
      (fun mutant -> (s, mutant))
      (oneof
         [
           map
             (fun edits ->
               let b = Bytes.of_string s in
               List.iter (fun (i, v) -> Bytes.set b (i mod len) (Char.chr v)) edits;
               Bytes.to_string b)
             (list_size (int_range 1 4) (pair big byte));
           map (fun cut -> String.sub s 0 (cut mod len)) big;
           map3
             (fun field skip v ->
               let starts = fields s in
               let off = skip_varints s (List.nth starts (field mod List.length starts)) skip in
               if off >= len then s else set_varint s off v)
             big (int_bound 2) value;
         ])
  in
  frequency [ (1, map (fun g -> (g, g)) string); (3, mutated) ]

let envelopes = lazy (List.concat_map fst (Lazy.force ae_exchanges))

(* fields: the envelope's marker, and each item's fields (a count, a
   length, a replica id or a seq) *)
let gen_mutated_envelope = QCheck2.Gen.map snd (gen_mutated ~sources:envelopes ~fields:field_starts)

(* fields: the frame's length prefix *)
let gen_mutated_frame =
  gen_mutated ~sources:(lazy (List.map Wire.Frame.seal (Lazy.force envelopes))) ~fields:(fun _ ->
      [ 0 ])

let prop_sealed_frame_fuzz =
  q ~count:2000 "unseal returns the sealed payload or raises Malformed" gen_mutated_frame
    (fun (frame, mutant) ->
      match Wire.Frame.unseal mutant with
      | payload -> payload = Wire.Frame.unseal frame
      | exception Wire.Decoder.Malformed _ -> true)

let prop_payload_fuzz =
  q ~count:2000 "stores never crash on garbage payloads" gen_mutated_envelope (fun payload ->
      let probe receive =
        match receive payload with
        | _ -> true
        | exception Wire.Decoder.Malformed _ -> true
      in
      probe (fun p -> Store.Mvr_store.receive (Store.Mvr_store.init ~n:3 ~me:0) ~sender:1 p)
      && probe (fun p ->
             Store.Causal_mvr_store.receive (Store.Causal_mvr_store.init ~n:3 ~me:0) ~sender:1 p)
      && probe (fun p -> Store.Orset_store.receive (Store.Orset_store.init ~n:3 ~me:0) ~sender:1 p)
      && probe (fun p -> Store.Lww_store.receive (Store.Lww_store.init ~n:3 ~me:0) ~sender:1 p)
      (* every checked store behind anti-entropy, and the trace labeller *)
      && List.for_all (fun (_, receive) -> probe receive) (Lazy.force ae_exchanges)
      && (ignore (Store.Anti_entropy.classify payload : string);
          true))

(* Real traces and metrics lines of the chaos harness: two causal MVR
   runs with adversarial faults, one with churn, so every event kind
   and metric kind occurs *)
let chaos_runs =
  lazy
    (let module C = Sim.Chaos.Make (Store.Causal_mvr_store) in
     List.map
       (fun churn ->
         C.run ~spec_of:(fun _ -> Spec.Spec.mvr) ~require:`Causal ~adversarial:true ~churn
           ~seed:3 ())
       [ false; true ])

let traces =
  lazy
    (List.map
       (fun (o : Sim.Chaos.outcome) -> Model.Trace_io.to_string o.exec)
       (Lazy.force chaos_runs))

let metrics_lines =
  lazy
    (List.map
       (fun (o : Sim.Chaos.outcome) ->
         Obs.Metrics_io.to_jsonl
           (Sim.Telemetry.snapshot ~meta:[ ("seed", Obs.Json.Num 3.0) ] o.exec o.metrics))
       (Lazy.force chaos_runs))

(* fields: offsets spread over the trace; skipping a varint from any of
   them lands on a field boundary *)
let prop_trace_fuzz =
  q ~count:500 "a mutated trace decodes or raises Malformed"
    (gen_mutated ~sources:traces ~fields:(fun s ->
         List.init 16 (fun i -> i * String.length s / 16)))
    (fun (_, mutant) ->
      match Model.Trace_io.of_string mutant with
      | _ -> true
      | exception Wire.Decoder.Malformed _ -> true)

(* fields: every digit, so a varint written over it breaks a number *)
let prop_metrics_fuzz =
  q ~count:1000 "a mutated metrics line parses or raises Malformed"
    (gen_mutated ~sources:metrics_lines ~fields:(fun s ->
         List.filter (fun i -> s.[i] >= '0' && s.[i] <= '9') (List.init (String.length s) Fun.id)))
    (fun (_, mutant) ->
      match Obs.Metrics_io.of_jsonl mutant with
      | _ -> true
      | exception Obs.Metrics_io.Malformed _ -> true)

let suite =
  ( "properties",
    [
      prop_mvr_order_insensitive;
      prop_mvr_idempotent;
      prop_mvr_local_write_dominates;
      prop_mvr_strong_convergence;
      prop_causal_strong_convergence;
      prop_orset_strong_convergence;
      prop_lww_strong_convergence;
      prop_cops_strong_convergence;
      prop_state_strong_convergence;
      prop_proposition2;
      prop_hb_matches_naive;
      prop_hb_partial_order;
      prop_witness_valid;
      prop_causal_closed_witness_correct;
      prop_revealing;
      prop_theorem6_on_simulated_occ;
      prop_search_sound;
      prop_payload_fuzz;
      prop_sealed_frame_fuzz;
      prop_trace_fuzz;
      prop_metrics_fuzz;
    ] )
