(* Crash-recovery fault injection: durable stores, runner crash semantics,
   corruption rejection, and the chaos harness. *)

open Helpers
open Haec
module Fault_plan = Sim.Fault_plan
module Runner = Sim.Runner
module Trace_io = Model.Trace_io

(* ---------- Fault_plan ---------- *)

let test_plan_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () ->
      Fault_plan.make ~crashes:[ { replica = 0; at = 5.0; recover_at = 3.0 } ]
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make ~crashes:[ { replica = 0; at = 1.0; recover_at = 20.0 } ]
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~crashes:
          [
            { replica = 0; at = 1.0; recover_at = 5.0 };
            { replica = 0; at = 4.0; recover_at = 6.0 };
          ]
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make ~links:[ { src = 0; dst = 1; from_ = 2.0; until = 2.0 } ]
        ~horizon:10.0 ());
  (* a valid plan passes and sorts its events *)
  let plan =
    Fault_plan.make
      ~crashes:
        [
          { replica = 1; at = 4.0; recover_at = 8.0 };
          { replica = 0; at = 1.0; recover_at = 5.0 };
        ]
      ~horizon:10.0 ()
  in
  let times = List.map (fun e -> e.Fault_plan.at) (Fault_plan.events plan) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 4.0; 5.0; 8.0 ] times

let test_plan_random_valid () =
  (* every seeded random plan validates and heals before its horizon *)
  for seed = 0 to 199 do
    let rng = Rng.create seed in
    let plan = Fault_plan.random rng ~n:4 ~horizon:50.0 () in
    Alcotest.(check bool) "inactive at horizon" false
      (Fault_plan.active plan ~now:50.0)
  done

(* Dead-link connectivity must hold for every member set the run passes
   through, not just the initial one: a join must not depend on a
   validated-dead link to reach the others, and a leave must not take away
   the survivors' only relay path. *)
let test_churn_dead_link_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* joiner 3 has every edge to the members dead: the initial set {0,1,2}
     is connected, but the set after the join is not — the join must not
     resurrect links the plan already declared dead *)
  bad (fun () ->
      Fault_plan.make
        ~dead:
          [
            { src = 3; dst = 0; from_ = 0.0 };
            { src = 3; dst = 1; from_ = 0.0 };
            { src = 3; dst = 2; from_ = 0.0 };
          ]
        ~churn:
          {
            initial = 3;
            capacity = 4;
            joins = [ { replica = 3; at = 5.0 } ];
            leaves = [];
          }
        ~horizon:20.0 ());
  (* leave one edge alive and the same join is fine: 3 bootstraps through 2 *)
  let plan =
    Fault_plan.make
      ~dead:[ { src = 3; dst = 0; from_ = 0.0 }; { src = 3; dst = 1; from_ = 0.0 } ]
      ~churn:
        {
          initial = 3;
          capacity = 4;
          joins = [ { replica = 3; at = 5.0 } ];
          leaves = [];
        }
      ~horizon:20.0 ()
  in
  Alcotest.(check bool) "joiner's one live edge suffices" true
    (Fault_plan.link_dead plan ~src:3 ~dst:0 ~at:6.0
    && not (Fault_plan.link_dead plan ~src:3 ~dst:2 ~at:6.0));
  (* 0 and 1 are cut in both directions and relay through 2: the leave of 2
     strands the survivors — the partition check must reject it *)
  bad (fun () ->
      Fault_plan.make
        ~dead:[ { src = 0; dst = 1; from_ = 0.0 } ]
        ~churn:
          {
            initial = 3;
            capacity = 3;
            joins = [];
            leaves = [ { replica = 2; at = 5.0; graceful = true } ];
          }
        ~horizon:20.0 ());
  (* the leave of 1 instead keeps {0,2} connected over the live 0-2 edge *)
  ignore
    (Fault_plan.make
       ~dead:[ { src = 0; dst = 1; from_ = 0.0 } ]
       ~churn:
         {
           initial = 3;
           capacity = 3;
           joins = [];
           leaves = [ { replica = 1; at = 5.0; graceful = false } ];
         }
       ~horizon:20.0 ())

(* The churn schedule's own invariants: ids come from the reserve pool and
   are never reused, crash windows stay inside a replica's membership, and
   at least two members survive every instant. *)
let test_churn_schedule_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let churn ?(initial = 2) ?(capacity = 4) ?(joins = []) ?(leaves = []) () =
    { Fault_plan.initial; capacity; joins; leaves }
  in
  (* fewer than two initial members / capacity below initial *)
  bad (fun () -> Fault_plan.make ~churn:(churn ~initial:1 () ) ~horizon:10.0 ());
  bad (fun () -> Fault_plan.make ~churn:(churn ~capacity:1 ()) ~horizon:10.0 ());
  (* joins must come from the reserve pool, once each *)
  bad (fun () ->
      Fault_plan.make
        ~churn:(churn ~joins:[ { replica = 0; at = 5.0 } ] ())
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~churn:
          (churn ~joins:[ { replica = 2; at = 3.0 }; { replica = 2; at = 6.0 } ] ())
        ~horizon:10.0 ());
  (* a reserve may not leave without joining, nor leave before its join *)
  bad (fun () ->
      Fault_plan.make
        ~churn:(churn ~leaves:[ { replica = 2; at = 5.0; graceful = true } ] ())
        ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~churn:
          (churn
             ~joins:[ { replica = 2; at = 6.0 } ]
             ~leaves:[ { replica = 2; at = 4.0; graceful = true } ]
             ())
        ~horizon:10.0 ());
  (* crash windows: never at a reserve that never joins, never across a
     leave (a member that vanishes for good is a crash-leave, not a crash) *)
  bad (fun () ->
      Fault_plan.make
        ~crashes:[ { replica = 2; at = 3.0; recover_at = 5.0 } ]
        ~churn:(churn ()) ~horizon:10.0 ());
  bad (fun () ->
      Fault_plan.make
        ~crashes:[ { replica = 0; at = 3.0; recover_at = 7.0 } ]
        ~churn:
          (churn
             ~joins:[ { replica = 2; at = 2.0 } ]
             ~leaves:[ { replica = 0; at = 5.0; graceful = false } ]
             ())
        ~horizon:10.0 ());
  (* a leave that drops the member count below two *)
  bad (fun () ->
      Fault_plan.make
        ~churn:(churn ~leaves:[ { replica = 0; at = 5.0; graceful = true } ] ())
        ~horizon:10.0 ());
  (* a valid schedule passes, with joins and leaves on the event timeline *)
  let plan =
    Fault_plan.make
      ~churn:
        (churn ~initial:2 ~capacity:3
           ~joins:[ { replica = 2; at = 2.0 } ]
           ~leaves:[ { replica = 0; at = 6.0; graceful = true } ]
           ())
      ~horizon:10.0 ()
  in
  let whats = List.map (fun e -> e.Fault_plan.what) (Fault_plan.events plan) in
  Alcotest.(check bool) "join and leave on the timeline" true
    (whats = [ `Join 2; `Leave (0, true) ])

let test_plan_link_window () =
  let plan =
    Fault_plan.make ~links:[ { src = 0; dst = 2; from_ = 3.0; until = 7.0 } ]
      ~horizon:10.0 ()
  in
  let dropped at = Fault_plan.link_dropped plan ~src:0 ~dst:2 ~at in
  Alcotest.(check (option (float 1e-9))) "before" None (dropped 2.9);
  Alcotest.(check (option (float 1e-9))) "inside" (Some 7.0) (dropped 3.0);
  Alcotest.(check (option (float 1e-9))) "after heal" None (dropped 7.0);
  Alcotest.(check (option (float 1e-9))) "other link" None
    (Fault_plan.link_dropped plan ~src:2 ~dst:0 ~at:5.0)

(* ---------- Durable store transformer ---------- *)

module D = Store.Durable.Make (Store.Mvr_store)

let read st ~obj =
  let _, rval, _ = D.do_op st ~obj Op.Read in
  rval

let test_durable_recover_replays_ops () =
  let st = ref (D.init ~n:2 ~me:0) in
  for i = 1 to 5 do
    let st', _, _ = D.do_op !st ~obj:0 (Op.Write (vi i)) in
    let st', _ = D.send st' in
    st := st'
  done;
  let before = read !st ~obj:0 in
  let recovered = D.recover !st in
  Alcotest.check check_response "reads equal after replay" before
    (read recovered ~obj:0);
  (* recovery must not re-flag sent messages as pending *)
  Alcotest.(check bool) "nothing pending after recovery" false
    (D.has_pending recovered)

let test_durable_recover_replays_deliveries () =
  let a = ref (D.init ~n:2 ~me:0) and b = ref (D.init ~n:2 ~me:1) in
  let push src dst =
    let st, payload = D.send !src in
    src := st;
    let me_src = if src == a then 0 else 1 in
    dst := D.receive !dst ~sender:me_src payload
  in
  let a', _, _ = D.do_op !a ~obj:0 (Op.Write (vi 1)) in
  a := a';
  push a b;
  let b', _, _ = D.do_op !b ~obj:0 (Op.Write (vi 2)) in
  b := b';
  push b a;
  let before = read !b ~obj:0 in
  let recovered = D.recover !b in
  Alcotest.check check_response "delivered state survives the crash" before
    (read recovered ~obj:0)

let test_durable_checkpoint_compacts () =
  let st = ref (D.init ~n:2 ~me:0) in
  for i = 1 to 100 do
    let st', _, _ = D.do_op !st ~obj:(i mod 3) (Op.Write (vi i)) in
    let st', _ = D.send st' in
    st := st'
  done;
  (* every 32 entries fold into a chunk: the decoded tail stays short *)
  Alcotest.(check bool) "wal bounded" true (D.wal_length !st < 32);
  Alcotest.(check bool) "snapshot non-empty" true (D.snapshot_bytes !st > 0);
  let ck = D.checkpoint !st in
  Alcotest.(check int) "explicit checkpoint empties the wal" 0 (D.wal_length ck);
  Alcotest.check check_response "checkpoint preserves reads" (read !st ~obj:0)
    (read (D.recover ck) ~obj:0)

let test_durable_invisible_reads_not_logged () =
  let st = D.init ~n:2 ~me:0 in
  let st, _, _ = D.do_op st ~obj:0 (Op.Write (vi 1)) in
  let before = D.wal_length st in
  let st, _, _ = D.do_op st ~obj:0 Op.Read in
  Alcotest.(check int) "read left no log entry" before (D.wal_length st)

(* When the log folds changes what the snapshot holds, never what a
   crash recovers: folded every 32 entries, or also explicitly after
   every entry, a crash at any point — mid-chunk included — recovers the
   same reads, and each snapshot is one image of the inner state plus
   the chunks folded since it. *)
(* writes at replica 0, interleaved with sends and deliveries of replica
   1's payloads *)
let cadence_inputs =
  let remote = ref (Store.Mvr_store.init ~n:2 ~me:1) in
  let remote_payload i =
    let st, _, _ = Store.Mvr_store.do_op !remote ~obj:(i mod 3) (Op.Write (vi (1000 + i))) in
    let st, payload = Store.Mvr_store.send st in
    remote := st;
    payload
  in
  List.concat
    (List.init 90 (fun i ->
         (`Write (i mod 3, i) :: (if i mod 3 = 2 then [ `Send ] else []))
         @ if i mod 4 = 1 then [ `Deliver (remote_payload i) ] else []))

(* an input's bytes in [Durable]'s log-entry format: each input logs one
   entry (reads are invisible, and every send has something pending) *)
let encode_input enc = function
  | `Write (obj, v) ->
    Wire.Encoder.uint enc 0;
    Wire.Encoder.uint enc obj;
    Op.encode enc (Op.Write (vi v))
  | `Deliver payload ->
    Wire.Encoder.uint enc 1;
    Wire.Encoder.uint enc 1;
    Wire.Encoder.string enc payload
  | `Send -> Wire.Encoder.uint enc 2

(* the image format: the inner state, marshalled and sealed *)
let image_bytes st = String.length (Wire.Frame.seal (Marshal.to_string (D.inner st) []))

(* The snapshot a fold schedule should leave, from the inputs alone:
   [states] holds the state after each prefix and [fold k] says whether
   the log folds after input [k]. Each fold encodes the inputs since the
   last one as a chunk; when the chunks since the image outweigh it, the
   image of the current state replaces image and chunks. Returns the
   snapshot bytes after each prefix, the bytes after an explicit
   checkpoint of each prefix, and the number of images taken. *)
let snapshot_model states ~fold =
  let states = Array.of_list states in
  let image = ref (image_bytes states.(0)) and chunks = ref 0 and since = ref [] in
  let images = ref 0 in
  (* image bytes, chunk bytes and whether it re-images, once the inputs
     since the last fold are folded after input [k] *)
  let fold_at k =
    if !since = [] then (!image, !chunks, false)
    else
      let chunk = Wire.encode (fun enc -> List.iter (encode_input enc) (List.rev !since)) in
      let c = !chunks + String.length chunk in
      if c > !image then (image_bytes states.(k), 0, true) else (!image, c, false)
  in
  let bytes = ref [ !image ] and checkpointed = ref [ !image ] in
  List.iteri
    (fun i input ->
      let k = i + 1 in
      since := input :: !since;
      let img, ch, imaged = fold_at k in
      if fold k then begin
        if imaged then incr images;
        image := img;
        chunks := ch;
        since := []
      end;
      bytes := (!image + !chunks) :: !bytes;
      checkpointed := (img + ch) :: !checkpointed)
    cadence_inputs;
  (List.rev !bytes, List.rev !checkpointed, !images)

module Cadence (C : sig
  val explicit : bool
  (** also fold after every input *)
end) =
struct
  let step st input =
    let st =
      match input with
      | `Write (obj, v) ->
        let st, _, _ = D.do_op st ~obj (Op.Write (vi v)) in
        st
      | `Send -> fst (D.send st)
      | `Deliver payload -> D.receive st ~sender:1 payload
    in
    if C.explicit then D.checkpoint st else st

  (* the state after every prefix of the inputs, shortest first; all are
     built before any is recovered, so a recovery also checks that an
     older state never sees chunks appended after it *)
  let prefixes =
    List.rev
      (List.fold_left
         (fun acc input -> step (List.hd acc) input :: acc)
         [ D.init ~n:2 ~me:0 ]
         cadence_inputs)

  let reads st =
    List.init 3 (fun obj ->
        let _, r, _ = D.do_op st ~obj Op.Read in
        r)

  (* per prefix: reads after a crash, and the bytes of its checkpoint *)
  let crash_reads = List.map (fun st -> reads (D.recover st)) prefixes

  let checkpoint_bytes = List.map (fun st -> D.snapshot_bytes (D.checkpoint st)) prefixes

  let checkpoint_idempotent =
    List.for_all
      (fun st ->
        let ck = D.checkpoint st in
        let ck2 = D.checkpoint ck in
        D.wal_length ck2 = 0
        && D.snapshot_bytes ck2 = D.snapshot_bytes ck
        && reads (D.recover ck2) = reads (D.recover ck))
      prefixes
end

module C_32 = Cadence (struct
  let explicit = false
end)

module C_every = Cadence (struct
  let explicit = true
end)

let test_durable_checkpoint_cadence_invisible () =
  let live = List.map C_32.reads C_32.prefixes in
  let reads = Alcotest.(list (list check_response)) in
  Alcotest.check reads "every 32: crash recovers the live reads" live C_32.crash_reads;
  Alcotest.check reads "every entry: crash recovers the live reads" live C_every.crash_reads;
  let bytes = Alcotest.(list int) in
  let every_32, every_32_checkpointed, images_32 =
    snapshot_model C_32.prefixes ~fold:(fun k -> k mod 32 = 0)
  in
  let every_entry, _, images_every =
    snapshot_model C_32.prefixes ~fold:(fun _ -> true)
  in
  Alcotest.check bytes "every 32: an image plus the chunks since" every_32
    (List.map D.snapshot_bytes C_32.prefixes);
  Alcotest.check bytes "every 32: checkpointed image plus chunks" every_32_checkpointed
    C_32.checkpoint_bytes;
  Alcotest.check bytes "every entry: an image plus the chunks since" every_entry
    C_every.checkpoint_bytes;
  (* with a fold after every entry, the snapshot needs no explicit one *)
  Alcotest.check bytes "every entry is always checkpointed" C_every.checkpoint_bytes
    (List.map D.snapshot_bytes C_every.prefixes);
  (* unprompted, the log folds exactly when 32 entries are pending *)
  Alcotest.(check (list int)) "every 32: entries left unfolded"
    (List.init (List.length cadence_inputs + 1) (fun k -> k mod 32))
    (List.map D.wal_length C_32.prefixes);
  (* several 32-entry chunks, and recoveries from more than one image *)
  Alcotest.(check bool) "every 32: several chunks" true (List.length cadence_inputs > 128);
  Alcotest.(check bool) "every 32: re-imaged twice" true (images_32 >= 2);
  Alcotest.(check bool) "every entry: re-imaged twice" true (images_every >= 2);
  Alcotest.(check bool) "every 32: checkpoint idempotent" true C_32.checkpoint_idempotent;
  Alcotest.(check bool) "every entry: checkpoint idempotent" true C_every.checkpoint_idempotent

(* The durable log's memory is its encoded bytes: after 10 000 logged
   writes, sends and ~50-byte deliveries into the anti-entropy stack,
   fewer than 32 entries stay decoded, and what the durable image holds
   beyond the inner state is within 1.5x the snapshot's words plus the
   decoded tail. *)
let test_durable_log_memory () =
  let module AE = Store.Anti_entropy.Make (Store.Causal_mvr_store) in
  let module DA = Store.Durable.Make (AE) in
  (* replica 1's payloads in send order, two writes each *)
  let remote = ref (AE.init ~n:2 ~me:1) in
  let remote_payload k =
    for j = 0 to 1 do
      let st, _, _ = AE.do_op !remote ~obj:j (Op.Write (vi ((2 * k) + j))) in
      remote := st
    done;
    let st, payload = AE.send !remote in
    remote := st;
    payload
  in
  let st = ref (DA.init ~n:2 ~me:0) and delivered = ref 0 and payload_bytes = ref 0 in
  for i = 1 to 10_000 do
    (st :=
       match i mod 3 with
       | 1 ->
         let st, _, _ = DA.do_op !st ~obj:(i mod 5) (Op.Write (vi i)) in
         st
       | 2 -> fst (DA.send !st)
       | _ ->
         let payload = remote_payload !delivered in
         incr delivered;
         payload_bytes := !payload_bytes + String.length payload;
         DA.receive !st ~sender:1 payload)
  done;
  Alcotest.(check bool) "deliveries of ~50 bytes" true
    (abs ((!payload_bytes / !delivered) - 50) < 25);
  Alcotest.(check bool) "fewer than 32 entries unfolded" true (DA.wal_length !st < 32);
  let durable_words =
    Obj.reachable_words (Obj.repr !st) - Obj.reachable_words (Obj.repr (DA.inner !st))
  in
  let bound = (3 * DA.snapshot_bytes !st / 16) + 2048 in
  if durable_words > bound then
    Alcotest.failf "durable image holds %d words beyond the inner state; bound %d (%d snapshot bytes)"
      durable_words bound (DA.snapshot_bytes !st)

(* A durable replica's snapshot, and what a recovery replays, follow its
   state, not its history. Two replicas exchange writes and digests, so
   replica 0's state stays bounded; from 10 000 to 40 000 logged inputs,
   its snapshot bytes and the inner-store calls one recovery makes stay
   within 1.5x. Each is the peak over the last 1 000 inputs before the
   count, since both swing with the chunks logged since the last image. *)
module Counted (S : Store.Store_intf.S) = struct
  include S

  let calls = ref 0

  let do_op t ~obj op =
    incr calls;
    S.do_op t ~obj op

  let send t =
    incr calls;
    S.send t

  let receive t ~sender payload =
    incr calls;
    S.receive t ~sender payload
end

let test_durable_bounded_by_state () =
  let module AE = Store.Anti_entropy.Make (Store.Causal_mvr_store) in
  let module C = Counted (AE) in
  let module DA = Store.Durable.Make_controlled (struct
    include C

    let tick = AE.tick
    let announce_join = AE.announce_join
    let announce_leave = AE.announce_leave
  end) in
  let a = ref (DA.init ~n:2 ~me:0) and b = ref (AE.init ~n:2 ~me:1) in
  let inputs = ref 0 and snapshot_peak = ref 0 and replay_peak = ref 0 in
  let input f =
    a := f !a;
    incr inputs;
    let window = !inputs mod 10_000 > 9_000 || !inputs mod 10_000 = 0 in
    if window then begin
      snapshot_peak := max !snapshot_peak (DA.snapshot_bytes !a);
      C.calls := 0;
      ignore (DA.recover !a);
      replay_peak := max !replay_peak !C.calls
    end
  in
  let peaks_at count =
    snapshot_peak := 0;
    replay_peak := 0;
    let i = ref 0 in
    while !inputs < count do
      incr i;
      (* both write and gossip; each takes the other's payload *)
      input (fun a ->
          let a, _, _ = DA.do_op a ~obj:(!i mod 5) (Op.Write (vi !i)) in
          DA.tick a);
      let b', _, _ = AE.do_op !b ~obj:(!i mod 5) (Op.Write (vi (- !i))) in
      let b', to_a = AE.send (AE.tick b') in
      let to_b = ref "" in
      input (fun a ->
          let a, p = DA.send a in
          to_b := p;
          a);
      input (fun a -> DA.receive a ~sender:1 to_a);
      b := AE.receive b' ~sender:0 !to_b
    done;
    (!snapshot_peak, !replay_peak)
  in
  let s10, r10 = peaks_at 10_000 in
  let s40, r40 = peaks_at 40_000 in
  let within what x y =
    if float_of_int (max x y) > 1.5 *. float_of_int (min x y) then
      Alcotest.failf "%s at 10 000 inputs is %d, at 40 000 is %d" what x y
  in
  within "peak snapshot bytes" s10 s40;
  within "peak inner calls of one recovery" r10 r40

(* ---------- runner crash semantics ---------- *)

module R = Sim.Runner.Make (Store.Mvr_store)

(* The chaos stack, driven by hand: Durable(Anti_entropy(Mvr_store)) with
   its gossip tick, so every loss is repaired over the wire or not at all,
   and its image-and-log recovery. *)
module DA_mvr = Sim.Stack.Durable (Store.Mvr_store)

module RA = Sim.Runner.Make (DA_mvr)

let create_ae ?faults ?(seed = 42) ~policy ~n () =
  RA.create ~seed ~config:Store.Store_intf.default ~n ~policy ?faults ~stack:(module DA_mvr) ()

let test_crash_drops_in_flight () =
  let sim = create_ae ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ~delay:2.0 ()) () in
  ignore (RA.op sim ~replica:0 ~obj:0 (Op.Write (vi 7)));
  Alcotest.(check int) "delivery scheduled" 1 (RA.in_flight sim);
  RA.crash sim ~replica:1;
  Alcotest.(check int) "crash swallowed it" 0 (RA.in_flight sim);
  Alcotest.(check int) "lost for good" 1 (RA.stats sim).Runner.lost_permanent;
  Alcotest.(check bool) "marked down" true (RA.is_down sim ~replica:1);
  (* ops and deliveries at a down replica are rejected *)
  (match RA.op sim ~replica:1 ~obj:0 Op.Read with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "op at crashed replica must be rejected");
  RA.recover sim ~replica:1;
  RA.run_until_quiescent sim;
  Alcotest.check check_response "repaired after recovery" (resp [ 7 ])
    (RA.op sim ~replica:1 ~obj:0 Op.Read);
  let s = RA.stats sim in
  Alcotest.(check int) "one crash" 1 s.Runner.crashes;
  Alcotest.(check int) "one recovery" 1 s.Runner.recoveries;
  Alcotest.(check int) "every drop is a permanent loss" s.Runner.dropped
    s.Runner.lost_permanent;
  Alcotest.(check bool) "gossip did the repair" true (s.Runner.gossip_rounds > 0)

(* Without a replica stack nothing stands behind the store: the delivery a
   crash swallowed never arrives, and the run still quiesces cleanly. *)
let test_crash_loss_permanent_without_gossip () =
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ~delay:2.0 ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 7)));
  R.crash sim ~replica:1;
  R.recover sim ~replica:1;
  R.run_until_quiescent sim;
  Alcotest.(check int) "lost for good" 1 (R.stats sim).Runner.lost_permanent;
  Alcotest.(check int) "nothing in flight" 0 (R.in_flight sim);
  Alcotest.check check_response "the write never arrived" (resp [])
    (R.op sim ~replica:1 ~obj:0 Op.Read);
  Alcotest.(check bool) "trace well-formed" true
    (Execution.is_well_formed (R.execution sim))

let test_crash_recover_in_trace () =
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  R.crash sim ~replica:1;
  R.recover sim ~replica:1;
  R.run_until_quiescent sim;
  let exec = R.execution sim in
  let crashes =
    List.filter (function Event.Crash _ -> true | _ -> false) (Execution.events exec)
  in
  Alcotest.(check int) "crash recorded" 1 (List.length crashes);
  Alcotest.(check bool) "still well-formed" true (Execution.is_well_formed exec)

let test_double_crash_rejected () =
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ()) () in
  R.crash sim ~replica:0;
  (match R.crash sim ~replica:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double crash must be rejected");
  match R.recover sim ~replica:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "recovering an up replica must be rejected"

let test_durable_recovery_through_runner () =
  (* with Durable recovery, a crashed replica comes back remembering its
     replayed state, not just whatever the network re-sends *)
  let sim = create_ae ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ~delay:1.0 ()) () in
  ignore (RA.op sim ~replica:1 ~obj:0 (Op.Write (vi 5)));
  RA.run_until_quiescent sim;
  RA.crash sim ~replica:1;
  RA.recover sim ~replica:1;
  Alcotest.check check_response "own write survives own crash" (resp [ 5 ])
    (RA.op sim ~replica:1 ~obj:0 Op.Read)

(* ---------- well-formedness of faulty traces ---------- *)

let test_well_formed_rejects_down_activity () =
  let expect_error evs msg =
    let exec = Execution.of_list ~n:2 evs in
    match Execution.check_well_formed exec with
    | Error _ -> ()
    | Ok () -> Alcotest.fail msg
  in
  expect_error
    [ Event.Crash { replica = 0 }; Event.Do (w_ 0 0 1) ]
    "do at a crashed replica";
  expect_error
    [ Event.Crash { replica = 0 }; Event.Crash { replica = 0 } ]
    "crash while down";
  expect_error [ Event.Recover { replica = 0 } ] "recover while up";
  let ok =
    Execution.of_list ~n:2
      [
        Event.Do (w_ 0 0 1);
        Event.Crash { replica = 0 };
        Event.Recover { replica = 0 };
        Event.Do (rd_ 0 0 [ 1 ]);
      ]
  in
  Alcotest.(check bool) "crash/recover alternation ok" true
    (Execution.is_well_formed ok)

let test_trace_roundtrip_with_faults () =
  let sim = R.create ~n:3 ~policy:(Sim.Net_policy.random_delay ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  R.crash sim ~replica:2;
  ignore (R.op sim ~replica:1 ~obj:0 (Op.Write (vi 2)));
  R.recover sim ~replica:2;
  R.run_until_quiescent sim;
  let exec = R.execution sim in
  let exec' = Trace_io.of_string (Trace_io.to_string exec) in
  Alcotest.(check bool) "crash events survive the roundtrip" true
    (List.for_all2
       (fun a b -> Format.asprintf "%a" Event.pp a = Format.asprintf "%a" Event.pp b)
       (Execution.events exec) (Execution.events exec'))

(* ---------- corruption ---------- *)

let test_corruption_rejected_not_delivered () =
  (* corrupt every delivery for a while: the frame check must reject each
     mangled copy as Malformed, each rejection is a permanent loss, repair
     must get clean copies through once the window closes, and the run
     must still pass every check *)
  let corruption = { Fault_plan.p = 1.0; from_ = 0.0; until = 30.0 } in
  let plan = Fault_plan.make ~corruption ~horizon:40.0 () in
  let sim =
    create_ae ~seed:11 ~n:3 ~policy:(Sim.Net_policy.random_delay ()) ~faults:plan ()
  in
  for i = 1 to 10 do
    ignore (RA.op sim ~replica:(i mod 3) ~obj:0 (Op.Write (vi i)))
  done;
  RA.run_until_quiescent sim;
  let s = RA.stats sim in
  Alcotest.(check bool) "corrupt frames rejected" true (s.Runner.corrupt_rejected > 0);
  Alcotest.(check int) "no checksum collisions" 0 s.Runner.corrupt_collisions;
  Alcotest.(check int) "every rejected frame is a permanent loss"
    s.Runner.corrupt_rejected s.Runner.lost_permanent;
  let report = Sim.Checks.validate (RA.execution sim) (RA.witness_abstract sim) in
  Alcotest.(check bool) "all checks pass despite corruption" true
    (Sim.Checks.failures report = []);
  let reads = List.init 3 (fun replica -> RA.op sim ~replica ~obj:0 Op.Read) in
  Alcotest.(check bool) "replicas agree after repair" true
    (List.for_all (( = ) (List.hd reads)) reads)

(* ---------- chaos harness ---------- *)

let chaos_seeds name (module S : Store.Store_intf.S) ~require spec mix seeds =
  tc name (fun () ->
      let module C = Sim.Chaos.Make (S) in
      List.iter
        (fun seed ->
          let o = C.run ~spec_of:(fun _ -> spec) ~mix ~require ~seed () in
          if not (Sim.Chaos.converged o) then
            Alcotest.failf "seed %d: %a" seed Sim.Chaos.pp_outcome o)
        seeds)

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_chaos_is_deterministic () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let a = C.run ~seed:3 () and b = C.run ~seed:3 () in
  Alcotest.(check bool) "same trace from the same seed" true
    (List.for_all2
       (fun x y -> Format.asprintf "%a" Event.pp x = Format.asprintf "%a" Event.pp y)
       (Execution.events a.Sim.Chaos.exec)
       (Execution.events b.Sim.Chaos.exec));
  Alcotest.(check int) "same stats" a.Sim.Chaos.stats.Runner.dropped
    b.Sim.Chaos.stats.Runner.dropped

let test_chaos_exercises_faults () =
  (* across a few seeds, the harness actually crashes replicas and drops
     messages — it is not vacuously passing *)
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let total = List.fold_left (fun acc seed ->
      let o = C.run ~seed () in
      let s = o.Sim.Chaos.stats in
      acc + s.Runner.crashes + s.Runner.dropped)
      0 (seeds 1 5)
  in
  Alcotest.(check bool) "faults actually struck" true (total > 0)

(* Two configurations in one process at once: seeds of the causal stack
   under the default tunables and under a small repair batch with
   frequent full digests, interleaved over two domains, give exactly the
   sequential outcomes. Each run's replicas carry their own config. *)
let test_chaos_configs_in_parallel () =
  let module C = Sim.Chaos.Make (Store.Causal_mvr_store) in
  let small = { Store.Store_intf.default with repair_batch = 2; full_digest_every = 1 } in
  let jobs =
    List.concat_map
      (fun seed -> [ (small, seed); (Store.Store_intf.default, seed) ])
      (seeds 1 4)
  in
  let run (config, seed) =
    let o = C.run ~adversarial:true ~require:`Causal ~config ~seed () in
    let counter name =
      match Obs.Metrics.Registry.find o.Sim.Chaos.metrics name with
      | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
      | Some _ | None -> -1
    in
    ( Model.Trace_io.to_string o.Sim.Chaos.exec,
      List.map counter [ "gossip.update_bytes"; "gossip.digest_bytes"; "gossip.repair_bytes" ],
      Sim.Chaos.failures o,
      o.Sim.Chaos.config = config )
  in
  let sequential = List.map run jobs in
  let parallel = Util.Par.map_list ~domains:2 run jobs in
  Alcotest.(check bool) "parallel outcomes equal sequential ones" true (parallel = sequential);
  List.iter
    (fun (_, bytes, fails, own) ->
      Alcotest.(check bool) "the outcome records its config" true own;
      Alcotest.(check (list (pair string string))) "required checks pass" [] fails;
      Alcotest.(check bool) "traffic counted" true (List.for_all (fun b -> b > 0) bytes))
    parallel;
  match parallel with
  | (_, a, _, _) :: (_, b, _, _) :: _ ->
    Alcotest.(check bool) "the two configs differ on the wire" true (a <> b)
  | _ -> assert false

let suite =
  ( "fault",
    [
      tc "fault plan validation" test_plan_validation;
      tc "random plans valid and healing" test_plan_random_valid;
      tc "churn vs dead links: member sets stay connected"
        test_churn_dead_link_validation;
      tc "churn schedule invariants" test_churn_schedule_validation;
      tc "link fault window" test_plan_link_window;
      tc "durable recovery replays ops" test_durable_recover_replays_ops;
      tc "durable recovery replays deliveries" test_durable_recover_replays_deliveries;
      tc "durable checkpoint compacts" test_durable_checkpoint_compacts;
      tc "durable invisible reads not logged" test_durable_invisible_reads_not_logged;
      tc "crash drops in-flight deliveries" test_crash_drops_in_flight;
      tc "crash and recover recorded in trace" test_crash_recover_in_trace;
      tc "double crash rejected" test_double_crash_rejected;
      tc "durable recovery through the runner" test_durable_recovery_through_runner;
      tc "well-formedness rejects activity while down" test_well_formed_rejects_down_activity;
      tc "trace roundtrip with fault events" test_trace_roundtrip_with_faults;
      tc "corruption rejected, never delivered" test_corruption_rejected_not_delivered;
      (* the eager store is correct but not causal under re-delivery; the
         causal store is held to the causal bar; lww's timestamp
         arbitration can disagree with trace order (convergence bar, as in
         E9); occ is never required — Theorem 6 *)
      chaos_seeds "chaos: mvr converges on 20 seeds" (module Store.Mvr_store)
        ~require:`Correct Specf.mvr Sim.Workload.register_mix (seeds 1 20);
      chaos_seeds "chaos: causal mvr converges on 10 seeds"
        (module Store.Causal_mvr_store) ~require:`Causal Specf.mvr
        Sim.Workload.register_mix (seeds 21 30);
      chaos_seeds "chaos: or-set converges on 10 seeds" (module Store.Orset_store)
        ~require:`Correct Specf.orset Sim.Workload.orset_mix (seeds 31 40);
      chaos_seeds "chaos: lww converges on 10 seeds" (module Store.Lww_store)
        ~require:`Converge Specf.rw_register Sim.Workload.register_mix
        (seeds 41 50);
      tc "chaos deterministic in the seed" test_chaos_is_deterministic;
      tc "chaos actually injects faults" test_chaos_exercises_faults;
      tc "chaos: two configs in parallel" test_chaos_configs_in_parallel;
      tc "durable checkpoint cadence is invisible" test_durable_checkpoint_cadence_invisible;
      tc "durable log memory is its encoded bytes" test_durable_log_memory;
      tc "crash loss is permanent without gossip" test_crash_loss_permanent_without_gossip;
      tc "durable snapshot and recovery bounded by state" test_durable_bounded_by_state;
    ] )
