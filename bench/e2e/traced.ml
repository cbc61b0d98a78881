(* Layer-boundary timers for the traced repetition.

   The wrappers below time the public functions of each layer from the
   benchmark's own files, around the calls into the layer: the store
   ([Store_intf.S]), the replica stack ([Live.Cluster.STACK]) and the
   specification ([Spec.t.apply]). Nothing inside the library is
   instrumented.

   Each domain accumulates into its own record, so the replica domains of
   a live run never write to the same one. The record comes from a
   [Domain.DLS] key whose initialiser registers it in a global list; the
   list is read after [Domain.join], when every record is final. Store
   calls always run inside stack calls, so the time of a store call is
   also charged to the stack probe that encloses it, and a stack probe's
   self time is its time minus that child time. *)

open Haec

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type probe =
  | Store_do_op
  | Store_send
  | Store_receive
  | Stack_init
  | Stack_do_op
  | Stack_has_pending
  | Stack_send
  | Stack_receive
  | Stack_tick
  | Stack_settled
  | Stack_progress
  | Stack_queue_depth
  | Stack_pending_bytes
  | Stack_recover
  | Spec_apply

let index = function
  | Store_do_op -> 0
  | Store_send -> 1
  | Store_receive -> 2
  | Stack_init -> 3
  | Stack_do_op -> 4
  | Stack_has_pending -> 5
  | Stack_send -> 6
  | Stack_receive -> 7
  | Stack_tick -> 8
  | Stack_settled -> 9
  | Stack_progress -> 10
  | Stack_queue_depth -> 11
  | Stack_pending_bytes -> 12
  | Stack_recover -> 13
  | Spec_apply -> 14

let n_probes = index Spec_apply + 1

let reservoir_size = 256

type acc = {
  domain : int;
  calls : int array;
  ns : int array;
  child_ns : int array;  (* store time spent inside each stack probe *)
  mutable open_stack : int;  (* index of the running stack probe, or -1 *)
  mutable ctx_events : int;  (* summed context sizes seen by [Spec_apply] *)
  sample : string array;  (* reservoir of payloads [send] returned *)
  mutable seen : int;
  rng : Random.State.t;
}

let registry : acc list Atomic.t = Atomic.make []

let rec register a =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (a :: cur)) then register a

let key =
  Domain.DLS.new_key (fun () ->
      let k = n_probes in
      let domain = (Domain.self () :> int) in
      let a =
        {
          domain;
          calls = Array.make k 0;
          ns = Array.make k 0;
          child_ns = Array.make k 0;
          open_stack = -1;
          ctx_events = 0;
          sample = Array.make reservoir_size "";
          seen = 0;
          rng = Random.State.make [| domain |];
        }
      in
      register a;
      a)

let accs () = Atomic.get registry

(* a leaf call: charged to its own probe and to the enclosing stack probe *)
let leaf p f =
  let a = Domain.DLS.get key in
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  let i = index p in
  a.calls.(i) <- a.calls.(i) + 1;
  a.ns.(i) <- a.ns.(i) + dt;
  if a.open_stack >= 0 then a.child_ns.(a.open_stack) <- a.child_ns.(a.open_stack) + dt;
  r

let stack p f =
  let a = Domain.DLS.get key in
  let outer = a.open_stack in
  let i = index p in
  a.open_stack <- i;
  let t0 = now_ns () in
  match f () with
  | r ->
    a.calls.(i) <- a.calls.(i) + 1;
    a.ns.(i) <- a.ns.(i) + (now_ns () - t0);
    a.open_stack <- outer;
    r
  | exception e ->
    a.open_stack <- outer;
    raise e

(* Algorithm R: a uniform sample of every payload sent on this domain *)
let keep_payload payload =
  let a = Domain.DLS.get key in
  if a.seen < reservoir_size then a.sample.(a.seen) <- payload
  else begin
    let j = Random.State.int a.rng (a.seen + 1) in
    if j < reservoir_size then a.sample.(j) <- payload
  end;
  a.seen <- a.seen + 1

module Traced_store (S : Store.Store_intf.S) : Store.Store_intf.S = struct
  include S

  let do_op st ~obj op = leaf Store_do_op (fun () -> S.do_op st ~obj op)

  let send st = leaf Store_send (fun () -> S.send st)

  let receive st ~sender payload =
    leaf Store_receive (fun () -> S.receive st ~sender payload)
end

module Traced_stack (S : Live.Cluster.STACK) : Live.Cluster.STACK = struct
  include S

  let init ~n ~me = stack Stack_init (fun () -> S.init ~n ~me)

  let do_op st ~obj op = stack Stack_do_op (fun () -> S.do_op st ~obj op)

  let has_pending st = stack Stack_has_pending (fun () -> S.has_pending st)

  let send st =
    let ((_, payload) as r) = stack Stack_send (fun () -> S.send st) in
    keep_payload payload;
    r

  let receive st ~sender payload =
    stack Stack_receive (fun () -> S.receive st ~sender payload)

  let tick st = stack Stack_tick (fun () -> S.tick st)

  let settled states = stack Stack_settled (fun () -> S.settled states)

  let progress st = stack Stack_progress (fun () -> S.progress st)

  let queue_depth st = stack Stack_queue_depth (fun () -> S.queue_depth st)

  let pending_bytes st = stack Stack_pending_bytes (fun () -> S.pending_bytes st)

  let recover st = stack Stack_recover (fun () -> S.recover st)
end

let spec (s : Spec.Spec.t) =
  {
    s with
    Spec.Spec.apply =
      (fun ~ctx ~target ->
        let a = Domain.DLS.get key in
        a.ctx_events <- a.ctx_events + Spec.Abstract.length ctx;
        leaf Spec_apply (fun () -> s.Spec.Spec.apply ~ctx ~target));
  }

(* Totals over a set of domains' records. *)
type totals = {
  t_calls : int array;
  t_ns : int array;
  t_child_ns : int array;
  t_ctx_events : int;
}

let totals ?(only = fun (_ : acc) -> true) () =
  let k = n_probes in
  let calls = Array.make k 0 and ns = Array.make k 0 and child = Array.make k 0 in
  let ctx = ref 0 in
  List.iter
    (fun a ->
      if only a then begin
        for i = 0 to k - 1 do
          calls.(i) <- calls.(i) + a.calls.(i);
          ns.(i) <- ns.(i) + a.ns.(i);
          child.(i) <- child.(i) + a.child_ns.(i)
        done;
        ctx := !ctx + a.ctx_events
      end)
    (accs ());
  { t_calls = calls; t_ns = ns; t_child_ns = child; t_ctx_events = !ctx }

let calls t p = t.t_calls.(index p)

let ns t p = t.t_ns.(index p)

let self_ns t p = t.t_ns.(index p) - t.t_child_ns.(index p)

let payload_sample () =
  List.concat_map
    (fun a -> Array.to_list (Array.sub a.sample 0 (min a.seen reservoir_size)))
    (accs ())
