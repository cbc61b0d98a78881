(* The allocation budget of the live write path. The frame cycle below is
   the one [live-saturate] runs on each replica domain, replayed on one
   domain: two volatile anti-entropy replicas of the causal MVR store, 64
   uniform objects, the 1:1 register mix, 8-op frames that are sealed,
   unsealed and received by the peer, and a gossip tick every 50 frames.
   Minor words per op are deterministic (no clock, no scheduler), so a
   budget on them holds the saving without timing noise. *)

open Haec
module S = Sim.Stack.Volatile (Store.Causal_mvr_store)

type stages = {
  mutable do_op : float;
  mutable send : float;
  mutable seal : float;
  mutable receive : float;
  mutable tick : float;
  mutable ops : int;
}

let frame_ops = 8

let tick_every = 50

(* run [frames] frames of the cycle after [warmup] unmeasured ones and
   return the words each stage allocated *)
let frame_cycle ~warmup ~frames =
  let samp = Live.Load.sampler ~objects:64 ~theta:0.0 in
  let gens = Array.init 2 (fun r -> Live.Load.gen ~replica:r Live.Load.register_mix) in
  let rngs = Array.init 2 (fun r -> Util.Rng.create (r + 1)) in
  let st = Array.init 2 (fun me -> S.init ~n:2 ~me) in
  let w = { do_op = 0.; send = 0.; seal = 0.; receive = 0.; tick = 0.; ops = 0 } in
  let measuring = ref false in
  let charge f =
    let w0 = Gc.minor_words () in
    f ();
    let d = Gc.minor_words () -. w0 in
    if !measuring then d else 0.
  in
  let rec flush r =
    if S.has_pending st.(r) then begin
      let payload = ref "" in
      w.send <- w.send +. charge (fun () ->
          let s, p = S.send st.(r) in
          st.(r) <- s;
          payload := p);
      let received = ref "" in
      w.seal <- w.seal +. charge (fun () ->
          received := Wire.Frame.unseal (Wire.Frame.seal !payload));
      w.receive <- w.receive +. charge (fun () ->
          st.(1 - r) <- S.receive st.(1 - r) ~sender:r !received);
      flush r
    end
  in
  for k = 0 to warmup + frames - 1 do
    measuring := k >= warmup;
    let r = k land 1 in
    for _ = 1 to frame_ops do
      w.do_op <- w.do_op +. charge (fun () ->
          let obj = Live.Load.sample samp rngs.(r) in
          let op = Live.Load.next gens.(r) rngs.(r) in
          let s, _, _ = S.do_op st.(r) ~obj op in
          st.(r) <- s);
      if !measuring then w.ops <- w.ops + 1
    done;
    flush r;
    if k mod tick_every = tick_every - 1 then begin
      w.tick <- w.tick +. charge (fun () ->
          st.(0) <- S.tick st.(0);
          st.(1) <- S.tick st.(1));
      flush 0;
      flush 1;
      flush 0
    end
  done;
  w

let per_op w x = x /. float_of_int w.ops

let total w = w.do_op +. w.send +. w.seal +. w.receive +. w.tick

let budget = 180.

let test_budget () =
  let w = frame_cycle ~warmup:2_000 ~frames:4_000 in
  let words = per_op w (total w) in
  if words > budget then
    Alcotest.failf
      "%.1f minor words per op exceed the budget of %.0f (do %.1f, receive %.1f, send %.1f, \
       seal/unseal %.1f, tick %.1f)"
      words budget (per_op w w.do_op) (per_op w w.receive) (per_op w w.send) (per_op w w.seal)
      (per_op w w.tick)

let test_deterministic () =
  let a = frame_cycle ~warmup:100 ~frames:400 and b = frame_cycle ~warmup:100 ~frames:400 in
  Alcotest.(check (float 0.)) "same words on a rerun" (total a) (total b)

let suite =
  ( "frame-cost",
    [
      Alcotest.test_case "the live frame cycle allocates at most 180 words per op" `Quick
        test_budget;
      Alcotest.test_case "the frame cycle's allocation is deterministic" `Quick test_deterministic;
    ] )
