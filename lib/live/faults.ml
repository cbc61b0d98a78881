open Haec_util
module Fault_plan = Haec_sim.Fault_plan

(* One cell per directed link, owned by the source domain: the RNG that
   decides this link's fate and the counters telemetry harvests after
   join. The only cross-domain cell is [t0], written once by the
   coordinator before the gate opens (the gate's Atomic.set/get pair
   publishes it to every domain). *)
type link = {
  rng : Rng.t;
  mutable drops : int;
  mutable delays : int;
  mutable dups : int;
  mutable corrupts : int;
  mutable crash_lost : int;
}

type totals = {
  drops : int;
  delays : int;
  dups : int;
  corrupts : int;
  crash_lost : int;
}

type t = {
  plan : Fault_plan.t;
  drop_p : float;
  n : int;
  links : link array;  (* src * n + dst *)
  mutable t0 : float;
}

let make ~plan ~drop_p ~seed ~n =
  if (not (Float.is_finite drop_p)) || drop_p < 0.0 || drop_p >= 1.0 then
    invalid_arg "Faults.make: drop probability must be in [0, 1)";
  if plan.Fault_plan.churn <> None then
    invalid_arg "Faults.make: live clusters have a fixed membership, churn plans are sim-only";
  List.iter
    (fun (c : Fault_plan.crash_window) ->
      if c.replica < 0 || c.replica >= n then
        invalid_arg "Faults.make: crash replica out of range")
    plan.Fault_plan.crashes;
  let check_link src dst =
    if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then
      invalid_arg "Faults.make: link endpoint out of range"
  in
  List.iter (fun (l : Fault_plan.link_fault) -> check_link l.src l.dst) plan.Fault_plan.links;
  List.iter (fun (d : Fault_plan.dead_link) -> check_link d.src d.dst) plan.Fault_plan.dead;
  {
    plan;
    drop_p;
    n;
    links =
      Array.init (n * n) (fun i ->
          {
            rng = Rng.create (seed + (7919 * (i + 1)));
            drops = 0;
            delays = 0;
            dups = 0;
            corrupts = 0;
            crash_lost = 0;
          });
    t0 = Float.nan;
  }

let plan t = t.plan

let start t ~t0 = t.t0 <- t0

let rel t now = now -. t.t0

let link t ~src ~dst = t.links.((src * t.n) + dst)

let transform t ~src ~dst ~now bytes =
  let l = link t ~src ~dst in
  let at = rel t now in
  if
    Fault_plan.link_dead t.plan ~src ~dst ~at
    || Fault_plan.link_dropped t.plan ~src ~dst ~at <> None
    || (t.drop_p > 0.0 && Rng.chance l.rng t.drop_p)
  then begin
    l.drops <- l.drops + 1;
    []
  end
  else begin
    let bytes =
      let p = Fault_plan.corruption_p t.plan ~now:at in
      if p > 0.0 && Rng.chance l.rng p then begin
        l.corrupts <- l.corrupts + 1;
        Fault_plan.mutate l.rng bytes
      end
      else bytes
    in
    let copies =
      match Fault_plan.duplication t.plan ~now:at with
      | Some (dup_p, copies) when Rng.chance l.rng dup_p ->
        l.dups <- l.dups + copies;
        copies
      | Some _ | None -> 0
    in
    let jitter = Fault_plan.reorder_jitter t.plan ~now:at in
    List.init (1 + copies) (fun _ ->
        let delay = if jitter > 0.0 then Rng.float l.rng jitter else 0.0 in
        if delay > 0.0 then l.delays <- l.delays + 1;
        (now +. delay, bytes))
  end

let note_crash_lost t ~src ~dst =
  let l = link t ~src ~dst in
  l.crash_lost <- l.crash_lost + 1

let reachable t ~src ~dst ~now =
  let at = rel t now in
  (not (Fault_plan.link_dead t.plan ~src ~dst ~at))
  && Fault_plan.link_dropped t.plan ~src ~dst ~at = None

let down t ~replica ~now =
  let at = rel t now in
  List.exists
    (fun (c : Fault_plan.crash_window) ->
      c.replica = replica && at >= c.at && at < c.recover_at)
    t.plan.Fault_plan.crashes

let crash_schedule t ~replica =
  t.plan.Fault_plan.crashes
  |> List.filter_map (fun (c : Fault_plan.crash_window) ->
         if c.replica = replica then Some (t.t0 +. c.at, t.t0 +. c.recover_at)
         else None)
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  |> Array.of_list

let downtime t ~from_ ~until =
  List.fold_left
    (fun acc (c : Fault_plan.crash_window) ->
      let lo = Float.max from_ (t.t0 +. c.at) in
      let hi = Float.min until (t.t0 +. c.recover_at) in
      if hi > lo then acc +. (hi -. lo) else acc)
    0.0 t.plan.Fault_plan.crashes

let last_heal t =
  let p = t.plan in
  let ends =
    List.map (fun (c : Fault_plan.crash_window) -> c.recover_at) p.Fault_plan.crashes
    @ List.map (fun (l : Fault_plan.link_fault) -> l.until) p.Fault_plan.links
    @ (match p.Fault_plan.corruption with
      | Some (c : Fault_plan.corruption) -> [ c.until ]
      | None -> [])
    @ (match p.Fault_plan.dup with
      | Some (d : Fault_plan.dup_window) -> [ d.until ]
      | None -> [])
    @
    match p.Fault_plan.reorder with
    | Some (r : Fault_plan.reorder_window) -> [ r.until +. r.jitter ]
    | None -> []
  in
  t.t0 +. List.fold_left Float.max 0.0 ends

let totals t =
  Array.fold_left
    (fun acc (l : link) ->
      {
        drops = acc.drops + l.drops;
        delays = acc.delays + l.delays;
        dups = acc.dups + l.dups;
        corrupts = acc.corrupts + l.corrupts;
        crash_lost = acc.crash_lost + l.crash_lost;
      })
    { drops = 0; delays = 0; dups = 0; corrupts = 0; crash_lost = 0 }
    t.links
