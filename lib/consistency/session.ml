open Haec_util
open Haec_model
open Haec_spec

type report = {
  read_your_writes : (unit, string) result;
  monotonic_reads : (unit, string) result;
  monotonic_writes : (unit, string) result;
  writes_follow_reads : (unit, string) result;
}

(* Frozen quantifier-literal implementations, kept verbatim as the oracle
   for the bitset-based fast paths below (and as the authoritative witness
   scan when a fast path reports a violation). Do not optimize them. *)

let check_read_your_writes_reference a =
  let len = Abstract.length a in
  let exception Bad of string in
  try
    for w = 0 to len - 1 do
      let dw = Abstract.event a w in
      if Op.is_update dw.Event.op then
        for e = w + 1 to len - 1 do
          let de = Abstract.event a e in
          if
            de.Event.replica = dw.Event.replica
            && de.Event.obj = dw.Event.obj
            && not (Abstract.vis a w e)
          then raise (Bad (Printf.sprintf "own update %d invisible to later event %d" w e))
        done
    done;
    Ok ()
  with Bad m -> Error m

let check_monotonic_reads_reference a =
  let len = Abstract.length a in
  let exception Bad of string in
  try
    for e = 0 to len - 1 do
      let de = Abstract.event a e in
      for e' = e + 1 to len - 1 do
        let de' = Abstract.event a e' in
        if de'.Event.replica = de.Event.replica then
          List.iter
            (fun w ->
              if not (Abstract.vis a w e') then
                raise
                  (Bad (Printf.sprintf "update %d visible to %d but not to later %d" w e e')))
            (Abstract.vis_preds a e)
      done
    done;
    Ok ()
  with Bad m -> Error m

let check_monotonic_writes_reference a =
  let len = Abstract.length a in
  let exception Bad of string in
  try
    for w = 0 to len - 1 do
      let dw = Abstract.event a w in
      if Op.is_update dw.Event.op then
        (* earlier updates of the issuer, on any object *)
        for w' = 0 to w - 1 do
          let dw' = Abstract.event a w' in
          if dw'.Event.replica = dw.Event.replica && Op.is_update dw'.Event.op then
            for e = w + 1 to len - 1 do
              if Abstract.vis a w e && not (Abstract.vis a w' e) then
                raise
                  (Bad
                     (Printf.sprintf
                        "update %d visible to %d without the issuer's earlier update %d" w
                        e w'))
            done
        done
    done;
    Ok ()
  with Bad m -> Error m

let check_writes_follow_reads_reference a =
  let len = Abstract.length a in
  let exception Bad of string in
  try
    for w = 0 to len - 1 do
      let dw = Abstract.event a w in
      if Op.is_update dw.Event.op then
        (* updates visible to the issuer at issue time, on any object *)
        List.iter
          (fun w' ->
            let dw' = Abstract.event a w' in
            if Op.is_update dw'.Event.op then
              for e = w + 1 to len - 1 do
                if Abstract.vis a w e && not (Abstract.vis a w' e) then
                  raise
                    (Bad
                       (Printf.sprintf
                          "update %d visible to %d without its observed predecessor %d" w e
                          w'))
              done)
          (Abstract.vis_preds a w)
    done;
    Ok ()
  with Bad m -> Error m

let check_reference a =
  {
    read_your_writes = check_read_your_writes_reference a;
    monotonic_reads = check_monotonic_reads_reference a;
    monotonic_writes = check_monotonic_writes_reference a;
    writes_follow_reads = check_writes_follow_reads_reference a;
  }

(* Bit-parallel fast paths. Each guarantee reduces to subset tests over
   whole visibility rows:

   - RYW: walking each replica in H order with an accumulator of its own
     updates per object, every event must see the whole accumulator.
   - MR: visibility at a replica only grows, and [⊆] is transitive, so
     checking consecutive same-replica pairs covers all pairs.
   - MW: [w] visible at [e] must drag along the issuer's earlier update
     [w']; in transpose rows that is [seen(w) ⊆ seen(w')], and again
     consecutive same-replica update pairs suffice by transitivity.
   - WFR: same subset test, for every update [w'] visible to [w]'s issuer
     when issuing.

   MW/WFR via full transpose rows quantify over *all* events seeing [w],
   whereas the definitions quantify only over [e] after [w]; on any
   order-respecting execution (Definition 4 condition 3) these coincide.
   The fast paths are therefore conservative: a fast pass implies the
   reference passes, and a fast failure re-runs the reference checker both
   to confirm and to produce the same witness message it always produced. *)

(* Row [j] is its replica's previous event [p], [p]'s row and [j]'s
   delta: one row copy per event, where reading each row off the
   first-visibility table would cost O(N). *)
let build_rows a =
  let len = Abstract.length a in
  let rows = Array.make len (Bitset.create 0) in
  let last = Array.make (Abstract.n_replicas a) (-1) in
  let j = ref 0 in
  Online.iter_deltas a (fun d delta ->
      let p = last.(d.Event.replica) in
      let row = if p < 0 then Bitset.create len else Bitset.copy rows.(p) in
      if p >= 0 then Bitset.set row p;
      List.iter (Bitset.set row) delta;
      rows.(!j) <- row;
      last.(d.Event.replica) <- !j;
      incr j);
  rows

let build_seen rows =
  let len = Array.length rows in
  let seen = Array.init len (fun _ -> Bitset.create len) in
  for e = 0 to len - 1 do
    Bitset.iter rows.(e) (fun i -> Bitset.set seen.(i) e)
  done;
  seen

let ryw_holds a rows =
  let len = Abstract.length a in
  let acc : (int * int, Bitset.t) Hashtbl.t = Hashtbl.create 16 in
  let ok = ref true in
  let e = ref 0 in
  while !ok && !e < len do
    let d = Abstract.event a !e in
    let key = (d.Event.replica, d.Event.obj) in
    (match Hashtbl.find_opt acc key with
    | Some own -> if not (Bitset.is_subset own rows.(!e)) then ok := false
    | None -> ());
    if !ok && Op.is_update d.Event.op then begin
      let own =
        match Hashtbl.find_opt acc key with
        | Some own -> own
        | None ->
          let own = Bitset.create len in
          Hashtbl.add acc key own;
          own
      in
      Bitset.set own !e
    end;
    incr e
  done;
  !ok

let mr_holds a rows =
  let len = Abstract.length a in
  let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  let e = ref 0 in
  while !ok && !e < len do
    let d = Abstract.event a !e in
    (match Hashtbl.find_opt last d.Event.replica with
    | Some p -> if not (Bitset.is_subset rows.(p) rows.(!e)) then ok := false
    | None -> ());
    Hashtbl.replace last d.Event.replica !e;
    incr e
  done;
  !ok

let mw_holds a seen =
  let len = Abstract.length a in
  let last_upd : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < len do
    let d = Abstract.event a !w in
    if Op.is_update d.Event.op then begin
      (match Hashtbl.find_opt last_upd d.Event.replica with
      | Some w' -> if not (Bitset.is_subset seen.(!w) seen.(w')) then ok := false
      | None -> ());
      Hashtbl.replace last_upd d.Event.replica !w
    end;
    incr w
  done;
  !ok

let wfr_holds a rows seen =
  let len = Abstract.length a in
  let is_upd = Array.init len (fun i -> Op.is_update (Abstract.event a i).Event.op) in
  let exception Bad in
  try
    for w = 0 to len - 1 do
      if is_upd.(w) then
        Bitset.iter rows.(w) (fun w' ->
            if is_upd.(w') && not (Bitset.is_subset seen.(w) seen.(w')) then raise Bad)
    done;
    true
  with Bad -> false

let check a =
  let rows = build_rows a in
  let seen = build_seen rows in
  let guard fast reference = if fast () then Ok () else reference a in
  {
    read_your_writes = guard (fun () -> ryw_holds a rows) check_read_your_writes_reference;
    monotonic_reads = guard (fun () -> mr_holds a rows) check_monotonic_reads_reference;
    monotonic_writes = guard (fun () -> mw_holds a seen) check_monotonic_writes_reference;
    writes_follow_reads =
      guard (fun () -> wfr_holds a rows seen) check_writes_follow_reads_reference;
  }

let entries r =
  [
    ("read-your-writes", r.read_your_writes);
    ("monotonic-reads", r.monotonic_reads);
    ("monotonic-writes", r.monotonic_writes);
    ("writes-follow-reads", r.writes_follow_reads);
  ]

let all_hold r = List.for_all (fun (_, res) -> res = Ok ()) (entries r)

let holding r =
  List.filter_map (fun (name, res) -> if res = Ok () then Some name else None) (entries r)

let pp ppf r =
  List.iter
    (fun (name, res) ->
      match res with
      | Ok () -> Format.fprintf ppf "%s: ok@," name
      | Error m -> Format.fprintf ppf "%s: %s@," name m)
    (entries r)
