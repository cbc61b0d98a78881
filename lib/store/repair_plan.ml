(** The repair policy of {!Anti_entropy} as pure functions over plain
    values: when a replica asks a peer for a gap, how much it asks for,
    how much an ask is answered with, and how long a re-ask waits. It
    knows no codec and no log; the caller reads the seqs it needs from
    its own log and hands them in, and keeps the values this module
    defines (the ask table, a round-trip estimate per peer) in its state.

    An ask backs off per (origin, peer), exponentially in gossip rounds
    and capped at [max_backoff]; progress on an origin retires its asks
    toward every peer. The first wait toward a peer is its measured round
    trip: an answer to a first ask (Karn's rule) is timed in rounds and
    smoothed as RFC 6298 does, and the wait is [srtt + 2 rttvar], between
    1 and [max_backoff]. Later waits double. *)

module Int_map = Map.Make (Int)

(* a peer's smoothed round trip, in gossip rounds *)
type rtt = { srtt : float; rttvar : float }

(* the last ask of one origin's gap toward one peer *)
type ask = {
  due : int;  (** earliest round to ask that peer again *)
  backoff : int;  (** rounds the next re-ask waits *)
  asked_at : int;  (** round of the last ask *)
  tries : int;  (** asks since the last progress; only the first is timed *)
}

(* the ask table: origin -> peer -> the last ask *)
type t = ask Int_map.t Int_map.t

let empty : t = Int_map.empty

let last_ask (t : t) ~origin ~peer = Option.bind (Int_map.find_opt origin t) (Int_map.find_opt peer)

(* the first wait before re-asking a peer: its round trip plus twice the
   deviation, or one round until an ask to it was timed *)
let first_wait (cfg : Store_intf.config) = function
  | None -> 1
  | Some { srtt; rttvar } ->
    max 1 (min cfg.max_backoff (int_of_float (Float.ceil (srtt +. (2.0 *. rttvar)))))

(* The ask rule. A replica holding [origin]'s stream up to [have], whose
   view of [peer] (round trip [rtt]) is ahead, asks it for [have, upto):
   up to the first seq it already holds past the gap ([next_held]), at
   most one batch. [Some (upto, t')] records the ask; [None] while the
   last ask toward that peer still backs off. *)
let ask (t : t) (cfg : Store_intf.config) ~rtt ~round ~peer ~origin ~have ~next_held =
  let prev = last_ask t ~origin ~peer in
  match prev with
  | Some a when round < a.due -> None
  | _ ->
    let backoff, tries =
      match prev with Some a -> (a.backoff, a.tries + 1) | None -> (first_wait cfg rtt, 1)
    in
    let batch = have + cfg.repair_batch in
    let upto = match next_held with Some s -> min s batch | None -> batch in
    let a =
      { due = round + backoff; backoff = min (2 * backoff) cfg.max_backoff; asked_at = round; tries }
    in
    let asked = Option.value (Int_map.find_opt origin t) ~default:Int_map.empty in
    Some (upto, Int_map.add origin (Int_map.add peer a asked) t)

(* [peer] answered our ask for [origin]'s gap: [Some rtt'] folds the
   round trip into its estimate [rtt] with RFC 6298's gains when the ask
   was a first try; [None] leaves the estimate, since a re-asked gap's
   answer is ambiguous (Karn's rule) *)
let answered (t : t) ~rtt ~round ~peer ~origin =
  match last_ask t ~origin ~peer with
  | Some { tries = 1; asked_at; _ } ->
    let r = float_of_int (round - asked_at) in
    Some
      (match rtt with
      | None -> { srtt = r; rttvar = r /. 2.0 }
      | Some { srtt; rttvar } ->
        {
          srtt = (0.875 *. srtt) +. (0.125 *. r);
          rttvar = (0.75 *. rttvar) +. (0.25 *. Float.abs (srtt -. r));
        })
  | Some _ | None -> None

(* progress on [origin] retires its asks, so the next gap is chased
   eagerly again *)
let progress (t : t) ~origin : t = Int_map.remove origin t

(* The answer rule: an ask for [from_seq, upto) is answered with the
   window [start, stop): from the floor at the earliest, since below it
   every member holds the stream, and at most [repair_batch] seqs. The
   answer is the window's consecutively logged prefix. *)
let answer (cfg : Store_intf.config) ~floor ~from_seq ~upto =
  let start = max from_seq floor in
  (start, if upto <= start then start else start + min cfg.repair_batch (upto - start))
