(** The repair policy of {!Anti_entropy} as pure functions over plain
    values: when a replica asks for a gap and whom, how much it asks for,
    how much an ask is answered with, and how long a re-ask waits. It
    knows no codec and no log; the caller reads the seqs it needs from
    its own log and hands them in, and keeps the values this module
    defines (the ask table, a round-trip estimate per peer) in its state.

    One gap has one ask outstanding. The candidates for an origin's gap
    are the peers whose view is past it; while one of them was asked and
    its wait has not run out, nobody is asked again. Then the candidate
    asked the fewest times since the last progress is asked, the one with
    the shortest round trip among equals, so a peer that never answers is
    asked again only after every other candidate was asked as often.
    Until some candidate's round trip is measured, a gap is asked of the
    peer whose digest showed it, each peer on its own wait: with nothing
    measured there is nothing to prefer, and a peer behind a dead link
    cannot hold back the others.

    An ask stays open until it is answered: a repair addressed to the
    asker for that origin closes the origin's asks ({!close}), and
    progress closes only the asks whose window it filled ({!progress}).
    So an eager update that fills the first seq of an asked window does
    not reopen the gap while the answer is in flight; the rest of a gap
    is asked for at the next digest after the answer. An ask whose answer
    is lost waits out its backoff.

    A wait backs off per (origin, peer), exponentially in gossip rounds
    and capped at [max_backoff], and keeps backing off while the ask stays
    open. The first wait toward a peer is its measured round trip: an
    answer to a first ask (Karn's rule) is timed in rounds and smoothed as
    RFC 6298 does, and the wait is [srtt + 2 rttvar], between 1 and
    [max_backoff]. Later waits double. *)

module Int_map = Map.Make (Int)

(* a peer's smoothed round trip, in gossip rounds *)
type rtt = { srtt : float; rttvar : float }

(* the last ask of one origin's gap toward one peer *)
type ask = {
  due : int;  (** earliest round to ask that peer again *)
  backoff : int;  (** rounds the next re-ask waits *)
  asked_at : int;  (** round of the last ask *)
  tries : int;  (** asks since the ask opened; only the first is timed *)
  upto : int;  (** end of the window asked for *)
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

(* a peer whose view is past the asker's [have] of one origin *)
type candidate = { peer : int; rtt : rtt option }

(* The ask rule. A replica holding [origin]'s stream up to [have], which
   just read a digest from [sender], asks one of the [candidates] for
   [have, upto): up to the first seq it already holds past the gap
   ([next_held]), at most one batch. [Some (peer, upto, t')] records the
   ask; [None] while the gap's ask still waits (see the module comment). *)
let ask (t : t) (cfg : Store_intf.config) ~round ~sender ~candidates ~origin ~have ~next_held =
  let prev c = last_ask t ~origin ~peer:c.peer in
  let waiting c = match prev c with Some a -> round < a.due | None -> false in
  let chosen =
    if List.for_all (fun c -> c.rtt = None) candidates then
      List.find_opt (fun c -> c.peer = sender && not (waiting c)) candidates
    else if List.exists waiting candidates then None
    else
      let key c =
        ( (match prev c with Some a -> a.tries | None -> 0),
          (match c.rtt with Some r -> r.srtt | None -> Float.infinity),
          c.peer )
      in
      List.fold_left
        (fun best c ->
          match best with Some b when compare (key b) (key c) <= 0 -> best | _ -> Some c)
        None candidates
  in
  Option.map
    (fun c ->
      let backoff, tries =
        match prev c with Some a -> (a.backoff, a.tries + 1) | None -> (first_wait cfg c.rtt, 1)
      in
      let batch = have + cfg.repair_batch in
      let upto = match next_held with Some s -> min s batch | None -> batch in
      let a =
        {
          due = round + backoff;
          backoff = min (2 * backoff) cfg.max_backoff;
          asked_at = round;
          tries;
          upto;
        }
      in
      let asked = Option.value (Int_map.find_opt origin t) ~default:Int_map.empty in
      (c.peer, upto, Int_map.add origin (Int_map.add c.peer a asked) t))
    chosen

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

(* [origin]'s stream is now held up to [have]: the asks whose window
   ends at or below it are filled and close; an ask partly filled stays
   open, its answer still in flight. Allocates nothing while [origin] has
   no ask open, since every received update that applies calls it *)
let progress (t : t) ~origin ~have : t =
  match Int_map.find origin t with
  | exception Not_found -> t
  | asks ->
    let still = Int_map.filter (fun _ a -> a.upto > have) asks in
    if still == asks then t
    else if Int_map.is_empty still then Int_map.remove origin t
    else Int_map.add origin still t

(* a repair addressed to the asker answered [origin]'s gap: its asks
   toward every peer close, and what is still missing is asked for anew *)
let close (t : t) ~origin : t = Int_map.remove origin t

(* The answer rule: an ask for [from_seq, upto) is answered with the
   window [start, stop): from the floor at the earliest, since below it
   every member holds the stream, and at most [repair_batch] seqs. The
   answer is the window's consecutively logged prefix. *)
let answer (cfg : Store_intf.config) ~floor ~from_seq ~upto =
  let start = max from_seq floor in
  (start, if upto <= start then start else start + min cfg.repair_batch (upto - start))
