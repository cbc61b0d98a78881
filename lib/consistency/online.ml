open Haec_util
open Haec_model
open Haec_spec
module Iset = Set.Make (Int)

(* ---------- raw rows: a prefix count plus exceptions ---------- *)

(* A set of update events on one object. An update is keyed by its origin
   replica and its rank among that origin's updates on the object; per
   origin, [vec] counts the members that form a prefix of the ranks and
   [exc] holds the members above it. *)
type row = { vec : int array; exc : Iset.t array }

let row_create n = { vec = Array.make n 0; exc = Array.make n Iset.empty }

let row_snapshot r = { vec = Array.copy r.vec; exc = Array.copy r.exc }

let row_mem r q s = s < r.vec.(q) || ((not (Iset.is_empty r.exc.(q))) && Iset.mem s r.exc.(q))

(* drop exceptions the prefix already covers, then absorb the ones that
   became contiguous with it *)
let normalize r q =
  if not (Iset.is_empty r.exc.(q)) then begin
    let _, _, above = Iset.split (r.vec.(q) - 1) r.exc.(q) in
    let v = ref r.vec.(q) and e = ref above in
    while Iset.mem !v !e do
      e := Iset.remove !v !e;
      incr v
    done;
    r.vec.(q) <- !v;
    r.exc.(q) <- !e
  end

let row_add r q s =
  if s = r.vec.(q) then begin
    r.vec.(q) <- s + 1;
    normalize r q
  end
  else if s > r.vec.(q) then r.exc.(q) <- Iset.add s r.exc.(q)

let row_union ~dst src =
  for q = 0 to Array.length dst.vec - 1 do
    if src.vec.(q) > dst.vec.(q) then dst.vec.(q) <- src.vec.(q);
    if not (Iset.is_empty src.exc.(q)) then dst.exc.(q) <- Iset.union dst.exc.(q) src.exc.(q);
    normalize dst q
  done

(* ---------- one fold per specification shape ---------- *)

(* The events of a union of rows ['u], and the context updates outside it. *)
type 'u live = { dom : 'u; mutable live : int list }

type 'u fold =
  | Register of { mutable last : int; mutable value : Value.t list }
  | Mvr of 'u live
  | Orset of (Value.t, 'u live) Hashtbl.t
  | Counter of { mutable count : int }

(* How a path represents the visible past of an update. *)
type 'u rows = {
  empty : unit -> 'u;
  mem : 'u -> int -> bool;  (** is update [i] in the union? *)
  union_row : 'u -> int -> unit;  (** union in the row of update [i] *)
}

let make_fold rows (shape : Spec.shape) =
  match shape with
  | Spec.Register -> Register { last = -1; value = [] }
  | Spec.Mvr -> Mvr { dom = rows.empty (); live = [] }
  | Spec.Orset -> Orset (Hashtbl.create 4)
  | Spec.Counter -> Counter { count = 0 }

let dominate rows l i =
  rows.union_row l.dom i;
  if l.live <> [] then l.live <- List.filter (fun w -> not (rows.mem l.dom w)) l.live

let survive rows l i = if not (rows.mem l.dom i) then l.live <- i :: l.live

let per_value rows tbl v =
  match Hashtbl.find_opt tbl v with
  | Some l -> l
  | None ->
    let l = { dom = rows.empty (); live = [] } in
    Hashtbl.add tbl v l;
    l

(* Update [i] (operation [op]) enters the context. Every fold is
   independent of the order updates enter in. *)
let enter rows fold i (op : Op.t) =
  match (fold, op) with
  | Register r, Op.Write v ->
    if i > r.last then begin
      r.last <- i;
      r.value <- [ v ]
    end
  | Mvr l, Op.Write _ ->
    dominate rows l i;
    survive rows l i
  | Orset tbl, Op.Add v -> survive rows (per_value rows tbl v) i
  | Orset tbl, Op.Remove v -> dominate rows (per_value rows tbl v) i
  | Counter c, Op.Add _ -> c.count <- c.count + 1
  | Counter c, Op.Remove _ -> c.count <- c.count - 1
  | (Register _ | Mvr _ | Orset _ | Counter _), (Op.Read | Op.Write _ | Op.Add _ | Op.Remove _)
    ->
    ()

(* ---------- the checker ---------- *)

type entry = {
  d : Event.do_event;
  pos : int;  (* rank among its replica's events *)
  rank : int;  (* an update's rank among its replica's updates on its object *)
  row : row;  (* an update's raw row at issue, over its object's updates *)
  past : int array;  (* closed past: per replica, a prefix count *)
}

(* Every replica's updates on one object, by rank. *)
type updates = {
  idx : int array array;  (* per replica, H indices by rank; growable *)
  cnt : int array;  (* per replica, its updates so far *)
  pre : int array;  (* per replica, those fed before [quiescent_at] *)
}

type cell = {
  seen : row;  (* raw: the updates on the object visible at the replica *)
  raw : row fold;
  closed : int array fold;
  ups : updates;  (* shared by the object's cells *)
}

type t = {
  n : int;
  spec_of : int -> Spec.t;
  quiescent_at : int;
  mutable entries : entry array;
  mutable len : int;
  cells : (int, cell) Hashtbl.t array;  (* per replica, by object *)
  updates : (int, updates) Hashtbl.t;  (* by object *)
  by_replica : int array array;  (* per replica, its event indices; growable *)
  counts : int array;
  cur : int array array;  (* per replica: closed past of its last event, and it *)
  mutable correct : (unit, string) result;
  mutable causal : (unit, string) result;
  mutable unseen : (int * int * int) option;
      (* eventual: the least pre-quiescence update missed by a later
         event on its object, as (update, event, object) *)
  mutable multi_reads : int list;  (* reads returning two or more values, newest first *)
  raw_rows : row rows;
  closed_rows : int array rows;
}

let no_row = { vec = [||]; exc = [||] }

let create ?(quiescent_at = max_int) ~n ~spec_of () =
  if n <= 0 then invalid_arg "Online.create: n must be positive";
  let rec t =
    {
      n;
      spec_of;
      quiescent_at;
      entries = [||];
      len = 0;
      cells = Array.init n (fun _ -> Hashtbl.create 8);
      updates = Hashtbl.create 8;
      by_replica = Array.make n [||];
      counts = Array.make n 0;
      cur = Array.init n (fun _ -> Array.make n 0);
      correct = Ok ();
      causal = Ok ();
      unseen = None;
      multi_reads = [];
      raw_rows =
        {
          empty = (fun () -> row_create n);
          mem =
            (fun u i ->
              let e = t.entries.(i) in
              row_mem u e.d.Event.replica e.rank);
          union_row = (fun u i -> row_union ~dst:u t.entries.(i).row);
        };
      closed_rows =
        {
          empty = (fun () -> Array.make n 0);
          mem =
            (fun u i ->
              let e = t.entries.(i) in
              u.(e.d.Event.replica) > e.pos);
          union_row =
            (fun u i ->
              let p = t.entries.(i).past in
              for q = 0 to n - 1 do
                if p.(q) > u.(q) then u.(q) <- p.(q)
              done);
        };
    }
  in
  t

let updates_of t o =
  match Hashtbl.find_opt t.updates o with
  | Some u -> u
  | None ->
    let u = { idx = Array.make t.n [||]; cnt = Array.make t.n 0; pre = Array.make t.n 0 } in
    Hashtbl.add t.updates o u;
    u

let cell t r o =
  match Hashtbl.find_opt t.cells.(r) o with
  | Some c -> c
  | None ->
    let shape = (t.spec_of o).Spec.shape in
    let c =
      {
        seen = row_create t.n;
        raw = make_fold t.raw_rows shape;
        closed = make_fold t.closed_rows shape;
        ups = updates_of t o;
      }
    in
    Hashtbl.add t.cells.(r) o c;
    c

let written t i =
  match t.entries.(i).d.Event.op with
  | Op.Write v -> v
  | Op.Read | Op.Add _ | Op.Remove _ -> invalid_arg "Online: not a write"

let expected t fold (d : Event.do_event) =
  if Op.is_update d.Event.op then Op.Ok
  else
    match fold with
    | Register r -> Op.vals r.value
    | Mvr l -> Op.vals (List.map (written t) l.live)
    | Orset tbl ->
      Op.vals (Hashtbl.fold (fun v l acc -> if l.live = [] then acc else v :: acc) tbl [])
    | Counter c -> Op.vals [ Value.Int c.count ]

let verdict t fold j (d : Event.do_event) =
  let expected = expected t fold d in
  if Op.equal_response expected d.Event.rval then Ok () else Error (Spec.mismatch j d ~expected)

(* [a], grown if need be to hold index [k] *)
let room a k =
  if k < Array.length a then a
  else begin
    let grown = Array.make (max 16 (2 * k)) 0 in
    Array.blit a 0 grown 0 k;
    grown
  end

let push_index t r j =
  let k = t.counts.(r) in
  t.by_replica.(r) <- room t.by_replica.(r) k;
  t.by_replica.(r).(k) <- j;
  t.counts.(r) <- k + 1

let push_update t u r j =
  let k = u.cnt.(r) in
  u.idx.(r) <- room u.idx.(r) k;
  u.idx.(r).(k) <- j;
  u.cnt.(r) <- k + 1;
  if j < t.quiescent_at then u.pre.(r) <- k + 1

let push_entry t e =
  let j = t.len in
  if j = Array.length t.entries then begin
    let grown = Array.make (max 64 (2 * j)) e in
    Array.blit t.entries 0 grown 0 j;
    t.entries <- grown
  end;
  t.entries.(j) <- e;
  t.len <- j + 1

(* Eventual consistency at post-quiescence event [j] on object [o], whose
   raw row on [o] is [seen]: per origin, the pre-quiescence updates form a
   prefix of its ranks, and the first one missing is the row's prefix
   count. The least miss over the whole run is kept, ties to the earlier
   event, which is the pair the batch check reports first. *)
let audit_quiescent t j o (seen : row) (u : updates) =
  let miss = ref max_int in
  for q = 0 to t.n - 1 do
    let s = seen.vec.(q) in
    if s < u.pre.(q) && u.idx.(q).(s) < !miss then miss := u.idx.(q).(s)
  done;
  match t.unseen with
  | Some (e, _, _) when e <= !miss -> ()
  | Some _ | None -> if !miss < max_int then t.unseen <- Some (!miss, j, o)

let feed t (d : Event.do_event) delta =
  let j = t.len and r = d.Event.replica and o = d.Event.obj in
  if r < 0 || r >= t.n then invalid_arg "Online.feed: replica out of range";
  List.iter (fun i -> if i < 0 || i >= j then invalid_arg "Online.feed: delta out of range") delta;
  let update = Op.is_update d.Event.op in
  let home = cell t r o in
  let rank = if update then home.ups.cnt.(r) else 0 in
  let pos = t.counts.(r) in
  (* The raw witness: the delta's updates join the replica's raw rows,
     each once, and its raw contexts while the witness is still correct.
     The rows are kept past a failure, for the eventual check. *)
  let folding = Result.is_ok t.correct in
  List.iter
    (fun i ->
      let e = t.entries.(i) in
      if Op.is_update e.d.Event.op then begin
        let c = cell t r e.d.Event.obj in
        let q = e.d.Event.replica in
        if not (row_mem c.seen q e.rank) then begin
          row_add c.seen q e.rank;
          if folding then enter t.raw_rows c.raw i e.d.Event.op
        end
      end)
    delta;
  if j >= t.quiescent_at then audit_quiescent t j o home.seen home.ups;
  if folding then t.correct <- verdict t home.raw j d;
  let row = if update && Result.is_ok t.correct then row_snapshot home.seen else no_row in
  (* Causal consistency: the same check over the closed past, a prefix of
     every replica's events (condition (1) of Definition 4), so one count
     per replica. The pasts are kept past a failure, for OCC. *)
  let cur = t.cur.(r) in
  let past = Array.copy cur in
  List.iter
    (fun i ->
      let e = t.entries.(i) in
      let q = e.d.Event.replica in
      for k = 0 to t.n - 1 do
        if e.past.(k) > past.(k) then past.(k) <- e.past.(k)
      done;
      if e.pos + 1 > past.(q) then past.(q) <- e.pos + 1)
    delta;
  if Result.is_ok t.causal then begin
    for q = 0 to t.n - 1 do
      for p = cur.(q) to past.(q) - 1 do
        let i = t.by_replica.(q).(p) in
        let e = t.entries.(i) in
        if Op.is_update e.d.Event.op then
          enter t.closed_rows (cell t r e.d.Event.obj).closed i e.d.Event.op
      done
    done;
    match verdict t home.closed j d with
    | Ok () -> ()
    | Error m -> t.causal <- Error ("closed witness incorrect: " ^ m)
  end;
  push_entry t { d; pos; rank; row; past };
  push_index t r j;
  if update then begin
    push_update t home.ups r j;
    row_add home.seen r rank;
    if Result.is_ok t.correct then enter t.raw_rows home.raw j d.Event.op
  end;
  Array.blit past 0 cur 0 t.n;
  cur.(r) <- pos + 1;
  if update && Result.is_ok t.causal then enter t.closed_rows home.closed j d.Event.op;
  (* the reads OCC resolves at the end *)
  match (d.Event.op, d.Event.rval) with
  | Op.Read, Op.Vals (_ :: _ :: _) -> t.multi_reads <- j :: t.multi_reads
  | (Op.Read | Op.Write _ | Op.Add _ | Op.Remove _), _ -> ()

let correct t = t.correct

let causal t = t.causal

(* ---------- OCC (Definition 18) over the closed pasts ---------- *)

(* How many of replica [q]'s updates in [u] lie below position [bound],
   that is, inside a closed past whose count for [q] is [bound]. *)
let below t u q bound =
  let a = u.idx.(q) in
  let lo = ref 0 and hi = ref u.cnt.(q) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.entries.(a.(mid)).pos < bound then lo := mid + 1 else hi := mid
  done;
  !lo

(* Is some update in [u] (one object's) a witness for side [wi] of a
   returned pair: in [past(other)], outside [past(wi)], and seeing every
   update on its object that [wi] sees (condition 4)? [k] is scratch.
   Pasts are down-closed, so [wi]'s updates on the object are, per
   replica [q], the first [k.(q)], and condition 4 asks only that the
   last of them be in the candidate's past. Along one replica's updates
   pasts grow, so condition 4 is monotone and the candidates from a
   replica [p] form a contiguous run: the last one, if any, decides. *)
let witnessed t u k ~pw ~po =
  for q = 0 to t.n - 1 do
    k.(q) <- below t u q pw.(q)
  done;
  let sees c q = k.(q) = 0 || c.(q) > t.entries.(u.idx.(q).(k.(q) - 1)).pos in
  let rec from p =
    p < t.n
    &&
    let m = below t u p po.(p) in
    (m > k.(p)
    &&
    let c = t.entries.(u.idx.(p).(m - 1)).past in
    let rec all q = q = t.n || (sees c q && all (q + 1)) in
    all 0)
    || from (p + 1)
  in
  from 0

(* Up to two objects other than [obj] holding a witness for side [wi]
   (visible to [other]). Two suffice to tell whether the two sides can
   use distinct objects. *)
let witness_objects t k ~obj ~wi ~other =
  let pw = t.entries.(wi).past and po = t.entries.(other).past in
  let found = ref [] and count = ref 0 in
  (try
     Hashtbl.iter
       (fun o u ->
         if o <> obj && witnessed t u k ~pw ~po then begin
           found := o :: !found;
           incr count;
           if !count = 2 then raise Exit
         end)
       t.updates
   with Exit -> ());
  !found

(* Witnesses [w0'] and [w1'] exist, on distinct objects. *)
let observable t k ~obj ~w0 ~w1 =
  match
    (witness_objects t k ~obj ~wi:w1 ~other:w0, witness_objects t k ~obj ~wi:w0 ~other:w1)
  with
  | [], _ | _, [] -> false
  | [ o1 ], [ o0 ] -> o1 <> o0
  | _ -> true

(* The writes fed, by (object, value), newest first. *)
let writes_by_value t =
  let tbl = Hashtbl.create 64 in
  for j = 0 to t.len - 1 do
    let d = t.entries.(j).d in
    match d.Event.op with
    | Op.Write v ->
      let key = (d.Event.obj, v) in
      Hashtbl.replace tbl key (j :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
    | Op.Read | Op.Add _ | Op.Remove _ -> ()
  done;
  tbl

let occ t =
  let k = Array.make t.n 0 in
  (* built only when some read returned two or more values *)
  let by_value = lazy (writes_by_value t) in
  let rec reads acc = function
    | [] -> Ok (List.rev acc)
    | read :: rest -> (
      let d = t.entries.(read).d in
      let vs = match d.Event.rval with Op.Vals vs -> vs | Op.Ok -> [] in
      match Occ.writes_of_values (Lazy.force by_value) ~obj:d.Event.obj vs with
      | Error _ as e -> e
      | Ok ws ->
        let rec pairs acc = function
          | [] -> acc
          | w0 :: ws ->
            let acc =
              List.fold_left
                (fun acc w1 ->
                  if observable t k ~obj:d.Event.obj ~w0 ~w1 then acc
                  else { Occ.read; w0; w1 } :: acc)
                acc ws
            in
            pairs acc ws
        in
        reads (pairs acc ws) rest)
  in
  reads [] (List.rev t.multi_reads)

let eventual t =
  match t.unseen with
  | None -> Ok ()
  | Some (update, event, obj) -> Error (Eventual.not_visible ~update ~event ~obj)

let length t = t.len

(* The delta of [j] is [row(j) \ row(prev) \ {prev}], a word at a time,
   read off the rows in place. *)
let iter_deltas a f =
  let last = Hashtbl.create 8 in
  let delta = Bitset.create (Abstract.length a) in
  for j = 0 to Abstract.length a - 1 do
    let d = Abstract.event a j in
    Abstract.row_into ~dst:delta a j;
    (match Hashtbl.find_opt last d.Event.replica with
    | Some p ->
      Abstract.diff_row_into ~dst:delta a p;
      Bitset.clear delta p
    | None -> ());
    Hashtbl.replace last d.Event.replica j;
    f d (Bitset.to_list delta)
  done

let check ~spec_of a =
  let t = create ~n:(Abstract.n_replicas a) ~spec_of () in
  iter_deltas a (feed t);
  (t.correct, t.causal)
