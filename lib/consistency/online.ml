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

type cell = {
  seen : row;  (* raw: the updates on the object visible at the replica *)
  raw : row fold;
  closed : int array fold;
  mutable issued : int;  (* updates on the object the replica issued *)
}

type t = {
  n : int;
  spec_of : int -> Spec.t;
  mutable entries : entry array;
  mutable len : int;
  cells : (int, cell) Hashtbl.t array;  (* per replica, by object *)
  by_replica : int array array;  (* per replica, its event indices; growable *)
  counts : int array;
  cur : int array array;  (* per replica: closed past of its last event, and it *)
  mutable correct : (unit, string) result;
  mutable causal : (unit, string) result;
  raw_rows : row rows;
  closed_rows : int array rows;
}

let no_row = { vec = [||]; exc = [||] }

let create ~n ~spec_of =
  if n <= 0 then invalid_arg "Online.create: n must be positive";
  let rec t =
    {
      n;
      spec_of;
      entries = [||];
      len = 0;
      cells = Array.init n (fun _ -> Hashtbl.create 8);
      by_replica = Array.make n [||];
      counts = Array.make n 0;
      cur = Array.init n (fun _ -> Array.make n 0);
      correct = Ok ();
      causal = Ok ();
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
        issued = 0;
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

let push_index t r j =
  let k = t.counts.(r) in
  if k = Array.length t.by_replica.(r) then begin
    let grown = Array.make (max 16 (2 * k)) 0 in
    Array.blit t.by_replica.(r) 0 grown 0 k;
    t.by_replica.(r) <- grown
  end;
  t.by_replica.(r).(k) <- j;
  t.counts.(r) <- k + 1

let push_entry t e =
  let j = t.len in
  if j = Array.length t.entries then begin
    let grown = Array.make (max 64 (2 * j)) e in
    Array.blit t.entries 0 grown 0 j;
    t.entries <- grown
  end;
  t.entries.(j) <- e;
  t.len <- j + 1

let feed t (d : Event.do_event) delta =
  let j = t.len and r = d.Event.replica and o = d.Event.obj in
  if r < 0 || r >= t.n then invalid_arg "Online.feed: replica out of range";
  List.iter (fun i -> if i < 0 || i >= j then invalid_arg "Online.feed: delta out of range") delta;
  let update = Op.is_update d.Event.op in
  let home = cell t r o in
  let rank =
    if update then begin
      let k = home.issued in
      home.issued <- k + 1;
      k
    end
    else 0
  in
  let pos = t.counts.(r) in
  (* Correctness of the raw witness: the delta's updates enter the
     replica's raw contexts, each once. *)
  let row =
    match t.correct with
    | Error _ -> no_row
    | Ok () ->
      List.iter
        (fun i ->
          let e = t.entries.(i) in
          if Op.is_update e.d.Event.op then begin
            let c = cell t r e.d.Event.obj in
            let q = e.d.Event.replica in
            if not (row_mem c.seen q e.rank) then begin
              row_add c.seen q e.rank;
              enter t.raw_rows c.raw i e.d.Event.op
            end
          end)
        delta;
      t.correct <- verdict t home.raw j d;
      if update then row_snapshot home.seen else no_row
  in
  (* Causal consistency: the same check over the closed past, a prefix of
     every replica's events (condition (1) of Definition 4), so one count
     per replica. *)
  let past =
    match t.causal with
    | Error _ -> no_row.vec
    | Ok () ->
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
      for q = 0 to t.n - 1 do
        for p = cur.(q) to past.(q) - 1 do
          let i = t.by_replica.(q).(p) in
          let e = t.entries.(i) in
          if Op.is_update e.d.Event.op then
            enter t.closed_rows (cell t r e.d.Event.obj).closed i e.d.Event.op
        done
      done;
      (match verdict t home.closed j d with
      | Ok () -> ()
      | Error m -> t.causal <- Error ("closed witness incorrect: " ^ m));
      past
  in
  push_entry t { d; pos; rank; row; past };
  push_index t r j;
  if update && Result.is_ok t.correct then begin
    row_add home.seen r rank;
    enter t.raw_rows home.raw j d.Event.op
  end;
  if Result.is_ok t.causal then begin
    Array.blit past 0 t.cur.(r) 0 t.n;
    t.cur.(r).(r) <- pos + 1;
    if update then enter t.closed_rows home.closed j d.Event.op
  end

let correct t = t.correct

let causal t = t.causal

let length t = t.len

(* The delta of [j] is [row(j) \ row(prev) \ {prev}], a word at a time. *)
let iter_deltas a f =
  let last = Hashtbl.create 8 in
  let delta = Bitset.create (Abstract.length a) in
  for j = 0 to Abstract.length a - 1 do
    let d = Abstract.event a j in
    let row = Abstract.vis_row a j in
    Bitset.copy_into ~dst:delta row;
    (match Hashtbl.find_opt last d.Event.replica with
    | Some (p, prev_row) ->
      Bitset.diff_into ~dst:delta prev_row;
      Bitset.clear delta p
    | None -> ());
    Hashtbl.replace last d.Event.replica (j, row);
    f d (Bitset.to_list delta)
  done

let check ~spec_of a =
  let t = create ~n:(Abstract.n_replicas a) ~spec_of in
  iter_deltas a (feed t);
  (t.correct, t.causal)
