open Haec_model
open Haec_vclock
module Store_intf = Haec_store.Store_intf

type key = int * Dot.t

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal ((o1, d1) : t) (o2, d2) =
    o1 = o2 && d1.Dot.replica = d2.Dot.replica && d1.Dot.seq = d2.Dot.seq

  let hash ((o, d) : t) = Haec_util.Int_tbl.hash3 o d.Dot.replica d.Dot.seq
end)

(* Per (object, origin): the high-water count [hw] below which every seq
   is seen, and how many seen seqs above it the exception table [exc]
   holds. A seq that extends the prefix absorbs the exceptions it makes
   contiguous, so the table only ever holds the gaps' far sides. *)
type row = { mutable hw : int array; mutable held : int array }

type seen = { mutable rows : row array; exc : unit Key_tbl.t }

type delta = { keys : key list; self : Dot.t option }

let no_delta = { keys = []; self = None }

let seen () = { rows = [||]; exc = Key_tbl.create 16 }

let row s ~obj ~origin =
  let nr = Array.length s.rows in
  if obj >= nr then
    s.rows <-
      Array.init (max 8 (2 * (obj + 1))) (fun i ->
          if i < nr then s.rows.(i) else { hw = [||]; held = [||] });
  let row = s.rows.(obj) in
  let no = Array.length row.hw in
  if origin >= no then begin
    let grow a = Array.init (max 4 (2 * (origin + 1))) (fun i -> if i < no then a.(i) else 0) in
    row.hw <- grow row.hw;
    row.held <- grow row.held
  end;
  row

(* [seq] is seen above the high-water count; if so, forget it: the caller
   is about to cover it *)
let take_exception s row ~obj ~origin seq =
  row.held.(origin) > 0
  &&
  let key = (obj, Dot.make ~replica:origin ~seq) in
  Key_tbl.mem s.exc key
  && begin
       Key_tbl.remove s.exc key;
       row.held.(origin) <- row.held.(origin) - 1;
       true
     end

(* raise the high-water count to [h], then past every exception it
   makes contiguous *)
let raise_hw s row ~obj ~origin h =
  let h = ref h in
  while take_exception s row ~obj ~origin (!h + 1) do
    incr h
  done;
  row.hw.(origin) <- !h

(* mark [(obj, d)] seen; [false] if it already was *)
let add s ~obj (d : Dot.t) =
  let origin = d.Dot.replica and seq = d.Dot.seq in
  let row = row s ~obj ~origin in
  if seq <= row.hw.(origin) || (row.held.(origin) > 0 && Key_tbl.mem s.exc (obj, d)) then
    false
  else begin
    if seq = row.hw.(origin) + 1 then raise_hw s row ~obj ~origin seq
    else begin
      Key_tbl.replace s.exc (obj, d) ();
      row.held.(origin) <- row.held.(origin) + 1
    end;
    true
  end

let fresh s ~obj (w : Store_intf.witness) =
  let acc = ref [] in
  List.iter
    (fun (sm : Store_intf.summary) ->
      let o = sm.Store_intf.obj in
      (match sm.Store_intf.frontier with
      | None -> ()
      | Some v ->
        for origin = 0 to Vclock.size v - 1 do
          let f = Vclock.get v origin in
          let row = row s ~obj:o ~origin in
          let h = row.hw.(origin) in
          if f > h then begin
            for seq = h + 1 to f do
              if not (take_exception s row ~obj:o ~origin seq) then
                acc := (o, Dot.make ~replica:origin ~seq) :: !acc
            done;
            raise_hw s row ~obj:o ~origin f
          end
        done);
      List.iter (fun d -> if add s ~obj:o d then acc := (o, d) :: !acc) sm.Store_intf.extras)
    w.Store_intf.visible;
  Option.iter (fun d -> ignore (add s ~obj d)) w.Store_intf.self;
  { keys = List.rev !acc; self = w.Store_intf.self }

type t = {
  pos : int Key_tbl.t;  (* (obj, self dot) -> do index *)
  mutable dos : Event.do_event array;  (* growable; [len] used *)
  mutable deltas : int list array;  (* do index -> the earlier events it newly sees *)
  mutable len : int;
}

let create () = { pos = Key_tbl.create 256; dos = [||]; deltas = [||]; len = 0 }

let event t i =
  if i < 0 || i >= t.len then invalid_arg "Witness.event: index out of range";
  t.dos.(i)

let no_callback (_ : int) (_ : int) = ()

let record t ?(on_new = no_callback) (d : Event.do_event) (w : delta) =
  let j = t.len in
  let delta =
    List.fold_left
      (fun acc ((obj, _) as key) ->
        match Key_tbl.find_opt t.pos key with
        | Some i ->
          on_new i obj;
          i :: acc
        | None -> acc)
      [] w.keys
  in
  (match w.self with Some dot -> Key_tbl.replace t.pos (d.Event.obj, dot) j | None -> ());
  if j = Array.length t.dos then begin
    let cap = max 64 (2 * j) in
    let grown = Array.make cap d and grown_deltas = Array.make cap [] in
    Array.blit t.dos 0 grown 0 j;
    Array.blit t.deltas 0 grown_deltas 0 j;
    t.dos <- grown;
    t.deltas <- grown_deltas
  end;
  t.dos.(j) <- d;
  t.deltas.(j) <- delta;
  t.len <- j + 1

let iter t f =
  for j = 0 to t.len - 1 do
    f t.dos.(j) t.deltas.(j)
  done

let abstract t ~n =
  Haec_spec.Abstract.of_deltas ~n (Array.sub t.dos 0 t.len) ~delta:(Array.get t.deltas)
