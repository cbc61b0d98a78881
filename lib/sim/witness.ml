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

type seen = unit Key_tbl.t

let seen () = Key_tbl.create 256

let fresh seen ~obj (w : Store_intf.witness) =
  let visible =
    List.filter
      (fun key ->
        if Key_tbl.mem seen key then false
        else begin
          Key_tbl.add seen key ();
          true
        end)
      w.visible
  in
  (match w.self with Some dot -> Key_tbl.replace seen (obj, dot) () | None -> ());
  { w with visible }

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

let record t ?(on_new = no_callback) (d : Event.do_event) (w : Store_intf.witness) =
  let j = t.len in
  let delta =
    List.fold_left
      (fun acc ((obj, _) as key) ->
        match Key_tbl.find_opt t.pos key with
        | Some i ->
          on_new i obj;
          i :: acc
        | None -> acc)
      [] w.visible
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
  let vis = ref [] in
  for j = t.len - 1 downto 0 do
    List.iter (fun i -> vis := (i, j) :: !vis) t.deltas.(j)
  done;
  Haec_spec.Abstract.create ~n (Array.sub t.dos 0 t.len) ~vis:!vis
