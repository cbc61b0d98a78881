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
  mutable len : int;
  mutable vis : (int * int) list;
}

let create () = { pos = Key_tbl.create 256; dos = [||]; len = 0; vis = [] }

let event t i =
  if i < 0 || i >= t.len then invalid_arg "Witness.event: index out of range";
  t.dos.(i)

let no_callback (_ : int) (_ : int) = ()

let record t ?(on_new = no_callback) (d : Event.do_event) (w : Store_intf.witness) =
  let j = t.len in
  List.iter
    (fun ((obj, _) as key) ->
      match Key_tbl.find_opt t.pos key with
      | Some i ->
        t.vis <- (i, j) :: t.vis;
        on_new i obj
      | None -> ())
    w.visible;
  (match w.self with Some dot -> Key_tbl.replace t.pos (d.Event.obj, dot) j | None -> ());
  if j = Array.length t.dos then begin
    let grown = Array.make (max 64 (2 * j)) d in
    Array.blit t.dos 0 grown 0 j;
    t.dos <- grown
  end;
  t.dos.(j) <- d;
  t.len <- j + 1

let abstract t ~n = Haec_spec.Abstract.create ~n (Array.sub t.dos 0 t.len) ~vis:t.vis
