open Haec_util
open Haec_model
open Haec_spec

type violation = {
  read : int;
  w0 : int;
  w1 : int;
}

(* Indexes shared by every witness search over one execution: the update
   events in H order, U[o] (the update events on object [o]) as bitsets,
   and memo tables for visibility rows and for the masked rows
   [vis_row(w) ∩ U[o]] that condition 4 compares against. *)
type index = {
  a : Abstract.t;
  writes : int list;
  updates : (int, Bitset.t) Hashtbl.t;
  rows : Bitset.t option array;
  masked : (int * int, Bitset.t) Hashtbl.t;
}

let obj_of a i = (Abstract.event a i).Event.obj

let index a =
  let len = Abstract.length a in
  let updates = Hashtbl.create 8 in
  let writes = ref [] in
  for i = len - 1 downto 0 do
    let d = Abstract.event a i in
    if Op.is_update d.Event.op then begin
      writes := i :: !writes;
      let u =
        match Hashtbl.find_opt updates d.Event.obj with
        | Some u -> u
        | None ->
          let u = Bitset.create len in
          Hashtbl.add updates d.Event.obj u;
          u
      in
      Bitset.set u i
    end
  done;
  { a; writes = !writes; updates; rows = Array.make len None; masked = Hashtbl.create 64 }

let row ix j =
  match ix.rows.(j) with
  | Some r -> r
  | None ->
    let r = Abstract.vis_row ix.a j in
    ix.rows.(j) <- Some r;
    r

let masked_row ix w o =
  match Hashtbl.find_opt ix.masked (w, o) with
  | Some m -> m
  | None ->
    let m = Bitset.copy (row ix w) in
    Bitset.inter_into ~dst:m (Hashtbl.find ix.updates o);
    Hashtbl.add ix.masked (w, o) m;
    m

(* Conditions 2–4 of Definition 18 for one side: [wi'] is a write to an
   object other than the read's, visible to [other] but not to [wi], and
   every write to obj(wi') visible to [wi] is visible to [wi']. *)
let valid ix ~obj ~wi ~other wi' =
  let oi' = obj_of ix.a wi' in
  oi' <> obj
  && Abstract.vis ix.a wi' other
  && (not (Abstract.vis ix.a wi' wi))
  && Bitset.is_subset (masked_row ix wi oi') (row ix wi')

(* The only condition coupling the two witnesses is obj(w0') ≠ obj(w1'),
   so each side is filtered once. The answer is the first valid [w0'] (in
   H order) that has a valid [w1'] on a different object, paired with the
   first such [w1'] — the pair a nested search over both candidate lists
   finds. If the first valid [w1'] shares [w0']'s object, the first valid
   [w1'] on any other object is the first one on an object other than
   [w0']'s. (Under an acyclic vis, condition 4 on both sides already
   forbids a shared object; the definition's explicit test is kept for
   executions built without validation.) *)
let search ix ~obj ~w0 ~w1 =
  match List.filter (valid ix ~obj ~wi:w1 ~other:w0) ix.writes with
  | [] -> None
  | first :: _ as valid_w1' ->
    let o_first = obj_of ix.a first in
    let other_obj = List.find_opt (fun w -> obj_of ix.a w <> o_first) valid_w1' in
    List.find_map
      (fun w0' ->
        if not (valid ix ~obj ~wi:w0 ~other:w1 w0') then None
        else if obj_of ix.a w0' <> o_first then Some (w0', first)
        else Option.map (fun w1' -> (w0', w1')) other_obj)
      ix.writes

let witnesses_for a ~read ~w0 ~w1 = search (index a) ~obj:(obj_of a read) ~w0 ~w1

(* The write events behind each returned value, by [(obj, value)]: writes
   write distinct values, per the paper's convention. *)
let writes_by_value a =
  let tbl = Hashtbl.create 64 in
  for i = Abstract.length a - 1 downto 0 do
    let d = Abstract.event a i in
    match d.Event.op with
    | Op.Write v ->
      let key = (d.Event.obj, v) in
      Hashtbl.replace tbl key (i :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
    | Op.Read | Op.Add _ | Op.Remove _ -> ()
  done;
  tbl

let writes_of_values by_value ~obj vs =
  let find v =
    match Hashtbl.find_opt by_value (obj, v) with
    | Some [ i ] -> Ok i
    | None -> Error (Format.asprintf "no write of value %a" Value.pp v)
    | Some _ -> Error (Format.asprintf "multiple writes of value %a" Value.pp v)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> ( match find v with Ok i -> go (i :: acc) rest | Error _ as e -> e)
  in
  go [] vs

let check a =
  let exception Unsupported of string in
  (* built on the first read returning two or more values, if any *)
  let ix = lazy (index a) and by_value = lazy (writes_by_value a) in
  try
    let violations = ref [] in
    for r = 0 to Abstract.length a - 1 do
      let d = Abstract.event a r in
      match (d.Event.op, d.Event.rval) with
      | Op.Read, Op.Vals vs when List.length vs >= 2 -> (
        match writes_of_values (Lazy.force by_value) ~obj:d.Event.obj vs with
        | Error m -> raise (Unsupported m)
        | Ok ws ->
          (* every unordered pair of returned writes needs witnesses *)
          let rec pairs = function
            | [] -> ()
            | w0 :: rest ->
              List.iter
                (fun w1 ->
                  match search (Lazy.force ix) ~obj:d.Event.obj ~w0 ~w1 with
                  | Some _ -> ()
                  | None -> violations := { read = r; w0; w1 } :: !violations)
                rest;
              pairs rest
          in
          pairs ws)
      | _ -> ()
    done;
    Ok (List.rev !violations)
  with Unsupported m -> Error m

let is_occ a =
  Abstract.is_transitive a && match check a with Ok [] -> true | Ok _ | Error _ -> false
