open Haec_util
open Haec_model

type t = {
  n : int;
  h : Event.do_event array;
  (* rows.(j) = set of i with i vis j *)
  rows : Bitset.t array;
}

let n_replicas t = t.n

let length t = Array.length t.h

let event t i = t.h.(i)

let events t = Array.copy t.h

let vis t i j = Bitset.get t.rows.(j) i

let vis_preds t j = Bitset.to_list t.rows.(j)

let vis_row t j = Bitset.copy t.rows.(j)

let row_into ~dst t j = Bitset.copy_into ~dst t.rows.(j)

let diff_row_into ~dst t j = Bitset.diff_into ~dst t.rows.(j)

let vis_pairs t =
  let acc = ref [] in
  for j = Array.length t.h - 1 downto 0 do
    List.iter (fun i -> acc := (i, j) :: !acc) (List.rev (vis_preds t j))
  done;
  !acc

let check_valid t =
  let len = Array.length t.h in
  let exception Bad of string in
  (* Conditions (1) and (2) of Definition 4 are chains along each replica's
     program order, so checking each event against its immediate
     same-replica predecessor suffices. *)
  let last_at = Hashtbl.create 8 in
  try
    for j = 0 to len - 1 do
      (* (3) vis respects H order; no self-visibility. *)
      (match Bitset.min_elt_from t.rows.(j) j with
      | Some i -> raise (Bad (Printf.sprintf "vis (%d,%d) does not respect H order" i j))
      | None -> ());
      let r = t.h.(j).Event.replica in
      (match Hashtbl.find_opt last_at r with
      | Some i ->
        (* (1) same-replica precedence implies vis *)
        if not (Bitset.get t.rows.(j) i) then
          raise (Bad (Printf.sprintf "same-replica events %d,%d not vis-related" i j));
        (* (2) visibility persists at a replica *)
        if not (Bitset.is_subset t.rows.(i) t.rows.(j)) then
          raise (Bad (Printf.sprintf "visibility not persistent between %d and %d" i j))
      | None -> ());
      Hashtbl.replace last_at r j
    done;
    Ok ()
  with Bad m -> Error m

let create_unchecked ~n h ~vis =
  if n <= 0 then invalid_arg "Abstract.create: n must be positive";
  let len = Array.length h in
  let rows = Array.init len (fun _ -> Bitset.create len) in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= len || j < 0 || j >= len then
        invalid_arg "Abstract.create: vis index out of range";
      Bitset.set rows.(j) i)
    vis;
  (* Condition (1) of Definition 4 holds in every abstract execution, so we
     bake it in rather than forcing every caller to enumerate program order. *)
  let last_at = Hashtbl.create 8 in
  Array.iteri
    (fun j (d : Event.do_event) ->
      (match Hashtbl.find_opt last_at d.Event.replica with
      | Some i ->
        Bitset.set rows.(j) i;
        (* inherit everything visible at the previous same-replica event,
           enforcing condition (2) by construction *)
        Bitset.union_into ~dst:rows.(j) rows.(i)
      | None -> ());
      Hashtbl.replace last_at d.Event.replica j)
    h;
  { n; h = Array.copy h; rows }

let create ~n h ~vis =
  let t = create_unchecked ~n h ~vis in
  match check_valid t with
  | Ok () -> t
  | Error m -> invalid_arg ("Abstract.create: " ^ m)

let prefix t m =
  if m < 0 || m > Array.length t.h then invalid_arg "Abstract.prefix";
  let h = Array.sub t.h 0 m in
  let rows =
    Array.init m (fun j ->
        let row = Bitset.create m in
        Bitset.iter t.rows.(j) (fun i -> if i < m then Bitset.set row i);
        row)
  in
  { n = t.n; h; rows }

let equal_do (a : Event.do_event) (b : Event.do_event) =
  a.Event.replica = b.Event.replica
  && a.Event.obj = b.Event.obj
  && Op.equal a.Event.op b.Event.op
  && Op.equal_response a.Event.rval b.Event.rval

let equal_equivalent a b =
  a.n = b.n
  &&
  let proj t r = List.filter (fun d -> d.Event.replica = r) (Array.to_list t.h) in
  let rec replicas_equal r =
    if r >= a.n then true
    else
      let pa = proj a r and pb = proj b r in
      List.length pa = List.length pb
      && List.for_all2 equal_do pa pb
      && replicas_equal (r + 1)
  in
  replicas_equal 0

(* Restriction of H to the indices in [idx] (ascending), with vis projected.
   Vis respects H order, so a member's row can only hold earlier members:
   testing those bits of its full row costs O(m²) for m members, however
   long [t] is, where walking every set bit of the full rows would grow
   with the whole execution. *)
let restrict t idx =
  let m = Array.length idx in
  let h = Array.map (fun old_i -> t.h.(old_i)) idx in
  let rows =
    Array.init m (fun new_j ->
        let row = Bitset.create m in
        let full = t.rows.(idx.(new_j)) in
        for new_i = 0 to new_j - 1 do
          if Bitset.get full idx.(new_i) then Bitset.set row new_i
        done;
        row)
  in
  { n = t.n; h; rows }

let restrict_object t o =
  let acc = ref [] in
  Array.iteri (fun i d -> if d.Event.obj = o then acc := i :: !acc) t.h;
  let idx = Array.of_list (List.rev !acc) in
  (restrict t idx, idx)

let context t e =
  let o = t.h.(e).Event.obj in
  let members = ref [] in
  for i = e - 1 downto 0 do
    if t.h.(i).Event.obj = o && Bitset.get t.rows.(e) i then members := i :: !members
  done;
  let idx = Array.of_list (!members @ [ e ]) in
  let sub = restrict t idx in
  (sub, Array.length idx - 1)

let is_transitive t =
  let len = Array.length t.h in
  let ok = ref true in
  (for j = 0 to len - 1 do
     (* every predecessor's row must be contained in j's row *)
     Bitset.iter t.rows.(j) (fun i ->
         if not (Bitset.is_subset t.rows.(i) t.rows.(j)) then ok := false)
   done);
  !ok

let transitive_closure t =
  let len = Array.length t.h in
  let rows = Array.map Bitset.copy t.rows in
  (* Events are topologically ordered by H (vis respects H order), so one
     ascending pass computes the closure: every row below [j] is closed
     when [j] is reached. By condition (1) the previous event [p] at
     [j]'s replica is in [j]'s row, so [p] and its closed row are in
     [j]'s closure, and so is the closed row of every member of it. Only
     the members of [j]'s row outside it are visited, newest first: one
     already inside a closed row unioned earlier adds nothing. *)
  let last_at = Hashtbl.create 8 in
  let fresh = Bitset.create len in
  for j = 0 to len - 1 do
    let r = t.h.(j).Event.replica in
    Bitset.copy_into ~dst:fresh t.rows.(j);
    let reached =
      match Hashtbl.find_opt last_at r with
      | Some p when Bitset.get t.rows.(j) p ->
        let reached = Bitset.copy rows.(p) in
        Bitset.set reached p;
        Bitset.diff_into ~dst:fresh reached;
        reached
      | Some _ | None -> Bitset.create len
    in
    Bitset.iter_rev fresh (fun i ->
        if not (Bitset.get reached i) then Bitset.union_into ~dst:reached rows.(i));
    Bitset.union_into ~dst:rows.(j) reached;
    Hashtbl.replace last_at r j
  done;
  { t with rows }

let add_vis t pairs =
  let existing = vis_pairs t in
  create ~n:t.n t.h ~vis:(existing @ pairs)

let writes_visible_to t j =
  let o = t.h.(j).Event.obj in
  List.filter
    (fun i -> t.h.(i).Event.obj = o && Op.is_update t.h.(i).Event.op)
    (vis_preds t j)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun j d ->
      Format.fprintf ppf "%3d: %a  vis<-{%a}@," j Event.pp_do d
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Format.pp_print_int)
        (vis_preds t j))
    t.h;
  Format.fprintf ppf "@]"
