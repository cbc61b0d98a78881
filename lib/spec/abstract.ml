open Haec_util
open Haec_model

(* Conditions (1) and (2) of Definition 4 make the events at one replica
   that see [i] a suffix of that replica's events, so [vis] is the first
   of them: fv.(i * n + r) is the first do event at replica [r] that sees
   event [i], [never] if none does, and [vis i j] iff
   [fv.(i * n + replica j) <= j]. *)
type t = { n : int; h : Event.do_event array; fv : int array }

let never = max_int

let n_replicas t = t.n

let length t = Array.length t.h

let event t i = t.h.(i)

let events t = Array.copy t.h

let first_vis t i r =
  if r < 0 || r >= t.n then invalid_arg "Abstract.first_vis: replica out of range";
  t.fv.((i * t.n) + r)

let vis t i j = t.fv.((i * t.n) + t.h.(j).Event.replica) <= j

let vis_preds t j =
  let acc = ref [] in
  for i = Array.length t.h - 1 downto 0 do
    if vis t i j then acc := i :: !acc
  done;
  !acc

let vis_row t j =
  let row = Bitset.create (Array.length t.h) in
  for i = 0 to Array.length t.h - 1 do
    if vis t i j then Bitset.set row i
  done;
  row

let vis_pairs t =
  let acc = ref [] in
  for j = Array.length t.h - 1 downto 0 do
    List.iter (fun i -> acc := (i, j) :: !acc) (List.rev (vis_preds t j))
  done;
  !acc

(* (1) and (2) hold by construction, so only (3) can fail: [i] is seen at
   or before itself. The first offending row is the least [fv(i, r) <= i]
   over all [(i, r)], and its least member the least such [i]. *)
let check_valid t =
  let bad = ref None in
  Array.iteri
    (fun k j ->
      let i = k / t.n in
      if j <= i then
        match !bad with
        | Some (j', i') when (j', i') <= (j, i) -> ()
        | Some _ | None -> bad := Some (j, i))
    t.fv;
  match !bad with
  | None -> Ok ()
  | Some (j, i) -> Error (Printf.sprintf "vis (%d,%d) does not respect H order" i j)

(* Lowers [fv(i, r_j)] to [j]: the edge [(i, j)]. *)
let lower ~n h fv i j =
  let len = Array.length h in
  if i < 0 || i >= len || j < 0 || j >= len then
    invalid_arg "Abstract.create: vis index out of range";
  let k = (i * n) + h.(j).Event.replica in
  if j < fv.(k) then fv.(k) <- j

(* [edges f] calls [f i j] for each given edge; then condition (1) lets
   each event see its replica's previous one. *)
let build ~n h edges =
  if n <= 0 then invalid_arg "Abstract.create: n must be positive";
  Array.iter
    (fun (d : Event.do_event) ->
      if d.Event.replica < 0 || d.Event.replica >= n then
        invalid_arg "Abstract.create: replica out of range")
    h;
  let fv = Array.make (Array.length h * n) never in
  edges (lower ~n h fv);
  let last_at = Array.make n (-1) in
  Array.iteri
    (fun j (d : Event.do_event) ->
      let r = d.Event.replica in
      if last_at.(r) >= 0 then lower ~n h fv last_at.(r) j;
      last_at.(r) <- j)
    h;
  { n; h = Array.copy h; fv }

let validated t =
  match check_valid t with Ok () -> t | Error m -> invalid_arg ("Abstract.create: " ^ m)

let of_edges vis f = List.iter (fun (i, j) -> f i j) vis

let create_unchecked ~n h ~vis = build ~n h (of_edges vis)

let create ~n h ~vis = validated (create_unchecked ~n h ~vis)

let of_deltas ~n h ~delta =
  validated
    (build ~n h (fun f ->
         for j = 0 to Array.length h - 1 do
           List.iter (fun i -> f i j) (delta j)
         done))

let prefix t m =
  if m < 0 || m > Array.length t.h then invalid_arg "Abstract.prefix";
  let fv = Array.init (m * t.n) (fun k -> if t.fv.(k) < m then t.fv.(k) else never) in
  { t with h = Array.sub t.h 0 m; fv }

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

(* Restriction of H to the indices in [idx] (ascending), with the pairs
   of vis that respect the new order. Descending [new_j], each member
   that sees [new_i] becomes its first visible event at its replica: one
   test per pair, O(m²) for m members however long [t] is. *)
let restrict t idx =
  let m = Array.length idx and n = t.n in
  let h = Array.map (fun old_i -> t.h.(old_i)) idx in
  let fv = Array.make (m * n) never in
  for new_j = m - 1 downto 0 do
    let r = h.(new_j).Event.replica in
    for new_i = 0 to new_j - 1 do
      if vis t idx.(new_i) idx.(new_j) then fv.((new_i * n) + r) <- new_j
    done
  done;
  { n; h; fv }

let restrict_object t o =
  let acc = ref [] in
  Array.iteri (fun i d -> if d.Event.obj = o then acc := i :: !acc) t.h;
  let idx = Array.of_list (List.rev !acc) in
  (restrict t idx, idx)

let context t e =
  let o = t.h.(e).Event.obj in
  let members = ref [ e ] in
  for i = e - 1 downto 0 do
    if t.h.(i).Event.obj = o && vis t i e then members := i :: !members
  done;
  let idx = Array.of_list !members in
  (restrict t idx, Array.length idx - 1)

(* Whatever sees an event transitively also sees its same-replica
   predecessors, so whatever [i] reaches through replica [s] it reaches
   through [fv(i, s)]: [fvc(i, r) = min(fv(i, r), min over s of
   fvc(fv(i, s), r))]. Vis respects H order, so [fv(i, s) > i] and one
   descending pass computes it. *)
let transitive_closure t =
  let n = t.n in
  let fv = Array.copy t.fv in
  for i = Array.length t.h - 1 downto 0 do
    for s = 0 to n - 1 do
      let k = t.fv.((i * n) + s) in
      if k <> never && k > i then
        for r = 0 to n - 1 do
          if fv.((k * n) + r) < fv.((i * n) + r) then fv.((i * n) + r) <- fv.((k * n) + r)
        done
    done
  done;
  { t with fv }

let is_transitive t = (transitive_closure t).fv = t.fv

let add_vis t pairs =
  let fv = Array.copy t.fv in
  of_edges pairs (lower ~n:t.n t.h fv);
  validated { t with fv }

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
