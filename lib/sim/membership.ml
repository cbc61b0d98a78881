type status = Reserve | Bootstrapping | Serving | Leaving | Departed

type t = {
  capacity : int;
  initial : int;
  epoch : int;
  status : status array;
}

let create ~capacity ~initial =
  if capacity <= 0 then invalid_arg "Membership.create: capacity must be positive";
  if initial <= 0 || initial > capacity then
    invalid_arg "Membership.create: initial members out of range";
  {
    capacity;
    initial;
    epoch = 0;
    status = Array.init capacity (fun r -> if r < initial then Serving else Reserve);
  }

let capacity t = t.capacity

let initial t = t.initial

let epoch t = t.epoch

let check t r what =
  if r < 0 || r >= t.capacity then
    invalid_arg (Printf.sprintf "Membership.%s: replica %d out of range" what r)

let status t r =
  check t r "status";
  t.status.(r)

let is_member t r = match status t r with
  | Bootstrapping | Serving | Leaving -> true
  | Reserve | Departed -> false

let is_serving t r = status t r = Serving

let set t r s = { t with status = Array.mapi (fun i old -> if i = r then s else old) t.status }

let join t r =
  (match status t r with
  | Reserve -> ()
  | Bootstrapping | Serving | Leaving ->
    invalid_arg (Printf.sprintf "Membership.join: replica %d is already a member" r)
  | Departed ->
    invalid_arg (Printf.sprintf "Membership.join: replica %d departed; ids are never reused" r));
  let t = set t r Bootstrapping in
  { t with epoch = t.epoch + 1 }

let promote t r =
  (match status t r with
  | Bootstrapping -> ()
  | Reserve | Serving | Leaving | Departed ->
    invalid_arg (Printf.sprintf "Membership.promote: replica %d is not bootstrapping" r));
  (* promotion is a local read-availability transition, not a view change:
     the epoch counts joins and leaves only *)
  set t r Serving

(* like promotion, a local read-availability transition: the view changes
   only when the leaver departs *)
let retire t r =
  (match status t r with
  | Bootstrapping | Serving -> ()
  | Reserve | Leaving | Departed ->
    invalid_arg (Printf.sprintf "Membership.retire: replica %d is not a staying member" r));
  set t r Leaving

let leave t r =
  (match status t r with
  | Bootstrapping | Serving | Leaving -> ()
  | Reserve | Departed ->
    invalid_arg (Printf.sprintf "Membership.leave: replica %d is not a member" r));
  let t = set t r Departed in
  { t with epoch = t.epoch + 1 }

let filter t p =
  let acc = ref [] in
  for r = t.capacity - 1 downto 0 do
    if p t.status.(r) then acc := r :: !acc
  done;
  !acc

let members t = filter t (function Bootstrapping | Serving | Leaving -> true | _ -> false)

let serving t = filter t (fun s -> s = Serving)

let n_members t = List.length (members t)

let status_name = function
  | Reserve -> "reserve"
  | Bootstrapping -> "bootstrapping"
  | Serving -> "serving"
  | Leaving -> "leaving"
  | Departed -> "departed"

let pp ppf t =
  Format.fprintf ppf "@[<h>epoch %d:" t.epoch;
  Array.iteri (fun r s -> Format.fprintf ppf " R%d=%s" r (status_name s)) t.status;
  Format.fprintf ppf "@]"
