open Haec_model
open Haec_spec

let equal_do (a : Event.do_event) (b : Event.do_event) =
  a.Event.replica = b.Event.replica
  && a.Event.obj = b.Event.obj
  && Op.equal a.Event.op b.Event.op
  && Op.equal_response a.Event.rval b.Event.rval

(* One pass over [exec]: per replica, its do events are counted and
   compared in order with [hs]. The report is the one a per-replica
   comparison with [Execution.do_projection] gives: the lowest replica
   whose counts differ, or else whose sequences differ. *)
let check_sequences exec hs =
  let n = Array.length hs in
  if n <> Execution.n_replicas exec then Error "replica count mismatch"
  else begin
    let hs = Array.map Array.of_list hs in
    let count = Array.make n 0 and differ = Array.make n false in
    for i = 0 to Execution.length exec - 1 do
      match Execution.get exec i with
      | Event.Do d when d.Event.replica >= 0 && d.Event.replica < n ->
        let r = d.Event.replica in
        let k = count.(r) in
        if k < Array.length hs.(r) && not (equal_do d hs.(r).(k)) then differ.(r) <- true;
        count.(r) <- k + 1
      | Event.Do _ | Event.Send _ | Event.Receive _ | Event.Crash _ | Event.Recover _
      | Event.Join _ | Event.Leave _ -> ()
    done;
    let rec per_replica r =
      if r >= n then Ok ()
      else if count.(r) <> Array.length hs.(r) then
        Error
          (Printf.sprintf "replica %d: %d do events in execution, %d in H" r count.(r)
             (Array.length hs.(r)))
      else if differ.(r) then Error (Printf.sprintf "replica %d: do sequences differ" r)
      else per_replica (r + 1)
    in
    per_replica 0
  end

let check exec a =
  let h = Abstract.events a in
  check_sequences exec
    (Array.init (Abstract.n_replicas a) (fun r ->
         List.filter (fun d -> d.Event.replica = r) (Array.to_list h)))

let complies exec a = match check exec a with Ok () -> true | Error _ -> false

let abstract_of_execution exec ~vis =
  let h = Array.of_list (List.map snd (Execution.do_events exec)) in
  Abstract.create ~n:(Execution.n_replicas exec) h ~vis

let do_count exec = List.length (Execution.do_events exec)
