open Haec_model
open Haec_spec

let not_visible ~update ~event ~obj =
  Printf.sprintf "update %d not visible to post-quiescence event %d on object %d" update event
    obj

let check_visible_from a ~quiescent_at =
  let len = Abstract.length a in
  let exception Bad of string in
  try
    for e = 0 to min quiescent_at len - 1 do
      let d = Abstract.event a e in
      if Op.is_update d.Event.op then
        for e' = max quiescent_at (e + 1) to len - 1 do
          let d' = Abstract.event a e' in
          if d'.Event.obj = d.Event.obj && not (Abstract.vis a e e') then
            raise (Bad (not_visible ~update:e ~event:e' ~obj:d.Event.obj))
        done
    done;
    Ok ()
  with Bad m -> Error m

let is_visible_from a ~quiescent_at =
  match check_visible_from a ~quiescent_at with Ok () -> true | Error _ -> false

let invisibility_count a e =
  let d = Abstract.event a e in
  let count = ref 0 in
  for e' = e + 1 to Abstract.length a - 1 do
    let d' = Abstract.event a e' in
    if d'.Event.obj = d.Event.obj && not (Abstract.vis a e e') then incr count
  done;
  !count

let check_reads_agree exec ~suffix =
  let len = Execution.length exec in
  let responses : (int, Op.response * int) Hashtbl.t = Hashtbl.create 16 in
  let exception Bad of string in
  try
    for i = max 0 (len - suffix) to len - 1 do
      match Execution.get exec i with
      | Event.Do d when Op.is_read d.Event.op -> (
        match Hashtbl.find_opt responses d.Event.obj with
        | None -> Hashtbl.replace responses d.Event.obj (d.Event.rval, i)
        | Some (rv, first) ->
          if not (Op.equal_response rv d.Event.rval) then
            raise
              (Bad
                 (Format.asprintf
                    "reads of object %d disagree: event %d returned %a, event %d returned %a"
                    d.Event.obj first Op.pp_response rv i Op.pp_response d.Event.rval)))
      | Event.Do _ | Event.Send _ | Event.Receive _ | Event.Crash _ | Event.Recover _
      | Event.Join _ | Event.Leave _ -> ()
    done;
    Ok ()
  with Bad m -> Error m
