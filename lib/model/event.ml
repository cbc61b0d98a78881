type do_event = {
  replica : int;
  obj : int;
  op : Op.t;
  rval : Op.response;
}

type t =
  | Do of do_event
  | Send of { replica : int; msg : Message.t }
  | Receive of { replica : int; msg : Message.t }
  | Crash of { replica : int }
  | Recover of { replica : int }
  | Join of { replica : int; epoch : int }
  | Leave of { replica : int; epoch : int; graceful : bool }

let replica = function
  | Do { replica; _ }
  | Send { replica; _ }
  | Receive { replica; _ }
  | Crash { replica }
  | Recover { replica }
  | Join { replica; _ }
  | Leave { replica; _ } -> replica

let msg = function
  | Do _ | Crash _ | Recover _ | Join _ | Leave _ -> None
  | Send { msg; _ } | Receive { msg; _ } -> Some msg

let as_do = function
  | Do d -> Some d
  | Send _ | Receive _ | Crash _ | Recover _ | Join _ | Leave _ -> None

let pp_do ppf { replica; obj; op; rval } =
  Format.fprintf ppf "do@%d(o%d, %a) -> %a" replica obj Op.pp op Op.pp_response rval

let pp ppf = function
  | Do d -> pp_do ppf d
  | Send { replica; msg } -> Format.fprintf ppf "send@%d(%a)" replica Message.pp msg
  | Receive { replica; msg } ->
    Format.fprintf ppf "recv@%d(%a)" replica Message.pp msg
  | Crash { replica } -> Format.fprintf ppf "crash@%d" replica
  | Recover { replica } -> Format.fprintf ppf "recover@%d" replica
  | Join { replica; epoch } -> Format.fprintf ppf "join@%d[e%d]" replica epoch
  | Leave { replica; epoch; graceful } ->
    Format.fprintf ppf "%s@%d[e%d]" (if graceful then "leave" else "crash-leave") replica epoch
