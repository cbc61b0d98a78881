open Haec_model
open Haec_spec

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let do_label d =
  escape
    (Format.asprintf "%a -> %a" Op.pp d.Event.op Op.pp_response d.Event.rval)

let lane buf ~name ~label nodes =
  Buffer.add_string buf (Printf.sprintf "  subgraph cluster_%s {\n" name);
  Buffer.add_string buf (Printf.sprintf "    label=\"%s\";\n" label);
  Buffer.add_string buf "    style=dashed; color=gray;\n";
  List.iter (fun line -> Buffer.add_string buf ("    " ^ line ^ "\n")) nodes;
  Buffer.add_string buf "  }\n"

let abstract_to_dot ?(title = "abstract execution") ?(transitive_edges = false) a =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph abstract_execution {\n";
  Buffer.add_string buf (Printf.sprintf "  label=\"%s\"; rankdir=LR;\n" (escape title));
  Buffer.add_string buf "  node [shape=box, fontsize=10];\n";
  let len = Abstract.length a in
  for r = 0 to Abstract.n_replicas a - 1 do
    let nodes = ref [] in
    for e = len - 1 downto 0 do
      let d = Abstract.event a e in
      if d.Event.replica = r then
        nodes := Printf.sprintf "e%d [label=\"%d: %s\"];" e e (do_label d) :: !nodes
    done;
    if !nodes <> [] then lane buf ~name:(string_of_int r) ~label:(Printf.sprintf "R%d" r) !nodes
  done;
  (* visibility edges, optionally skipping ones implied by transitivity *)
  let implied i j =
    List.exists
      (fun k -> k <> i && k <> j && Abstract.vis a i k && Abstract.vis a k j)
      (Abstract.vis_preds a j)
  in
  for j = 0 to len - 1 do
    List.iter
      (fun i ->
        if transitive_edges || not (implied i j) then
          Buffer.add_string buf (Printf.sprintf "  e%d -> e%d [style=dashed, color=blue];\n" i j))
      (Abstract.vis_preds a j)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let event_label = function
  | Event.Do d -> do_label d
  | Event.Send { msg; _ } -> escape (Format.asprintf "send %a" Message.pp msg)
  | Event.Receive { msg; _ } -> escape (Format.asprintf "recv %a" Message.pp msg)
  | Event.Crash _ -> "crash"
  | Event.Recover _ -> "recover"
  | Event.Join { epoch; _ } -> Printf.sprintf "join e%d" epoch
  | Event.Leave { epoch; graceful; _ } ->
    Printf.sprintf "%s e%d" (if graceful then "leave" else "crash-leave") epoch

(* ASCII timeline: one row per replica over event-index buckets, with
   membership drawn in — presence as a dotted baseline between a
   replica's join and leave, epoch boundaries as a marker row labelled
   with the epoch each Join/Leave event bumped the view to, on as many
   label rows as keep the labels apart. Glyph
   priority (highest wins within a bucket): membership transitions and
   crashes over client ops over wire traffic. *)
let timeline ?(width = 72) ?(title = "timeline") exec =
  let n = Execution.n_replicas exec in
  let initial = Execution.initial_members exec in
  let len = Execution.length exec in
  let cols = max 1 (min width (max 1 len)) in
  let col i = if len <= 1 then 0 else i * (cols - 1) / (len - 1) in
  let grid = Array.make_matrix n cols ' ' in
  let rank = Array.make_matrix n cols 0 in
  let boundary = Array.make cols ' ' in
  let labels = ref [] in
  (* presence baseline: from index 0 (initial members) or the join event
     to the leave event (or the end) *)
  let joined = Array.make n (-1) in
  let left = Array.make n max_int in
  for r = 0 to initial - 1 do
    joined.(r) <- 0
  done;
  List.iteri
    (fun i ev ->
      match ev with
      | Event.Join { replica; _ } -> joined.(replica) <- i
      | Event.Leave { replica; _ } -> left.(replica) <- i
      | _ -> ())
    (Execution.events exec);
  for r = 0 to n - 1 do
    if joined.(r) >= 0 then
      for c = col joined.(r) to col (min (len - 1) left.(r)) do
        grid.(r).(c) <- '.'
      done
  done;
  let put r c glyph prio =
    if prio > rank.(r).(c) then begin
      grid.(r).(c) <- glyph;
      rank.(r).(c) <- prio
    end
  in
  List.iteri
    (fun i ev ->
      let c = col i in
      match ev with
      | Event.Do { replica; _ } -> put replica c 'o' 2
      | Event.Send { replica; _ } -> put replica c 's' 1
      | Event.Receive { replica; _ } -> put replica c 'r' 1
      | Event.Crash { replica } -> put replica c 'X' 3
      | Event.Recover { replica } -> put replica c '^' 3
      | Event.Join { replica; epoch } ->
        put replica c 'J' 4;
        boundary.(c) <- '|';
        labels := (c, epoch) :: !labels
      | Event.Leave { replica; epoch; graceful } ->
        put replica c (if graceful then 'L' else 'C') 4;
        boundary.(c) <- '|';
        labels := (c, epoch) :: !labels)
    (Execution.events exec);
  let buf = Buffer.create (n * (cols + 16)) in
  Buffer.add_string buf
    (Printf.sprintf "%s — %d events, %d replicas (o=op s=send r=recv X=crash ^=recover J=join L=leave C=crash-leave)\n"
       title len n);
  for r = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "R%-2d |" r);
    Buffer.add_string buf (String.init cols (fun c -> grid.(r).(c)));
    Buffer.add_char buf '\n'
  done;
  if Array.exists (fun c -> c <> ' ') boundary then begin
    (* epoch boundaries: a marker under each membership event's column,
       then the epoch number it bumped the view to *)
    Buffer.add_string buf "    +";
    Buffer.add_string buf (String.init cols (fun c -> boundary.(c)));
    Buffer.add_char buf '\n';
    let rows = ref [] in
    List.iter
      (fun (c, epoch) ->
        let s = Printf.sprintf "e%d" epoch in
        let start = min c (max 0 (cols - String.length s)) in
        (* a label goes on the first row where a space still parts it
           from the label before, so labels of adjacent columns stack *)
        let row =
          match List.find_opt (fun row -> Buffer.length row < start) !rows with
          | Some row -> row
          | None ->
            let row = Buffer.create cols in
            rows := !rows @ [ row ];
            row
        in
        Buffer.add_string row (String.make (start - Buffer.length row) ' ');
        Buffer.add_string row s)
      (List.rev !labels);
    List.iter
      (fun row ->
        Buffer.add_string buf "     ";
        Buffer.add_buffer buf row;
        Buffer.add_char buf '\n')
      !rows
  end;
  Buffer.contents buf

let execution_to_dot ?(title = "execution") exec =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph execution {\n";
  Buffer.add_string buf (Printf.sprintf "  label=\"%s\"; rankdir=LR;\n" (escape title));
  Buffer.add_string buf "  node [shape=box, fontsize=10];\n";
  let len = Execution.length exec in
  for r = 0 to Execution.n_replicas exec - 1 do
    let nodes = ref [] in
    for i = len - 1 downto 0 do
      let e = Execution.get exec i in
      if Event.replica e = r then
        nodes := Printf.sprintf "n%d [label=\"%d: %s\"];" i i (event_label e) :: !nodes
    done;
    if !nodes <> [] then lane buf ~name:(string_of_int r) ~label:(Printf.sprintf "R%d" r) !nodes
  done;
  (* program order *)
  let last = Hashtbl.create 8 in
  let sends = Hashtbl.create 16 in
  for i = 0 to len - 1 do
    let e = Execution.get exec i in
    let r = Event.replica e in
    (match Hashtbl.find_opt last r with
    | Some j -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" j i)
    | None -> ());
    Hashtbl.replace last r i;
    match e with
    | Event.Send { msg; _ } -> Hashtbl.replace sends (Message.id msg) i
    | Event.Receive { msg; _ } -> (
      match Hashtbl.find_opt sends (Message.id msg) with
      | Some j ->
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [color=red, constraint=false];\n" j i)
      | None -> ())
    | Event.Do _ | Event.Crash _ | Event.Recover _ | Event.Join _ | Event.Leave _ -> ()
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
