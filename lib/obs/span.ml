(* Per-op lifecycle spans: the event-sourced decomposition of visibility
   lag. All timestamps are simulated time handed in by the simulator —
   this module never reads a clock, so span streams are deterministic and
   bit-identical across domain counts. *)

type flight_outcome = Delivered | Dropped | Duplicate

type op = {
  op : int;  (* do-event index in the execution *)
  origin : int;
  obj : int;
  issue : float;
  sent : float;
}

type transmit = {
  src : int;
  seq : int;
  sent : float;
  bytes : int;
  kinds : string;  (* protocol item kinds riding in the payload; "" if unclassified *)
  ops : int list;  (* do indices first carried by this message *)
}

type flight = {
  f_src : int;
  f_seq : int;
  f_dst : int;
  f_sent : float;
  f_at : float;  (* arrival time (Delivered/Duplicate) or loss time (Dropped) *)
  f_outcome : flight_outcome;
}

type visible = {
  v_op : int;
  v_origin : int;
  v_obj : int;
  v_observer : int;
  issue_at : float;
  sent_at : float;
  arrived_at : float;
  applied_at : float;
  visible_at : float;
  direct : bool;  (* the observer received the carrying message itself *)
  boot_overlap : float;
      (* raw overlap of the observer's bootstrap window with
         [applied, visible]; clamped by {!breakdown} *)
}

type bootstrap = {
  b_replica : int;
  b_epoch : int;
  b_join : float;
  b_promoted : float;
}

type repair_round = { round : int; r_at : float; r_interval : float }

type t =
  | Op of op
  | Transmit of transmit
  | Flight of flight
  | Visible of visible
  | Bootstrap of bootstrap
  | Repair_round of repair_round

type breakdown = {
  encode_wait : float;
  network : float;
  repair_wait : float;
  dep_wait : float;
  bootstrap_refusal : float;
  total : float;
}

(* The one definition site of the lag decomposition. [total] is the float
   sum of the components in declaration order; the simulator observes
   exactly this value into its visibility-lag histogram, so "components
   sum to the measured Definition 17 lag" holds bit-for-bit by
   construction, not up to rounding. *)
let breakdown (v : visible) =
  let encode_wait = Float.max 0.0 (v.sent_at -. v.issue_at) in
  let network = Float.max 0.0 (v.arrived_at -. v.sent_at) in
  let gap = Float.max 0.0 (v.applied_at -. v.arrived_at) in
  let repair_wait = if v.direct then 0.0 else gap in
  let tail = Float.max 0.0 (v.visible_at -. v.applied_at) in
  let bootstrap_refusal = Float.max 0.0 (Float.min v.boot_overlap tail) in
  let dep_wait =
    (if v.direct then gap else 0.0) +. Float.max 0.0 (tail -. bootstrap_refusal)
  in
  let total = encode_wait +. network +. repair_wait +. dep_wait +. bootstrap_refusal in
  { encode_wait; network; repair_wait; dep_wait; bootstrap_refusal; total }

let outcome_name = function
  | Delivered -> "delivered"
  | Dropped -> "dropped"
  | Duplicate -> "duplicate"

let kind_name = function
  | Op _ -> "op"
  | Transmit _ -> "transmit"
  | Flight _ -> "flight"
  | Visible _ -> "visible"
  | Bootstrap _ -> "bootstrap"
  | Repair_round _ -> "repair_round"

let pp ppf = function
  | Op o ->
    Format.fprintf ppf "op %d@%d obj=%d issue=%g sent=%g" o.op o.origin o.obj o.issue
      o.sent
  | Transmit x ->
    Format.fprintf ppf "transmit m%d.%d at=%g %dB%s [%s]" x.src x.seq x.sent x.bytes
      (if x.kinds = "" then "" else " " ^ x.kinds)
      (String.concat "," (List.map string_of_int x.ops))
  | Flight f ->
    Format.fprintf ppf "flight m%d.%d->%d sent=%g %s=%g" f.f_src f.f_seq f.f_dst f.f_sent
      (outcome_name f.f_outcome) f.f_at
  | Visible v ->
    Format.fprintf ppf "visible op%d@%d->%d issue=%g visible=%g" v.v_op v.v_origin
      v.v_observer v.issue_at v.visible_at
  | Bootstrap b ->
    Format.fprintf ppf "bootstrap r%d e%d join=%g promoted=%g" b.b_replica b.b_epoch
      b.b_join b.b_promoted
  | Repair_round r -> Format.fprintf ppf "repair round %d at=%g" r.round r.r_at

(* Only the replay that E23 and [haec_cli trace] force records spans, so
   the log is a plain list, newest first. A transmit keeps its payload and
   is classified when read. *)
module Log = struct
  type span = t

  type entry =
    | Span of span
    | Tx of { src : int; seq : int; sent : float; payload : string; ops : int list }

  type t = { classify : (string -> string) option; mutable rev : entry list }

  let create ?classify () = { classify; rev = [] }

  let length t = List.length t.rev

  let push t e = t.rev <- e :: t.rev

  let op t ~op ~origin ~obj ~issue ~sent = push t (Span (Op { op; origin; obj; issue; sent }))

  let transmit t ~src ~seq ~sent ~payload ~ops = push t (Tx { src; seq; sent; payload; ops })

  let flight t ~src ~seq ~dst ~sent ~at outcome =
    push t
      (Span
         (Flight
            { f_src = src; f_seq = seq; f_dst = dst; f_sent = sent; f_at = at; f_outcome = outcome }))

  let visible t v = push t (Span (Visible v))

  let bootstrap t b = push t (Span (Bootstrap b))

  let repair_round t r = push t (Span (Repair_round r))

  let read t = function
    | Span s -> s
    | Tx x ->
      Transmit
        {
          src = x.src;
          seq = x.seq;
          sent = x.sent;
          bytes = String.length x.payload;
          kinds = (match t.classify with Some cl -> cl x.payload | None -> "");
          ops = x.ops;
        }

  let iter t f = List.iter (fun e -> f (read t e)) (List.rev t.rev)

  let to_list t = List.rev_map (read t) t.rev
end
