(* Per-op lifecycle spans: the event-sourced decomposition of visibility
   lag. All timestamps are simulated time handed in by the producer (the
   simulator, or event indices for offline recompute) — this module never
   reads a clock, so span streams are deterministic and bit-identical
   across domain counts. *)

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

(* A run emits hundreds of thousands of spans and almost no caller reads
   them, so the log keeps them the way the producer hands them in and
   builds records only on a walk. The per-span tag byte also carries the
   flight outcome and the visible [direct] bit. *)
module Log = struct
  type span = t

  (* One kind's rows, [words] words each, in chunks of [chunk] rows. A
     chunk is bytes, which the GC never scans, and growth never copies
     one: a full chunk stays put and the next row opens a new one. The
     words are native-endian, as they never leave the process. *)
  type rows = {
    words : int;
    mutable chunks : Bytes.t array;  (* chunk [i] holds rows [i * chunk ..] *)
    mutable n : int;  (* rows pushed *)
    mutable cur : Bytes.t;  (* the chunk holding the last row *)
    mutable at : int;  (* byte offset of the last row in [cur] *)
  }

  let chunk = 128

  let rows words = { words; chunks = [||]; n = 0; cur = Bytes.empty; at = 0 }

  let grown a cap fill =
    let g = Array.make cap fill in
    Array.blit a 0 g 0 (Array.length a);
    g

  (* open the next row of [c]; [seti]/[setf] then fill its words *)
  let next c =
    let k = c.n mod chunk in
    if k = 0 then begin
      let i = c.n / chunk in
      if i = Array.length c.chunks then c.chunks <- grown c.chunks (max 4 (2 * i)) Bytes.empty;
      c.cur <- Bytes.create (chunk * c.words * 8);
      c.chunks.(i) <- c.cur
    end;
    c.at <- k * c.words * 8;
    c.n <- c.n + 1

  let seti c w x = Bytes.set_int64_ne c.cur (c.at + (8 * w)) (Int64.of_int x)

  let setf c w x = Bytes.set_int64_ne c.cur (c.at + (8 * w)) (Int64.bits_of_float x)

  (* word [w] of row [r] *)
  let word c r w = Bytes.get_int64_ne c.chunks.(r / chunk) ((((r mod chunk) * c.words) + w) * 8)

  let geti c r w = Int64.to_int (word c r w)

  let getf c r w = Int64.float_of_bits (word c r w)

  type t = {
    classify : (string -> string) option;
    mutable tags : Bytes.t;
    mutable len : int;
    r_op : rows;  (* op origin obj issue sent *)
    r_tr : rows;  (* src seq bytes sent *)
    mutable payloads : string array;
    mutable carried : int list array;
    r_fl : rows;  (* src seq dst sent at *)
    r_vi : rows;  (* op origin obj observer issue sent arrived applied visible boot *)
    r_bo : rows;  (* replica epoch join promoted *)
    r_rr : rows;  (* round at interval *)
  }

  let t_op = 0
  let t_transmit = 1
  let t_delivered = 2
  let t_dropped = 3
  let t_duplicate = 4
  let t_visible_direct = 5
  let t_visible_repair = 6
  let t_bootstrap = 7
  let t_repair_round = 8

  let create ?classify () =
    {
      classify;
      tags = Bytes.empty;
      len = 0;
      r_op = rows 5;
      r_tr = rows 4;
      payloads = [||];
      carried = [||];
      r_fl = rows 5;
      r_vi = rows 10;
      r_bo = rows 4;
      r_rr = rows 3;
    }

  let length t = t.len

  (* append the tag, then open the next row of [c] *)
  let push t tag c =
    if t.len = Bytes.length t.tags then t.tags <- Bytes.extend t.tags 0 (max 256 t.len);
    Bytes.unsafe_set t.tags t.len (Char.unsafe_chr tag);
    t.len <- t.len + 1;
    next c

  let op t ~op ~origin ~obj ~issue ~sent =
    let c = t.r_op in
    push t t_op c;
    seti c 0 op;
    seti c 1 origin;
    seti c 2 obj;
    setf c 3 issue;
    setf c 4 sent

  let transmit t ~src ~seq ~sent ~payload ~ops =
    let c = t.r_tr in
    push t t_transmit c;
    seti c 0 src;
    seti c 1 seq;
    seti c 2 (String.length payload);
    setf c 3 sent;
    let r = c.n - 1 in
    if r = Array.length t.payloads then begin
      t.payloads <- grown t.payloads (max 64 (2 * r)) "";
      t.carried <- grown t.carried (max 64 (2 * r)) []
    end;
    t.payloads.(r) <- payload;
    t.carried.(r) <- ops

  let flight t ~src ~seq ~dst ~sent ~at outcome =
    let c = t.r_fl in
    push t
      (match outcome with
      | Delivered -> t_delivered
      | Dropped -> t_dropped
      | Duplicate -> t_duplicate)
      c;
    seti c 0 src;
    seti c 1 seq;
    seti c 2 dst;
    setf c 3 sent;
    setf c 4 at

  let visible t (v : visible) =
    let c = t.r_vi in
    push t (if v.direct then t_visible_direct else t_visible_repair) c;
    seti c 0 v.v_op;
    seti c 1 v.v_origin;
    seti c 2 v.v_obj;
    seti c 3 v.v_observer;
    setf c 4 v.issue_at;
    setf c 5 v.sent_at;
    setf c 6 v.arrived_at;
    setf c 7 v.applied_at;
    setf c 8 v.visible_at;
    setf c 9 v.boot_overlap

  let bootstrap t (b : bootstrap) =
    let c = t.r_bo in
    push t t_bootstrap c;
    seti c 0 b.b_replica;
    seti c 1 b.b_epoch;
    setf c 2 b.b_join;
    setf c 3 b.b_promoted

  let repair_round t (x : repair_round) =
    let c = t.r_rr in
    push t t_repair_round c;
    seti c 0 x.round;
    setf c 1 x.r_at;
    setf c 2 x.r_interval

  let iter t (f : span -> unit) =
    let op = ref 0 and tr = ref 0 and fl = ref 0 and vi = ref 0 and bo = ref 0 and rr = ref 0 in
    let take r =
      let row = !r in
      r := row + 1;
      row
    in
    for k = 0 to t.len - 1 do
      let tag = Char.code (Bytes.unsafe_get t.tags k) in
      if tag = t_op then begin
        let r = take op and c = t.r_op in
        f
          (Op
             {
               op = geti c r 0;
               origin = geti c r 1;
               obj = geti c r 2;
               issue = getf c r 3;
               sent = getf c r 4;
             })
      end
      else if tag = t_transmit then begin
        let r = take tr and c = t.r_tr in
        f
          (Transmit
             {
               src = geti c r 0;
               seq = geti c r 1;
               sent = getf c r 3;
               bytes = geti c r 2;
               kinds = (match t.classify with Some cl -> cl t.payloads.(r) | None -> "");
               ops = t.carried.(r);
             })
      end
      else if tag <= t_duplicate then begin
        let r = take fl and c = t.r_fl in
        f
          (Flight
             {
               f_src = geti c r 0;
               f_seq = geti c r 1;
               f_dst = geti c r 2;
               f_sent = getf c r 3;
               f_at = getf c r 4;
               f_outcome =
                 (if tag = t_delivered then Delivered
                  else if tag = t_dropped then Dropped
                  else Duplicate);
             })
      end
      else if tag <= t_visible_repair then begin
        let r = take vi and c = t.r_vi in
        f
          (Visible
             {
               v_op = geti c r 0;
               v_origin = geti c r 1;
               v_obj = geti c r 2;
               v_observer = geti c r 3;
               issue_at = getf c r 4;
               sent_at = getf c r 5;
               arrived_at = getf c r 6;
               applied_at = getf c r 7;
               visible_at = getf c r 8;
               direct = tag = t_visible_direct;
               boot_overlap = getf c r 9;
             })
      end
      else if tag = t_bootstrap then begin
        let r = take bo and c = t.r_bo in
        f
          (Bootstrap
             {
               b_replica = geti c r 0;
               b_epoch = geti c r 1;
               b_join = getf c r 2;
               b_promoted = getf c r 3;
             })
      end
      else begin
        let r = take rr and c = t.r_rr in
        f (Repair_round { round = geti c r 0; r_at = getf c r 1; r_interval = getf c r 2 })
      end
    done

  let to_list t =
    let acc = ref [] in
    iter t (fun s -> acc := s :: !acc);
    List.rev !acc
end
