(* Span-stream export: a JSONL stream and a Chrome trace-event JSON
   rendering loadable in Perfetto / chrome://tracing. *)

let magic = "haec-spans"

let version = 1

let int i = Json.Num (float_of_int i)

let ints is = Json.Arr (List.map int is)

(* ---------- JSONL ---------- *)

let span_json (s : Span.t) : Json.t =
  let fields =
    match s with
    | Span.Op o ->
      [
        ("op", int o.op);
        ("origin", int o.origin);
        ("obj", int o.obj);
        ("issue", Json.Num o.issue);
        ("sent", Json.Num o.sent);
      ]
    | Span.Transmit x ->
      [
        ("src", int x.src);
        ("seq", int x.seq);
        ("sent", Json.Num x.sent);
        ("bytes", int x.bytes);
        ("kinds", Json.Str x.kinds);
        ("ops", ints x.ops);
      ]
    | Span.Flight f ->
      [
        ("src", int f.f_src);
        ("seq", int f.f_seq);
        ("dst", int f.f_dst);
        ("sent", Json.Num f.f_sent);
        ("at", Json.Num f.f_at);
        ("outcome", Json.Str (Span.outcome_name f.f_outcome));
      ]
    | Span.Visible v ->
      [
        ("op", int v.v_op);
        ("origin", int v.v_origin);
        ("obj", int v.v_obj);
        ("observer", int v.v_observer);
        ("issue", Json.Num v.issue_at);
        ("sent", Json.Num v.sent_at);
        ("arrived", Json.Num v.arrived_at);
        ("applied", Json.Num v.applied_at);
        ("visible", Json.Num v.visible_at);
        ("direct", Json.Bool v.direct);
        ("boot_overlap", Json.Num v.boot_overlap);
      ]
    | Span.Bootstrap b ->
      [
        ("replica", int b.b_replica);
        ("epoch", int b.b_epoch);
        ("join", Json.Num b.b_join);
        ("promoted", Json.Num b.b_promoted);
      ]
    | Span.Repair_round r ->
      [
        ("round", int r.round);
        ("at", Json.Num r.r_at);
        ("interval", Json.Num r.r_interval);
      ]
  in
  Json.Obj (("span", Json.Str (Span.kind_name s)) :: fields)

let to_jsonl ?(meta = []) spans =
  let header =
    Json.Obj
      (("magic", Json.Str magic) :: ("version", int version) :: meta)
  in
  let buf = Buffer.create ((List.length spans + 1) * 80) in
  Buffer.add_string buf (Json.to_string header);
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf (Json.to_string (span_json s));
      Buffer.add_char buf '\n')
    spans;
  Buffer.contents buf

(* ---------- Chrome trace-event JSON ---------- *)

(* One process, one thread track per replica plus a "gossip" track at
   tid n. Sim time maps to microseconds via [time_scale] (default: one
   sim-time unit = 1 ms = 1000 us), keeping sub-unit delays visible. *)

let to_chrome ?(time_scale = 1000.0) ~n spans =
  let ts t = Json.Num (t *. time_scale) in
  let dur a b = Json.Num (Float.max 0.0 (b -. a) *. time_scale) in
  let meta_ev tid name =
    Json.Obj
      [
        ("ph", Json.Str "M");
        ("name", Json.Str "thread_name");
        ("pid", int 0);
        ("tid", int tid);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  let base ph cat name tid t =
    [
      ("ph", Json.Str ph);
      ("cat", Json.Str cat);
      ("name", Json.Str name);
      ("pid", int 0);
      ("tid", int tid);
      ("ts", ts t);
    ]
  in
  let header =
    Json.Obj
      [
        ("ph", Json.Str "M");
        ("name", Json.Str "process_name");
        ("pid", int 0);
        ("tid", int 0);
        ("args", Json.Obj [ ("name", Json.Str "haec simulation") ]);
      ]
    :: List.init n (fun r -> meta_ev r (Printf.sprintf "replica %d" r))
    @ [ meta_ev n "gossip" ]
  in
  let flights = ref 0 in
  let events =
    List.concat_map
      (fun (s : Span.t) ->
        match s with
        | Span.Op o ->
          [
            Json.Obj
              (base "X" "op" (Printf.sprintf "encode op%d" o.op) o.origin o.issue
              @ [
                  ("dur", dur o.issue o.sent);
                  ("args", Json.Obj [ ("op", int o.op); ("obj", int o.obj) ]);
                ]);
          ]
        | Span.Transmit x ->
          [
            Json.Obj
              (base "i" "wire" (Printf.sprintf "send m%d.%d" x.src x.seq) x.src x.sent
              @ [
                  ("s", Json.Str "t");
                  ( "args",
                    Json.Obj
                      [
                        ("bytes", int x.bytes);
                        ("kinds", Json.Str x.kinds);
                        ("ops", ints x.ops);
                      ] );
                ]);
          ]
        | Span.Flight f -> (
          match f.f_outcome with
          | Span.Dropped ->
            [
              Json.Obj
                (base "i" "loss" (Printf.sprintf "drop m%d.%d" f.f_src f.f_seq) f.f_dst
                   f.f_at
                @ [ ("s", Json.Str "t") ]);
            ]
          | Span.Delivered | Span.Duplicate ->
            incr flights;
            let id = Json.Str (Printf.sprintf "f%d" !flights) in
            let name = Printf.sprintf "m%d.%d" f.f_src f.f_seq in
            let cat =
              match f.f_outcome with Span.Duplicate -> "duplicate" | _ -> "flight"
            in
            [
              Json.Obj (base "b" cat name f.f_src f.f_sent @ [ ("id", id) ]);
              Json.Obj (base "e" cat name f.f_dst f.f_at @ [ ("id", id) ]);
            ])
        | Span.Visible v ->
          let b = Span.breakdown v in
          [
            Json.Obj
              (base "X" "visible"
                 (Printf.sprintf "op%d lag" v.v_op)
                 v.v_observer v.issue_at
              @ [
                  ("dur", Json.Num (b.total *. time_scale));
                  ( "args",
                    Json.Obj
                      [
                        ("op", int v.v_op);
                        ("origin", int v.v_origin);
                        ("obj", int v.v_obj);
                        ("encode_wait", Json.Num b.encode_wait);
                        ("network", Json.Num b.network);
                        ("repair_wait", Json.Num b.repair_wait);
                        ("dep_wait", Json.Num b.dep_wait);
                        ("bootstrap_refusal", Json.Num b.bootstrap_refusal);
                        ("total", Json.Num b.total);
                      ] );
                ]);
          ]
        | Span.Bootstrap bt ->
          [
            Json.Obj
              (base "X" "membership"
                 (Printf.sprintf "bootstrap e%d" bt.b_epoch)
                 bt.b_replica bt.b_join
              @ [ ("dur", dur bt.b_join bt.b_promoted) ]);
          ]
        | Span.Repair_round r ->
          [
            Json.Obj
              (base "X" "repair" (Printf.sprintf "round %d" r.round) n r.r_at
              @ [ ("dur", Json.Num (r.r_interval *. time_scale)) ]);
          ])
      spans
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (header @ events));
      ("displayTimeUnit", Json.Str "ms");
    ]

(* ---------- files ---------- *)

let save ?meta path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl ?meta spans))

let save_chrome ?time_scale ~n path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_chrome ?time_scale ~n spans));
      output_char oc '\n')
