open Haec_util
open Haec_model

type bad_pattern =
  | Thin_air_read of { read : int }
  | Cyclic_co of { witness : int }
  | Write_co_init_read of { read : int; write : int }
  | Write_co_read of { read : int; overwritten : int; overwriting : int }
  | Cyclic_cf of { witness : int }

type model =
  [ `Cc
  | `Ccv ]

type verdict =
  | Consistent
  | Violation of bad_pattern
  | Unsupported of string

let pp_verdict ppf = function
  | Consistent -> Format.pp_print_string ppf "causally consistent (register history)"
  | Violation (Thin_air_read { read }) ->
    Format.fprintf ppf "violation: read %d returns a value nobody wrote" read
  | Violation (Cyclic_co { witness }) ->
    Format.fprintf ppf "violation: causal order is cyclic (through event %d)" witness
  | Violation (Write_co_init_read { read; write }) ->
    Format.fprintf ppf
      "violation: read %d returns the initial value although write %d causally precedes it"
      read write
  | Violation (Write_co_read { read; overwritten; overwriting }) ->
    Format.fprintf ppf
      "violation: read %d returns write %d, causally overwritten by write %d" read
      overwritten overwriting
  | Violation (Cyclic_cf { witness }) ->
    Format.fprintf ppf
      "violation: causality plus forced arbitration is cyclic (through write %d) - no single conflict order exists"
      witness
  | Unsupported m -> Format.fprintf ppf "unsupported history: %s" m

exception Bad of verdict

(* The production checker. Same verdicts (including witness indices) as
   the frozen list-based implementation the tests hold it to, but every quadratic scan is word-parallel:

   - the causal order [co] is saturated with {!Bitset.union_into_changed}
     (one or-and-compare per word) instead of recomputing cardinals;
   - [co]'s transpose [pred] (who causally precedes me) is built once, so
     each bad-pattern query is a 2- or 3-row intersection: a read of the
     initial value is bad iff [pred(read) ∩ writes(obj)] is non-empty, a
     read of [w1] is bad iff [reach(w1) ∩ pred(read) ∩ writes(obj)] is —
     [Bitset.min_elt] of the mask is exactly the witness the ascending
     reference scan reports;
   - the forced conflict edges of causal convergence enumerate only the
     bits of [pred(read) ∩ writes(obj)] instead of every event. *)
let check_events ?(model = `Ccv) ~n events =
  let evs = Array.of_list events in
  let len = Array.length evs in
  try
    (* map values to their unique writers *)
    let writer : (int * Value.t, int) Hashtbl.t = Hashtbl.create 32 in
    Array.iteri
      (fun i (d : Event.do_event) ->
        match d.Event.op with
        | Op.Write v | Op.Add v ->
          if Hashtbl.mem writer (d.Event.obj, v) then
            raise (Bad (Unsupported (Format.asprintf "duplicated write value %a" Value.pp v)));
          Hashtbl.replace writer (d.Event.obj, v) i
        | Op.Read | Op.Remove _ -> ())
      evs;
    (* reads-from, derived from responses *)
    let rf = Array.make len None in
    Array.iteri
      (fun i (d : Event.do_event) ->
        if Op.is_read d.Event.op then
          match d.Event.rval with
          | Op.Ok -> raise (Bad (Unsupported "read returned ok"))
          | Op.Vals [] -> ()
          | Op.Vals [ v ] -> (
            match Hashtbl.find_opt writer (d.Event.obj, v) with
            | Some w -> rf.(i) <- Some w
            | None -> raise (Bad (Violation (Thin_air_read { read = i }))))
          | Op.Vals _ ->
            raise (Bad (Unsupported "multi-value read (MVR history): use Search instead")))
      evs;
    (* co = transitive closure of session order + reads-from *)
    let succs = Array.make len [] in
    let last_at = Hashtbl.create 8 in
    Array.iteri
      (fun i (d : Event.do_event) ->
        (match Hashtbl.find_opt last_at d.Event.replica with
        | Some j -> succs.(j) <- i :: succs.(j)
        | None -> ());
        Hashtbl.replace last_at d.Event.replica i;
        match rf.(i) with Some w -> succs.(w) <- i :: succs.(w) | None -> ())
      evs;
    let cap = max len 1 in
    (* word-level saturation to a fixpoint; session edges point forward in
       H, so the descending pass converges in one sweep plus one per
       backward reads-from edge on a cycle candidate *)
    let saturate rows edges =
      let changed = ref true in
      while !changed do
        changed := false;
        for i = len - 1 downto 0 do
          List.iter
            (fun j ->
              if not (Bitset.get rows.(i) j) then begin
                Bitset.set rows.(i) j;
                changed := true
              end;
              if Bitset.union_into_changed ~dst:rows.(i) rows.(j) then changed := true)
            edges.(i)
        done
      done
    in
    let reach = Array.init len (fun _ -> Bitset.create cap) in
    saturate reach succs;
    for i = 0 to len - 1 do
      if Bitset.get reach.(i) i then raise (Bad (Violation (Cyclic_co { witness = i })))
    done;
    (* pred = transpose of reach: pred(j) = {i | co i j} *)
    let pred = Array.init len (fun _ -> Bitset.create cap) in
    for i = 0 to len - 1 do
      Bitset.iter reach.(i) (fun j -> Bitset.set pred.(j) i)
    done;
    (* per-object bitsets of update events *)
    let writes_on = Hashtbl.create 8 in
    Array.iteri
      (fun i (d : Event.do_event) ->
        if Op.is_update d.Event.op then begin
          let b =
            match Hashtbl.find_opt writes_on d.Event.obj with
            | Some b -> b
            | None ->
              let b = Bitset.create cap in
              Hashtbl.replace writes_on d.Event.obj b;
              b
          in
          Bitset.set b i
        end)
      evs;
    let writes_of obj =
      match Hashtbl.find_opt writes_on obj with
      | Some b -> Some b
      | None -> None
    in
    let mask = Bitset.create cap in
    (* bad patterns over reads *)
    Array.iteri
      (fun r (d : Event.do_event) ->
        if Op.is_read d.Event.op then
          match writes_of d.Event.obj with
          | None -> ()
          | Some writes -> (
            match rf.(r) with
            | None ->
              (* reads initial value: no same-object write may causally
                 precede *)
              Bitset.copy_into ~dst:mask pred.(r);
              Bitset.inter_into ~dst:mask writes;
              (match Bitset.min_elt mask with
              | Some w -> raise (Bad (Violation (Write_co_init_read { read = r; write = w })))
              | None -> ())
            | Some w1 ->
              (* the write read from must not be causally overwritten; w1
                 itself is never in reach(w1) (the cycle check passed) *)
              Bitset.copy_into ~dst:mask reach.(w1);
              Bitset.inter_into ~dst:mask pred.(r);
              Bitset.inter_into ~dst:mask writes;
              (match Bitset.min_elt mask with
              | Some w2 ->
                raise
                  (Bad (Violation (Write_co_read { read = r; overwritten = w1; overwriting = w2 })))
              | None -> ())))
      evs;
    (* causal convergence: the conflict order cf forced by reads --
       w1 -> w2 when a read of w2 has w1 in its causal past -- must embed,
       together with co, into one total order: co ∪ cf acyclic *)
    if model = `Ccv then begin
      let cf_succs = Array.make len [] in
      Array.iteri
        (fun r (d : Event.do_event) ->
          match rf.(r) with
          | Some w2 -> (
            match writes_of d.Event.obj with
            | None -> ()
            | Some writes ->
              Bitset.copy_into ~dst:mask pred.(r);
              Bitset.inter_into ~dst:mask writes;
              Bitset.iter mask (fun w1 ->
                  if w1 <> w2 then cf_succs.(w1) <- w2 :: cf_succs.(w1)))
          | None -> ())
        evs;
      let both = Array.init len (fun i -> succs.(i) @ cf_succs.(i)) in
      let reach2 = Array.init len (fun i -> Bitset.copy reach.(i)) in
      saturate reach2 both;
      for i = 0 to len - 1 do
        if Bitset.get reach2.(i) i then raise (Bad (Violation (Cyclic_cf { witness = i })))
      done
    end;
    ignore n;
    Consistent
  with Bad v -> v

let check ?model exec =
  check_events ?model ~n:(Execution.n_replicas exec)
    (List.map snd (Execution.do_events exec))
