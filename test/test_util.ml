open Helpers
module Pqueue = Haec.Util.Pqueue
module Bitset = Haec.Util.Bitset
module Fqueue = Haec.Util.Fqueue

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let b = Rng.copy a in
  let x = Rng.bits64 a in
  let y = Rng.bits64 b in
  Alcotest.(check int64) "copy starts at same point" x y;
  ignore (Rng.bits64 a);
  let x2 = Rng.bits64 a and y2 = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge independently" false (Int64.equal x2 y2 && false);
  ignore (x2, y2)

let test_rng_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.failf "Rng.int out of bounds: %d" v;
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "Rng.float out of bounds: %f" f;
    let k = Rng.int_in r 5 9 in
    if k < 5 || k > 9 then Alcotest.failf "Rng.int_in out of bounds: %d" k
  done

let test_rng_int_covers () =
  let r = Rng.create 20 in
  let seen = Array.make 6 false in
  for _ = 1 to 600 do
    seen.(Rng.int r 6) <- true
  done;
  Array.iteri (fun i b -> if not b then Alcotest.failf "value %d never drawn" i) seen

let test_rng_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "pick []" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick r []))

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* ---------- Pqueue ---------- *)

let test_pqueue_orders () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.add q ~priority:p v) [ (3., "c"); (1., "a"); (2., "b") ];
  let order = List.map snd (Pqueue.to_list q) in
  Alcotest.(check (list string)) "ascending" [ "a"; "b"; "c" ] order;
  Alcotest.(check int) "length" 3 (Pqueue.length q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.add q ~priority:1.0 v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] (drain [])

let test_pqueue_mixed () =
  let q = Pqueue.create () in
  for i = 100 downto 1 do
    Pqueue.add q ~priority:(float_of_int (i mod 10)) i
  done;
  let rec drain last count =
    match Pqueue.pop q with
    | None -> count
    | Some (p, _) ->
      if p < last then Alcotest.fail "priorities not ascending";
      drain p (count + 1)
  in
  Alcotest.(check int) "all popped" 100 (drain neg_infinity 0)

let test_pqueue_peek_clear () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.add q ~priority:5.0 "x";
  (match Pqueue.peek q with
  | Some (5.0, "x") -> ()
  | _ -> Alcotest.fail "peek");
  Alcotest.(check int) "peek does not remove" 1 (Pqueue.length q);
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let test_pqueue_interleaved () =
  (* equal priorities with pops interleaved between pushes: FIFO order
     must survive the heap's internal swaps *)
  let q = Pqueue.create () in
  Pqueue.add q ~priority:1.0 "a";
  Pqueue.add q ~priority:1.0 "b";
  (match Pqueue.pop q with
  | Some (1.0, "a") -> ()
  | _ -> Alcotest.fail "first pop");
  Pqueue.add q ~priority:1.0 "c";
  Pqueue.add q ~priority:0.5 "urgent";
  Pqueue.add q ~priority:1.0 "d";
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string))
    "urgent first, then fifo among equals" [ "urgent"; "b"; "c"; "d" ] (drain []);
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

(* ---------- Fqueue ---------- *)

let test_fqueue_fifo () =
  let q = List.fold_left Fqueue.push Fqueue.empty [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3; 4 ] (Fqueue.to_list q);
  Alcotest.(check int) "length" 4 (Fqueue.length q);
  (match Fqueue.pop q with
  | Some (1, q') ->
    (* persistence: popping the derived queue leaves the original intact *)
    Alcotest.(check (list int)) "original intact" [ 1; 2; 3; 4 ] (Fqueue.to_list q);
    Alcotest.(check (list int)) "rest" [ 2; 3; 4 ] (Fqueue.to_list q')
  | _ -> Alcotest.fail "pop");
  Alcotest.(check bool) "peek" true (Fqueue.peek q = Some 1);
  Alcotest.(check bool) "empty pops none" true (Fqueue.pop Fqueue.empty = None);
  Alcotest.(check bool) "empty" true (Fqueue.is_empty Fqueue.empty)

let prop_fqueue_matches_list =
  q ~count:100 "fqueue = list queue under interleaved push/pop"
    QCheck2.Gen.(list (option (int_bound 100)))
    (fun script ->
      (* Some v = push v, None = pop; replay against a reference list *)
      let fq = ref Fqueue.empty and model = ref [] in
      List.for_all
        (fun step ->
          match step with
          | Some v ->
            fq := Fqueue.push !fq v;
            model := !model @ [ v ];
            true
          | None -> (
            match (Fqueue.pop !fq, !model) with
            | None, [] -> true
            | Some (x, fq'), m :: rest ->
              fq := fq';
              model := rest;
              x = m
            | _ -> false))
        script
      && Fqueue.to_list !fq = !model)

(* ---------- Bitset ---------- *)

let test_bitset_basic () =
  let b = Bitset.create 200 in
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 199;
  Alcotest.(check (list int)) "to_list" [ 0; 63; 64; 199 ] (Bitset.to_list b);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.get b 63);
  Alcotest.(check bool) "others kept" true (Bitset.get b 64)

let test_bitset_union_subset () =
  let a = Bitset.create 100 and b = Bitset.create 100 in
  Bitset.set a 1;
  Bitset.set a 70;
  Bitset.set b 70;
  Alcotest.(check bool) "b subset a" true (Bitset.is_subset b a);
  Alcotest.(check bool) "a not subset b" false (Bitset.is_subset a b);
  Bitset.union_into ~dst:b a;
  Alcotest.(check bool) "after union" true (Bitset.is_subset a b);
  Alcotest.(check (list int)) "union contents" [ 1; 70 ] (Bitset.to_list b)

let test_bitset_word_boundaries () =
  (* sizes and indices straddling the 63-bit word packing *)
  List.iter
    (fun n ->
      let b = Bitset.create n in
      Alcotest.(check int) (Printf.sprintf "empty n=%d" n) 0 (Bitset.cardinal b);
      Alcotest.(check (list int)) (Printf.sprintf "empty list n=%d" n) [] (Bitset.to_list b);
      for i = 0 to n - 1 do
        Bitset.set b i
      done;
      Alcotest.(check int) (Printf.sprintf "full n=%d" n) n (Bitset.cardinal b);
      Alcotest.(check (list int))
        (Printf.sprintf "full list n=%d" n)
        (List.init n Fun.id) (Bitset.to_list b);
      (* full set is its own subset and a superset of empty *)
      Alcotest.(check bool) "empty subset full" true (Bitset.is_subset (Bitset.create n) b);
      for i = 0 to n - 1 do
        Bitset.clear b i
      done;
      Alcotest.(check int) (Printf.sprintf "cleared n=%d" n) 0 (Bitset.cardinal b))
    [ 1; 62; 63; 64; 65; 126; 127; 128 ]

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set b 10)

let prop_bitset_roundtrip =
  q ~count:100 "bitset set/get roundtrip"
    QCheck2.Gen.(list_size (return 30) (int_bound 199))
    (fun idxs ->
      let b = Bitset.create 200 in
      List.iter (Bitset.set b) idxs;
      List.for_all (Bitset.get b) idxs
      && Bitset.to_list b = List.sort_uniq compare idxs)

(* min_elt_from and iter_rev against their list meanings *)
let prop_bitset_from_rev =
  q ~count:200 "bitset min_elt_from/iter_rev"
    QCheck2.Gen.(pair (list (int_bound 199)) (int_bound 210))
    (fun (xs, from) ->
      let of_list l =
        let b = Bitset.create 200 in
        List.iter (Bitset.set b) l;
        b
      in
      let a = of_list xs in
      let xs = List.sort_uniq compare xs in
      let rev = ref [] in
      Bitset.iter_rev a (fun i -> rev := i :: !rev);
      Bitset.to_list a = xs
      && !rev = Bitset.to_list a
      && Bitset.min_elt_from a from = List.find_opt (fun x -> x >= from) xs)

let suite =
  ( "util",
    [
      tc "rng determinism" test_rng_determinism;
      tc "rng copy independent" test_rng_copy_independent;
      tc "rng bounds" test_rng_bounds;
      tc "rng int covers range" test_rng_int_covers;
      tc "rng invalid args" test_rng_invalid;
      tc "rng shuffle permutes" test_rng_shuffle_permutes;
      tc "pqueue orders by priority" test_pqueue_orders;
      tc "pqueue breaks ties fifo" test_pqueue_fifo_ties;
      tc "pqueue mixed stress" test_pqueue_mixed;
      tc "pqueue peek/clear" test_pqueue_peek_clear;
      tc "pqueue interleaved ties" test_pqueue_interleaved;
      tc "fqueue fifo + persistence" test_fqueue_fifo;
      prop_fqueue_matches_list;
      tc "bitset basic" test_bitset_basic;
      tc "bitset union/subset" test_bitset_union_subset;
      tc "bitset word boundaries" test_bitset_word_boundaries;
      tc "bitset bounds" test_bitset_bounds;
      prop_bitset_roundtrip;
      prop_bitset_from_rev;
    ] )
