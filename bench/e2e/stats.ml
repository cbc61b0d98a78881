(* Order statistics of repeated measurements and the regression verdict
   that compares two sets of them. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "Stats.median: no values"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile, by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the
   spreads printed here match the ones an outside check computes. *)
let quartiles xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "Stats.quartiles: no values"
  | [| x |] -> (x, x)
  | a ->
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* interquartile range as a share of the median; 0 when the median is 0 *)
let rel_iqr xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

type better = Lower | Higher

type verdict =
  | Within  (** no worse than the bound allows *)
  | Regressed of float  (** worse by this share of the parent's median *)
  | Unresolved of float
      (** the parent's own spread (this share of its median) exceeds the
          bound, so a difference of that size cannot be told from noise *)

(* How much worse [change] is than [parent], as a share of the parent's
   median, judged by the bound a metric fixes. When the parent's runs
   spread wider than the bound the comparison is unresolved — unless every
   run of the change reads better than every run of the parent. *)
let verdict ~better ~bound ~parent ~change =
  let pm = median parent and cm = median change in
  let worse =
    if pm = 0.0 then 0.0
    else
      match better with
      | Lower -> (cm -. pm) /. Float.abs pm
      | Higher -> (pm -. cm) /. Float.abs pm
  in
  let beats c p = match better with Lower -> c < p | Higher -> c > p in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> beats c p) parent) change
  in
  let spread = rel_iqr parent in
  if all_better then Within
  else if spread > bound then Unresolved spread
  else if worse > bound then Regressed worse
  else Within

let pp_verdict ppf = function
  | Within -> Format.pp_print_string ppf "within bound"
  | Regressed w -> Format.fprintf ppf "REGRESSED by %.1f%%" (100.0 *. w)
  | Unresolved s -> Format.fprintf ppf "unresolved (spread %.1f%%)" (100.0 *. s)
