open Haec_util
open Haec_model

type mix = Haec_sim.Workload.mix = { read_w : int; write_w : int; add_w : int; remove_w : int }

let register_mix = Haec_sim.Workload.register_mix

let orset_mix = Haec_sim.Workload.orset_mix

let mix_of_read_pct p =
  let p = max 0 (min 100 p) in
  { read_w = p; write_w = 100 - p; add_w = 0; remove_w = 0 }

let total m = m.read_w + m.write_w + m.add_w + m.remove_w

let is_update_mix m = m.write_w + m.add_w + m.remove_w > 0

type sampler =
  | Uniform of int
  | Zipf of float array  (** cdf.(i) = P(obj <= i); last entry 1.0 *)

let sampler ~objects ~theta =
  if objects < 1 then invalid_arg "Load.sampler: objects must be >= 1";
  if (not (Float.is_finite theta)) || theta < 0.0 then
    invalid_arg "Load.sampler: theta must be finite and non-negative";
  if theta = 0.0 then Uniform objects
  else begin
    let w = Array.init objects (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
    let sum = Array.fold_left ( +. ) 0.0 w in
    let cdf = Array.make objects 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i x ->
        acc := !acc +. x;
        cdf.(i) <- !acc /. sum)
      w;
    cdf.(objects - 1) <- 1.0;
    Zipf cdf
  end

let sample s rng =
  match s with
  | Uniform n -> Rng.int rng n
  | Zipf cdf ->
    let u = Rng.float rng 1.0 in
    (* first index with cdf.(i) >= u *)
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo

type gen = {
  replica : int;
  mix : mix;
  total : int;
  mutable issued : int;
  mutable writes : int;
}

let gen ~replica mix =
  let t = total mix in
  if t <= 0 then invalid_arg "Load.gen: mix has no positive weight";
  { replica; mix; total = t; issued = 0; writes = 0 }

(* the simulator's set workload draws add/remove values from a pool of 8
   small ints so removes collide with earlier adds; match it *)
let pool_value rng = Value.Int (Rng.int rng 8)

let next g rng =
  g.issued <- g.issued + 1;
  let r = Rng.int rng g.total in
  if r < g.mix.read_w then Op.Read
  else begin
    let upd =
      if r < g.mix.read_w + g.mix.write_w then
        Op.Write (Value.Pair (g.replica, g.writes))
      else if r < g.mix.read_w + g.mix.write_w + g.mix.add_w then
        Op.Add (pool_value rng)
      else Op.Remove (pool_value rng)
    in
    g.writes <- g.writes + 1;
    upd
  end

let issued g = g.issued

let writes g = g.writes
