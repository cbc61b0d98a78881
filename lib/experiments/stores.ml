open Haec

type entry = {
  flag : string;
  store : (module Store.Store_intf.S);
  mix : Sim.Workload.mix;
  spec : Spec.Spec.t;
  level : Sim.Chaos.level option;
}

(* one row per store: flag, module, workload, spec, check level *)
let all =
  let row flag store mix spec level = { flag; store; mix; spec; level } in
  let reg = Sim.Workload.register_mix and set = Sim.Workload.orset_mix in
  let mvr = Spec.Spec.mvr in
  [
    row "mvr" (module Store.Mvr_store) reg mvr (Some `Correct);
    row "causal" (module Store.Causal_mvr_store) reg mvr (Some `Causal);
    row "cops" (module Store.Cops_store) reg mvr (Some `Causal);
    row "state" (module Store.State_mvr_store) reg mvr (Some `Correct);
    row "orset" (module Store.Orset_store) set Spec.Spec.orset (Some `Correct);
    row "lww" (module Store.Lww_store) reg Spec.Spec.rw_register (Some `Converge);
    row "counter" (module Store.Counter_store.Causal) set Spec.Spec.counter None;
    row "gossip" (module Store.Gossip_relay_store) reg mvr (Some `Correct);
    row "delayed" (module Store.Delayed_store.K3) reg mvr None;
    row "gsp" (module Store.Gsp_store) reg Spec.Spec.rw_register None;
  ]

let checked = List.filter (fun e -> Option.is_some e.level) all

let find flag = List.find (fun e -> e.flag = flag) all

let name e =
  let (module S : Store.Store_intf.S) = e.store in
  S.name

let chaos_seeds ?adversarial ?churn e ~seeds =
  let require =
    match e.level with
    | Some l -> l
    | None -> invalid_arg ("Stores.chaos_seeds: no check level for " ^ e.flag)
  in
  let (module S : Store.Store_intf.S) = e.store in
  let module C = Sim.Chaos.Make (S) in
  C.run_seeds ~spec_of:(fun _ -> e.spec) ~mix:e.mix ~require ?adversarial ?churn ~seeds ()
