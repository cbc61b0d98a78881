type t = {
  id : string;
  title : string;
  run : Format.formatter -> unit;
}

let all =
  [
    { id = E1_spec_conformance.name; title = E1_spec_conformance.title; run = E1_spec_conformance.run };
    { id = E2_fig2_inference.name; title = E2_fig2_inference.title; run = E2_fig2_inference.run };
    { id = E3_fig3_occ.name; title = E3_fig3_occ.title; run = E3_fig3_occ.run };
    { id = E4_theorem6.name; title = E4_theorem6.title; run = E4_theorem6.run };
    { id = E5_visible_reads.name; title = E5_visible_reads.title; run = E5_visible_reads.run };
    { id = E6_theorem12.name; title = E6_theorem12.title; run = E6_theorem12.run };
    { id = E7_vclock_growth.name; title = E7_vclock_growth.title; run = E7_vclock_growth.run };
    { id = E8_single_object.name; title = E8_single_object.title; run = E8_single_object.run };
    { id = E9_convergence.name; title = E9_convergence.title; run = E9_convergence.run };
    { id = E10_write_pending.name; title = E10_write_pending.title; run = E10_write_pending.run };
    {
      id = E11_theorem12_registers.name;
      title = E11_theorem12_registers.title;
      run = E11_theorem12_registers.run;
    };
    {
      id = E12_liveness_ablation.name;
      title = E12_liveness_ablation.title;
      run = E12_liveness_ablation.run;
    };
    {
      id = E13_session_guarantees.name;
      title = E13_session_guarantees.title;
      run = E13_session_guarantees.run;
    };
    { id = E14_state_vs_op.name; title = E14_state_vs_op.title; run = E14_state_vs_op.run };
    {
      id = E15_checker_at_scale.name;
      title = E15_checker_at_scale.title;
      run = E15_checker_at_scale.run;
    };
    { id = E16_state_growth.name; title = E16_state_growth.title; run = E16_state_growth.run };
    {
      id = E17_dependency_tracking.name;
      title = E17_dependency_tracking.title;
      run = E17_dependency_tracking.run;
    };
    {
      id = E18_fault_recovery.name;
      title = E18_fault_recovery.title;
      run = E18_fault_recovery.run;
    };
    { id = E19_wire_floor.name; title = E19_wire_floor.title; run = E19_wire_floor.run };
    { id = E20_soak.name; title = E20_soak.title; run = E20_soak.run };
    { id = E21_anti_entropy.name; title = E21_anti_entropy.title; run = E21_anti_entropy.run };
    { id = E22_membership.name; title = E22_membership.title; run = E22_membership.run };
    {
      id = E23_lag_attribution.name;
      title = E23_lag_attribution.title;
      run = E23_lag_attribution.run;
    };
    { id = E25_live.name; title = E25_live.title; run = E25_live.run };
    {
      id = E26_live_chaos.name;
      title = E26_live_chaos.title;
      run = E26_live_chaos.run;
    };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = id) all

let run_all ppf =
  List.iter
    (fun e ->
      e.run ppf;
      Format.pp_print_newline ppf ())
    all
