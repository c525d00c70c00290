//! End-to-end integration tests of the P-ILP flow across crates.

use rfic_layout::core::{drc_check, DrcOptions, Layout, Pilp, PilpConfig, PilpPhase};
use rfic_layout::netlist::benchmarks;

#[test]
fn pilp_flow_on_the_tiny_circuit_beats_the_manual_baseline_on_bends() {
    let circuit = benchmarks::tiny_circuit();
    let netlist = &circuit.netlist;
    let result = Pilp::new(PilpConfig::fast())
        .run(netlist)
        .expect("P-ILP run");

    // Completeness: every device placed and every strip routed.
    assert!(result.layout.is_complete(netlist));
    // Three phase snapshots in order.
    let phases: Vec<PilpPhase> = result.snapshots.iter().map(|s| s.phase).collect();
    assert_eq!(
        phases,
        vec![
            PilpPhase::GlobalRouting,
            PilpPhase::Visualization,
            PilpPhase::Refinement
        ]
    );

    // The bend counts must land at or below the manual-style witness
    // (the headline comparison of Table 1).
    assert!(
        result.layout.total_bends() <= circuit.witness.total_bends(),
        "P-ILP bends {} vs manual {}",
        result.layout.total_bends(),
        circuit.witness.total_bends()
    );

    // Pads stay on the boundary.
    let (aw, ah) = netlist.area();
    for pad in netlist.pads() {
        let c = result.layout.placement(pad.id).expect("placed").center;
        assert!(
            c.x.abs() < 1e-3
                || c.y.abs() < 1e-3
                || (c.x - aw).abs() < 1e-3
                || (c.y - ah).abs() < 1e-3,
            "pad {} at {c} must sit on the boundary",
            pad.id
        );
    }

    // Length matching: the majority of strips reach their exact target with
    // the fast CI settings; the worst residual stays bounded.
    let report = result.report();
    let exact = report.exact_lengths();
    assert!(
        exact * 2 >= report.strips.len(),
        "{exact}/{} exact",
        report.strips.len()
    );
    assert!(
        report.max_length_error < 40.0,
        "max error {}",
        report.max_length_error
    );
}

#[test]
fn pilp_runtime_is_minutes_not_weeks() {
    let circuit = benchmarks::tiny_circuit();
    let result = Pilp::new(PilpConfig::fast())
        .run(&circuit.netlist)
        .expect("run");
    // The paper's point: automatic layout takes minutes, not weeks.
    assert!(result.runtime.as_secs() < 30 * 60);
}

#[test]
fn manual_witness_is_the_reference_quality_bar() {
    // The manual baseline itself must be flawless: exact lengths, DRC clean.
    for circuit in [benchmarks::tiny_circuit(), benchmarks::small_circuit()] {
        let layout = Layout::from_witness(&circuit);
        assert!(layout.max_length_error(&circuit.netlist) < 1e-6);
        let drc = drc_check(&circuit.netlist, &layout, &DrcOptions::default());
        assert!(drc.is_clean(), "{drc}");
    }
}
