//! The manual-style baseline layout.
//!
//! Human designers hit exact microstrip lengths by meandering: the routes
//! detour up and down until the target length is reached, which costs many
//! bends and one to two weeks of iteration (Section 1 of the paper). For the
//! synthetic benchmark circuits this behaviour is captured by the
//! generator's witness layout — a feasible, length-exact, meander-heavy
//! layout — which [`Layout::from_witness`] turns into a [`Layout`].

use std::time::Duration;

use rfic_core::{Layout, LayoutReport};
use rfic_netlist::generator::GeneratedCircuit;

/// The assumed wall-clock effort of a manual layout iteration loop, used
/// when printing Table-1 style comparisons ("> 1 week" / "> 2 weeks" in the
/// paper). One week of engineering time.
pub const MANUAL_DESIGN_TIME: Duration = Duration::from_secs(7 * 24 * 3600);

/// Builds the Table-1 style quality report of the manual baseline, with the
/// runtime column set to [`MANUAL_DESIGN_TIME`] per week of assumed manual
/// effort.
pub fn manual_report(circuit: &GeneratedCircuit, weeks: u32) -> LayoutReport {
    let layout = Layout::from_witness(circuit);
    LayoutReport::new(&circuit.netlist, &layout, MANUAL_DESIGN_TIME * weeks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;

    #[test]
    fn manual_report_is_exact_and_clean() {
        for circuit in [benchmarks::tiny_circuit(), benchmarks::small_circuit()] {
            let report = manual_report(&circuit, 1);
            assert!(report.lengths_matched(1e-6));
            assert!(report.drc_clean, "{report}");
        }
    }

    #[test]
    fn manual_report_has_the_meander_bends() {
        let circuit = benchmarks::small_circuit();
        let report = manual_report(&circuit, 1);
        assert_eq!(report.total_bends, circuit.witness.total_bends());
        assert!(report.total_bends > 0);
    }

    #[test]
    fn manual_report_uses_week_scale_runtime() {
        let circuit = benchmarks::tiny_circuit();
        let report = manual_report(&circuit, 2);
        assert_eq!(report.runtime, MANUAL_DESIGN_TIME * 2);
        assert!(report.drc_clean);
        let clamped = manual_report(&circuit, 0);
        assert_eq!(clamped.runtime, MANUAL_DESIGN_TIME);
    }
}
