//! Layout quality reporting: the per-circuit numbers of Table 1.

use std::fmt;
use std::time::Duration;

use rfic_netlist::{MicrostripId, Netlist};
use serde::{Deserialize, Serialize};

use crate::drc::{self, DrcOptions};
use crate::layout::Layout;

/// Per-microstrip quality record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripReport {
    /// Strip id.
    pub id: MicrostripId,
    /// Net name.
    pub name: String,
    /// Number of 90° bends on the routed strip.
    pub bends: usize,
    /// Target equivalent length, µm.
    pub target_length: f64,
    /// Achieved equivalent length, µm (`NaN` if unrouted).
    pub achieved_length: f64,
    /// Signed length error (achieved − target), µm.
    pub length_error: f64,
}

/// Summary of a finished layout: the quantities reported in Table 1 of the
/// paper plus length-matching and DRC status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutReport {
    /// Name of the circuit.
    pub circuit: String,
    /// Layout area used, µm.
    pub area: (f64, f64),
    /// Maximum bend count over all strips ("Max. bend number").
    pub max_bends: usize,
    /// Total bend count over all strips ("Total bend number").
    pub total_bends: usize,
    /// Largest absolute length error over all strips, µm.
    pub max_length_error: f64,
    /// Sum of absolute length errors, µm.
    pub total_length_error: f64,
    /// Whether the layout passes the full design-rule check.
    pub drc_clean: bool,
    /// Number of DRC violations.
    pub drc_violations: usize,
    /// Wall-clock time spent producing the layout.
    pub runtime: Duration,
    /// Per-strip details.
    pub strips: Vec<StripReport>,
}

impl LayoutReport {
    /// Builds a report for `layout` against `netlist`.
    pub fn new(netlist: &Netlist, layout: &Layout, runtime: Duration) -> LayoutReport {
        let drc = drc::check(netlist, layout, &DrcOptions::default());
        let strips: Vec<StripReport> = netlist
            .microstrips()
            .iter()
            .map(|m| {
                let achieved = layout.equivalent_length(netlist, m.id).unwrap_or(f64::NAN);
                let error = if achieved.is_nan() {
                    f64::INFINITY
                } else {
                    achieved - m.target_length
                };
                StripReport {
                    id: m.id,
                    name: m.name.clone(),
                    bends: layout.bend_count(m.id),
                    target_length: m.target_length,
                    achieved_length: achieved,
                    length_error: error,
                }
            })
            .collect();
        let max_length_error = strips
            .iter()
            .map(|s| s.length_error.abs())
            .fold(0.0, f64::max);
        let total_length_error = strips.iter().map(|s| s.length_error.abs()).sum();
        LayoutReport {
            circuit: netlist.name().to_owned(),
            area: layout.area,
            max_bends: layout.max_bends(),
            total_bends: layout.total_bends(),
            max_length_error,
            total_length_error,
            drc_clean: drc.is_clean(),
            drc_violations: drc.len(),
            runtime,
            strips,
        }
    }

    /// `true` if every strip matches its target length within `tol`.
    pub fn lengths_matched(&self, tol: f64) -> bool {
        self.max_length_error <= tol
    }

    /// Number of strips that reached their exact target length: those
    /// whose |error| is within [`drc::LENGTH_TOLERANCE_UM`], the rule
    /// [`drc::check`] and the flow's refinement apply. An unrouted strip
    /// never counts.
    pub fn exact_lengths(&self) -> usize {
        self.strips
            .iter()
            .filter(|s| s.length_error.abs() <= drc::LENGTH_TOLERANCE_UM)
            .count()
    }
}

impl fmt::Display for LayoutReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: area {:.0}x{:.0} µm, max bends {}, total bends {}, max |ΔL| {:.3} µm, DRC {}, runtime {:.1?}",
            self.circuit,
            self.area.0,
            self.area.1,
            self.max_bends,
            self.total_bends,
            self.max_length_error,
            if self.drc_clean { "clean" } else { "VIOLATED" },
            self.runtime
        )?;
        for s in &self.strips {
            writeln!(
                f,
                "  {:>5} {:<8} bends {:>2}  L {:>8.2} -> {:>8.2} (Δ {:+.3})",
                s.id.to_string(),
                s.name,
                s.bends,
                s.target_length,
                s.achieved_length,
                s.length_error
            )?;
        }
        Ok(())
    }
}

/// One row of the Table-1 style comparison between two flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Circuit name.
    pub circuit: String,
    /// Number of microstrips.
    pub num_microstrips: usize,
    /// Number of devices (excluding pads).
    pub num_devices: usize,
    /// Layout area, µm.
    pub area: (f64, f64),
    /// Label of the first flow (e.g. "Manual").
    pub flow_a: String,
    /// Label of the second flow (e.g. "P-ILP").
    pub flow_b: String,
    /// Max bend number of flow A.
    pub max_bends_a: usize,
    /// Max bend number of flow B.
    pub max_bends_b: usize,
    /// Total bend number of flow A.
    pub total_bends_a: usize,
    /// Total bend number of flow B.
    pub total_bends_b: usize,
    /// Runtime of flow A.
    pub runtime_a: Duration,
    /// Runtime of flow B.
    pub runtime_b: Duration,
}

impl ComparisonRow {
    /// Builds a comparison row from two layout reports of the same circuit.
    pub fn new(
        netlist: &Netlist,
        flow_a: impl Into<String>,
        report_a: &LayoutReport,
        flow_b: impl Into<String>,
        report_b: &LayoutReport,
    ) -> ComparisonRow {
        let stats = netlist.stats();
        ComparisonRow {
            circuit: netlist.name().to_owned(),
            num_microstrips: stats.num_microstrips,
            num_devices: stats.num_devices,
            area: report_b.area,
            flow_a: flow_a.into(),
            flow_b: flow_b.into(),
            max_bends_a: report_a.max_bends,
            max_bends_b: report_b.max_bends,
            total_bends_a: report_a.total_bends,
            total_bends_b: report_b.total_bends,
            runtime_a: report_a.runtime,
            runtime_b: report_b.runtime,
        }
    }
}

impl fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>3} {:>3}  {:>4.0}x{:<4.0}  max {:>2} vs {:>2}   total {:>3} vs {:>3}   runtime {:>8.2?} vs {:>8.2?}",
            self.circuit,
            self.num_microstrips,
            self.num_devices,
            self.area.0,
            self.area.1,
            self.max_bends_a,
            self.max_bends_b,
            self.total_bends_a,
            self.total_bends_b,
            self.runtime_a,
            self.runtime_b,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;

    #[test]
    fn witness_report_is_length_exact_and_clean() {
        let circuit = benchmarks::small_circuit();
        let layout = Layout::from_witness(&circuit);
        let report = LayoutReport::new(&circuit.netlist, &layout, Duration::from_secs(1));
        assert!(report.drc_clean);
        assert!(report.lengths_matched(1e-6));
        assert_eq!(report.strips.len(), circuit.netlist.microstrips().len());
        assert_eq!(report.total_bends, layout.total_bends());
        assert_eq!(report.max_bends, layout.max_bends());
        assert!(report.to_string().contains("total bends"));
    }

    #[test]
    fn unrouted_strip_shows_up_as_infinite_error() {
        let circuit = benchmarks::tiny_circuit();
        let mut layout = Layout::from_witness(&circuit);
        layout.routes.remove(&circuit.netlist.microstrips()[0].id);
        let report = LayoutReport::new(&circuit.netlist, &layout, Duration::ZERO);
        assert!(!report.drc_clean);
        assert!(report.max_length_error.is_infinite());
        assert!(!report.lengths_matched(1.0));
    }

    /// Moves the final point of `strip`'s route `by` µm further along its
    /// last segment, which lengthens the strip by `by` without a new bend.
    fn stretch(layout: &mut Layout, strip: MicrostripId, by: f64) {
        let route = layout.routes.get_mut(&strip).unwrap();
        let mut points = route.points().to_vec();
        let (prev, last) = (points[points.len() - 2], points[points.len() - 1]);
        let (dx, dy) = (last.x - prev.x, last.y - prev.y);
        let norm = dx.hypot(dy);
        *points.last_mut().unwrap() = last.translated(dx / norm * by, dy / norm * by);
        *route = rfic_geom::Polyline::new(points).unwrap();
    }

    /// `exact_lengths` agrees with `drc::check`: every strip is exact
    /// unless the checker flags it as mismatched or unrouted.
    #[test]
    fn exact_lengths_agree_with_the_length_rule_of_drc() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let strip = netlist.microstrips()[0].id;
        let witness = Layout::from_witness(&circuit);
        let mut unrouted = witness.clone();
        unrouted.routes.remove(&strip);
        let mut far = witness.clone();
        stretch(&mut far, strip, 2.0 * drc::LENGTH_TOLERANCE_UM);
        let mut boundary = witness.clone();
        stretch(&mut boundary, strip, drc::LENGTH_TOLERANCE_UM);
        let boundary_error = boundary.abs_length_error(netlist, strip);
        assert!((boundary_error - drc::LENGTH_TOLERANCE_UM).abs() < 1e-9);

        let strips = netlist.microstrips().len();
        for (case, layout, expected) in [
            ("witness", &witness, Some(strips)),
            ("unrouted", &unrouted, Some(strips - 1)),
            ("2x tolerance", &far, Some(strips - 1)),
            // Within float rounding of the tolerance: either side is fine
            // as long as both rules land on the same one.
            ("at tolerance", &boundary, None),
        ] {
            let report = LayoutReport::new(netlist, layout, Duration::ZERO);
            let drc = drc::check(netlist, layout, &DrcOptions::default());
            let flagged = drc
                .violations
                .iter()
                .filter(|v| {
                    matches!(
                        v,
                        drc::DrcViolation::LengthMismatch { .. }
                            | drc::DrcViolation::UnroutedStrip { .. }
                    )
                })
                .count();
            assert_eq!(report.exact_lengths(), strips - flagged, "{case}");
            if let Some(expected) = expected {
                assert_eq!(report.exact_lengths(), expected, "{case}");
            }
        }
    }

    #[test]
    fn comparison_row_collects_both_flows() {
        let circuit = benchmarks::small_circuit();
        let layout = Layout::from_witness(&circuit);
        let a = LayoutReport::new(&circuit.netlist, &layout, Duration::from_secs(3));
        let b = LayoutReport::new(&circuit.netlist, &layout, Duration::from_secs(1));
        let row = ComparisonRow::new(&circuit.netlist, "Manual", &a, "P-ILP", &b);
        assert_eq!(row.total_bends_a, row.total_bends_b);
        assert_eq!(row.num_microstrips, 5);
        assert_eq!(row.flow_a, "Manual");
        assert!(row.to_string().contains("max"));
    }
}
