//! Benchmark harness reproducing the evaluation of the DAC 2016 paper.
//!
//! * `cargo run --release -p rfic-bench --bin table1 [-- --quick]` —
//!   regenerates **Table 1** (max/total bend numbers and runtime, Manual vs
//!   P-ILP, two area settings per circuit).
//! * `cargo run --release -p rfic-bench --bin figure11 [-- --quick]` —
//!   regenerates the **Figure 11** S-parameter comparison.
//! * `cargo run --release -p rfic-bench --bin flow_snapshots` — per-phase
//!   layout snapshots (the qualitative Figure 7).
//! * `cargo run --release -p rfic-bench --bin ablations` — extra ablation
//!   sweeps (chain-point budget, window size τ_d).
//! * `cargo bench -p rfic-bench` — Criterion micro-benchmarks of every
//!   experiment component (solver, model building, baselines, EM sweep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod workloads;

use std::time::Duration;

use rfic_baseline::manual::manual_report;
use rfic_core::{ComparisonRow, Layout, LayoutReport, Pilp, PilpConfig};
use rfic_em::{evaluate_layout, frequency_sweep, AmplifierSpec, SweepPoint};
use rfic_netlist::benchmarks::{AreaSetting, BenchmarkCircuit};
use rfic_netlist::generator::GeneratedCircuit;
use rfic_netlist::Netlist;

/// How much effort the harness invests per circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small circuits and fast P-ILP settings; finishes in a couple of
    /// minutes and is used by CI and `--quick`.
    Quick,
    /// The full benchmark circuits with thorough P-ILP settings (runtimes
    /// comparable to the paper's minutes-per-circuit).
    Full,
}

impl Effort {
    /// Parses `--quick` style command-line arguments.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Effort {
        if args.into_iter().any(|a| a == "--quick" || a == "-q") {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// The P-ILP configuration for this effort level.
    pub fn pilp_config(self) -> PilpConfig {
        match self {
            Effort::Quick => PilpConfig::fast(),
            Effort::Full => PilpConfig::thorough(),
        }
    }
}

/// One regenerated row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Which circuit.
    pub circuit: String,
    /// Which area setting.
    pub setting: AreaSetting,
    /// The comparison between the manual baseline and P-ILP.
    pub comparison: ComparisonRow,
    /// P-ILP layout report (for length-matching/DRC columns).
    pub pilp_report: LayoutReport,
}

/// Runs one Table-1 row: manual baseline vs P-ILP for `circuit` at
/// `setting`.
pub fn run_table1_row(
    circuit: &GeneratedCircuit,
    setting: AreaSetting,
    area: (f64, f64),
    config: &PilpConfig,
    manual_weeks: u32,
) -> Table1Row {
    let netlist = circuit.netlist.with_area(area.0, area.1);
    let manual = manual_report(circuit, manual_weeks);
    let pilp = Pilp::new(config.clone())
        .run(&netlist)
        .map(|result| result.report().clone())
        .unwrap_or_else(|_| {
            // An irrecoverable failure still produces a (bad) report so the
            // table can be printed; the DRC column will show it.
            LayoutReport::new(&netlist, &Layout::new(netlist.area()), Duration::ZERO)
        });
    let comparison = ComparisonRow::new(&netlist, "Manual", &manual, "P-ILP", &pilp);
    Table1Row {
        circuit: netlist.name().to_owned(),
        setting,
        comparison,
        pilp_report: pilp,
    }
}

/// One benchmark entry: the circuit, its area settings (setting plus the
/// concrete `(width, height)`), and the number of "manual weeks" attributed
/// to it.
pub type CircuitEntry = (GeneratedCircuit, Vec<(AreaSetting, (f64, f64))>, u32);

/// The circuits exercised at a given effort level, with their area settings
/// and the number of "manual weeks" attributed to each (per the paper:
/// 2 weeks for the 94 GHz LNA, 1 week for the others).
pub fn circuits_for(effort: Effort) -> Vec<CircuitEntry> {
    match effort {
        Effort::Quick => vec![
            (
                rfic_netlist::benchmarks::tiny_circuit(),
                vec![(AreaSetting::Original, (380.0, 320.0))],
                1,
            ),
            (
                rfic_netlist::benchmarks::small_circuit(),
                vec![(AreaSetting::Original, (420.0, 360.0))],
                1,
            ),
        ],
        Effort::Full => BenchmarkCircuit::ALL
            .iter()
            .map(|&bench| {
                let weeks = if bench == BenchmarkCircuit::Lna94Ghz {
                    2
                } else {
                    1
                };
                (
                    bench.circuit(),
                    AreaSetting::ALL
                        .iter()
                        .map(|&s| (s, bench.area(s)))
                        .collect(),
                    weeks,
                )
            })
            .collect(),
    }
}

/// One evaluated flow of the Figure-11 comparison.
#[derive(Debug, Clone)]
pub struct Figure11Series {
    /// Flow label ("Manual" or "P-ILP").
    pub flow: String,
    /// Swept S-parameters.
    pub points: Vec<SweepPoint>,
    /// Gain at the operating frequency, dB.
    pub gain_at_f0_db: f64,
}

/// Runs the Figure-11 style sweep of a layout.
pub fn run_figure11_series(
    netlist: &Netlist,
    layout: &Layout,
    flow: &str,
    f0_ghz: f64,
    is_buffer: bool,
) -> Figure11Series {
    let spec = if is_buffer {
        AmplifierSpec::buffer(f0_ghz)
    } else {
        AmplifierSpec::lna(f0_ghz)
    };
    let freqs = frequency_sweep(f0_ghz * 0.8, f0_ghz * 1.2, 41);
    let points = evaluate_layout(netlist, layout, &spec, &freqs);
    let gain_at_f0_db = evaluate_layout(netlist, layout, &spec, &[f0_ghz])[0].s21_db;
    Figure11Series {
        flow: flow.to_owned(),
        points,
        gain_at_f0_db,
    }
}

/// Formats the regenerated Table 1 as plain text.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Circuit                  Area (µm)        | Max bends     | Total bends   | Runtime                 | P-ILP ΔL_max   DRC\n",
    );
    out.push_str(
        "                                          | Manual  P-ILP | Manual  P-ILP | Manual       P-ILP      |\n",
    );
    for row in rows {
        let c = &row.comparison;
        out.push_str(&format!(
            "{:<24} {:>4.0}x{:<5.0} ({:<3})   | {:>6}  {:>5} | {:>6}  {:>5} | {:>9}  {:>10.1?} | {:>9.3} µm   {}\n",
            row.circuit,
            c.area.0,
            c.area.1,
            match row.setting {
                AreaSetting::Original => "org",
                AreaSetting::Reduced => "red",
            },
            c.max_bends_a,
            c.max_bends_b,
            c.total_bends_a,
            c.total_bends_b,
            format!("> {} week", (c.runtime_a.as_secs() / (7 * 24 * 3600)).max(1)),
            c.runtime_b,
            row.pilp_report.max_length_error,
            if row.pilp_report.drc_clean { "clean" } else { "VIOLATIONS" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_parsing() {
        assert_eq!(Effort::from_args(vec!["--quick".to_owned()]), Effort::Quick);
        assert_eq!(Effort::from_args(vec!["-q".to_owned()]), Effort::Quick);
        assert_eq!(Effort::from_args(Vec::<String>::new()), Effort::Full);
        assert!(
            Effort::Quick.pilp_config().solve_time_limit
                <= Effort::Full.pilp_config().solve_time_limit
        );
    }

    #[test]
    fn quick_circuit_list_is_small() {
        let quick = circuits_for(Effort::Quick);
        assert_eq!(quick.len(), 2);
        let full = circuits_for(Effort::Full);
        assert_eq!(full.len(), 3);
        assert_eq!(
            full[0].1.len(),
            2,
            "two area settings per benchmark circuit"
        );
    }

    #[test]
    fn figure11_series_evaluates_the_manual_layout() {
        let circuit = rfic_netlist::benchmarks::small_circuit();
        let layout = Layout::from_witness(&circuit);
        let series = run_figure11_series(&circuit.netlist, &layout, "Manual", 60.0, false);
        assert_eq!(series.points.len(), 41);
        assert!(series.gain_at_f0_db.is_finite());
        assert_eq!(series.flow, "Manual");
    }

    #[test]
    fn table1_formatting_contains_the_flows() {
        let circuit = rfic_netlist::benchmarks::tiny_circuit();
        let row = run_table1_row(
            &circuit,
            AreaSetting::Original,
            circuit.netlist.area(),
            &PilpConfig {
                max_refine_iters: 1,
                max_separation_rounds: 1,
                solve_time_limit: Duration::from_millis(600),
                try_rotations: false,
                ..PilpConfig::fast()
            },
            1,
        );
        let text = format_table1(&[row]);
        assert!(text.contains("Manual"));
        assert!(text.contains("P-ILP"));
        assert!(text.contains("tiny"));
    }
}
