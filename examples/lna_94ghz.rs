//! The 94 GHz LNA benchmark circuit: inspect the generated netlist, evaluate
//! the manual-style baseline and (optionally) run the full P-ILP flow on it.
//!
//! Run with `cargo run --release --example lna_94ghz` for the baseline
//! analysis, or `cargo run --release --example lna_94ghz -- --full` to also
//! run the complete P-ILP layout generation (several minutes, comparable to
//! the runtime column of Table 1).

use std::time::Duration;

use rfic_layout::baseline::manual::manual_report;
use rfic_layout::core::{Layout, Pilp, PilpConfig};
use rfic_layout::em::{evaluate_layout, frequency_sweep, AmplifierSpec};
use rfic_layout::netlist::benchmarks::{AreaSetting, BenchmarkCircuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = BenchmarkCircuit::Lna94Ghz;
    let circuit = bench.circuit();
    let stats = circuit.netlist.stats();
    println!(
        "{}: {} microstrips, {} devices, {} pads, area {:.0} x {:.0} µm (reduced setting {:.0} x {:.0})",
        bench,
        stats.num_microstrips,
        stats.num_devices,
        stats.num_pads,
        stats.area_width,
        stats.area_height,
        bench.area(AreaSetting::Reduced).0,
        bench.area(AreaSetting::Reduced).1,
    );

    // Manual-style baseline (the meander-heavy witness layout).
    let manual = manual_report(&circuit, 2);
    println!(
        "\nmanual baseline: max bends {}, total bends {}",
        manual.max_bends, manual.total_bends
    );

    // RF evaluation of the manual layout around 94 GHz.
    let layout = Layout::from_witness(&circuit);
    let spec = AmplifierSpec::lna(bench.operating_frequency_ghz());
    let sweep = evaluate_layout(
        &circuit.netlist,
        &layout,
        &spec,
        &frequency_sweep(80.0, 108.0, 15),
    );
    println!("\nfreq (GHz)   S11 (dB)   S21 (dB)   S22 (dB)");
    for p in &sweep {
        println!(
            "{:>9.1} {:>10.2} {:>10.2} {:>10.2}",
            p.freq_ghz, p.s11_db, p.s21_db, p.s22_db
        );
    }

    if std::env::args().any(|a| a == "--full") {
        println!("\nrunning the full P-ILP flow (this takes several minutes) ...");
        let config = PilpConfig {
            solve_time_limit: Duration::from_secs(15),
            // Parallel node search for the big refinement MILPs, and a
            // larger per-solve budget for Phase 3 only (routing stays on
            // the default budget — its many blurred solves are cheap).
            solver_threads: 0, // all available cores
            phase_budgets: rfic_layout::core::PhaseBudgets {
                refinement: Some(Duration::from_secs(30)),
                ..Default::default()
            },
            ..PilpConfig::thorough()
        };
        let result = Pilp::new(config).run(&circuit.netlist)?;
        println!("{}", result.report());
        println!(
            "P-ILP vs manual: total bends {} vs {}, runtime {:.1?} vs > 2 weeks",
            result.layout.total_bends(),
            layout.total_bends(),
            result.runtime
        );
    } else {
        println!("\n(pass --full to run the complete P-ILP layout generation on this circuit)");
    }
    Ok(())
}
