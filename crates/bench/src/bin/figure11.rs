//! Regenerates Figure 11 of the paper: S11/S21/S22 versus frequency of the
//! manual layout and the P-ILP layout for the 94 GHz LNA and the 60 GHz
//! buffer, plus the headline gain-at-f0 comparison.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rfic-bench --bin figure11            # full circuits (runs P-ILP)
//! cargo run --release -p rfic-bench --bin figure11 -- --quick # small circuit, fast P-ILP
//! ```

use rfic_baseline::reference::published_figure11_gains;
use rfic_bench::{run_figure11_series, Effort};
use rfic_core::{Layout, Pilp};
use rfic_netlist::benchmarks::{self, BenchmarkCircuit};

fn main() {
    let effort = Effort::from_args(std::env::args().skip(1));
    let config = effort.pilp_config();

    let cases: Vec<(rfic_netlist::generator::GeneratedCircuit, f64, bool, &str)> = match effort {
        Effort::Quick => vec![(
            benchmarks::small_circuit(),
            60.0,
            false,
            "small test amplifier",
        )],
        Effort::Full => vec![
            (
                BenchmarkCircuit::Lna94Ghz.circuit(),
                94.0,
                false,
                "94 GHz LNA",
            ),
            (
                BenchmarkCircuit::Buffer60Ghz.circuit(),
                60.0,
                true,
                "60 GHz Buffer",
            ),
        ],
    };

    for (circuit, f0, is_buffer, name) in cases {
        println!("=== Figure 11: {name} (f0 = {f0} GHz) ===");
        let manual = Layout::from_witness(&circuit);
        let manual_series = run_figure11_series(&circuit.netlist, &manual, "Manual", f0, is_buffer);

        eprintln!("running P-ILP on {name} ...");
        let pilp_layout = match Pilp::new(config.clone()).run(&circuit.netlist) {
            Ok(result) => result.layout,
            Err(e) => {
                eprintln!("P-ILP failed ({e}); falling back to the manual layout for the sweep");
                manual.clone()
            }
        };
        let pilp_series =
            run_figure11_series(&circuit.netlist, &pilp_layout, "P-ILP", f0, is_buffer);

        println!("freq_ghz  manual_s11  manual_s21  manual_s22  pilp_s11  pilp_s21  pilp_s22");
        for (m, p) in manual_series.points.iter().zip(&pilp_series.points) {
            println!(
                "{:>8.2}  {:>10.2}  {:>10.2}  {:>10.2}  {:>8.2}  {:>8.2}  {:>8.2}",
                m.freq_ghz, m.s11_db, m.s21_db, m.s22_db, p.s11_db, p.s21_db, p.s22_db
            );
        }
        println!(
            "\nGain at f0: manual {:.3} dB, P-ILP {:.3} dB (Δ {:+.3} dB); manual bends {}, P-ILP bends {}\n",
            manual_series.gain_at_f0_db,
            pilp_series.gain_at_f0_db,
            pilp_series.gain_at_f0_db - manual_series.gain_at_f0_db,
            manual.total_bends(),
            pilp_layout.total_bends(),
        );
    }

    println!("=== Published Figure 11 headline gains (paper) ===");
    for (name, manual, pilp) in published_figure11_gains() {
        println!("{name}: manual {manual} dB, P-ILP {pilp} dB");
    }
}
