//! The 60 GHz buffer benchmark: compares the manual-style baseline against
//! the sequential floorplan-then-route flow (prior-work style) and shows why
//! a non-concurrent flow cannot maintain the exact microstrip lengths.
//!
//! Run with `cargo run --release --example buffer_60ghz`.

use rfic_layout::baseline::{sequential_layout, SequentialOptions};
use rfic_layout::core::{drc_check, DrcOptions, Layout, LayoutReport};
use rfic_layout::em::{evaluate_layout, AmplifierSpec};
use rfic_layout::netlist::benchmarks::BenchmarkCircuit;
use std::time::Duration;

fn main() {
    let bench = BenchmarkCircuit::Buffer60Ghz;
    let circuit = bench.circuit();
    let netlist = &circuit.netlist;
    println!("{}", netlist);

    // Manual-style baseline: exact lengths, many bends.
    let manual = Layout::from_witness(&circuit);
    let manual_report = LayoutReport::new(netlist, &manual, Duration::from_secs(7 * 24 * 3600));
    println!(
        "\nmanual baseline:     total bends {:>3}, worst length error {:>8.3} µm, DRC {}",
        manual_report.total_bends,
        manual_report.max_length_error,
        if manual_report.drc_clean {
            "clean"
        } else {
            "violated"
        }
    );

    // Sequential floorplan-then-route baseline: planar, but lengths are
    // whatever the maze router produced.
    let sequential = sequential_layout(netlist, &SequentialOptions::default());
    let seq_report = LayoutReport::new(netlist, &sequential, Duration::from_secs(1));
    println!(
        "sequential baseline: total bends {:>3}, worst length error {:>8.3} µm, DRC {}",
        seq_report.total_bends,
        seq_report.max_length_error,
        if seq_report.drc_clean {
            "clean"
        } else {
            "violated"
        }
    );
    let drc = drc_check(netlist, &sequential, &DrcOptions::default());
    println!("sequential DRC violations: {}", drc.len());

    // The RF consequence of the unmatched lengths at 60 GHz.
    let spec = AmplifierSpec::buffer(60.0);
    let manual_gain = evaluate_layout(netlist, &manual, &spec, &[60.0])[0].s21_db;
    let seq_gain = evaluate_layout(netlist, &sequential, &spec, &[60.0])[0].s21_db;
    println!(
        "\ngain at 60 GHz: manual {:.2} dB vs sequential {:.2} dB (length mismatch detunes the matching networks)",
        manual_gain, seq_gain
    );
}
