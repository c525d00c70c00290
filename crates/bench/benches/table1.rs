//! Per-component benchmarks of the Table-1 experiment: benchmark-circuit
//! generation, the manual baseline, the sequential baseline, DRC checking
//! and report generation for each of the three published circuits.
//!
//! The full Table-1 reproduction (manual vs P-ILP at both area settings)
//! runs for minutes per circuit — like the paper's own runtime column — and
//! therefore lives in the `table1` binary rather than in Criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use rfic_baseline::{sequential_layout, SequentialOptions};
use rfic_core::{drc_check, DrcOptions, Layout, LayoutReport};
use rfic_netlist::benchmarks::BenchmarkCircuit;
use std::time::Duration;

fn bench_circuit_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_circuit_generation");
    for bench in BenchmarkCircuit::ALL {
        group.bench_function(bench.name().replace(' ', "_"), |b| {
            b.iter(|| bench.circuit());
        });
    }
    group.finish();
}

fn bench_manual_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_manual_baseline");
    for bench in BenchmarkCircuit::ALL {
        let circuit = bench.circuit();
        group.bench_function(bench.name().replace(' ', "_"), |b| {
            b.iter(|| {
                let layout = Layout::from_witness(&circuit);
                LayoutReport::new(&circuit.netlist, &layout, Duration::ZERO)
            });
        });
    }
    group.finish();
}

fn bench_sequential_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_sequential_baseline");
    group.sample_size(10);
    for bench in BenchmarkCircuit::ALL {
        let circuit = bench.circuit();
        group.bench_function(bench.name().replace(' ', "_"), |b| {
            b.iter(|| sequential_layout(&circuit.netlist, &SequentialOptions::default()));
        });
    }
    group.finish();
}

fn bench_drc(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_drc_check");
    for bench in BenchmarkCircuit::ALL {
        let circuit = bench.circuit();
        let layout = Layout::from_witness(&circuit);
        group.bench_function(bench.name().replace(' ', "_"), |b| {
            b.iter(|| drc_check(&circuit.netlist, &layout, &DrcOptions::default()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_circuit_generation,
    bench_manual_baseline,
    bench_sequential_baseline,
    bench_drc
);
criterion_main!(benches);
