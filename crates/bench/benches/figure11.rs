//! Benchmarks of the Figure-11 experiment components: the thin-film
//! microstrip model and the full S-parameter sweep of the two circuits the
//! paper simulates (94 GHz LNA and 60 GHz buffer).

use criterion::{criterion_group, criterion_main, Criterion};
use rfic_bench::run_figure11_series;
use rfic_core::Layout;
use rfic_em::{frequency_sweep, MicrostripModel};
use rfic_netlist::benchmarks::BenchmarkCircuit;
use rfic_netlist::Technology;

fn bench_microstrip_model(c: &mut Criterion) {
    let tech = Technology::cmos90();
    let model = MicrostripModel::from_technology(&tech);
    c.bench_function("figure11_microstrip_gamma_94ghz", |b| {
        b.iter(|| model.gamma(94.0));
    });
    c.bench_function("figure11_microstrip_line_abcd", |b| {
        b.iter(|| model.line(500.0, 94.0));
    });
}

fn bench_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure11_sweep");
    group.sample_size(20);
    for bench in [BenchmarkCircuit::Lna94Ghz, BenchmarkCircuit::Buffer60Ghz] {
        let circuit = bench.circuit();
        let layout = Layout::from_witness(&circuit);
        let f0 = bench.operating_frequency_ghz();
        group.bench_function(bench.name().replace(' ', "_"), |b| {
            b.iter(|| {
                run_figure11_series(
                    &circuit.netlist,
                    &layout,
                    "Manual",
                    f0,
                    bench == BenchmarkCircuit::Buffer60Ghz,
                )
            });
        });
    }
    group.finish();
}

fn bench_frequency_grid(c: &mut Criterion) {
    c.bench_function("figure11_frequency_grid", |b| {
        b.iter(|| frequency_sweep(75.0, 115.0, 201));
    });
}

criterion_group!(
    benches,
    bench_microstrip_model,
    bench_sweeps,
    bench_frequency_grid
);
criterion_main!(benches);
