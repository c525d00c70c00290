//! Ablation benchmarks of the design choices called out in `DESIGN.md`:
//! chain-point budget, lazy overlap separation, the geometric legaliser and
//! Phase-1 single-strip solves.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rfic_core::{legalize_placements, IlpConfig, Layout, LayoutIlp, Placement};
use rfic_geom::Point;
use rfic_milp::SolveOptions;
use rfic_netlist::benchmarks;

fn bench_chain_point_budget(c: &mut Criterion) {
    let circuit = benchmarks::tiny_circuit();
    let netlist = circuit.netlist.clone();
    let base = Layout::from_witness(&circuit);
    let strip = netlist.microstrips()[0].id;
    let mut group = c.benchmark_group("ablation_chain_points_model_build");
    for n in [3usize, 5, 7, 9] {
        group.bench_function(format!("{n}_points"), |b| {
            b.iter_batched(
                || {
                    let mut config = IlpConfig::single_strip(strip);
                    config.chain_points.insert(strip, n);
                    config
                },
                |config| LayoutIlp::build(&netlist, config, &base).expect("build"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_blurred_vs_exact_phase(c: &mut Criterion) {
    let circuit = benchmarks::tiny_circuit();
    let netlist = circuit.netlist.clone();
    let base = Layout::from_witness(&circuit);
    let strip = netlist.microstrips()[0].id;
    let opts = SolveOptions::with_time_limit(Duration::from_secs(10));

    let mut group = c.benchmark_group("ablation_phase_style");
    group.sample_size(10);
    group.bench_function("blurred_soft_length", |b| {
        b.iter_batched(
            || {
                let mut config = IlpConfig::single_strip(strip);
                config.blur_devices = true;
                config.hard_length = false;
                config.chain_points.insert(strip, 4);
                LayoutIlp::build(&netlist, config, &Layout::new(netlist.area())).expect("build")
            },
            |ilp| ilp.solve(&opts).ok(),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("exact_pins_hard_length", |b| {
        b.iter_batched(
            || {
                let mut config = IlpConfig::single_strip(strip);
                config.chain_points.insert(strip, 4);
                LayoutIlp::build(&netlist, config, &base).expect("build")
            },
            |ilp| ilp.solve(&opts).ok(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_legalizer(c: &mut Criterion) {
    let circuit = benchmarks::small_circuit();
    let netlist = circuit.netlist.clone();
    let (aw, ah) = netlist.area();
    c.bench_function("ablation_legalize_stacked_placement", |b| {
        b.iter_batched(
            || {
                let mut layout = Layout::new(netlist.area());
                for device in netlist.devices() {
                    let center = if device.is_pad() {
                        Point::new(0.0, ah / 2.0)
                    } else {
                        Point::new(aw / 2.0, ah / 2.0)
                    };
                    layout.placements.insert(device.id, Placement::at(center));
                }
                layout
            },
            |mut layout| legalize_placements(&netlist, &mut layout, 400.0),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_chain_point_budget,
    bench_blurred_vs_exact_phase,
    bench_legalizer
);
criterion_main!(benches);
