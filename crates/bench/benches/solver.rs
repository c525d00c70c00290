//! Micro-benchmarks of the optimisation substrate (LP simplex, MILP branch
//! and bound, single-strip layout ILP). These are the building blocks whose
//! speed determines the Table-1 runtime column.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rfic_bench::workloads::random_lp;
use rfic_core::{IlpConfig, Layout, LayoutIlp, Placement};
use rfic_lp::PricingRule;
use rfic_milp::{instances, Model, SolveOptions};
use rfic_netlist::benchmarks;

/// The knapsack family of the solver benchmarks: the per-size pinned
/// seeded instances of [`rfic_milp::instances::bench_knapsack`], whose
/// difficulty is verified monotone in `items` (the mixed closed-form /
/// seeded curve this replaces inverted — `knapsack_20` benchmarked slower
/// than `knapsack_30` — once presolve collapsed the closed-form 30-item
/// model; see the `instances` docs).
fn knapsack_model(items: usize) -> Model {
    instances::bench_knapsack(items)
}

/// One basis column of [`bench_basis`]: a `(row, value)` list.
type Column = Vec<(usize, f64)>;

/// A seeded sparse diagonally-dominant basis of dimension `m` (about five
/// off-diagonal entries per column — the density of the layout bases),
/// plus eight `(position, entering column)` basis changes drawn from the
/// same stream.
fn bench_basis(m: usize, seed: u64) -> (Vec<Column>, Vec<(usize, Column)>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 2000) as f64 - 1000.0) / 250.0
    };
    // Bases of the layout LPs are slack-heavy: every separation row and
    // most bound rows keep their slack basic, so roughly half the basis
    // columns are singletons and the factors stay far sparser than a
    // random matrix of the same size. The synthetic basis mirrors that —
    // unit columns interleaved with diagonally dominant structural ones,
    // each anchored on its own row of a fixed permutation.
    let perm: Vec<usize> = {
        let mut rows: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            let j = ((next().abs() * 1e6) as usize) % (i + 1);
            rows.swap(i, j);
        }
        rows
    };
    let mut column = |k: usize| {
        let anchor = perm[k];
        if k.is_multiple_of(2) {
            return vec![(anchor, 1.0)];
        }
        let mut col: Vec<(usize, f64)> = vec![(anchor, 8.0 + next().abs())];
        for _ in 0..5 {
            let r = (next().abs() * 250.0) as usize % m;
            if r != anchor {
                col.push((r, next()));
            }
        }
        col.sort_unstable_by_key(|&(r, _)| r);
        col.dedup_by_key(|&mut (r, _)| r);
        col
    };
    let columns: Vec<Column> = (0..m).map(&mut column).collect();
    let updates = (0..8)
        .map(|step| {
            let pos = (step * 7 + 3) % m;
            (pos, column(pos))
        })
        .collect();
    (columns, updates)
}

/// The factorisation of [`bench_basis`] with its basis changes absorbed
/// as Forrest–Tomlin updates, so the solve kernels run with a realistic
/// eta file and rotated pivot order.
fn bench_factorization(m: usize, seed: u64) -> rfic_lp::bench_support::Factorization {
    let (columns, updates) = bench_basis(m, seed);
    let mut f = rfic_lp::bench_support::Factorization::factorize(m, &columns)
        .expect("diagonally dominant basis");
    for (pos, entering) in updates {
        let mut w = vec![0.0; m];
        for (r, v) in entering {
            w[r] = v;
        }
        f.ftran(&mut w);
        assert!(f.update(pos, &w), "update refused on a dominant basis");
    }
    f
}

/// Triangular-solve calls per timed sample: a single FTRAN/BTRAN runs in
/// ~1µs, the same order as the timer quantisation, so each sample times a
/// fixed batch and the reported figure is the per-batch aggregate.
const SOLVES_PER_SAMPLE: usize = 64;

fn bench_lp_factorize(c: &mut Criterion) {
    // The from-scratch LU factorisation every refactorisation pays: at
    // m = 223 the size of the larger layout node LPs' bases, whose unit
    // (slack) columns the reach-only elimination lets skip the earlier
    // steps they never touch.
    let mut group = c.benchmark_group("lp_factorize");
    group.sample_size(300);
    for m in [60usize, 223] {
        let (columns, _) = bench_basis(m, 0x5EED_FAC7);
        group.bench_function(format!("layout_{m}"), |b| {
            b.iter(|| {
                rfic_lp::bench_support::Factorization::factorize(m, &columns)
                    .expect("diagonally dominant basis")
            });
        });
    }
    group.finish();
}

fn bench_lp_ftran(c: &mut Criterion) {
    // The FTRAN kernel in isolation: the L replay, eta file and U
    // back-substitution that every simplex pivot pays at least once. The
    // sparse case (an entering column with a handful of non-zeros) is the
    // common one — it is what the zero-skip in the back-substitution is
    // for; the dense case bounds the worst-case right-hand side.
    let mut group = c.benchmark_group("lp_ftran");
    group.sample_size(300);
    for m in [60usize, 160] {
        let mut f = bench_factorization(m, 0x5EED_F17A);
        let mut sparse = vec![0.0; m];
        for k in 0..4 {
            sparse[(k * 17 + 5) % m] = 1.0 + k as f64;
        }
        let dense: Vec<f64> = (0..m).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let mut buf = vec![0.0; m];
        group.bench_function(format!("sparse_{m}"), |b| {
            b.iter(|| {
                for _ in 0..SOLVES_PER_SAMPLE {
                    buf.copy_from_slice(&sparse);
                    f.ftran_aux(&mut buf);
                }
            });
        });
        group.bench_function(format!("dense_{m}"), |b| {
            b.iter(|| {
                for _ in 0..SOLVES_PER_SAMPLE {
                    buf.copy_from_slice(&dense);
                    f.ftran_aux(&mut buf);
                }
            });
        });
    }
    group.finish();
}

fn bench_lp_btran(c: &mut Criterion) {
    // The BTRAN kernels: the general cost-vector solve (dual values at
    // reinversion) and the unit solve of pricing updates — by far the
    // most frequent, one per dual pivot. Both spend their time in the Uᵀ
    // forward solve and the transposed elimination tail the
    // accumulator-skip optimisations target.
    let mut group = c.benchmark_group("lp_btran");
    group.sample_size(300);
    for m in [60usize, 160] {
        let mut f = bench_factorization(m, 0x5EED_B77A);
        let mut cost = vec![0.0; m];
        for k in 0..6 {
            cost[(k * 23 + 2) % m] = (k as f64) - 2.5;
        }
        let mut buf = vec![0.0; m];
        let mut out = vec![0.0; m];
        group.bench_function(format!("cost_{m}"), |b| {
            b.iter(|| {
                for _ in 0..SOLVES_PER_SAMPLE {
                    buf.copy_from_slice(&cost);
                    f.btran(&mut buf);
                }
            });
        });
        // Rotate the unit position so the measurement averages shallow and
        // deep pivot rows instead of over-fitting one dependency chain.
        let positions = [m / 6, m / 3, m / 2, (2 * m) / 3];
        group.bench_function(format!("unit_{m}"), |b| {
            b.iter(|| {
                for k in 0..SOLVES_PER_SAMPLE {
                    f.btran_unit(positions[k % positions.len()], &mut out);
                }
            });
        });
    }
    group.finish();
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_simplex");
    for (vars, rows) in [(20, 15), (60, 40), (120, 80)] {
        group.bench_function(format!("revised_{vars}x{rows}"), |b| {
            let lp = random_lp(vars, rows, 42);
            b.iter(|| lp.solve().expect("solvable"));
        });
        group.bench_function(format!("dense_oracle_{vars}x{rows}"), |b| {
            let lp = random_lp(vars, rows, 42);
            b.iter(|| lp.solve_dense().expect("solvable"));
        });
    }
    group.finish();
}

fn bench_lp_pricing(c: &mut Criterion) {
    // The plain Dantzig rule (the fallback ladder's rung) on the largest
    // cold-solve instance. A cold solve runs the primal, which prices the
    // same under both rules, so this row differs from
    // `lp_simplex/revised_120x80` only by the dual steepest-edge weight
    // bookkeeping the default pays.
    let mut group = c.benchmark_group("lp_pricing");
    group.bench_function("dantzig_120x80", |b| {
        let mut lp = random_lp(120, 80, 42);
        lp.set_pricing(PricingRule::Dantzig);
        b.iter(|| lp.solve().expect("solvable"));
    });
    group.finish();
}

fn bench_lp_dual_resolve(c: &mut Criterion) {
    // The dual re-solve head-to-head the DSE refactor is judged by: the
    // same branched 120x80 instance as `lp_warm_resolve`, re-solved warm
    // under the pinned Dantzig dual (max-violation leaving row, textbook
    // ratio test) and under dual steepest-edge (δ²/β leaving rule plus
    // the bound-flipping long-step ratio test).
    let mut group = c.benchmark_group("lp_dual_resolve");
    for (rule, name) in [
        (PricingRule::Dantzig, "dantzig"),
        (PricingRule::DualSteepestEdge, "dse"),
    ] {
        let mut lp = random_lp(120, 80, 42);
        lp.set_pricing(rule);
        let (base, basis) = lp.solve_warm(None).expect("base solve");
        let (branch, _) = base
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, (v - v.round()).abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("vars");
        let mut branched = lp.clone();
        branched.set_bounds(branch, 0.0, base.values[branch].floor().max(0.0));
        let (warm, _) = branched.solve_warm(Some(&basis)).expect("warm");
        println!(
            "bench-info: lp_dual_resolve/{name}_120x80: {} pivots ({} dual, {} bound flips)",
            warm.iterations, warm.dual_iterations, warm.bound_flips
        );
        group.bench_function(format!("{name}_120x80"), |b| {
            b.iter(|| branched.solve_warm(Some(&basis)).expect("warm"));
        });
    }
    group.finish();
}

fn bench_lp_presolve(c: &mut Criterion) {
    // The presolve layer head-to-head: what a presolve pass costs, and
    // what the reduced model saves on the largest cold-solve instance.
    // `presolved_120x80` measures the reduced-model solve plus postsolve
    // (presolve applied once in setup) — the amortised shape of the MILP
    // usage, where one root presolve serves the whole tree.
    let mut group = c.benchmark_group("lp_presolve");
    let lp = random_lp(120, 80, 42);
    let config = rfic_lp::PresolveConfig::default();
    let pre = lp.presolve(&config, None).expect("presolve");
    let raw = lp.solve().expect("raw solve");
    let red = pre.lp.solve().expect("reduced solve");
    let restored = pre.postsolve.restore_solution(&red);
    assert!(
        (restored.objective - raw.objective).abs() <= 1e-6 * (1.0 + raw.objective.abs()),
        "presolve changed the optimum: {} vs {}",
        restored.objective,
        raw.objective
    );
    println!(
        "bench-info: lp_presolve/presolved_120x80: {} rows, {} cols, {} nonzeros removed, \
         {} bound tightenings, condition {:.1} -> {:.1}, iterations {} vs {} raw",
        pre.stats.rows_removed,
        pre.stats.cols_removed,
        pre.stats.nonzeros_removed,
        pre.stats.bound_tightenings,
        pre.stats.condition_before,
        pre.stats.condition_after,
        red.iterations,
        raw.iterations
    );
    group.bench_function("presolve_120x80", |b| {
        b.iter(|| lp.presolve(&config, None).expect("presolve"));
    });
    group.bench_function("raw_120x80", |b| {
        b.iter(|| lp.solve().expect("raw"));
    });
    group.bench_function("presolved_120x80", |b| {
        b.iter(|| {
            let solution = pre.lp.solve().expect("reduced");
            pre.postsolve.restore_solution(&solution)
        });
    });
    group.finish();
}

fn bench_lp_warm_resolve(c: &mut Criterion) {
    // Warm vs cold re-solve after a branching-style bound change — the
    // single most frequent operation of the whole layout flow.
    let mut group = c.benchmark_group("lp_warm_resolve");
    for (vars, rows) in [(20, 15), (60, 40), (120, 80)] {
        let lp = random_lp(vars, rows, 42);
        let (base, basis) = lp.solve_warm(None).expect("base solve");
        // Tighten the most fractional variable to its floor (a B&B branch).
        let (branch, _) = base
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, (v - v.round()).abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("vars");
        let mut branched = lp.clone();
        branched.set_bounds(branch, 0.0, base.values[branch].floor().max(0.0));

        group.bench_function(format!("warm_{vars}x{rows}"), |b| {
            b.iter(|| branched.solve_warm(Some(&basis)).expect("warm"));
        });
        group.bench_function(format!("cold_{vars}x{rows}"), |b| {
            b.iter(|| branched.solve().expect("cold"));
        });
    }
    group.finish();
}

fn bench_milp_warm_vs_cold(c: &mut Criterion) {
    // Warm-started B&B (nodes re-enter from the parent basis through the
    // dual simplex) vs cold-starting every node LP, on the same knapsacks.
    let mut group = c.benchmark_group("milp_warm_vs_cold");
    for items in [10usize, 20, 30] {
        let model = knapsack_model(items);
        let warm_opts = SolveOptions::default();
        let cold_opts = SolveOptions::default().cold();
        // Identical optima are asserted here so the benchmark doubles as an
        // equivalence check; the pivot counts are what the bench reports.
        let warm = model.solve(&warm_opts).expect("warm");
        let cold = model.solve(&cold_opts).expect("cold");
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "knapsack_{items}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        println!(
            "bench-info: milp_warm_vs_cold/knapsack_{items}: simplex iterations warm {} vs cold {}",
            warm.simplex_iterations, cold.simplex_iterations
        );
        group.bench_function(format!("warm_knapsack_{items}"), |b| {
            b.iter(|| model.solve(&warm_opts).expect("solvable"));
        });
        group.bench_function(format!("cold_knapsack_{items}"), |b| {
            b.iter(|| model.solve(&cold_opts).expect("solvable"));
        });
    }
    group.finish();
}

fn bench_milp(c: &mut Criterion) {
    // The headline branch-and-bound scaling curve, run the way the flow's
    // acceptance criterion demands: four workers.
    let mut group = c.benchmark_group("milp_branch_and_bound");
    for items in [10usize, 20, 30] {
        group.bench_function(format!("knapsack_{items}"), |b| {
            let model = knapsack_model(items);
            let opts = SolveOptions::default().with_threads(4);
            b.iter(|| model.solve(&opts).expect("solvable"));
        });
    }
    group.finish();
}

fn bench_milp_parallel(c: &mut Criterion) {
    // Thread-count sweep on the largest knapsack: tracks the overhead (or
    // speedup) of the shared node pool relative to the one-thread dive.
    let mut group = c.benchmark_group("milp_parallel");
    let model = knapsack_model(30);
    for threads in [1usize, 2, 4] {
        let opts = SolveOptions::default().with_threads(threads);
        let reference = model.solve(&opts).expect("solvable");
        assert_eq!(reference.status, rfic_milp::SolveStatus::Optimal);
        group.bench_function(format!("knapsack_30_t{threads}"), |b| {
            b.iter(|| model.solve(&opts).expect("solvable"));
        });
    }
    group.finish();
}

fn bench_milp_dual_pricing(c: &mut Criterion) {
    // Warm branch-and-bound under the pinned Dantzig dual vs dual
    // steepest-edge: every node re-solve enters through the dual engine,
    // so this workload measures exactly the path the DSE leaving rule and
    // the bound-flipping ratio test accelerate (on all-binary knapsacks
    // every nonbasic is boxed — the long-step test's best case).
    let mut group = c.benchmark_group("milp_dual_pricing");
    let model = knapsack_model(30);
    for (rule, name) in [
        (PricingRule::Dantzig, "dantzig"),
        (PricingRule::DualSteepestEdge, "dse"),
    ] {
        let opts = SolveOptions::default().with_pricing(rule);
        let reference = model.solve(&opts).expect("solvable");
        assert_eq!(reference.status, rfic_milp::SolveStatus::Optimal);
        println!(
            "bench-info: milp_dual_pricing/knapsack_30_{name}: {} pivots ({} dual, {} bound flips), {} nodes",
            reference.simplex_iterations,
            reference.lp_dual_iterations,
            reference.lp_bound_flips,
            reference.nodes
        );
        group.bench_function(format!("knapsack_30_{name}"), |b| {
            b.iter(|| model.solve(&opts).expect("solvable"));
        });
    }
    group.finish();
}

fn bench_strip_ilp(c: &mut Criterion) {
    let circuit = benchmarks::tiny_circuit();
    let netlist = circuit.netlist.clone();
    let base = Layout {
        area: netlist.area(),
        placements: circuit
            .witness
            .placements
            .iter()
            .map(|(&id, &(p, r))| {
                (
                    id,
                    Placement {
                        center: p,
                        rotation: r,
                    },
                )
            })
            .collect(),
        routes: circuit.witness.routes.clone(),
    };
    let strip = netlist.microstrips()[0].id;

    let mut group = c.benchmark_group("layout_ilp");
    group.sample_size(10);
    group.bench_function("build_single_strip_model", |b| {
        b.iter_batched(
            || IlpConfig::single_strip(strip),
            |config| LayoutIlp::build(&netlist, config, &base).expect("build"),
            BatchSize::SmallInput,
        );
    });
    // The layout engine's own solver configuration (most-fractional
    // branching, dual steepest-edge pricing, the flow's presolve pin of
    // unconditional scaling — see `Pilp::solve_options`), with the
    // four-worker pool of the acceptance criterion.
    let mut solve_opts = SolveOptions::with_time_limit(Duration::from_secs(10)).with_threads(4);
    solve_opts.presolve = rfic_milp::PresolveConfig {
        scale_trigger: 0.0,
        ..rfic_milp::PresolveConfig::default()
    };
    // Log how far presolve shrinks the layout model — the reduction the
    // flow-level acceptance criterion asks to see on this workload.
    {
        let mut config = IlpConfig::single_strip(strip);
        config.chain_points.insert(strip, 4);
        let ilp = LayoutIlp::build(&netlist, config, &base).expect("build");
        if let Ok(outcome) = ilp.solve(&solve_opts) {
            let stats = &outcome.solution.presolve;
            println!(
                "bench-info: layout_ilp/solve_single_strip_exact_length: presolve removed \
                 {} rows, {} cols, {} nonzeros ({} bound tightenings) from {}x{}",
                stats.rows_removed,
                stats.cols_removed,
                stats.nonzeros_removed,
                stats.bound_tightenings,
                ilp.num_constraints(),
                ilp.num_vars()
            );
        }
    }
    group.bench_function("solve_single_strip_exact_length", |b| {
        b.iter_batched(
            || {
                let mut config = IlpConfig::single_strip(strip);
                config.chain_points.insert(strip, 4);
                LayoutIlp::build(&netlist, config, &base).expect("build")
            },
            |ilp| ilp.solve(&solve_opts).ok(),
            BatchSize::SmallInput,
        );
    });
    // The same strip solved on the raw relaxation (presolve off): the
    // presolved-vs-raw head-to-head at the layout-model level.
    let raw_opts = solve_opts.clone().without_presolve();
    group.bench_function("solve_single_strip_raw", |b| {
        b.iter_batched(
            || {
                let mut config = IlpConfig::single_strip(strip);
                config.chain_points.insert(strip, 4);
                LayoutIlp::build(&netlist, config, &base).expect("build")
            },
            |ilp| ilp.solve(&raw_opts).ok(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lp,
    bench_lp_factorize,
    bench_lp_ftran,
    bench_lp_btran,
    bench_lp_pricing,
    bench_lp_dual_resolve,
    bench_lp_presolve,
    bench_lp_warm_resolve,
    bench_milp,
    bench_milp_parallel,
    bench_milp_warm_vs_cold,
    bench_milp_dual_pricing,
    bench_strip_ilp
);
criterion_main!(benches);
