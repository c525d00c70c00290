//! Pivot-count report for CI.
//!
//! Re-runs the solver benchmark workloads once each (no timing — the bench
//! gate owns wall-clock) and records the *work counters*: simplex pivots
//! (with the dual-engine subset and the bound flips applied by the
//! long-step dual ratio test) and from-scratch basis refactorisations per
//! workload, plus node counts for the branch-and-bound instances.
//! Wall-clock on shared runners is noisy; these counters are exact and
//! machine-independent, so a pricing or factorisation regression shows up
//! here even when the timing gate is drowned in noise. The per-pricing-rule
//! rows (`dantzig` vs `dse`) are the acceptance record for the dual
//! steepest-edge + bound-flipping refactor: the `dse` rows must keep their
//! dual-pivot counts well below the `dantzig` rows on the warm workloads.
//!
//! Usage: `cargo run --release -p rfic-bench --bin pivot_report
//! [-- --out <path>]` (default `target/pivot_report.txt`); CI diffs the
//! file against the committed `BENCH_pivots.txt` and uploads it next to
//! the bench JSON artifact. A change that moves a counter on purpose
//! re-records `BENCH_pivots.txt` with this bin.

use std::fmt::Write as _;

use rfic_bench::workloads::random_lp;
use rfic_lp::{PresolveConfig, PresolveStats, PricingRule};
use rfic_milp::{instances, SolveOptions};

/// The pricing rules reported side by side.
const RULES: [(PricingRule, &str); 2] = [
    (PricingRule::Dantzig, "dantzig"),
    (PricingRule::DualSteepestEdge, "dse"),
];

fn main() {
    let mut out_path = "target/pivot_report.txt".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(p) = args.next() {
                    out_path = p;
                }
            }
            "--help" | "-h" => {
                println!("pivot_report [--out <path>]");
                return;
            }
            other => {
                eprintln!("pivot_report: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let mut report = String::new();
    let _ = writeln!(report, "# solver pivot report (exact work counters)");
    let _ = writeln!(
        report,
        "# presolve columns: rows/cols/nonzeros removed, bound tightenings,"
    );
    let _ = writeln!(
        report,
        "# and the row-scaled matrix condition (max|a|/min|a|) before -> after equilibration"
    );
    let _ = writeln!(
        report,
        "# {:<46} {:>7}  {:>6}  {:>6}  {:>9}  {:>5}  {:>5} {:>5} {:>5} {:>6}  {:>17}",
        "benchmark",
        "pivots",
        "dual",
        "flips",
        "refactors",
        "nodes",
        "prows",
        "pcols",
        "pnnz",
        "ptight",
        "condition"
    );
    let mut line = |name: String,
                    pivots: usize,
                    dual: usize,
                    flips: usize,
                    refactorizations: usize,
                    nodes: Option<usize>,
                    pre: Option<&PresolveStats>| {
        let nodes = nodes.map(|n| n.to_string()).unwrap_or_else(|| "-".into());
        let (prows, pcols, pnnz, ptight, cond) = match pre {
            Some(p) => (
                p.rows_removed.to_string(),
                p.cols_removed.to_string(),
                p.nonzeros_removed.to_string(),
                p.bound_tightenings.to_string(),
                format!("{:.1}->{:.1}", p.condition_before, p.condition_after),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into(), "-".into()),
        };
        let _ = writeln!(
            report,
            "  {name:<46} {pivots:>7}  {dual:>6}  {flips:>6}  {refactorizations:>9}  {nodes:>5}  \
             {prows:>5} {pcols:>5} {pnnz:>5} {ptight:>6}  {cond:>17}"
        );
    };

    // Cold LP solves under every pricing rule. These workloads solve the
    // raw model, so the presolve columns report what a default presolve
    // pass *would* reduce on the same instance.
    for (vars, rows) in [(20usize, 15usize), (60, 40), (120, 80)] {
        let pre_stats = random_lp(vars, rows, 42)
            .presolve(&PresolveConfig::default(), None)
            .map(|p| p.stats)
            .ok();
        for (rule, name) in RULES {
            let mut lp = random_lp(vars, rows, 42);
            lp.set_pricing(rule);
            let s = lp.solve().expect("solvable");
            line(
                format!("lp_pricing/{name}_{vars}x{rows}"),
                s.iterations,
                s.dual_iterations,
                s.bound_flips,
                s.refactorizations,
                None,
                pre_stats.as_ref(),
            );
        }
    }

    // Warm LP re-solve after a branching-style bound change (the flow's
    // most frequent operation), under every pricing rule — the dual
    // engine is where the rules diverge.
    {
        let lp = random_lp(120, 80, 42);
        let pre_stats = lp
            .presolve(&PresolveConfig::default(), None)
            .map(|p| p.stats)
            .ok();
        let (base, basis) = lp.solve_warm(None).expect("base solve");
        let (branch, _) = base
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, (v - v.round()).abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("vars");
        for (rule, name) in RULES {
            let mut branched = lp.clone();
            branched.set_pricing(rule);
            branched.set_bounds(branch, 0.0, base.values[branch].floor().max(0.0));
            let (warm, _) = branched.solve_warm(Some(&basis)).expect("warm");
            line(
                format!("lp_warm_resolve/warm_120x80_{name}"),
                warm.iterations,
                warm.dual_iterations,
                warm.bound_flips,
                warm.refactorizations,
                None,
                pre_stats.as_ref(),
            );
        }
        let mut branched = lp.clone();
        branched.set_bounds(branch, 0.0, base.values[branch].floor().max(0.0));
        let cold = branched.solve().expect("cold");
        line(
            "lp_warm_resolve/cold_120x80".into(),
            cold.iterations,
            cold.dual_iterations,
            cold.bound_flips,
            cold.refactorizations,
            None,
            pre_stats.as_ref(),
        );
    }

    // Branch-and-bound knapsacks, warm and cold (counters aggregated over
    // every node/heuristic LP of the search; the presolve columns come
    // from the root presolve of each solve). Same pinned instances as the
    // timing benches.
    for items in [10usize, 20, 30] {
        let model = instances::bench_knapsack(items);
        for (opts, name) in [
            (SolveOptions::default(), "warm"),
            (SolveOptions::default().cold(), "cold"),
        ] {
            let s = model.solve(&opts).expect("solvable");
            line(
                format!("milp_warm_vs_cold/{name}_knapsack_{items}"),
                s.simplex_iterations,
                s.lp_dual_iterations,
                s.lp_bound_flips,
                s.lp_refactorizations,
                Some(s.nodes),
                Some(&s.presolve),
            );
        }
    }

    // Warm branch and bound per dual pricing rule: the acceptance
    // workload of the DSE refactor — on the all-binary knapsacks every
    // nonbasic is boxed, so the bound-flipping ratio test gets its best
    // case and the dual-pivot column is the headline number.
    for items in [20usize, 30] {
        let model = instances::bench_knapsack(items);
        for (rule, name) in RULES {
            let s = model
                .solve(&SolveOptions::default().with_pricing(rule))
                .expect("solvable");
            line(
                format!("milp_dual_pricing/{name}_knapsack_{items}"),
                s.simplex_iterations,
                s.lp_dual_iterations,
                s.lp_bound_flips,
                s.lp_refactorizations,
                Some(s.nodes),
                Some(&s.presolve),
            );
        }
    }

    print!("{report}");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("pivot_report: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("pivot_report: written to {out_path}");
}
