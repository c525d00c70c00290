//! Benchmark-regression gate: parse `BENCH_solver.json`-style measurement
//! files and diff a fresh run against the committed baseline.
//!
//! The CI `bench-gate` step re-runs the solver micro-benchmarks, records
//! them via the criterion stub's `RFIC_BENCH_JSON` hook, and fails the job
//! when any benchmark regresses by more than the threshold (30 % by
//! default) against the committed baseline — so a speed win landed by one
//! PR cannot silently rot in the next. The compared statistic is the
//! **per-iteration minimum** (noise on shared runners only ever adds
//! time); an absolute floor additionally exempts differences of a couple
//! of microseconds, which are timer jitter, not a lost optimisation.

use std::fmt;

use rfic_core::{PilpResult, SolverTotals};
use rfic_netlist::json::{self, Json};

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id (`group/name`).
    pub name: String,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Minimum per-iteration time, nanoseconds. This is what the gate
    /// compares: noise — host steal, scheduler jitter — only ever *adds*
    /// time, so the minimum tracks the true compute cost while the mean
    /// swings wildly on shared runners.
    pub min_ns: f64,
    /// Number of measured iterations.
    pub iterations: u64,
}

/// Outcome of one baseline/current pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Benchmark id.
    pub name: String,
    /// Baseline per-iteration minimum, ns.
    pub baseline_ns: f64,
    /// Current per-iteration minimum, ns.
    pub current_ns: f64,
    /// `current / baseline` ratio.
    pub ratio: f64,
}

impl GateEntry {
    fn change_pct(&self) -> f64 {
        (self.ratio - 1.0) * 100.0
    }
}

impl fmt::Display for GateEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<55} {:>12.1} -> {:>12.1} ns  ({:+7.1} %)",
            self.name,
            self.baseline_ns,
            self.current_ns,
            self.change_pct()
        )
    }
}

/// Result of gating a current run against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Benchmarks that regressed beyond the threshold.
    pub regressions: Vec<GateEntry>,
    /// Benchmarks compared and within bounds.
    pub passed: Vec<GateEntry>,
    /// Baseline benchmarks absent from the current run (a silently dropped
    /// benchmark also fails the gate).
    pub missing: Vec<String>,
    /// Current benchmarks not yet in the baseline (informational).
    pub added: Vec<String>,
    /// Baseline benchmarks excluded from comparison by the runner (the
    /// `milp_parallel/*` sweep on a single-core host). Purely
    /// informational, but recorded in the diff table so an uploaded
    /// `bench_gate_diff.txt` shows *why* those rows are absent instead of
    /// silently dropping them.
    pub skipped: Vec<String>,
}

impl GateReport {
    /// `true` when the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Parses the `{"benchmarks": [{"name": …, "mean_ns": …, "min_ns": …,
/// "iterations": …}]}` format written by the vendored criterion stub.
/// Every key is required.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = json::parse(text)?;
    let records = record_objects(&doc, "benchmarks")?
        .iter()
        .map(|object| {
            Ok(BenchRecord {
                name: string_field(object, "name")?,
                mean_ns: number_field(object, "mean_ns")?,
                min_ns: number_field(object, "min_ns")?,
                iterations: number_field(object, "iterations")? as u64,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if records.is_empty() {
        return Err("no benchmark records found".into());
    }
    Ok(records)
}

/// The members of the top-level array `key` of a measurement file.
fn record_objects<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array {key}"))
}

fn string_field(object: &Json, key: &str) -> Result<String, String> {
    object
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string {key}"))
}

fn number_field(object: &Json, key: &str) -> Result<f64, String> {
    object
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number {key}"))
}

/// `true` for benchmarks that only measure something meaningful with more
/// than one hardware thread (the `milp_parallel/*` thread-count sweep).
/// On a single-core runner the pool can never beat the one-thread dive, so
/// the gate skips these comparisons (with a logged notice) instead of
/// failing CI on numbers the machine cannot measure.
pub fn is_parallel_only(name: &str) -> bool {
    name.starts_with("milp_parallel/")
}

/// Drops the parallel-only benchmarks from a record set (used by the gate
/// when `available_parallelism() == 1`). Returns the removed names so the
/// caller can log them.
pub fn strip_parallel_only(records: &mut Vec<BenchRecord>) -> Vec<String> {
    let removed = records
        .iter()
        .filter(|r| is_parallel_only(&r.name))
        .map(|r| r.name.clone())
        .collect();
    records.retain(|r| !is_parallel_only(&r.name));
    removed
}

/// Diffs `current` against `baseline` on the per-iteration minimum
/// ([`BenchRecord::min_ns`]).
///
/// A benchmark counts as a regression when the statistic grew by more than
/// `threshold_pct` percent **and** by more than `min_abs_ns` nanoseconds
/// (the absolute floor filters timer jitter on sub-microsecond
/// benchmarks).
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    threshold_pct: f64,
    min_abs_ns: f64,
) -> GateReport {
    let mut report = GateReport::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.name == base.name) else {
            report.missing.push(base.name.clone());
            continue;
        };
        let (base_ns, cur_ns) = (base.min_ns, cur.min_ns);
        let entry = GateEntry {
            name: base.name.clone(),
            baseline_ns: base_ns,
            current_ns: cur_ns,
            ratio: if base_ns > 0.0 {
                cur_ns / base_ns
            } else {
                f64::INFINITY
            },
        };
        let regressed = entry.ratio > 1.0 + threshold_pct / 100.0 && cur_ns - base_ns > min_abs_ns;
        if regressed {
            report.regressions.push(entry);
        } else {
            report.passed.push(entry);
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            report.added.push(cur.name.clone());
        }
    }
    report
}

/// Formats a [`GateReport`] as the full per-bench diff table (old/new
/// minima and change percentage for every compared benchmark, not just the
/// offenders). Printed on stdout by the gate binary and written to
/// `target/bench_gate_diff.txt` so CI can upload the complete diff as an
/// artifact when the gate fails.
pub fn format_report(report: &GateReport, threshold_pct: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bench-gate diff (threshold {threshold_pct} %): {} compared, {} regressed, {} missing, {} new, {} skipped\n",
        report.passed.len() + report.regressions.len(),
        report.regressions.len(),
        report.missing.len(),
        report.added.len(),
        report.skipped.len(),
    ));
    out.push_str(&format!(
        "{:<7} {:<55} {:>12}  {:>12}  {:>9}\n",
        "status", "benchmark", "old min ns", "new min ns", "change"
    ));
    let mut rows: Vec<(&str, &GateEntry)> = report
        .regressions
        .iter()
        .map(|e| ("FAIL", e))
        .chain(report.passed.iter().map(|e| ("ok", e)))
        .collect();
    // Worst regression first, then alphabetical — the offender is the
    // first line a human reads in the failure log.
    rows.sort_by(|a, b| {
        b.1.ratio
            .partial_cmp(&a.1.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.name.cmp(&b.1.name))
    });
    for (status, entry) in rows {
        out.push_str(&format!(
            "{:<7} {:<55} {:>12.1}  {:>12.1}  {:>+8.1} %\n",
            status,
            entry.name,
            entry.baseline_ns,
            entry.current_ns,
            entry.change_pct()
        ));
    }
    for name in &report.missing {
        out.push_str(&format!(
            "{:<7} {:<55} (missing from the current run)\n",
            "FAIL", name
        ));
    }
    for name in &report.added {
        out.push_str(&format!(
            "{:<7} {:<55} (not in baseline; refresh it)\n",
            "new", name
        ));
    }
    for name in &report.skipped {
        out.push_str(&format!(
            "{:<7} {:<55} (skipped: available_parallelism() == 1, the parallel \
             sweep is not measurable on this runner)\n",
            "skip", name
        ));
    }
    out
}

/// Writes a gate artifact to `target/<file_name>` (absolute path — cargo
/// runs binaries with the *package* directory as cwd, not the workspace
/// root) and returns the path it wrote to. Failures are reported on
/// stderr but never fail the caller: the artifact is diagnostics, not the
/// gate verdict.
pub fn write_target_artifact(file_name: &str, content: &str) -> String {
    let path = std::env::current_dir()
        .map(|d| d.join("target").join(file_name))
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_else(|_| file_name.to_string());
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("gate: warning: cannot write {path}: {e}");
    }
    path
}

// --- flow-level gate --------------------------------------------------------

/// One end-to-end flow measurement: the quality and solver-work numbers
/// the flow gate protects, summed over every layout the measurement ran
/// (one flow, several concurrent jobs, or a sweep's variants).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowRecord {
    /// Measurement id (circuit name plus the job or variant count).
    pub name: String,
    /// Wall-clock time of the whole measurement, milliseconds.
    pub wall_ms: f64,
    /// Microstrips over every layout.
    pub strips: usize,
    /// Strips that reached their exact target length
    /// ([`rfic_core::LayoutReport::exact_lengths`]).
    pub exact_lengths: usize,
    /// 90° bends over every layout.
    pub total_bends: usize,
    /// Largest absolute length error of any layout, µm.
    pub max_length_error_um: f64,
    /// DRC violations over every layout.
    pub drc_violations: usize,
    /// Solver work summed over every layout (`solves`, `bnb_nodes`,
    /// `simplex_iterations`, the presolve and fallback counters).
    pub totals: SolverTotals,
    /// Completed layout requests per second for concurrent-throughput
    /// records (several jobs multiplexed over one shared solver pool);
    /// `0` otherwise.
    pub requests_per_sec: f64,
    /// Number of variants for parameter-sweep records (one batched
    /// sweep); `0` otherwise.
    pub sweep_variants: usize,
}

impl FlowRecord {
    /// Folds finished layouts into one record: strips, exact lengths,
    /// bends, DRC violations and solver totals are summed, the length
    /// error is the worst one. Fails on the first layout that is not
    /// length-exact on every strip and DRC-clean.
    pub fn from_results(
        name: impl Into<String>,
        wall_ms: f64,
        results: &[PilpResult],
    ) -> Result<FlowRecord, String> {
        let mut record = FlowRecord {
            name: name.into(),
            wall_ms,
            ..FlowRecord::default()
        };
        for (i, result) in results.iter().enumerate() {
            let report = result.report();
            let exact = report.exact_lengths();
            if exact < report.strips.len() || report.drc_violations > 0 {
                return Err(format!(
                    "{} result {i}: {exact}/{} exact lengths, {} DRC violations",
                    record.name,
                    report.strips.len(),
                    report.drc_violations
                ));
            }
            record.strips += report.strips.len();
            record.exact_lengths += exact;
            record.total_bends += report.total_bends;
            record.max_length_error_um = record.max_length_error_um.max(report.max_length_error);
            record.drc_violations += report.drc_violations;
            record.totals += result.solver;
        }
        Ok(record)
    }
}

impl fmt::Display for FlowRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.totals;
        write!(
            f,
            "{}: wall {:.0} ms, {}/{} exact lengths, {} bends, max |ΔL| {:.3} µm, \
             {} DRC violations, {} B&B nodes over {} solves ({} pivots); presolve removed \
             {} rows, {} cols, {} nonzeros; {} fallback re-solves ({} recovered)",
            self.name,
            self.wall_ms,
            self.exact_lengths,
            self.strips,
            self.total_bends,
            self.max_length_error_um,
            self.drc_violations,
            t.nodes,
            t.solves,
            t.simplex_iterations,
            t.presolve_rows_removed,
            t.presolve_cols_removed,
            t.presolve_nonzeros_removed,
            t.fallback_attempts,
            t.fallback_recoveries,
        )?;
        if self.requests_per_sec > 0.0 {
            write!(f, ", {:.3} requests/sec", self.requests_per_sec)?;
        }
        Ok(())
    }
}

/// Serialises flow records in the committed `BENCH_flow.json` format.
pub fn flow_json(records: &[FlowRecord]) -> String {
    let mut out = String::from("{\n  \"flows\": [\n");
    for (i, r) in records.iter().enumerate() {
        let t = &r.totals;
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"wall_ms\": {:.1}, \"strips\": {}, \"exact_lengths\": {}, \
             \"total_bends\": {}, \"max_length_error_um\": {:.6}, \"drc_violations\": {}, \
             \"bnb_nodes\": {}, \"solves\": {}, \"simplex_iterations\": {}, \
             \"presolve_rows_removed\": {}, \"presolve_cols_removed\": {}, \
             \"presolve_nonzeros_removed\": {}, \"fallback_attempts\": {}, \
             \"fallback_recoveries\": {}, \"requests_per_sec\": {:.3}, \
             \"sweep_variants\": {} }}{}\n",
            r.name,
            r.wall_ms,
            r.strips,
            r.exact_lengths,
            r.total_bends,
            r.max_length_error_um,
            r.drc_violations,
            t.nodes,
            t.solves,
            t.simplex_iterations,
            t.presolve_rows_removed,
            t.presolve_cols_removed,
            t.presolve_nonzeros_removed,
            t.fallback_attempts,
            t.fallback_recoveries,
            r.requests_per_sec,
            r.sweep_variants,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses the `BENCH_flow.json` format written by [`flow_json`]. Every
/// key is required.
pub fn parse_flow_json(text: &str) -> Result<Vec<FlowRecord>, String> {
    let doc = json::parse(text)?;
    let records = record_objects(&doc, "flows")?
        .iter()
        .map(|object| {
            let count = |key| number_field(object, key).map(|v| v as usize);
            Ok(FlowRecord {
                name: string_field(object, "name")?,
                wall_ms: number_field(object, "wall_ms")?,
                strips: count("strips")?,
                exact_lengths: count("exact_lengths")?,
                total_bends: count("total_bends")?,
                max_length_error_um: number_field(object, "max_length_error_um")?,
                drc_violations: count("drc_violations")?,
                totals: SolverTotals {
                    solves: count("solves")?,
                    nodes: count("bnb_nodes")?,
                    simplex_iterations: count("simplex_iterations")?,
                    presolve_rows_removed: count("presolve_rows_removed")?,
                    presolve_cols_removed: count("presolve_cols_removed")?,
                    presolve_nonzeros_removed: count("presolve_nonzeros_removed")?,
                    fallback_attempts: count("fallback_attempts")?,
                    fallback_recoveries: count("fallback_recoveries")?,
                    ..SolverTotals::default()
                },
                requests_per_sec: number_field(object, "requests_per_sec")?,
                sweep_variants: count("sweep_variants")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if records.is_empty() {
        return Err("no flow records found".into());
    }
    Ok(records)
}

/// Result of gating a fresh flow run against the committed baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowGateReport {
    /// Hard failures (quality or wall-time regressions).
    pub failures: Vec<String>,
    /// Informational notes (new flows, improvements).
    pub notes: Vec<String>,
}

impl FlowGateReport {
    /// `true` when the gate passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gates a fresh flow run against the committed baseline.
///
/// Two failure classes, per the CI contract:
/// * **quality**: a record that is not exact on every strip
///   (`exact_lengths < strips`) or not DRC-clean fails outright — the
///   headline 3/3-exact, clean result must never silently rot;
/// * **wall time**: a flow slower than baseline by more than
///   `threshold_pct` percent *and* more than `min_abs_ms` milliseconds
///   (the absolute floor filters scheduler noise on short flows).
///
/// Baseline flows missing from the current run fail; current flows absent
/// from the baseline are reported as notes.
pub fn flow_gate(
    baseline: &[FlowRecord],
    current: &[FlowRecord],
    threshold_pct: f64,
    min_abs_ms: f64,
) -> FlowGateReport {
    let mut report = FlowGateReport::default();
    for cur in current {
        if cur.exact_lengths < cur.strips {
            report.failures.push(format!(
                "{}: only {}/{} strips reached exact length",
                cur.name, cur.exact_lengths, cur.strips
            ));
        }
        if cur.drc_violations > 0 {
            report.failures.push(format!(
                "{}: {} DRC violations",
                cur.name, cur.drc_violations
            ));
        }
        match baseline.iter().find(|b| b.name == cur.name) {
            None => report
                .notes
                .push(format!("{}: not in baseline (new flow)", cur.name)),
            Some(base) => {
                let limit = base.wall_ms * (1.0 + threshold_pct / 100.0);
                if cur.wall_ms > limit && cur.wall_ms - base.wall_ms > min_abs_ms {
                    report.failures.push(format!(
                        "{}: wall time {:.0} ms vs baseline {:.0} ms (+{:.1} %, threshold {} %)",
                        cur.name,
                        cur.wall_ms,
                        base.wall_ms,
                        (cur.wall_ms / base.wall_ms - 1.0) * 100.0,
                        threshold_pct
                    ));
                } else {
                    let throughput = if cur.requests_per_sec > 0.0 {
                        format!(
                            ", {:.3} req/s ({:.3} baseline)",
                            cur.requests_per_sec, base.requests_per_sec
                        )
                    } else {
                        String::new()
                    };
                    report.notes.push(format!(
                        "{}: wall {:.0} ms (baseline {:.0} ms), {} nodes ({} baseline), bends {} ({}){}",
                        cur.name,
                        cur.wall_ms,
                        base.wall_ms,
                        cur.totals.nodes,
                        base.totals.nodes,
                        cur.total_bends,
                        base.total_bends,
                        throughput
                    ));
                }
            }
        }
    }
    for base in baseline {
        if !current.iter().any(|c| c.name == base.name) {
            report
                .failures
                .push(format!("{}: missing from the current run", base.name));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmarks": [
    { "name": "lp_simplex/revised_20x15", "mean_ns": 18766.6, "min_ns": 17000.5, "iterations": 20 },
    { "name": "milp/knapsack_30", "mean_ns": 4519193.0, "min_ns": 4100000.0, "iterations": 20 }
  ]
}
"#;

    fn record(name: &str, mean_ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            mean_ns,
            min_ns: mean_ns,
            iterations: 20,
        }
    }

    #[test]
    fn parses_the_criterion_stub_format() {
        let records = parse_bench_json(SAMPLE).expect("parse");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "lp_simplex/revised_20x15");
        assert!((records[0].mean_ns - 18766.6).abs() < 1e-9);
        assert!((records[0].min_ns - 17000.5).abs() < 1e-9);
        assert_eq!(records[1].iterations, 20);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("not json at all").is_err());
    }

    #[test]
    fn regression_detection_honours_threshold_and_floor() {
        let baseline = vec![record("a", 100_000.0), record("b", 1_000.0)];
        // "a" regresses 50 %; "b" regresses 50 % but only by 500 ns (noise).
        let current = vec![record("a", 150_000.0), record("b", 1_500.0)];
        let report = compare(&baseline, &current, 30.0, 2_000.0);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].name, "a");
        assert_eq!(report.passed.len(), 1);
        assert!(!report.ok());

        // Within threshold: passes.
        let current = vec![record("a", 120_000.0), record("b", 900.0)];
        let report = compare(&baseline, &current, 30.0, 2_000.0);
        assert!(report.ok());
        assert_eq!(report.passed.len(), 2);
    }

    #[test]
    fn missing_benchmarks_fail_and_new_ones_inform() {
        let baseline = vec![record("kept", 10_000.0), record("dropped", 10_000.0)];
        let current = vec![record("kept", 10_000.0), record("brand_new", 5_000.0)];
        let report = compare(&baseline, &current, 30.0, 2_000.0);
        assert_eq!(report.missing, vec!["dropped".to_string()]);
        assert_eq!(report.added, vec!["brand_new".to_string()]);
        assert!(!report.ok());
    }

    #[test]
    fn parallel_only_benches_are_stripped_for_single_core_gates() {
        let mut records = vec![
            record("milp_parallel/knapsack_30_t2", 1_000.0),
            record("lp_simplex/revised_20x15", 1_000.0),
            record("milp_parallel/knapsack_30_t4", 1_000.0),
        ];
        let removed = strip_parallel_only(&mut records);
        assert_eq!(
            removed,
            vec![
                "milp_parallel/knapsack_30_t2".to_string(),
                "milp_parallel/knapsack_30_t4".to_string()
            ]
        );
        assert_eq!(records.len(), 1);
        assert!(!is_parallel_only(&records[0].name));
    }

    /// The single-core skip notice must survive into the diff table (the
    /// artifact CI uploads), not just the gate's stdout.
    #[test]
    fn format_report_records_skipped_parallel_benches() {
        let baseline = vec![record("lp_simplex/revised_20x15", 10_000.0)];
        let current = vec![record("lp_simplex/revised_20x15", 10_000.0)];
        let mut report = compare(&baseline, &current, 30.0, 2_000.0);
        report.skipped = vec![
            "milp_parallel/knapsack_30_t2".to_string(),
            "milp_parallel/knapsack_30_t4".to_string(),
        ];
        let table = format_report(&report, 30.0);
        assert!(table.contains("2 skipped"), "{table}");
        assert!(
            table.contains("skip    milp_parallel/knapsack_30_t2"),
            "{table}"
        );
        assert!(table.contains("available_parallelism() == 1"), "{table}");
    }

    #[test]
    fn gate_entry_formats_change_percentage() {
        let entry = GateEntry {
            name: "x".into(),
            baseline_ns: 100.0,
            current_ns: 150.0,
            ratio: 1.5,
        };
        let text = entry.to_string();
        assert!(text.contains("+50.0"), "{text}");
    }

    #[test]
    fn format_report_lists_every_bench_worst_first() {
        let baseline = vec![
            record("group/fast", 100_000.0),
            record("group/slow", 100_000.0),
            record("group/gone", 100_000.0),
        ];
        let current = vec![
            record("group/fast", 90_000.0),
            record("group/slow", 200_000.0),
            record("group/fresh", 10_000.0),
        ];
        let report = compare(&baseline, &current, 30.0, 2_000.0);
        let table = format_report(&report, 30.0);
        // Every compared bench appears, regression first, with old/new/%.
        let fail_at = table.find("FAIL    group/slow").expect("regression row");
        let ok_at = table.find("ok      group/fast").expect("passed row");
        assert!(fail_at < ok_at, "worst regression sorts first:\n{table}");
        assert!(table.contains("+100.0"), "{table}");
        assert!(table.contains("-10.0"), "{table}");
        assert!(table.contains("group/gone"), "{table}");
        assert!(table.contains("group/fresh"), "{table}");
    }

    fn flow(name: &str, wall_ms: f64, exact: usize) -> FlowRecord {
        FlowRecord {
            name: name.into(),
            wall_ms,
            strips: 3,
            exact_lengths: exact,
            total_bends: 4,
            totals: SolverTotals {
                solves: 40,
                nodes: 1000,
                simplex_iterations: 9000,
                presolve_rows_removed: 120,
                presolve_cols_removed: 60,
                presolve_nonzeros_removed: 400,
                ..SolverTotals::default()
            },
            ..FlowRecord::default()
        }
    }

    #[test]
    fn flow_json_round_trips() {
        let records = vec![flow("tiny", 7300.5, 3), flow("small", 60000.0, 5)];
        let text = flow_json(&records);
        assert!(text.contains("\"presolve_rows_removed\": 120"), "{text}");
        let parsed = parse_flow_json(&text).expect("parse");
        assert_eq!(parsed, records);
        assert!(parse_flow_json("{}").is_err());
    }

    /// Both formats require every key: a record without `min_ns`, or a
    /// flow record without one of its counters, is rejected by name.
    #[test]
    fn records_missing_a_key_are_rejected_by_name() {
        let no_min = r#"{ "benchmarks": [ { "name": "a", "mean_ns": 100.0, "iterations": 20 } ] }"#;
        let err = parse_bench_json(no_min).unwrap_err();
        assert!(err.contains("min_ns"), "{err}");

        let text = flow_json(&[flow("tiny", 7000.0, 3)]);
        for key in [
            "bnb_nodes",
            "presolve_rows_removed",
            "fallback_recoveries",
            "sweep_variants",
        ] {
            let without = text.replace(&format!("\"{key}\""), "\"renamed\"");
            let err = parse_flow_json(&without).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    /// Throughput records (the concurrent-jobs measurement) round-trip
    /// their requests/sec and surface it in the gate notes.
    #[test]
    fn flow_gate_reports_throughput_records() {
        let mut record = flow("tiny x4 jobs", 20_000.0, 3);
        record.requests_per_sec = 0.2;
        let text = flow_json(std::slice::from_ref(&record));
        assert!(text.contains("\"requests_per_sec\": 0.200"), "{text}");
        let parsed = parse_flow_json(&text).expect("parse");
        assert_eq!(parsed, vec![record.clone()]);

        let mut baseline = record.clone();
        baseline.requests_per_sec = 0.25;
        let report = flow_gate(&[baseline], &[record], 30.0, 2_000.0);
        assert!(report.ok(), "{:?}", report.failures);
        assert!(
            report.notes.iter().any(|n| n.contains("0.200 req/s")),
            "{:?}",
            report.notes
        );
    }

    /// Sweep records round-trip their variant count, and a DRC violation
    /// fails the gate on any record, sweep or single flow.
    #[test]
    fn flow_gate_fails_a_dirty_record() {
        let mut record = flow("tiny sweep x8", 10_000.0, 24);
        record.strips = 24;
        record.sweep_variants = 8;
        let text = flow_json(std::slice::from_ref(&record));
        assert!(text.contains("\"sweep_variants\": 8"), "{text}");
        let parsed = parse_flow_json(&text).expect("parse");
        assert_eq!(parsed, vec![record.clone()]);

        let report = flow_gate(&[], std::slice::from_ref(&record), 30.0, 2_000.0);
        assert!(report.ok(), "{:?}", report.failures);

        for clean in [record, flow("tiny", 7000.0, 3)] {
            let mut dirty = clean.clone();
            dirty.drc_violations = 1;
            let report = flow_gate(std::slice::from_ref(&clean), &[dirty], 30.0, 2_000.0);
            assert!(
                report.failures.iter().any(|f| f.contains("DRC")),
                "{}: {:?}",
                clean.name,
                report.failures
            );
        }
    }

    #[test]
    fn flow_gate_fails_on_lost_exact_lengths() {
        let baseline = vec![flow("tiny", 7000.0, 3)];
        let current = vec![flow("tiny", 7000.0, 2)];
        let report = flow_gate(&baseline, &current, 30.0, 2_000.0);
        assert!(!report.ok());
        assert!(report.failures[0].contains("2/3"), "{:?}", report.failures);
    }

    #[test]
    fn flow_gate_honours_wall_threshold_and_floor() {
        let baseline = vec![flow("tiny", 7000.0, 3)];
        // +50 % and above the absolute floor: fails.
        let report = flow_gate(&baseline, &[flow("tiny", 10500.0, 3)], 30.0, 2_000.0);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        // +20 %: within threshold, passes with a note.
        let report = flow_gate(&baseline, &[flow("tiny", 8400.0, 3)], 30.0, 2_000.0);
        assert!(report.ok());
        assert!(!report.notes.is_empty());
        // Tiny baseline: a large relative jump below the absolute floor is
        // scheduler noise, not a regression.
        let short = vec![flow("tiny", 100.0, 3)];
        let report = flow_gate(&short, &[flow("tiny", 1500.0, 3)], 30.0, 2_000.0);
        assert!(report.ok(), "{:?}", report.failures);
    }

    #[test]
    fn flow_gate_tracks_missing_and_new_flows() {
        let baseline = vec![flow("tiny", 7000.0, 3)];
        let current = vec![flow("small", 60000.0, 5)];
        let report = flow_gate(&baseline, &current, 30.0, 2_000.0);
        assert!(!report.ok());
        assert!(report.failures.iter().any(|f| f.contains("tiny")));
        assert!(report.notes.iter().any(|n| n.contains("small")));
    }
}
