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

use rfic_netlist::json::{self, Json};

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id (`group/name`).
    pub name: String,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Minimum per-iteration time, nanoseconds (0 when the file predates
    /// the field). This is what the gate compares: noise — host steal,
    /// scheduler jitter — only ever *adds* time, so the minimum tracks the
    /// true compute cost while the mean swings wildly on shared runners.
    pub min_ns: f64,
    /// Number of measured iterations.
    pub iterations: u64,
}

impl BenchRecord {
    /// The statistic the gate compares: the per-iteration minimum when
    /// recorded, the mean for legacy files.
    pub fn gate_ns(&self) -> f64 {
        if self.min_ns > 0.0 {
            self.min_ns
        } else {
            self.mean_ns
        }
    }
}

/// Outcome of one baseline/current pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Benchmark id.
    pub name: String,
    /// Baseline mean, ns.
    pub baseline_ns: f64,
    /// Current mean, ns.
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

/// Parses the `{"benchmarks": [{"name": …, "mean_ns": …, "iterations": …}]}`
/// format written by the vendored criterion stub.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = json::parse(text)?;
    let records = record_objects(&doc, "benchmarks")?
        .iter()
        .map(|object| {
            Ok(BenchRecord {
                name: string_field(object, "name")?,
                mean_ns: number_field(object, "mean_ns")?,
                // Absent in files predating the field: the gate then falls
                // back to the mean.
                min_ns: optional_number(object, "min_ns"),
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

/// A number added to the format after the first committed baselines:
/// absent keys read as zero so older files still load.
fn optional_number(object: &Json, key: &str) -> f64 {
    object.get(key).and_then(Json::as_f64).unwrap_or(0.0)
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

/// Diffs `current` against `baseline` on the gate statistic
/// ([`BenchRecord::gate_ns`]: per-iteration minimum, mean for legacy
/// files).
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
        let (base_ns, cur_ns) = (base.gate_ns(), cur.gate_ns());
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

/// One end-to-end flow measurement (the tiny-circuit P-ILP run): the
/// quality and solver-work numbers the flow gate protects.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Flow id (circuit name).
    pub name: String,
    /// Wall-clock time of the whole flow, milliseconds.
    pub wall_ms: f64,
    /// Number of microstrips in the circuit.
    pub strips: u64,
    /// Strips that reached their exact target length (|error| < 1 nm·10³,
    /// i.e. the flow's own `rfic_core::drc::LENGTH_TOLERANCE_UM`).
    pub exact_lengths: u64,
    /// Total 90° bends over all strips.
    pub total_bends: u64,
    /// Largest absolute length error, µm.
    pub max_length_error_um: f64,
    /// DRC violations of the final layout.
    pub drc_violations: u64,
    /// Branch-and-bound nodes summed over every MILP solve of the run.
    pub bnb_nodes: u64,
    /// Individual MILP solves issued by the flow.
    pub solves: u64,
    /// Simplex pivots summed over every node LP.
    pub simplex_iterations: u64,
    /// Constraint rows removed by root presolve, summed over every MILP
    /// solve of the run (0 for baselines predating the presolve layer).
    pub presolve_rows_removed: u64,
    /// Columns removed by root presolve, summed over every MILP solve.
    pub presolve_cols_removed: u64,
    /// Nonzero coefficients removed by root presolve, summed over every
    /// MILP solve.
    pub presolve_nonzeros_removed: u64,
    /// Fallback-ladder re-solves attempted after a numerical failure
    /// (0 on a healthy run — the ladder is compiled in but idle).
    pub fallback_attempts: u64,
    /// Fallback-ladder re-solves that recovered an optimal result.
    pub fallback_recoveries: u64,
    /// Completed layout requests per second for concurrent-throughput
    /// records (several jobs multiplexed over one shared solver pool);
    /// `0` for single-flow records and baselines predating the job API.
    pub requests_per_sec: f64,
    /// Number of variants for parameter-sweep records (one batched
    /// sweep whose `wall_ms` and counters sum over every variant); `0`
    /// for non-sweep records and baselines predating sweeps.
    pub sweep_variants: u64,
}

/// Serialises flow records in the committed `BENCH_flow.json` format.
pub fn flow_json(records: &[FlowRecord]) -> String {
    let mut out = String::from("{\n  \"flows\": [\n");
    for (i, r) in records.iter().enumerate() {
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
            r.bnb_nodes,
            r.solves,
            r.simplex_iterations,
            r.presolve_rows_removed,
            r.presolve_cols_removed,
            r.presolve_nonzeros_removed,
            r.fallback_attempts,
            r.fallback_recoveries,
            r.requests_per_sec,
            r.sweep_variants,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses the `BENCH_flow.json` format written by [`flow_json`].
pub fn parse_flow_json(text: &str) -> Result<Vec<FlowRecord>, String> {
    let doc = json::parse(text)?;
    let records = record_objects(&doc, "flows")?
        .iter()
        .map(|object| {
            let count = |key| number_field(object, key).map(|v| v as u64);
            let optional_count = |key| optional_number(object, key) as u64;
            Ok(FlowRecord {
                name: string_field(object, "name")?,
                wall_ms: number_field(object, "wall_ms")?,
                strips: count("strips")?,
                exact_lengths: count("exact_lengths")?,
                total_bends: count("total_bends")?,
                max_length_error_um: number_field(object, "max_length_error_um")?,
                drc_violations: count("drc_violations")?,
                bnb_nodes: count("bnb_nodes")?,
                solves: count("solves")?,
                simplex_iterations: count("simplex_iterations")?,
                // Presolve, fallback-ladder, throughput and sweep fields
                // arrived after the first committed baselines.
                presolve_rows_removed: optional_count("presolve_rows_removed"),
                presolve_cols_removed: optional_count("presolve_cols_removed"),
                presolve_nonzeros_removed: optional_count("presolve_nonzeros_removed"),
                fallback_attempts: optional_count("fallback_attempts"),
                fallback_recoveries: optional_count("fallback_recoveries"),
                requests_per_sec: optional_number(object, "requests_per_sec"),
                sweep_variants: optional_count("sweep_variants"),
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
/// * **quality**: a flow that no longer reaches exact length on every
///   strip (`exact_lengths < strips`) fails outright — the headline
///   3/3-exact result must never silently rot;
/// * **wall time**: a flow slower than baseline by more than
///   `threshold_pct` percent *and* more than `min_abs_ms` milliseconds
///   (the absolute floor filters scheduler noise on short flows).
///
/// Sweep records (`sweep_variants > 0`) must also be DRC-clean in every
/// variant.
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
        if cur.sweep_variants > 0 && cur.drc_violations > 0 {
            report.failures.push(format!(
                "{}: sweep produced {} DRC violations",
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
                        cur.bnb_nodes,
                        base.bnb_nodes,
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

    /// A pre-`min_ns` baseline file (the PR 1 format).
    const LEGACY_SAMPLE: &str = r#"{
  "benchmarks": [
    { "name": "old/one", "mean_ns": 100.0, "iterations": 20 },
    { "name": "new/two", "mean_ns": 200.0, "min_ns": 150.0, "iterations": 20 }
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
    fn legacy_files_fall_back_to_the_mean() {
        let records = parse_bench_json(LEGACY_SAMPLE).expect("parse");
        assert_eq!(records[0].min_ns, 0.0, "absent min_ns stays zero");
        assert_eq!(records[0].gate_ns(), 100.0, "gate falls back to mean");
        assert_eq!(
            records[1].gate_ns(),
            150.0,
            "min_ns of the next record must not leak into the previous one"
        );
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

    fn flow(name: &str, wall_ms: f64, exact: u64) -> FlowRecord {
        FlowRecord {
            name: name.into(),
            wall_ms,
            strips: 3,
            exact_lengths: exact,
            total_bends: 4,
            max_length_error_um: 0.0,
            drc_violations: 0,
            bnb_nodes: 1000,
            solves: 40,
            simplex_iterations: 9000,
            presolve_rows_removed: 120,
            presolve_cols_removed: 60,
            presolve_nonzeros_removed: 400,
            fallback_attempts: 0,
            fallback_recoveries: 0,
            requests_per_sec: 0.0,
            sweep_variants: 0,
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

    /// Baselines committed before the presolve layer have no presolve
    /// keys; they must still parse (counters default to zero).
    #[test]
    fn flow_json_without_presolve_keys_still_parses() {
        let legacy = r#"{
  "flows": [
    { "name": "tiny", "wall_ms": 7824.2, "strips": 3, "exact_lengths": 3, "total_bends": 4, "max_length_error_um": 0.000000, "drc_violations": 0, "bnb_nodes": 1000, "solves": 40, "simplex_iterations": 9000 }
  ]
}
"#;
        let parsed = parse_flow_json(legacy).expect("parse legacy");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].presolve_rows_removed, 0);
        assert_eq!(parsed[0].presolve_cols_removed, 0);
        assert_eq!(parsed[0].presolve_nonzeros_removed, 0);
        assert_eq!(parsed[0].fallback_attempts, 0);
        assert_eq!(parsed[0].fallback_recoveries, 0);
        assert_eq!(parsed[0].requests_per_sec, 0.0);
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
    /// in any variant fails the gate.
    #[test]
    fn flow_gate_fails_a_dirty_sweep() {
        let mut record = flow("tiny sweep x8", 10_000.0, 24);
        record.strips = 24;
        record.sweep_variants = 8;
        let text = flow_json(std::slice::from_ref(&record));
        assert!(text.contains("\"sweep_variants\": 8"), "{text}");
        let parsed = parse_flow_json(&text).expect("parse");
        assert_eq!(parsed, vec![record.clone()]);

        let report = flow_gate(&[], std::slice::from_ref(&record), 30.0, 2_000.0);
        assert!(report.ok(), "{:?}", report.failures);

        let mut dirty = record.clone();
        dirty.drc_violations = 1;
        let report = flow_gate(std::slice::from_ref(&record), &[dirty], 30.0, 2_000.0);
        assert!(
            report.failures.iter().any(|f| f.contains("DRC")),
            "{:?}",
            report.failures
        );
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
