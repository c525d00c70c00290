//! `serve` — a line-delimited JSON layout service over stdin/stdout.
//!
//! Each input line is one request object; each output line is one
//! response object. All submitted jobs share a single
//! [`rfic_layout::core::JobContext`] — one solver pool, one solve-site
//! cache — so N concurrent requests multiplex a fixed worker set instead
//! of oversubscribing the machine.
//!
//! ## Requests
//!
//! | op         | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `submit`   | `circuit` (a named benchmark) **or** `netlist` (an inline document, `docs/NETLIST_SCHEMA.md`), optional `config` (`fast`*/`thorough`), `deadline_ms`, `threads`, `area` (`[w,h]` µm) |
//! | `sweep`    | `circuit` or `netlist`, `variants` (array of `{target_scale?, area?, spacing?}` objects), optional `config`, `deadline_ms`, `threads`; blocks until every variant is laid out |
//! | `validate` | `netlist` — schema-check only, no job is scheduled            |
//! | `export`   | `circuit` — the named benchmark as a wire-format document     |
//! | `status`   | `job`                                                         |
//! | `result`   | `job` (blocks until done), optional `report`/`svg` booleans   |
//! | `cancel`   | `job`                                                         |
//! | `shutdown` | optional `drain` boolean                                      |
//!
//! The full wire reference lives in `docs/PROTOCOL.md`; this header is
//! the summary.
//!
//! Requests are validated strictly: unknown ops, unknown fields,
//! out-of-range values (`deadline_ms` ∉ (0, 86 400 000], `threads` ∉
//! 0..=8, non-positive or oversized `area`) and over-long lines are
//! rejected with stable error codes instead of being silently coerced.
//! The line cap is 64 KiB, raised to 1 MiB for lines that carry an
//! inline `"netlist"` document. Inline netlists are schema-validated
//! ([`rfic_layout::netlist::wire`]) **before** any solver work is
//! scheduled; rejections carry the `invalid_netlist` code plus the
//! wire-level `detail` code and field `path`.
//!
//! ## Lifecycle
//!
//! * `--workers N` — solver-pool worker count (0 = hardware
//!   parallelism).
//! * `--max-jobs N` — at most N unfinished jobs at once; further
//!   `submit`s fail with code `backpressure` until one finishes.
//! * `--result-ttl-secs S` — finished jobs are evicted S seconds after
//!   completion (their results become `unknown_job`), bounding memory
//!   across a long-lived session.
//! * `{"op":"shutdown"}` cancels every in-flight job, drains the pool
//!   and exits. `{"op":"shutdown","drain":true}` instead keeps serving
//!   `status`/`result`/`cancel` while the in-flight jobs run to
//!   completion, rejects new `submit`s with code `shutting_down`, and
//!   exits once the last job finishes.
//!
//! ## Example
//!
//! ```text
//! $ printf '%s\n' \
//!     '{"op":"submit","circuit":"tiny"}' \
//!     '{"op":"result","job":1}' \
//!     '{"op":"shutdown"}' | serve
//! {"job":1,"ok":true,"op":"submit"}
//! {"drc_violations":0,"exact_lengths":3,...,"ok":true,"op":"result","state":"done"}
//! {"ok":true,"op":"shutdown"}
//! ```
//!
//! Failures are `{"ok":false,"error":{"code":...,"message":...}}`.
//! Request-level codes: `bad_request`, `line_too_long`, `unknown_job`,
//! `backpressure`, `shutting_down`. Job failures map [`PilpError`]
//! variants to `cancelled`, `deadline_exceeded`, `pool_shutdown`,
//! `invalid_netlist`, `phase_failed` and `internal` (a contained panic —
//! the faulty job alone fails; the service and its sibling jobs keep
//! running).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use rfic_layout::core::{render, JobContext, JobHandle, Pilp, PilpConfig, PilpError, PilpResult};
use rfic_layout::netlist::{benchmarks, wire, Netlist};
use rfic_netlist::json::{parse, Json, ObjectBuilder};

/// Longest accepted request line. Anything larger is answered with
/// `line_too_long` and never reaches the JSON parser.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Raised line cap for requests carrying an inline `"netlist"`
/// document: a maximal schema-legal netlist (512 devices with pins, 1024
/// nets) runs to a few hundred KiB of JSON, far over the 64 KiB
/// discipline that bounds every other op. Lines containing the
/// substring `"netlist"` get this cap instead; everything else keeps
/// the tight one.
const MAX_NETLIST_LINE_BYTES: usize = 1024 * 1024;

/// Upper bound on `deadline_ms`: one day. Catches sign/unit mistakes
/// before they turn into a job that never times out.
const MAX_DEADLINE_MS: f64 = 86_400_000.0;

/// Upper bound on explicit `threads` requests (the pool caps further).
const MAX_THREADS: f64 = 8.0;

/// Upper bound on either `area` dimension, in µm (1 m of RFIC die is a
/// unit mistake, not a design).
const MAX_AREA_UM: f64 = 1e6;

/// Upper bound on variants per `sweep` request: enough for a dense
/// parameter scan, small enough that one request cannot monopolise the
/// service for minutes.
const MAX_SWEEP_VARIANTS: usize = 16;

/// Bounds on a variant's `target_scale` multiplier.
const MAX_TARGET_SCALE: f64 = 10.0;

/// Upper bound on a variant's `spacing` rule, in µm.
const MAX_SPACING_UM: f64 = 1e3;

/// Default `--max-jobs`: unfinished jobs admitted before `submit`
/// answers `backpressure`.
const DEFAULT_MAX_JOBS: usize = 32;

/// Default `--result-ttl-secs`: how long a finished job's result stays
/// queryable.
const DEFAULT_RESULT_TTL_SECS: u64 = 600;

/// One submitted job: the handle plus the netlist it was built from
/// (needed to render SVG and count strips for the result payload), plus
/// the completion timestamp driving TTL eviction.
struct ServedJob {
    handle: JobHandle,
    netlist: Netlist,
    /// Set by the reaper when the job is first observed finished.
    finished_at: Option<Instant>,
}

/// Stable protocol error code for a flow error.
fn error_code(error: &PilpError) -> &'static str {
    match error {
        PilpError::Cancelled => "cancelled",
        PilpError::DeadlineExceeded => "deadline_exceeded",
        PilpError::PoolShutdown => "pool_shutdown",
        PilpError::InvalidNetlist(_) => "invalid_netlist",
        PilpError::Internal { .. } => "internal",
        PilpError::Phase { .. } => "phase_failed",
    }
}

fn error_response(op: &str, code: &str, message: &str) -> Json {
    ObjectBuilder::new()
        .set("ok", Json::Bool(false))
        .set("op", Json::String(op.to_string()))
        .set(
            "error",
            ObjectBuilder::new()
                .set("code", Json::String(code.to_string()))
                .set("message", Json::String(message.to_string()))
                .build(),
        )
        .build()
}

/// Rejects requests carrying fields outside the op's whitelist, so a
/// typo (`"deadline"` for `"deadline_ms"`) fails loudly instead of
/// being silently ignored.
fn check_fields(op: &str, request: &Json, allowed: &[&str]) -> Option<Json> {
    let Json::Object(entries) = request else {
        return Some(error_response(
            op,
            "bad_request",
            "request must be an object",
        ));
    };
    for key in entries.keys() {
        if !allowed.contains(&key.as_str()) {
            return Some(error_response(
                op,
                "bad_request",
                &format!("unknown field {key:?} for op {op:?}"),
            ));
        }
    }
    None
}

/// A named built-in circuit: protocol name plus its constructor.
type NamedCircuit = (&'static str, fn() -> Netlist);

/// The one shared table of named built-in circuits. Everything that
/// names circuits — lookup, the unknown-circuit error message, the
/// `export` op, `docs/PROTOCOL.md` (kept honest by the doc-drift gate)
/// — derives from this list, so adding a benchmark cannot drift any of
/// them apart.
const NAMED_CIRCUITS: &[NamedCircuit] = &[
    ("tiny", || benchmarks::tiny_circuit().netlist),
    ("small", || benchmarks::small_circuit().netlist),
    ("lna94", || benchmarks::lna_94ghz().netlist),
    ("buffer60", || benchmarks::buffer_60ghz().netlist),
    ("lna60", || benchmarks::lna_60ghz().netlist),
];

fn circuit_by_name(name: &str) -> Option<Netlist> {
    NAMED_CIRCUITS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

/// `tiny/small/lna94/buffer60/lna60`, derived from [`NAMED_CIRCUITS`]
/// for error messages and docs.
fn known_circuit_names() -> String {
    NAMED_CIRCUITS
        .iter()
        .map(|(n, _)| *n)
        .collect::<Vec<_>>()
        .join("/")
}

/// The `invalid_netlist` rejection for a wire-format schema failure:
/// the protocol-level code plus the wire-level `detail` code and the
/// field `path` of the offending value.
fn invalid_netlist_response(op: &str, error: &wire::WireError) -> Json {
    ObjectBuilder::new()
        .set("ok", Json::Bool(false))
        .set("op", Json::String(op.to_string()))
        .set(
            "error",
            ObjectBuilder::new()
                .set("code", Json::String("invalid_netlist".into()))
                .set("detail", Json::String(error.code.to_string()))
                .set("path", Json::String(error.path.clone()))
                .set("message", Json::String(error.message.clone()))
                .build(),
        )
        .build()
}

/// Resolves the circuit of a `submit`/`sweep` request: exactly one of
/// `circuit` (a [`NAMED_CIRCUITS`] name) or `netlist` (an inline
/// wire-format document, validated here — before any job is admitted to
/// the pool).
fn requested_netlist(op: &str, request: &Json) -> Result<Netlist, Json> {
    let circuit = request.get("circuit");
    let inline = request.get("netlist");
    match (circuit, inline) {
        (Some(_), Some(_)) => Err(error_response(
            op,
            "bad_request",
            "give either \"circuit\" or \"netlist\", not both",
        )),
        (None, None) => Err(error_response(
            op,
            "bad_request",
            "missing \"circuit\" or \"netlist\"",
        )),
        (Some(value), None) => {
            let Some(name) = value.as_str() else {
                return Err(error_response(
                    op,
                    "bad_request",
                    "circuit must be a string",
                ));
            };
            circuit_by_name(name).ok_or_else(|| {
                error_response(
                    op,
                    "bad_request",
                    &format!("unknown circuit {name:?} ({})", known_circuit_names()),
                )
            })
        }
        (None, Some(document)) => {
            wire::parse_netlist(document).map_err(|e| invalid_netlist_response(op, &e))
        }
    }
}

fn build_config(request: &Json) -> Result<PilpConfig, String> {
    let mut config = match request.get("config") {
        None => PilpConfig::fast(),
        Some(value) => match value.as_str() {
            Some("fast") => PilpConfig::fast(),
            Some("thorough") => PilpConfig::thorough(),
            Some(other) => return Err(format!("unknown config {other:?} (fast/thorough)")),
            None => return Err("config must be a string".into()),
        },
    };
    if let Some(value) = request.get("deadline_ms") {
        let Some(ms) = value.as_f64() else {
            return Err("deadline_ms must be a number".into());
        };
        if !ms.is_finite() || ms <= 0.0 || ms > MAX_DEADLINE_MS {
            return Err(format!(
                "deadline_ms must be in (0, {MAX_DEADLINE_MS}] milliseconds"
            ));
        }
        config.deadline = Some(Duration::from_millis(ms as u64));
    }
    if let Some(value) = request.get("threads") {
        let Some(threads) = value.as_f64() else {
            return Err("threads must be a number".into());
        };
        if !threads.is_finite() || threads.fract() != 0.0 || !(0.0..=MAX_THREADS).contains(&threads)
        {
            return Err(format!("threads must be an integer in 0..={MAX_THREADS}"));
        }
        config.solver_threads = threads as usize;
    }
    Ok(config)
}

/// Parses an `area` value: `[width, height]` with each dimension in
/// (0, [`MAX_AREA_UM`]] µm (which also rules out NaN and infinities).
/// `None` for anything else; each caller words its own rejection.
fn parse_area(value: &Json) -> Option<(f64, f64)> {
    let area = value.as_array()?;
    match (
        area.len(),
        area.first().and_then(Json::as_f64),
        area.get(1).and_then(Json::as_f64),
    ) {
        (2, Some(w), Some(h)) if [w, h].iter().all(|&d| d > 0.0 && d <= MAX_AREA_UM) => {
            Some((w, h))
        }
        _ => None,
    }
}

fn handle_submit(request: &Json, ctx: &JobContext, next_id: &mut u64) -> (Json, Option<ServedJob>) {
    let mut netlist = match requested_netlist("submit", request) {
        Ok(netlist) => netlist,
        Err(rejection) => return (rejection, None),
    };
    if let Some(value) = request.get("area") {
        let Some((w, h)) = parse_area(value) else {
            return (
                error_response(
                    "submit",
                    "bad_request",
                    &format!("area must be [width, height], each in (0, {MAX_AREA_UM}] µm"),
                ),
                None,
            );
        };
        netlist = netlist.with_area(w, h);
    }
    let config = match build_config(request) {
        Ok(config) => config,
        Err(message) => return (error_response("submit", "bad_request", &message), None),
    };
    let handle = Pilp::new(config).submit_owned_in(netlist.clone(), ctx);
    let id = *next_id;
    *next_id += 1;
    let response = ObjectBuilder::new()
        .set("ok", Json::Bool(true))
        .set("op", Json::String("submit".into()))
        .set("job", Json::Number(id as f64))
        .build();
    (
        response,
        Some(ServedJob {
            handle,
            netlist,
            finished_at: None,
        }),
    )
}

/// Extracts a job id, rejecting non-integer and out-of-range values
/// (`-1` must be `unknown_job`-adjacent, never wrap to a live id).
fn job_id(request: &Json) -> Result<u64, String> {
    let Some(value) = request.get("job") else {
        return Err("missing \"job\"".into());
    };
    match value.as_f64() {
        Some(n)
            if n.is_finite()
                && n.fract() == 0.0
                && (0.0..9.007_199_254_740_992e15).contains(&n) =>
        {
            Ok(n as u64)
        }
        _ => Err("job must be a non-negative integer".into()),
    }
}

fn handle_status(job: &ServedJob, id: u64) -> Json {
    let progress = job.handle.progress();
    let (state, code) = match job.handle.poll() {
        None => ("running", None),
        Some(Ok(_)) => ("done", None),
        Some(Err(PilpError::Cancelled)) => ("cancelled", Some("cancelled")),
        Some(Err(e)) => ("failed", Some(error_code(&e))),
    };
    let mut builder = ObjectBuilder::new()
        .set("ok", Json::Bool(true))
        .set("op", Json::String("status".into()))
        .set("job", Json::Number(id as f64))
        .set("state", Json::String(state.into()))
        .set("solves", Json::Number(progress.solves as f64));
    if let Some(phase) = progress.phase {
        builder = builder.set("phase", Json::String(phase.to_string()));
    }
    if let Some(code) = code {
        builder = builder.set("error_code", Json::String(code.into()));
    }
    builder.build()
}

fn result_payload(job: &ServedJob, id: u64, request: &Json, result: &PilpResult) -> Json {
    let report = result.report();
    let exact = report
        .strips
        .iter()
        .filter(|s| s.length_error.abs() < 1e-3)
        .count();
    let mut builder = ObjectBuilder::new()
        .set("ok", Json::Bool(true))
        .set("op", Json::String("result".into()))
        .set("job", Json::Number(id as f64))
        .set("state", Json::String("done".into()))
        .set("strips", Json::Number(report.strips.len() as f64))
        .set("exact_lengths", Json::Number(exact as f64))
        .set("total_bends", Json::Number(report.total_bends as f64))
        .set("max_length_error_um", Json::Number(report.max_length_error))
        .set("drc_violations", Json::Number(report.drc_violations as f64))
        .set("solves", Json::Number(result.solver.solves as f64))
        .set(
            "simplex_iterations",
            Json::Number(result.solver.simplex_iterations as f64),
        )
        .set(
            "fallback_recoveries",
            Json::Number(result.solver.fallback_recoveries as f64),
        )
        .set(
            "runtime_ms",
            Json::Number(result.runtime.as_secs_f64() * 1e3),
        );
    if request.get("report").and_then(Json::as_bool) == Some(true) {
        builder = builder.set("report", Json::String(report.to_string()));
    }
    if request.get("svg").and_then(Json::as_bool) == Some(true) {
        builder = builder.set(
            "svg",
            Json::String(render::svg(&job.netlist, &result.layout)),
        );
    }
    builder.build()
}

fn handle_result(job: &ServedJob, id: u64, request: &Json) -> Json {
    match job.handle.wait() {
        Ok(result) => result_payload(job, id, request, &result),
        Err(e) => error_response("result", error_code(&e), &e.to_string()),
    }
}

/// Builds the variant netlists of a `sweep` request. Each variant is an
/// object applying any of `target_scale` (multiplies every microstrip
/// target length), `area` (`[w, h]` µm) and `spacing` (the minimum
/// spacing rule, µm) on top of the named base circuit.
fn build_variants(base: &Netlist, value: Option<&Json>) -> Result<Vec<Netlist>, String> {
    let Some(items) = value.and_then(Json::as_array) else {
        return Err("missing \"variants\" (array of objects)".into());
    };
    if items.is_empty() || items.len() > MAX_SWEEP_VARIANTS {
        return Err(format!(
            "variants must hold 1..={MAX_SWEEP_VARIANTS} objects"
        ));
    }
    let mut variants = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let Json::Object(fields) = item else {
            return Err(format!("variant {index} must be an object"));
        };
        for key in fields.keys() {
            if !["target_scale", "area", "spacing"].contains(&key.as_str()) {
                return Err(format!("variant {index}: unknown field {key:?}"));
            }
        }
        let mut netlist = base.clone();
        if let Some(value) = item.get("target_scale") {
            match value.as_f64() {
                Some(scale) if scale.is_finite() && scale > 0.0 && scale <= MAX_TARGET_SCALE => {
                    netlist = netlist.with_target_scale(scale);
                }
                _ => {
                    return Err(format!(
                        "variant {index}: target_scale must be in (0, {MAX_TARGET_SCALE}]"
                    ))
                }
            }
        }
        if let Some(value) = item.get("area") {
            let Some((w, h)) = parse_area(value) else {
                return Err(format!(
                    "variant {index}: area must be [width, height], each in (0, {MAX_AREA_UM}] µm"
                ));
            };
            netlist = netlist.with_area(w, h);
        }
        if let Some(value) = item.get("spacing") {
            match value.as_f64() {
                Some(spacing)
                    if spacing.is_finite() && spacing > 0.0 && spacing <= MAX_SPACING_UM =>
                {
                    // The spacing rule is twice the ground-plane distance.
                    netlist = netlist.with_ground_distance(spacing / 2.0);
                }
                _ => {
                    return Err(format!(
                        "variant {index}: spacing must be in (0, {MAX_SPACING_UM}] µm"
                    ))
                }
            }
        }
        variants.push(netlist);
    }
    Ok(variants)
}

/// Per-variant entry of a `sweep` response (the layout-quality and
/// solver-work subset of a `result` payload).
fn sweep_variant_payload(index: usize, outcome: &Result<PilpResult, PilpError>) -> Json {
    match outcome {
        Ok(result) => {
            let report = result.report();
            let exact = report
                .strips
                .iter()
                .filter(|s| s.length_error.abs() < 1e-3)
                .count();
            ObjectBuilder::new()
                .set("ok", Json::Bool(true))
                .set("variant", Json::Number(index as f64))
                .set("strips", Json::Number(report.strips.len() as f64))
                .set("exact_lengths", Json::Number(exact as f64))
                .set("total_bends", Json::Number(report.total_bends as f64))
                .set("max_length_error_um", Json::Number(report.max_length_error))
                .set("drc_violations", Json::Number(report.drc_violations as f64))
                .set("solves", Json::Number(result.solver.solves as f64))
                .set(
                    "simplex_iterations",
                    Json::Number(result.solver.simplex_iterations as f64),
                )
                .set(
                    "runtime_ms",
                    Json::Number(result.runtime.as_secs_f64() * 1e3),
                )
                .build()
        }
        Err(e) => ObjectBuilder::new()
            .set("ok", Json::Bool(false))
            .set("variant", Json::Number(index as f64))
            .set(
                "error",
                ObjectBuilder::new()
                    .set("code", Json::String(error_code(e).to_string()))
                    .set("message", Json::String(e.to_string()))
                    .build(),
            )
            .build(),
    }
}

/// Runs a `sweep` request to completion: the variants are laid out
/// sequentially in request order on the shared context, and the response
/// carries one entry per variant, in order.
fn handle_sweep(request: &Json, ctx: &JobContext) -> Json {
    let base = match requested_netlist("sweep", request) {
        Ok(netlist) => netlist,
        Err(rejection) => return rejection,
    };
    let variants = match build_variants(&base, request.get("variants")) {
        Ok(variants) => variants,
        Err(message) => return error_response("sweep", "bad_request", &message),
    };
    let config = match build_config(request) {
        Ok(config) => config,
        Err(message) => return error_response("sweep", "bad_request", &message),
    };
    let results = Pilp::new(config).submit_sweep_in(&variants, ctx).wait();
    let entries = results
        .iter()
        .enumerate()
        .map(|(index, outcome)| sweep_variant_payload(index, outcome))
        .collect();
    ObjectBuilder::new()
        .set("ok", Json::Bool(true))
        .set("op", Json::String("sweep".into()))
        .set("variants", Json::Number(results.len() as f64))
        .set("results", Json::Array(entries))
        .build()
}

/// Schema-checks an inline netlist without scheduling any solver work:
/// the cheap preflight for clients assembling documents by hand. The
/// reported `fingerprint` is the content hash that keys the
/// cross-request caches — two submits with equal fingerprints replay
/// the same cached flow.
fn handle_validate(request: &Json) -> Json {
    let Some(document) = request.get("netlist") else {
        return error_response("validate", "bad_request", "missing \"netlist\"");
    };
    match wire::parse_netlist(document) {
        Err(error) => invalid_netlist_response("validate", &error),
        Ok(netlist) => {
            let pads = netlist.devices().iter().filter(|d| d.is_pad()).count();
            ObjectBuilder::new()
                .set("ok", Json::Bool(true))
                .set("op", Json::String("validate".into()))
                .set("name", Json::String(netlist.name().to_string()))
                .set(
                    "devices",
                    Json::Number((netlist.devices().len() - pads) as f64),
                )
                .set("pads", Json::Number(pads as f64))
                .set("nets", Json::Number(netlist.microstrips().len() as f64))
                .set(
                    "fingerprint",
                    Json::String(format!("{:016x}", netlist.fingerprint())),
                )
                .build()
        }
    }
}

/// Dumps a named benchmark as a wire-format document — the starting
/// point for "export, edit, resubmit" and the generator of the inline
/// examples in `docs/NETLIST_SCHEMA.md`.
fn handle_export(request: &Json) -> Json {
    let Some(name) = request.get("circuit").and_then(Json::as_str) else {
        return error_response("export", "bad_request", "missing \"circuit\"");
    };
    let Some(netlist) = circuit_by_name(name) else {
        return error_response(
            "export",
            "bad_request",
            &format!("unknown circuit {name:?} ({})", known_circuit_names()),
        );
    };
    ObjectBuilder::new()
        .set("ok", Json::Bool(true))
        .set("op", Json::String("export".into()))
        .set("circuit", Json::String(name.to_string()))
        .set("netlist", wire::to_json(&netlist))
        .build()
}

/// Timestamps newly finished jobs and evicts those finished longer than
/// `ttl` ago. Evicted ids answer `unknown_job` afterwards.
fn reap_finished(jobs: &mut HashMap<u64, ServedJob>, ttl: Duration) {
    let now = Instant::now();
    for job in jobs.values_mut() {
        if job.finished_at.is_none() && job.handle.progress().done {
            job.finished_at = Some(now);
        }
    }
    jobs.retain(|_, job| match job.finished_at {
        Some(at) => now.duration_since(at) < ttl,
        None => true,
    });
}

/// Unfinished jobs currently admitted (the backpressure measure).
fn active_jobs(jobs: &HashMap<u64, ServedJob>) -> usize {
    jobs.values().filter(|j| j.finished_at.is_none()).count()
}

struct ServeOptions {
    workers: usize,
    max_jobs: usize,
    result_ttl: Duration,
}

fn parse_args() -> ServeOptions {
    let mut options = ServeOptions {
        workers: 0, // 0 = hardware parallelism (capped by the pool)
        max_jobs: DEFAULT_MAX_JOBS,
        result_ttl: Duration::from_secs(DEFAULT_RESULT_TTL_SECS),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |flag: &str| match args.next().and_then(|v| v.parse::<u64>().ok()) {
            Some(n) => n,
            None => {
                eprintln!("serve: {flag} needs a non-negative number");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--workers" => options.workers = numeric("--workers") as usize,
            "--max-jobs" => options.max_jobs = (numeric("--max-jobs") as usize).max(1),
            "--result-ttl-secs" => {
                options.result_ttl = Duration::from_secs(numeric("--result-ttl-secs"))
            }
            "--help" | "-h" => {
                println!(
                    "serve [--workers N] [--max-jobs N] [--result-ttl-secs S]  \
                     (line-delimited JSON on stdin/stdout)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("serve: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    options
}

fn main() {
    let options = parse_args();
    let ctx = JobContext::new(options.workers);
    let mut jobs: HashMap<u64, ServedJob> = HashMap::new();
    let mut next_id = 1u64;
    let mut draining = false;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        reap_finished(&mut jobs, options.result_ttl);
        // The raised cap keys off the raw line so an oversized request
        // is rejected before the JSON parser ever touches it.
        let line_cap = if line.contains("\"netlist\"") {
            MAX_NETLIST_LINE_BYTES
        } else {
            MAX_LINE_BYTES
        };
        if line.len() > line_cap {
            let response = error_response(
                "?",
                "line_too_long",
                &format!("request line exceeds {line_cap} bytes"),
            );
            let _ = writeln!(out, "{response}");
            let _ = out.flush();
            continue;
        }
        let request = match parse(&line) {
            Ok(request) => request,
            Err(message) => {
                let response = error_response("?", "bad_request", &format!("bad JSON: {message}"));
                let _ = writeln!(out, "{response}");
                let _ = out.flush();
                continue;
            }
        };
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        let mut shutdown = false;
        let response = match op {
            "submit" => {
                if let Some(rejected) = check_fields(
                    op,
                    &request,
                    &[
                        "op",
                        "circuit",
                        "netlist",
                        "config",
                        "deadline_ms",
                        "threads",
                        "area",
                    ],
                ) {
                    rejected
                } else if draining {
                    error_response(op, "shutting_down", "service is draining; no new jobs")
                } else if active_jobs(&jobs) >= options.max_jobs {
                    error_response(
                        op,
                        "backpressure",
                        &format!("{} jobs already in flight (--max-jobs)", options.max_jobs),
                    )
                } else {
                    let (response, job) = handle_submit(&request, &ctx, &mut next_id);
                    if let Some(job) = job {
                        jobs.insert(next_id - 1, job);
                    }
                    response
                }
            }
            "sweep" => {
                if let Some(rejected) = check_fields(
                    op,
                    &request,
                    &[
                        "op",
                        "circuit",
                        "netlist",
                        "variants",
                        "config",
                        "deadline_ms",
                        "threads",
                    ],
                ) {
                    rejected
                } else if draining {
                    error_response(op, "shutting_down", "service is draining; no new jobs")
                } else {
                    handle_sweep(&request, &ctx)
                }
            }
            // Pure schema/document ops: no job is scheduled, so they
            // stay available while the service drains.
            "validate" => match check_fields(op, &request, &["op", "netlist"]) {
                Some(rejected) => rejected,
                None => handle_validate(&request),
            },
            "export" => match check_fields(op, &request, &["op", "circuit"]) {
                Some(rejected) => rejected,
                None => handle_export(&request),
            },
            "status" | "result" | "cancel" => {
                let allowed: &[&str] = if op == "result" {
                    &["op", "job", "report", "svg"]
                } else {
                    &["op", "job"]
                };
                if let Some(rejected) = check_fields(op, &request, allowed) {
                    rejected
                } else {
                    match job_id(&request) {
                        Err(message) => error_response(op, "bad_request", &message),
                        Ok(id) => match jobs.get(&id) {
                            None => error_response(op, "unknown_job", &format!("no job {id}")),
                            Some(job) => match op {
                                "status" => handle_status(job, id),
                                "result" => handle_result(job, id, &request),
                                _ => {
                                    job.handle.cancel();
                                    ObjectBuilder::new()
                                        .set("ok", Json::Bool(true))
                                        .set("op", Json::String("cancel".into()))
                                        .set("job", Json::Number(id as f64))
                                        .build()
                                }
                            },
                        },
                    }
                }
            }
            "shutdown" => match check_fields(op, &request, &["op", "drain"]) {
                Some(rejected) => rejected,
                None => {
                    let drain = request.get("drain").and_then(Json::as_bool) == Some(true);
                    if drain {
                        draining = true;
                    } else {
                        shutdown = true;
                    }
                    let mut builder = ObjectBuilder::new()
                        .set("ok", Json::Bool(true))
                        .set("op", Json::String("shutdown".into()));
                    if drain {
                        builder = builder.set("draining", Json::Bool(true));
                    }
                    builder.build()
                }
            },
            other => error_response(
                other,
                "bad_request",
                "op must be submit/sweep/validate/export/status/result/cancel/shutdown",
            ),
        };
        let _ = writeln!(out, "{response}");
        let _ = out.flush();
        if shutdown {
            break;
        }
        if draining && jobs.values().all(|j| j.handle.progress().done) {
            break;
        }
    }

    // Clean shutdown. An immediate shutdown cancels whatever is still
    // running so the pool drains promptly; a drain shutdown lets the
    // in-flight jobs run to completion first.
    if !draining {
        for job in jobs.values() {
            job.handle.cancel();
        }
    }
    for job in jobs.values() {
        let _ = job.handle.wait();
    }
    ctx.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_config_maps_a_preset_with_overrides() {
        let request =
            parse(r#"{"config":"thorough","deadline_ms":1500,"threads":2}"#).expect("valid JSON");
        assert_eq!(
            build_config(&request),
            Ok(PilpConfig {
                deadline: Some(Duration::from_millis(1500)),
                solver_threads: 2,
                ..PilpConfig::thorough()
            })
        );
    }
}
