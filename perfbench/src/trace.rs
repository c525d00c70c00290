//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches inside the program: spans start and end at
//! the public API, except the phase spans, which are laid end to end from
//! the program's own `PhaseSnapshot::elapsed` and tagged as reported.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Request id of the spans that replay solve sites after the window.
pub const SITE_REPLAY: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: usize,
    /// Layer boundary name, e.g. `netlist.parse`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to ([`SITE_REPLAY`] for site replays).
    pub request: u64,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// `true` when the interval comes from a duration the program reported
    /// rather than from the benchmark's own clock.
    pub reported: bool,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. Disabled, it records nothing and hands out id 0.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicUsize::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Time since the epoch.
    fn at(&self, instant: Instant) -> Duration {
        instant.saturating_duration_since(self.epoch)
    }

    /// Reserves a span id, so children can name a parent that closes after
    /// them.
    pub fn reserve(&self) -> usize {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: usize,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
        reported: bool,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            name,
            parent,
            request,
            start: self.at(start),
            end: self.at(end),
            reported,
        };
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking client")
            .push(span);
    }

    /// Reserves an id and records in one step (for leaf spans).
    pub fn leaf(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record(id, name, parent, request, start, end, false);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking client")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<usize, Duration> {
    let mut children: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut intervals: Vec<(Duration, Duration)> = children
                .get(&s.id)
                .map(|cs| {
                    cs.iter()
                        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            intervals.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Self time per span name, summed within each request: `name → one
/// value per request that has the span`, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let mut per: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for s in spans {
        *per.entry((s.name, s.request)).or_default() += selfs[&s.id].as_secs_f64();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), secs) in per {
        out.entry(name).or_default().push(secs);
    }
    out
}

/// Measured cost of recording one span: the two clock reads around a call
/// plus the id reservation and the push, averaged over `samples` spans.
pub fn span_cost(samples: usize) -> Duration {
    let scratch = Tracer::new(true);
    let start = Instant::now();
    for i in 0..samples {
        let t0 = Instant::now();
        let t1 = Instant::now();
        scratch.leaf("calibrate", None, i as u64, t0, t1);
    }
    start.elapsed() / samples.max(1) as u32
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let request = if s.request == SITE_REPLAY {
            "\"site-replay\"".to_string()
        } else {
            s.request.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"request\":{request},\"start_us\":{},\"end_us\":{},\"reported\":{}}}",
            s.id,
            s.name,
            s.start.as_micros(),
            s.end.as_micros(),
            s.reported
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            id,
            name: "s",
            parent,
            request: 0,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            reported: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50), // overlaps span 2 by 10 ms
            span(4, Some(2), 10, 20),
            span(5, Some(1), 90, 130), // sticks out of its parent
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], Duration::from_millis(100 - 40 - 10));
        assert_eq!(selfs[&2], Duration::from_millis(20));
        assert_eq!(selfs[&3], Duration::from_millis(20));
        assert_eq!(selfs[&4], Duration::from_millis(10));
    }

    #[test]
    fn self_time_is_summed_per_request_and_name() {
        let mut a = span(1, None, 0, 10);
        a.name = "job";
        let mut b = span(2, None, 20, 25);
        b.name = "job";
        let mut c = span(3, None, 0, 7);
        c.name = "job";
        c.request = 1;
        let by_name = self_time_by_name(&[a, b, c]);
        assert_eq!(by_name["job"], vec![0.015, 0.007]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.reserve(), 0);
        t.leaf("x", None, 0, now, now);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        on.leaf("x", None, 0, now, now);
        assert_eq!(on.spans().len(), 1);
    }

    #[test]
    fn json_lines_name_parent_and_request() {
        let mut s = span(7, Some(3), 1, 2);
        s.request = SITE_REPLAY;
        let text = to_json_lines(&[s]);
        assert!(text.contains("\"parent\":3"));
        assert!(text.contains("\"request\":\"site-replay\""));
        assert!(text.ends_with("}\n"));
    }
}
