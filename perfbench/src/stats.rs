//! The benchmark's own arithmetic: medians and tail percentiles with
//! their sample counts, ratios carried with their base, and per-request
//! deltas of the cumulative counters a shared `JobContext` exposes.

use std::fmt;

use rfic_core::JobContext;

/// Median of a sample (mean of the two middle values for an even count);
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile that still has at least `beyond` samples above
/// it, as `(q, value)`: with `n` samples that is rank `n - beyond`, so it
/// needs `n > beyond`. A tail quoted from fewer samples is noise.
pub fn tail_percentile(samples: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let rank = n - beyond;
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A timing or count summary: sample count, median and the tail
/// percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (0 for an empty sample).
    pub median: f64,
    /// `(q, value)` of the highest percentile with ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises a sample.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            median: median(samples).unwrap_or(0.0),
            tail: tail_percentile(samples, 10),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "median {:.4} (n={})", self.median, self.n)?;
        match self.tail {
            Some((q, v)) => write!(f, ", p{:.0} {v:.4}", q * 100.0),
            None => f.write_str(", no tail (n<=10)"),
        }
    }
}

/// A ratio that keeps its base: `part / base`, never divided out of
/// context. An empty base has no value rather than a fake 0 or NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: f64,
    /// Denominator (the base the ratio is taken over).
    pub base: f64,
}

impl Ratio {
    /// `part / base`.
    pub fn new(part: f64, base: f64) -> Ratio {
        Ratio { part, base }
    }

    /// The quotient, `None` when the base is 0.
    pub fn value(&self) -> Option<f64> {
        (self.base != 0.0).then(|| self.part / self.base)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{v:.4} ({}/{})", self.part, self.base),
            None => write!(f, "n/a ({}/0)", self.part),
        }
    }
}

/// The cumulative counters a [`JobContext`] exposes, read at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextCounters {
    /// `FlowCache::hits`.
    pub flow_hits: u64,
    /// `FlowCache::misses`.
    pub flow_misses: u64,
    /// `ModelCache::hits`.
    pub model_hits: u64,
    /// `ModelCache::misses`.
    pub model_misses: u64,
    /// `SolverPool::completed_trees`.
    pub trees: u64,
}

impl ContextCounters {
    /// Reads every counter of `ctx`.
    pub fn read(ctx: &JobContext) -> ContextCounters {
        ContextCounters {
            flow_hits: ctx.cache().hits() as u64,
            flow_misses: ctx.cache().misses() as u64,
            model_hits: ctx.model_cache().hits() as u64,
            model_misses: ctx.model_cache().misses() as u64,
            trees: ctx.pool().completed_trees(),
        }
    }

    /// Counter growth since `before`. Counters only grow; a smaller
    /// reading means `before` came from another context.
    pub fn since(&self, before: &ContextCounters) -> ContextCounters {
        let d = |after: u64, before: u64| {
            after
                .checked_sub(before)
                .expect("counters are read from one context and only grow")
        };
        ContextCounters {
            flow_hits: d(self.flow_hits, before.flow_hits),
            flow_misses: d(self.flow_misses, before.flow_misses),
            model_hits: d(self.model_hits, before.model_hits),
            model_misses: d(self.model_misses, before.model_misses),
            trees: d(self.trees, before.trees),
        }
    }

    /// The growth of a window spread over the `requests` that ran in it.
    /// Concurrent clients share one context, so a single request's own
    /// delta cannot be isolated; the window total over its requests can.
    pub fn per_request(&self, requests: usize) -> PerRequest {
        let n = requests.max(1) as f64;
        PerRequest {
            flow_hits: self.flow_hits as f64 / n,
            flow_misses: self.flow_misses as f64 / n,
            model_hits: self.model_hits as f64 / n,
            model_misses: self.model_misses as f64 / n,
            trees: self.trees as f64 / n,
        }
    }
}

/// [`ContextCounters`] growth per request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerRequest {
    /// FlowCache hits per request.
    pub flow_hits: f64,
    /// FlowCache misses per request.
    pub flow_misses: f64,
    /// ModelCache hits per request.
    pub model_hits: f64,
    /// ModelCache misses per request.
    pub model_misses: f64,
    /// Pool trees completed per request.
    pub trees: f64,
}

impl PerRequest {
    /// FlowCache hits over lookups.
    pub fn flow_hit_ratio(&self) -> Ratio {
        Ratio::new(self.flow_hits, self.flow_hits + self.flow_misses)
    }

    /// ModelCache hits over lookups.
    pub fn model_hit_ratio(&self) -> Ratio {
        Ratio::new(self.model_hits, self.model_hits + self.model_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), None, "10 samples have no tail");
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        // Rank 10 of 20: p50, with samples 11..=20 beyond it.
        assert_eq!(tail_percentile(&xs, 10), Some((0.5, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((0.9, 90.0)));
    }

    #[test]
    fn summary_states_its_sample_count() {
        let s = Summary::of(&[2.0, 1.0, 3.0]);
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
        assert!(s.to_string().contains("n=3"));
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.median), (0, 0.0));
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(15.0, 20.0);
        assert_eq!(r.value(), Some(0.75));
        assert_eq!(r.to_string(), "0.7500 (15/20)");
        let none = Ratio::new(0.0, 0.0);
        assert_eq!(none.value(), None);
        assert_eq!(none.to_string(), "n/a (0/0)");
    }

    #[test]
    fn hit_ratios_use_lookups_as_base() {
        let per = PerRequest {
            flow_hits: 15.0,
            flow_misses: 5.0,
            model_hits: 1.0,
            model_misses: 12.0,
            trees: 5.0,
        };
        assert_eq!(per.flow_hit_ratio(), Ratio::new(15.0, 20.0));
        assert_eq!(per.model_hit_ratio(), Ratio::new(1.0, 13.0));
    }

    #[test]
    fn counter_deltas_are_spread_over_the_window_requests() {
        let before = ContextCounters {
            flow_hits: 15,
            flow_misses: 25,
            model_hits: 1,
            model_misses: 12,
            trees: 23,
        };
        // Two identical replay requests on top of the set-up fill.
        let after = ContextCounters {
            flow_hits: 45,
            flow_misses: 35,
            model_hits: 1,
            model_misses: 22,
            trees: 33,
        };
        let delta = after.since(&before);
        assert_eq!(delta.flow_hits, 30);
        let per = delta.per_request(2);
        assert_eq!(per.flow_hits, 15.0);
        assert_eq!(per.flow_misses, 5.0);
        assert_eq!(per.model_hits, 0.0);
        assert_eq!(per.model_misses, 5.0);
        assert_eq!(per.trees, 5.0);
        assert_eq!(per.flow_hit_ratio().value(), Some(0.75));
    }

    #[test]
    fn counter_deltas_on_a_shared_context_start_at_zero() {
        let ctx = JobContext::new(1);
        let before = ContextCounters::read(&ctx);
        assert!(ctx.cache().lookup(42).is_none());
        assert!(ctx.model_cache().lookup(42).is_none());
        let delta = ContextCounters::read(&ctx).since(&before);
        assert_eq!(
            delta,
            ContextCounters {
                flow_misses: 1,
                model_misses: 1,
                ..ContextCounters::default()
            }
        );
        ctx.shutdown();
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn a_shrinking_counter_is_a_bug() {
        let before = ContextCounters {
            trees: 2,
            ..ContextCounters::default()
        };
        let _ = ContextCounters::default().since(&before);
    }
}
