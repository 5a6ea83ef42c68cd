//! The benchmark's own arithmetic: medians, percentiles, the tail
//! percentile rule, span self time, sweep idle fraction and failed
//! fraction.

/// Median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between closest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Percentiles the benchmark may report as a tail, lowest first.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of
/// `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// A closed interval of time, in nanoseconds since a common origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start.
    pub start: u64,
    /// End (`>= start`).
    pub end: u64,
}

/// Self time of a span: its duration minus the part of it that the
/// union of its children's intervals covers (children are clipped to
/// the parent, and overlapping children count once).
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut reach = parent.start;
    for c in clipped {
        let from = c.start.max(reach);
        if c.end > from {
            covered += c.end - from;
            reach = c.end;
        }
    }
    (parent.end - parent.start) - covered
}

/// Share of the worker threads' time a sweep left idle:
/// `1 − busy / (threads × wall)`.
pub fn idle_frac(busy_s: f64, threads: usize, wall_s: f64) -> f64 {
    1.0 - busy_s / (threads as f64 * wall_s)
}

/// Errored plus timed-out cells over cells attempted (0 when nothing
/// was attempted).
pub fn failed_frac(errored: usize, timed_out: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        (errored + timed_out) as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 95.0), 9.5);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(17280), Some(99.9));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Interval {
            start: 100,
            end: 200,
        };
        assert_eq!(self_time(parent, &[]), 100);
        // Disjoint children.
        let a = Interval {
            start: 110,
            end: 130,
        };
        let b = Interval {
            start: 150,
            end: 160,
        };
        assert_eq!(self_time(parent, &[b, a]), 70);
        // Overlapping children count once.
        let c = Interval {
            start: 120,
            end: 155,
        };
        assert_eq!(self_time(parent, &[a, b, c]), 50);
        // Children are clipped to the parent.
        let d = Interval {
            start: 50,
            end: 120,
        };
        let e = Interval {
            start: 190,
            end: 300,
        };
        assert_eq!(self_time(parent, &[d, e]), 70);
        // A child covering the parent leaves nothing.
        assert_eq!(self_time(parent, &[Interval { start: 0, end: 500 }]), 0);
    }

    #[test]
    fn idle_fraction_of_a_two_thread_sweep() {
        assert_eq!(idle_frac(2.0, 2, 1.0), 0.0);
        assert_eq!(idle_frac(1.5, 2, 1.0), 0.25);
        assert_eq!(idle_frac(0.0, 2, 1.0), 1.0);
    }

    #[test]
    fn failed_fraction_counts_errors_and_timeouts() {
        assert_eq!(failed_frac(0, 0, 0), 0.0);
        assert_eq!(failed_frac(0, 0, 10), 0.0);
        assert_eq!(failed_frac(1, 1, 8), 0.25);
        assert_eq!(failed_frac(4, 0, 4), 1.0);
    }
}
