//! Sample summaries: medians, nearest-rank percentiles and the tail rule.

use std::time::Duration;

/// Percentiles the tail rule chooses among, in per-mille, lowest first.
const TAIL_LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// A reported tail percentile must leave at least this many samples
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `per_mille` in
/// 0..=1000. Returns 0 for an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = rank(sorted.len(), per_mille).max(1);
    sorted[rank - 1]
}

/// Number of samples at or below the `per_mille` nearest-rank percentile.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000)
}

/// The highest ladder percentile (per-mille) that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
#[must_use]
pub fn tail_per_mille(n: usize) -> Option<usize> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail percentile: the named one, or lower when the sample is too
    /// small for it (500 when too small for any tail; the tail then
    /// repeats the median).
    pub tail_per_mille: usize,
    /// Value at that percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarise an unsorted sample, with the tail at `named_per_mille`
    /// when the sample leaves [`MIN_BEYOND`] samples beyond it, else at
    /// the highest percentile that does.
    #[must_use]
    pub fn of(samples: &[f64], named_per_mille: usize) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_per_mille = tail_per_mille(s.len()).map_or(500, |p| p.min(named_per_mille));
        Summary {
            n: s.len(),
            p50: percentile(&s, 500),
            tail_per_mille,
            tail: percentile(&s, tail_per_mille),
        }
    }

    /// `p99`-style label of the tail percentile.
    #[must_use]
    pub fn tail_label(&self) -> String {
        let p = self.tail_per_mille;
        if p.is_multiple_of(10) {
            format!("p{}", p / 10)
        } else {
            format!("p{}.{}", p / 10, p % 10)
        }
    }
}

/// Samples tagged with the window of the timed phase they ended in.
/// Summaries take the median over windows, so a burst of interference
/// from outside the process moves a few windows and not the result.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    samples: Vec<(usize, f64)>,
}

impl Windowed {
    /// Record `v` in `window`.
    pub fn push(&mut self, window: usize, v: f64) {
        self.samples.push((window, v));
    }

    /// Take over `other`'s samples.
    pub fn append(&mut self, other: &mut Windowed) {
        self.samples.append(&mut other.samples);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The samples of each full window: windows holding fewer than half
    /// the samples of the fullest (a partial last window) are left out.
    fn windows(&self) -> Vec<Vec<f64>> {
        let n = self.samples.iter().map(|s| s.0 + 1).max().unwrap_or(0);
        let mut w = vec![Vec::new(); n];
        for &(i, v) in &self.samples {
            w[i].push(v);
        }
        let fullest = w.iter().map(Vec::len).max().unwrap_or(0);
        w.retain(|v| !v.is_empty() && 2 * v.len() >= fullest);
        w
    }

    /// Median over full windows of each window's median and tail. The
    /// tail is at `named_per_mille`, or lower when a window is too small
    /// for it (see [`Summary::of`]).
    #[must_use]
    pub fn summary(&self, named_per_mille: usize) -> Summary {
        let windows = self.windows();
        let per: Vec<Summary> = windows
            .iter()
            .map(|w| Summary::of(w, named_per_mille))
            .collect();
        let Some(tail_per_mille) = per.iter().map(|s| s.tail_per_mille).min() else {
            return Summary::default();
        };
        let tails: Vec<f64> = windows
            .iter()
            .map(|w| {
                let mut w = w.clone();
                w.sort_by(f64::total_cmp);
                percentile(&w, tail_per_mille)
            })
            .collect();
        Summary {
            n: self.len(),
            p50: median(&per.iter().map(|s| s.p50).collect::<Vec<_>>()),
            tail_per_mille,
            tail: median(&tails),
        }
    }
}

/// Median over windows of `count / busy`: per-window throughput, where
/// `count[i]` operations took `busy[i]` seconds. Windows with less than
/// half the busy time of the busiest are left out.
#[must_use]
pub fn windowed_rate(count: &[u64], busy: &[f64]) -> f64 {
    let fullest = busy.iter().copied().fold(0.0, f64::max);
    let rates: Vec<f64> = count
        .iter()
        .zip(busy)
        .filter(|(_, b)| **b > 0.0 && 2.0 * **b >= fullest)
        .map(|(c, b)| *c as f64 / b)
        .collect();
    median(&rates)
}

/// Tracing overhead: 1 − traced ÷ untraced throughput, from operations
/// and busy time of the `[untraced, traced]` slices.
#[must_use]
pub fn overhead_frac(ops: [u64; 2], busy: [Duration; 2]) -> f64 {
    let untraced = ratio(ops[0] as f64, busy[0].as_secs_f64());
    let traced = ratio(ops[1] as f64, busy[1].as_secs_f64());
    1.0 - ratio(traced, untraced)
}

/// Median of an unsorted sample (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 500)
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // Too few for any tail: the median itself needs 20 samples.
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        // p90 first qualifies at 100 samples (ranks 91..=100 lie beyond).
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        // p95 at 200, p99 at 1,000, p99.9 at 10,000.
        assert_eq!(tail_per_mille(199), Some(900));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(1_000), Some(990));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn chosen_tail_leaves_at_least_ten_beyond() {
        for n in 20..3_000 {
            let p = tail_per_mille(n).unwrap();
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let v = percentile(&samples, p);
            let beyond = samples.iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn windowed_summary_takes_medians_over_full_windows() {
        let mut w = Windowed::default();
        for i in 0..1_000 {
            w.push(0, f64::from(i));
            w.push(1, f64::from(i) + 1.0);
            // One disturbed window.
            w.push(2, f64::from(i) * 100.0);
        }
        // A partial last window is ignored.
        w.push(3, 1e9);
        let s = w.summary(990);
        assert_eq!(s.n, 3_001);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(windowed_rate(&[10, 30, 20, 1], &[1.0, 1.0, 2.0, 0.1]), 10.0);
    }

    #[test]
    fn summary_of_uniform_ramp() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = Summary::of(&samples, 990);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(s.tail, 990.0);
        // The named percentile caps the tail; too few samples lower it.
        assert_eq!(Summary::of(&samples, 900).tail, 900.0);
        assert_eq!(Summary::of(&samples[..500], 990).tail_label(), "p95");
        assert_eq!(Summary::of(&samples[..150], 990).tail_label(), "p90");
        let small = Summary::of(&[3.0, 1.0, 2.0], 990);
        assert_eq!(
            (small.p50, small.tail, small.tail_label().as_str()),
            (2.0, 2.0, "p50")
        );
    }
}
