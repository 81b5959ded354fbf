//! Order statistics and failure accounting shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Nearest-rank index (0-based) of the `pct`-th percentile of `n` sorted
/// samples.
fn rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie beyond the nearest-rank `pct`-th
/// percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, pct)
    }
}

/// Samples needed beyond a percentile before it is reported: a percentile
/// resting on fewer outliers than this is one or two unlucky calls.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile of `samples`, or `None` unless at
/// least [`MIN_BEYOND`] samples lie beyond it. Reorders `samples`.
pub fn percentile(samples: &mut [u64], pct: f64) -> Option<u64> {
    if beyond(samples.len(), pct) < MIN_BEYOND {
        return None;
    }
    let r = rank(samples.len(), pct);
    Some(*samples.select_nth_unstable(r).1)
}

/// Ops attempted and ops lost to failed runs. A run that fails any check,
/// times out or wedges counts every op it issued as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    /// Ops of failed runs ÷ ops attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples has n - ceil(0.99 n) samples beyond it: 1000
        // samples leave exactly 10, 999 leave only 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        let mut a: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut a, 99.0), Some(990));
        let mut b: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&mut b, 99.0), None);
        // The median only needs 20 samples.
        let mut c: Vec<u64> = (1..=20).rev().collect();
        assert_eq!(percentile(&mut c, 50.0), Some(10));
        let mut d: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&mut d, 50.0), None);
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank_regardless_of_order() {
        let mut v: Vec<u64> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(999));
        assert_eq!(percentile(&mut v, 99.0), Some(1979));
    }

    #[test]
    fn failed_share_counts_every_op_of_a_failed_run() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.record(300, true);
        t.record(100, false);
        t.record(600, true);
        assert_eq!(t, Tally { attempted: 1000, failed: 100 });
        assert_eq!(t.failed_share(), 0.1);
    }
}
