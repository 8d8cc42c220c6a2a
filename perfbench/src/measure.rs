//! Best-of-R timing, percentiles and process facts.
//!
//! A run does fixed work: every item is executed once to warm up, then
//! once per round for R rounds, each round visiting every item in the
//! same order. An item's time is its minimum over the rounds, so a burst
//! of host noise inflates one sample of many items rather than all
//! samples of a few.

use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds since `start`.
#[inline]
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Per-item minima over the rounds of a run.
#[derive(Debug, Clone)]
pub struct Minima {
    ns: Vec<u64>,
}

impl Minima {
    /// `items` slots, none measured yet.
    pub fn new(items: usize) -> Minima {
        Minima {
            ns: vec![u64::MAX; items],
        }
    }

    /// Folds one sample of item `i` in.
    #[inline]
    pub fn record(&mut self, i: usize, ns: u64) {
        if ns < self.ns[i] {
            self.ns[i] = ns;
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of the minima over the items `keep` selects, in seconds.
    pub fn sum_s(&self, keep: impl Fn(usize) -> bool) -> f64 {
        self.ns
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .map(|(_, &ns)| ns as f64)
            .sum::<f64>()
            / 1e9
    }

    /// The minima of the items `keep` selects, in microseconds, sorted.
    pub fn sorted_us(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .ns
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The `p`-quantile (0..=1) of sorted values, linearly interpolated.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of unsorted values.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

/// A fixed integer kernel (an LCG chain with a data-dependent branch)
/// timed best-of-`n`, in microseconds. It depends on nothing the
/// benchmark measures, so a slow reading marks a slow host, not a slow
/// program. Diagnostic only: never used to scale or drop a figure.
pub fn host_probe_us(n: usize) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..n {
        let start = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = 0u64;
        for _ in 0..200_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            if x >> 62 == 0 {
                acc = acc.wrapping_add(x >> 7);
            }
        }
        black_box(acc);
        best = best.min(ns_since(start));
    }
    best as f64 / 1e3
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Tallies operations and the first few failures of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations executed (warm-up and every round included).
    pub attempted: u64,
    /// Operations whose answer did not match the expectation or the
    /// oracle, plus I/O errors.
    pub failed: u64,
    /// The first failure messages, for the log.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn minima_keep_the_smallest_sample() {
        let mut m = Minima::new(2);
        m.record(0, 30);
        m.record(0, 10);
        m.record(1, 5);
        assert_eq!(m.sum_s(|_| true), 15e-9);
        assert_eq!(m.sorted_us(|i| i == 0), vec![0.01]);
    }
}
