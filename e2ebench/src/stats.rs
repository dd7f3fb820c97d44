//! Sample buffers, quantiles and process memory readings.

use std::time::Duration;

/// A preallocated buffer of durations in nanoseconds.
///
/// The buffer is written once before the timed window opens, so its pages
/// are already resident and recording a sample never grows the process's
/// resident set — the memory metric then sees only what the program under
/// test retains.  Samples past the capacity are counted, not stored.
pub struct Samples {
    ns: Vec<u32>,
    overflow: u64,
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Self {
        let mut ns = Vec::with_capacity(capacity);
        ns.resize(capacity, 1);
        ns.clear();
        Samples { ns, overflow: 0 }
    }

    pub fn push(&mut self, elapsed: Duration) {
        if self.ns.len() < self.ns.capacity() {
            self.ns
                .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
        } else {
            self.overflow += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&v| v as f64).sum::<f64>() / self.ns.len() as f64 / 1e3
    }

    /// Sort once; quantiles are then read with [`Samples::quantile_us`].
    pub fn sort(&mut self) {
        self.ns.sort_unstable();
    }

    /// Nearest-rank quantile in microseconds of sorted samples (0 when
    /// empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.ns, q) as f64 / 1e3
    }

    /// Quantiles `qs` (µs) of each consecutive run of samples that starts
    /// at an index of `starts`.  Call before [`Samples::sort`].
    pub fn slice_quantiles_us(&self, starts: &[usize], qs: &[f64]) -> Vec<Vec<f64>> {
        starts
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                let end = starts.get(i + 1).copied().unwrap_or(self.ns.len());
                let mut slice = self.ns[start.min(end)..end].to_vec();
                slice.sort_unstable();
                qs.iter()
                    .map(|&q| quantile_sorted(&slice, q) as f64 / 1e3)
                    .collect()
            })
            .collect()
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile_sorted<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile of a power-of-two histogram (bucket 0 counts zeros, bucket
/// `i >= 1` counts values in `[2^(i-1), 2^i)`), interpolated linearly by
/// rank inside the bucket the quantile falls in.  0 when empty.
pub fn pow2_quantile(buckets: &[u64], q: f64) -> f64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
    let mut seen = 0.0;
    for (index, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= target {
            if index == 0 {
                return 0.0;
            }
            let lo = (1u64 << (index - 1)) as f64;
            let hi = (1u64 << index) as f64;
            return lo + (hi - lo) * (target - seen) / n as f64;
        }
        seen += n as f64;
    }
    0.0
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A field of `/proc/self/status` in bytes (the file reports kB).
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// The process's resident set and the host's CPU time counters at one
/// moment.
#[derive(Debug, Clone, Copy)]
pub struct HostReading {
    pub rss_bytes: u64,
    /// All CPU time of the machine and the part of it stolen by the
    /// hypervisor, in clock ticks (`/proc/stat`).
    pub cpu_ticks: u64,
    pub steal_ticks: u64,
}

impl HostReading {
    pub fn now() -> HostReading {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // "cpu user nice system idle iowait irq softirq steal ..."
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        HostReading {
            rss_bytes: status_bytes("VmRSS:"),
            cpu_ticks: ticks.iter().sum(),
            steal_ticks: ticks.get(7).copied().unwrap_or(0),
        }
    }
}

/// The process's peak resident set size in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Median of a set of values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile_sorted(&v, 0.5), 5);
        assert_eq!(quantile_sorted(&v, 0.99), 10);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), 0);
    }

    #[test]
    fn pow2_quantile_interpolates_inside_the_bucket() {
        // Four values in [4, 8): the median sits halfway through.
        let buckets = [0, 0, 0, 4];
        assert_eq!(pow2_quantile(&buckets, 0.5), 6.0);
        assert_eq!(pow2_quantile(&[0; 4], 0.5), 0.0);
    }

    #[test]
    fn samples_count_overflow_instead_of_growing() {
        let mut s = Samples::with_capacity(2);
        for ms in 1..=3 {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!((s.len(), s.overflow()), (2, 1));
        s.sort();
        assert_eq!(s.quantile_us(1.0), 2_000.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_per_slice() {
        let mut s = Samples::with_capacity(8);
        for us in [5, 1, 3, 40, 20, 10] {
            s.push(Duration::from_micros(us));
        }
        let q = s.slice_quantiles_us(&[0, 3], &[0.5, 1.0]);
        assert_eq!(q, vec![vec![3.0, 5.0], vec![20.0, 40.0]]);
    }
}
