//! Order statistics, the host-noise spin and the `/proc` readers.

use std::path::Path;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts in place. Panics on an empty slice: every caller measures at
/// least one sample before asking.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), so `--repeat` prints the spread the driver
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Latency samples kept run-length encoded: every op of one send burst
/// answered by one read shares a latency, so a pair per (burst, read)
/// keeps the sample memory independent of how fast the daemon is.
#[derive(Default)]
pub struct LatencySamples {
    runs: Vec<(u32, u32)>,
    count: u64,
}

impl LatencySamples {
    pub fn record(&mut self, nanos: u64, ops: u32) {
        let nanos = u32::try_from(nanos).unwrap_or(u32::MAX);
        match self.runs.last_mut() {
            Some((last, n)) if *last == nanos => *n += ops,
            _ => self.runs.push((nanos, ops)),
        }
        self.count += u64::from(ops);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in microseconds (nearest rank), or `None` when
    /// fewer than ten samples lie beyond it — a percentile the sample
    /// cannot support is not reported.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        let beyond = ((1.0 - q) * self.count as f64).floor() as u64;
        if self.count == 0 || (q > 0.5 && beyond < 10) {
            return None;
        }
        self.runs.sort_unstable_by_key(|&(nanos, _)| nanos);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(nanos, n) in &self.runs {
            seen += u64::from(n);
            if seen >= rank {
                return Some(f64::from(nanos) / 1000.0);
            }
        }
        unreachable!("rank is within the sample count")
    }
}

/// A fixed pure-CPU loop (SplitMix64 over 2^24 steps), timed: the same
/// instructions every call, so a different reading before and after a
/// window is the host, not the program.
pub fn spin_ns() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..(1u32 << 24) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64
}

/// True when the two spin readings differ by more than a tenth.
pub fn noisy(before: f64, after: f64) -> bool {
    (before - after).abs() > 0.1 * before.min(after)
}

fn first_field_ns(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Sums `read` over the `/proc` directory of every live thread of this
/// process. The threads that do the measured work (client, server
/// worker, journal flusher) all outlive the window, so differences over
/// a window are exact.
fn sum_over_threads(read: impl Fn(&Path) -> Option<u64>) -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|entry| read(&entry.ok()?.path()))
        .sum()
}

/// On-CPU nanoseconds of the calling thread (`schedstat`, first field).
pub fn thread_cpu_ns() -> u64 {
    first_field_ns("/proc/thread-self/schedstat".as_ref())
        .expect("/proc/thread-self/schedstat is readable")
}

/// On-CPU nanoseconds of every live thread of this process.
pub fn process_cpu_ns() -> u64 {
    sum_over_threads(|task| first_field_ns(&task.join("schedstat")))
}

fn status_field_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM:").expect("/proc/self/status has VmHWM") / 1024.0
}

fn voluntary_switches(status_path: &Path) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Times the calling thread has blocked and been woken.
pub fn thread_voluntary_switches() -> u64 {
    voluntary_switches("/proc/thread-self/status".as_ref())
        .expect("/proc/thread-self/status has voluntary_ctxt_switches")
}

/// The same over every live thread of this process.
pub fn process_voluntary_switches() -> u64 {
    sum_over_threads(|task| voluntary_switches(&task.join("status")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
    }

    #[test]
    fn latency_quantiles_are_nearest_rank_over_the_run_lengths() {
        let mut s = LatencySamples::default();
        s.record(3_000, 50);
        s.record(1_000, 49);
        s.record(9_000, 1);
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile_us(0.5), Some(3.0));
        assert_eq!(s.quantile_us(0.49), Some(1.0));
        // One sample beyond p99: not enough to report it.
        assert_eq!(s.quantile_us(0.99), None);
        s.record(9_000, 900);
        assert_eq!(s.quantile_us(0.99), Some(9.0));
    }

    #[test]
    fn equal_neighbouring_latencies_share_a_run() {
        let mut s = LatencySamples::default();
        s.record(7, 3);
        s.record(7, 2);
        assert_eq!(s.runs, vec![(7, 5)]);
    }

    #[test]
    fn noise_flag_needs_more_than_a_tenth() {
        assert!(!noisy(100.0, 109.0));
        assert!(noisy(100.0, 111.0));
        assert!(noisy(111.0, 100.0));
    }
}
