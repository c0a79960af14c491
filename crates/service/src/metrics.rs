//! Operation counters for the daemon and for each registered machine.

use crate::score::{splitmix64, SPLITMIX64_GAMMA};
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of bucket slots in a [`LogLinearHistogram`]. 512 covers the
/// full 64-bit tick range (the highest reachable index is 495): 4 KiB of
/// `u64` counts per histogram that has recorded anything, none for one
/// that has not.
pub const LOG_LINEAR_SLOTS: usize = 512;

/// A bounded-footprint log-linear histogram in the HdrHistogram family:
/// values are converted to integer *ticks* (`value × scale`, truncated)
/// and bucketed with 8 linear sub-buckets per power-of-two octave
/// (precision `K = 3`), giving a worst-case relative bucket width of
/// 12.5% across the whole range. Ticks below 16 get exact unit-width
/// buckets, so small counts are never smeared.
///
/// Bucketing is pure integer arithmetic on the tick value — no floats,
/// no platform-dependent rounding — which makes bucket boundaries
/// deterministic across runs and machines (pinned by a test). Recording
/// touches one array slot plus four scalars: cheap enough to live under
/// a machine lock on the grant path.
///
/// The bucket array is allocated by the first record (or the first
/// merge of a non-empty histogram), so an idle histogram owns no heap:
/// `counts` is empty exactly when `count == 0`, which keeps the derived
/// equality sound.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLinearHistogram {
    /// One count per bucket; index per [`LogLinearHistogram::bucket_index`].
    /// Empty until the first value arrives.
    counts: Vec<u64>,
    /// Total recorded values.
    count: u64,
    /// Sum of raw (unscaled) values, for exact means.
    sum: f64,
    /// Smallest raw value recorded (0 until the first record).
    min: f64,
    /// Largest raw value recorded (0 until the first record).
    max: f64,
    /// Ticks per unit: recorded values are multiplied by this before
    /// bucketing. 1000 (the default) buckets seconds at millisecond
    /// resolution; 1 buckets already-integral microsecond latencies.
    scale: f64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram::with_scale(1000.0)
    }
}

impl LogLinearHistogram {
    /// An empty histogram bucketing at `scale` ticks per unit.
    pub fn with_scale(scale: f64) -> Self {
        LogLinearHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            scale,
        }
    }

    /// The bucket index of a tick value: ticks below 16 index
    /// themselves (exact unit buckets); above, the top three bits below
    /// the most significant bit pick one of 8 linear sub-buckets within
    /// the value's octave. Monotone in `ticks`, and every boundary is a
    /// small integer times a power of two.
    pub fn bucket_index(ticks: u64) -> usize {
        if ticks < 16 {
            return ticks as usize;
        }
        let msb = 63 - ticks.leading_zeros() as usize; // >= 4 here
        let idx = ((msb - 3) << 3) + 8 + ((ticks >> (msb - 3)) & 7) as usize;
        idx.min(LOG_LINEAR_SLOTS - 1)
    }

    /// The smallest tick value mapping to bucket `index` (the inverse of
    /// [`LogLinearHistogram::bucket_index`] on boundaries).
    pub fn bucket_lower(index: usize) -> u64 {
        if index < 16 {
            index as u64
        } else {
            (8 + (index as u64 & 7)) << ((index >> 3) - 1)
        }
    }

    /// One past the largest tick value mapping to bucket `index`
    /// (`u64::MAX` for the unbounded top bucket).
    pub fn bucket_upper(index: usize) -> u64 {
        if index + 1 >= LOG_LINEAR_SLOTS {
            return u64::MAX;
        }
        let next = index + 1;
        if next < 16 {
            next as u64
        } else {
            // Computed in u128: the top slots' bounds exceed u64 and must
            // saturate, not wrap (`checked_shl` only guards the shift
            // amount, not the shifted-out bits).
            let shifted = (8 + (next as u128 & 7)) << ((next >> 3) - 1);
            if shifted > u64::MAX as u128 {
                u64::MAX
            } else {
                shifted as u64
            }
        }
    }

    /// Records one value (negative, NaN and infinite inputs clamp to 0 —
    /// a latency can only be missing, never negative).
    pub fn record(&mut self, value: f64) {
        let value = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        let ticks = (value * self.scale) as u64;
        if self.counts.is_empty() {
            self.counts = vec![0; LOG_LINEAR_SLOTS];
        }
        self.counts[Self::bucket_index(ticks)] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of the raw values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest raw value recorded (0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest raw value recorded (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean of the raw values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The ticks-per-unit scale this histogram buckets at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Folds `other`'s counts into `self`. Both histograms must share a
    /// scale — merging across scales would mix incompatible tick spaces.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        debug_assert_eq!(
            self.scale.to_bits(),
            other.scale.to_bits(),
            "merging histograms with different scales"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.counts.clone_from(&other.counts);
            self.min = other.min;
            self.max = other.max;
        } else {
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank `q`-quantile estimate in raw units: the midpoint of
    /// the bucket holding the rank, clamped into the observed
    /// `[min, max]` so exact extremes are never overshot. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::bucket_lower(i) as f64;
                let hi = Self::bucket_upper(i);
                let mid = if hi == u64::MAX {
                    lo
                } else {
                    (lo + hi as f64) / 2.0
                };
                return (mid / self.scale).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(lower_tick, upper_tick, count)`, in
    /// ascending order — the sparse view serialization and the
    /// Prometheus exposition are built from.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower(i), Self::bucket_upper(i), c))
    }

    /// Appends a Prometheus-style text exposition of this histogram to
    /// `out`: cumulative `_bucket{le="…"}` lines at each occupied bucket's
    /// upper bound (in raw units), closed by `le="+Inf"`, plus `_sum` and
    /// `_count`. `labels` is the extra label list (may be empty), without
    /// braces, e.g. `machine="default",stage="parse"`.
    pub fn prometheus_into(&self, name: &str, labels: &str, out: &mut String) {
        use std::fmt::Write;
        let sep = if labels.is_empty() { "" } else { "," };
        let plain = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let mut cumulative = 0u64;
        for (_, hi, count) in self.nonzero_buckets() {
            cumulative += count;
            if hi == u64::MAX {
                continue; // folded into +Inf below
            }
            let le = hi as f64 / self.scale;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count
        );
        let _ = writeln!(out, "{name}_sum{plain} {}", self.sum);
        let _ = writeln!(out, "{name}_count{plain} {}", self.count);
    }
}

impl Serialize for LogLinearHistogram {
    /// Sparse JSON view: summary scalars plus `[lower, upper, count]`
    /// triples (bucket bounds in raw units) for occupied buckets only —
    /// an empty histogram costs a handful of bytes, not 512 zeros.
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("count".into(), self.count.to_value());
        m.insert("sum".into(), self.sum.to_value());
        m.insert("min".into(), self.min.to_value());
        m.insert("max".into(), self.max.to_value());
        m.insert("scale".into(), self.scale.to_value());
        let buckets: Vec<Value> = self
            .nonzero_buckets()
            .map(|(lo, hi, count)| {
                Value::Array(vec![
                    (lo as f64 / self.scale).to_value(),
                    if hi == u64::MAX {
                        Value::Null
                    } else {
                        (hi as f64 / self.scale).to_value()
                    },
                    count.to_value(),
                ])
            })
            .collect();
        m.insert("buckets".into(), Value::Array(buckets));
        Value::Object(m)
    }
}

/// Number of one-second slots in a [`WindowRing`]: one minute of
/// history, mergeable into any trailing view up to 60 s.
pub const WINDOW_SLOTS: usize = 60;

/// A ring of per-second [`LogLinearHistogram`] windows, plus everything
/// the ring has rotated out: both the "now" view and the since-boot one
/// from a single record per value. Each slot aggregates one epoch second
/// and is lazily folded into the since-boot total and reset when its
/// second comes around again, so recording stays O(1) with no background
/// sweeper; reads merge the trailing `span` seconds into one histogram.
/// Stamps are plain epoch seconds supplied by the caller — under a
/// virtual clock (the replay harness) the output is fully deterministic.
/// A ring that has recorded nothing owns no heap: the slot array and
/// each slot's buckets arrive with the first value they hold.
#[derive(Debug, Clone)]
pub struct WindowRing {
    /// `(second, histogram)` per slot; the stamp disambiguates the
    /// minute the slot belongs to (`u64::MAX` = never written). Empty
    /// until the first record, [`WINDOW_SLOTS`] long after.
    slots: Vec<(u64, LogLinearHistogram)>,
    /// Every slot rotated out so far, merged.
    retired: LogLinearHistogram,
    scale: f64,
}

impl Default for WindowRing {
    fn default() -> Self {
        WindowRing::with_scale(1000.0)
    }
}

impl WindowRing {
    /// An empty ring whose histograms bucket at `scale` ticks per unit.
    pub fn with_scale(scale: f64) -> Self {
        WindowRing {
            slots: Vec::new(),
            retired: LogLinearHistogram::with_scale(scale),
            scale,
        }
    }

    /// Records `value` into the slot for epoch second `now_sec`,
    /// resetting a slot left over from an earlier minute first.
    pub fn record(&mut self, now_sec: u64, value: f64) {
        if self.slots.is_empty() {
            self.slots = vec![(u64::MAX, LogLinearHistogram::with_scale(self.scale)); WINDOW_SLOTS];
        }
        let slot = &mut self.slots[(now_sec as usize) % WINDOW_SLOTS];
        if slot.0 != now_sec {
            self.retired.merge(&slot.1);
            slot.1 = LogLinearHistogram::with_scale(self.scale);
            slot.0 = now_sec;
        }
        slot.1.record(value);
    }

    /// Everything ever recorded, window or not.
    pub fn total(&self) -> LogLinearHistogram {
        let mut out = self.retired.clone();
        for (_, slot) in &self.slots {
            out.merge(slot);
        }
        out
    }

    /// The trailing `span_secs` seconds ending at `now_sec` (inclusive),
    /// merged into one histogram. Spans are clamped to the ring's one
    /// minute of history; slots from other minutes are skipped.
    pub fn merged(&self, now_sec: u64, span_secs: u64) -> LogLinearHistogram {
        let mut out = LogLinearHistogram::with_scale(self.scale);
        let span = span_secs.min(WINDOW_SLOTS as u64).max(1);
        for back in 0..span {
            let Some(sec) = now_sec.checked_sub(back) else {
                break;
            };
            match self.slots.get((sec as usize) % WINDOW_SLOTS) {
                Some(slot) if slot.0 == sec => out.merge(&slot.1),
                _ => {}
            }
        }
        out
    }
}

/// Wait-time statistics of one admission queue: how long requests sat in
/// the queue between enqueue and grant, in service-clock seconds.
/// Cancelled and rejected requests are not counted — these are *grant*
/// waits, the quantity the scheduling policies compete on.
#[derive(Debug, Clone, Default, Serialize)]
pub struct WaitStats {
    /// Requests granted from the queue.
    pub count: u64,
    /// Sum of their waits, in seconds.
    pub total_seconds: f64,
    /// The longest single wait, in seconds.
    pub max_seconds: f64,
    /// One bounded-slowdown sample per recorded wait (see
    /// [`WaitStats::record`]), reservoir-sampled so a journaled daemon
    /// running for months keeps a bounded footprint: percentiles are
    /// exact until [`SLOWDOWN_RESERVOIR_CAPACITY`] grants, then estimated
    /// from a uniform sample of the whole stream.
    pub slowdowns: SlowdownReservoir,
    /// Full wait distribution (seconds at millisecond resolution): the
    /// shape the reservoir percentiles summarize, lossless up to bucket
    /// width and mergeable across machines.
    pub wait_histogram: LogLinearHistogram,
    /// Full bounded-slowdown distribution, same bucketing.
    pub slowdown_histogram: LogLinearHistogram,
}

/// The bounded-slowdown runtime floor, in seconds: jobs shorter than
/// this (or with no estimate at all) are treated as `τ`-second jobs so a
/// tiny job's slowdown cannot explode the percentiles (Feitelson's
/// standard fairness metric).
pub const SLOWDOWN_TAU_SECONDS: f64 = 10.0;

/// How many bounded-slowdown samples a machine retains. 4096 keeps the
/// nearest-rank p99 estimator's sampling error under ~0.2 percentile
/// points (binomial σ = √(0.99·0.01/4096)) while capping a
/// months-long daemon's per-machine stats at one page of floats.
pub const SLOWDOWN_RESERVOIR_CAPACITY: usize = 4096;

/// A fixed-capacity uniform sample of an unbounded stream (Vitter's
/// Algorithm R): the first [`SLOWDOWN_RESERVOIR_CAPACITY`] values are
/// kept verbatim; from then on the `n`-th value replaces a random slot
/// with probability `capacity / n`, which leaves every stream element
/// equally likely to be retained. The replacement randomness is a
/// deterministic SplitMix64 sequence — identical streams yield identical
/// reservoirs, so tests and recovered daemons are reproducible.
#[derive(Debug, Clone, Serialize)]
pub struct SlowdownReservoir {
    samples: Vec<f64>,
    /// Stream length so far (how many values `push` ever saw).
    seen: u64,
    /// SplitMix64 state driving the replacement choices.
    state: u64,
}

impl Default for SlowdownReservoir {
    fn default() -> Self {
        SlowdownReservoir {
            samples: Vec::new(),
            seen: 0,
            state: 0x5b3d_8c7a_91e4_f026,
        }
    }
}

impl SlowdownReservoir {
    /// Offers one stream value to the reservoir.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < SLOWDOWN_RESERVOIR_CAPACITY {
            self.samples.push(value);
            return;
        }
        // One SplitMix64 step, then a slot draw uniform over the stream
        // so far: the value survives iff its draw lands inside the
        // reservoir.
        let slot = splitmix64(self.state) % self.seen;
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        if (slot as usize) < self.samples.len() {
            self.samples[slot as usize] = value;
        }
    }

    /// The retained samples, in reservoir order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// How many values the stream offered in total.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of retained samples (`min(seen, capacity)`).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// An ascending-sorted copy of the retained samples.
    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }
}

impl WaitStats {
    /// Records one queue-to-grant wait. `walltime` is the job's runtime
    /// estimate, which anchors the bounded slowdown
    /// `(wait + max(walltime, τ)) / max(walltime, τ)`; a missing
    /// estimate uses `τ` alone (pure wait-relative slowdown).
    pub fn record(&mut self, seconds: f64, walltime: Option<f64>) {
        let seconds = seconds.max(0.0);
        self.count += 1;
        self.total_seconds += seconds;
        self.max_seconds = self.max_seconds.max(seconds);
        let runtime = walltime
            .filter(|w| w.is_finite())
            .unwrap_or(SLOWDOWN_TAU_SECONDS)
            .max(SLOWDOWN_TAU_SECONDS);
        let slowdown = (seconds + runtime) / runtime;
        self.slowdowns.push(slowdown);
        self.wait_histogram.record(seconds);
        self.slowdown_histogram.record(slowdown);
    }

    /// Mean wait in seconds (0 when nothing was ever queued).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`, nearest-rank) of the bounded
    /// slowdowns; 1.0 — the no-wait slowdown — when nothing was queued.
    /// Exact until the reservoir fills, a uniform-sample estimate after.
    pub fn slowdown_percentile(&self, q: f64) -> f64 {
        percentile_of_sorted(&self.slowdowns.sorted(), q)
    }

    /// The summary surfaced in the `stats` response: count/mean/max wait
    /// plus the p50/p90/p99 bounded-slowdown percentiles the fairness
    /// comparisons read. One sorted copy serves all three percentiles;
    /// `slowdown_samples` reports the reservoir occupancy so dashboards
    /// can tell exact percentiles from sampled ones.
    pub fn to_summary_value(&self) -> Value {
        let sorted = self.slowdowns.sorted();
        let mut m = serde::Map::new();
        m.insert("count".into(), self.count.to_value());
        m.insert("mean_seconds".into(), self.mean_seconds().to_value());
        m.insert("max_seconds".into(), self.max_seconds.to_value());
        m.insert("slowdown_samples".into(), self.slowdowns.len().to_value());
        m.insert(
            "slowdown_p50".into(),
            percentile_of_sorted(&sorted, 0.50).to_value(),
        );
        m.insert(
            "slowdown_p90".into(),
            percentile_of_sorted(&sorted, 0.90).to_value(),
        );
        m.insert(
            "slowdown_p99".into(),
            percentile_of_sorted(&sorted, 0.99).to_value(),
        );
        m.insert("wait_histogram".into(), self.wait_histogram.to_value());
        m.insert(
            "slowdown_histogram".into(),
            self.slowdown_histogram.to_value(),
        );
        Value::Object(m)
    }
}

/// Nearest-rank `q`-quantile of an ascending-sorted sample; 1.0 (the
/// no-wait slowdown) on an empty sample.
fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 1.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-machine counters, updated under the machine's lock (plain
/// fields — no atomics needed).
#[derive(Debug, Clone, Default, Serialize)]
pub struct MachineMetrics {
    /// Allocation requests granted immediately.
    pub granted: u64,
    /// Allocation requests granted after waiting in the admission queue.
    pub granted_from_queue: u64,
    /// Allocation requests enqueued.
    pub queued: u64,
    /// Allocation requests rejected (no capacity and `wait` not set, or
    /// oversized for the machine).
    pub rejected: u64,
    /// Jobs released.
    pub released: u64,
    /// High-water mark of busy processors.
    pub peak_busy: u64,
    /// Candidate-window scores the machine's score memo served. The three
    /// memo counts are the memo's own, copied in when the counters are
    /// read (`MachineEntry::counters`).
    pub score_memo_hits: u64,
    /// Candidate-window scores computed and offered to the memo (every
    /// score but a `random` one's, which is never memoised).
    pub score_memo_misses: u64,
    /// Times the score memo was emptied at its cap.
    pub score_memo_clears: u64,
    /// Queue-to-grant wait times of this machine's admission queue.
    pub wait: WaitStats,
}

impl MachineMetrics {
    /// Records a grant, tracking the busy high-water mark.
    pub fn record_grant(&mut self, from_queue: bool, busy_now: usize) {
        if from_queue {
            self.granted_from_queue += 1;
        } else {
            self.granted += 1;
        }
        self.peak_busy = self.peak_busy.max(busy_now as u64);
    }
}

/// Process-wide counters, updated lock-free by server workers.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Connections accepted by the TCP server.
    pub connections: AtomicU64,
    /// Requests parsed and dispatched (any op).
    pub requests: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// Lines that failed to parse as a request.
    pub protocol_errors: AtomicU64,
    /// Pool routes where the comm-aware policy had no scored member and
    /// fell back to shortest-queue (the decision-telemetry counter; zero
    /// under every other policy).
    pub route_comm_fallbacks: AtomicU64,
}

impl ServiceMetrics {
    /// Counts one occurrence on `counter`.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time JSON snapshot.
    pub fn snapshot(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert(
            "connections".into(),
            self.connections.load(Ordering::Relaxed).to_value(),
        );
        m.insert(
            "requests".into(),
            self.requests.load(Ordering::Relaxed).to_value(),
        );
        m.insert(
            "errors".into(),
            self.errors.load(Ordering::Relaxed).to_value(),
        );
        m.insert(
            "protocol_errors".into(),
            self.protocol_errors.load(Ordering::Relaxed).to_value(),
        );
        m.insert(
            "route_comm_fallbacks".into(),
            self.route_comm_fallbacks.load(Ordering::Relaxed).to_value(),
        );
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_tracking_updates_peaks_and_sources() {
        let mut m = MachineMetrics::default();
        m.record_grant(false, 10);
        m.record_grant(true, 25);
        m.record_grant(false, 7);
        assert_eq!(m.granted, 2);
        assert_eq!(m.granted_from_queue, 1);
        assert_eq!(m.peak_busy, 25);
    }

    #[test]
    fn wait_stats_track_count_mean_and_max() {
        let mut w = WaitStats::default();
        assert_eq!(w.mean_seconds(), 0.0);
        w.record(2.0, None);
        w.record(6.0, None);
        w.record(1.0, None);
        // Clock skew can only produce non-negative waits.
        w.record(-3.0, None);
        assert_eq!(w.count, 4);
        assert!((w.mean_seconds() - 9.0 / 4.0).abs() < 1e-12);
        assert_eq!(w.max_seconds, 6.0);
        let summary = w.to_summary_value();
        assert_eq!(summary.get("count").and_then(Value::as_u64), Some(4));
        assert_eq!(
            summary.get("max_seconds").and_then(Value::as_f64),
            Some(6.0)
        );
        assert!(
            (summary.get("mean_seconds").and_then(Value::as_f64).unwrap() - 2.25).abs() < 1e-12
        );
        assert!(summary.get("slowdown_p50").is_some());
        // And the embedded form serialises with the machine counters.
        let m = MachineMetrics {
            wait: w,
            ..MachineMetrics::default()
        };
        let v = m.to_value();
        assert_eq!(
            v.get("wait")
                .and_then(|w| w.get("count"))
                .and_then(Value::as_u64),
            Some(4)
        );
    }

    #[test]
    fn bounded_slowdown_percentiles_are_nearest_rank() {
        let mut w = WaitStats::default();
        assert_eq!(w.slowdown_percentile(0.5), 1.0, "empty = no-wait slowdown");
        // Ten waits of 10, 20, ..., 100 s on a 10-s estimate: bounded
        // slowdowns 2, 3, ..., 11.
        for i in 1..=10 {
            w.record(10.0 * i as f64, Some(10.0));
        }
        assert_eq!(w.slowdown_percentile(0.50), 6.0);
        assert_eq!(w.slowdown_percentile(0.90), 10.0);
        assert_eq!(w.slowdown_percentile(0.99), 11.0);
        assert_eq!(w.slowdown_percentile(1.00), 11.0);
        let summary = w.to_summary_value();
        assert_eq!(
            summary.get("slowdown_p90").and_then(Value::as_f64),
            Some(10.0)
        );
        // The τ floor: a 1-second estimate is anchored at τ = 10 s, so a
        // 90-second wait reads as slowdown 10, not 91.
        let mut short = WaitStats::default();
        short.record(90.0, Some(1.0));
        assert_eq!(short.slowdown_percentile(0.5), 10.0);
    }

    #[test]
    fn reservoir_stays_bounded_and_pins_percentile_accuracy() {
        // 100k waits of 10·i seconds on 10-second estimates: bounded
        // slowdowns 2, 3, ..., 100_001 — a known uniform ladder whose
        // true q-quantile is q·100_000 + 1.
        let n = 100_000u64;
        let mut w = WaitStats::default();
        for i in 1..=n {
            w.record(10.0 * i as f64, Some(10.0));
        }
        assert_eq!(w.count, n);
        assert_eq!(
            w.slowdowns.len(),
            SLOWDOWN_RESERVOIR_CAPACITY,
            "reservoir must cap memory regardless of stream length"
        );
        assert_eq!(w.slowdowns.seen(), n);
        // Sampling error of the nearest-rank estimator on a 4096-sample
        // uniform reservoir: σ(q) = √(q(1−q)/4096) percentile points —
        // 0.8 pp at p50, 0.16 pp at p99. 5σ bounds keep the test
        // deterministic-tight without assuming anything about the
        // SplitMix64 stream beyond uniformity.
        for (q, sigma_bound) in [(0.50, 0.04), (0.90, 0.024), (0.99, 0.008)] {
            let truth = q * n as f64 + 1.0;
            let got = w.slowdown_percentile(q);
            let err = (got - truth).abs() / n as f64;
            assert!(
                err < sigma_bound,
                "p{} estimate {got} strays {err:.4} (bound {sigma_bound}) from {truth}",
                (q * 100.0) as u32
            );
        }
        // Determinism: the same stream rebuilds the same reservoir.
        let mut again = WaitStats::default();
        for i in 1..=n {
            again.record(10.0 * i as f64, Some(10.0));
        }
        assert_eq!(again.slowdowns.samples(), w.slowdowns.samples());
    }

    #[test]
    fn log_linear_bucket_boundaries_are_deterministic() {
        // Exact unit buckets below 16 ticks.
        for t in 0..16u64 {
            assert_eq!(LogLinearHistogram::bucket_index(t), t as usize);
            assert_eq!(LogLinearHistogram::bucket_lower(t as usize), t);
        }
        // First log-linear octave: [16,18) share bucket 16, width 2.
        assert_eq!(LogLinearHistogram::bucket_index(16), 16);
        assert_eq!(LogLinearHistogram::bucket_index(17), 16);
        assert_eq!(LogLinearHistogram::bucket_index(18), 17);
        assert_eq!(LogLinearHistogram::bucket_lower(16), 16);
        assert_eq!(LogLinearHistogram::bucket_upper(16), 18);
        // Every bucket is self-consistent: its lower bound maps back to
        // it, its upper bound to the next (monotonicity across the full
        // index range), and the slot budget is never exceeded.
        for i in 0..LOG_LINEAR_SLOTS {
            let lo = LogLinearHistogram::bucket_lower(i);
            let hi = LogLinearHistogram::bucket_upper(i);
            if LogLinearHistogram::bucket_index(lo) != i {
                // Indices past the top of the 64-bit range saturate.
                assert!(i > LogLinearHistogram::bucket_index(u64::MAX));
                continue;
            }
            assert_eq!(LogLinearHistogram::bucket_index(lo), i, "lower of {i}");
            if hi != u64::MAX {
                assert_eq!(LogLinearHistogram::bucket_index(hi), i + 1, "upper of {i}");
                assert_eq!(LogLinearHistogram::bucket_index(hi - 1), i, "top of {i}");
            }
        }
        assert_eq!(LogLinearHistogram::bucket_index(u64::MAX), 495);
        // Relative bucket width stays under 12.5% in the log-linear range.
        for i in 17..400 {
            let lo = LogLinearHistogram::bucket_lower(i) as f64;
            let hi = LogLinearHistogram::bucket_upper(i) as f64;
            assert!((hi - lo) / lo <= 0.125 + 1e-12, "bucket {i} too wide");
        }
    }

    #[test]
    fn log_linear_histogram_records_merges_and_quantiles() {
        let mut h = LogLinearHistogram::with_scale(1000.0);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        for ms in 1..=1000u64 {
            h.record(ms as f64 / 1000.0); // 1ms .. 1s, uniform
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
        assert_eq!(h.min(), 0.001);
        assert_eq!(h.max(), 1.0);
        // Quantiles land within one bucket width (≤12.5%) of truth.
        for (q, truth) in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99)] {
            let got = h.quantile(q);
            assert!(
                (got - truth).abs() / truth < 0.13,
                "q{q}: got {got}, want ~{truth}"
            );
        }
        // Merge doubles every count and keeps extremes.
        let mut other = LogLinearHistogram::with_scale(1000.0);
        other.record(5.0);
        other.merge(&h);
        assert_eq!(other.count(), 1001);
        assert_eq!(other.max(), 5.0);
        assert_eq!(other.min(), 0.001);
        // Sparse serialization round-trips the occupied buckets only.
        let v = h.to_value();
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(1000));
        let buckets = match v.get("buckets") {
            Some(Value::Array(b)) => b,
            _ => panic!("buckets must be an array"),
        };
        assert!(!buckets.is_empty() && buckets.len() < LOG_LINEAR_SLOTS);
        let total: u64 = buckets
            .iter()
            .map(|b| match b {
                Value::Array(triple) => triple[2].as_u64().unwrap(),
                _ => panic!("bucket entries are [lo, hi, count] triples"),
            })
            .sum();
        assert_eq!(total, 1000, "sparse buckets must account for every record");
        // Out-of-domain inputs clamp instead of poisoning the state.
        let mut weird = LogLinearHistogram::default();
        weird.record(-4.0);
        weird.record(f64::NAN);
        weird.record(f64::INFINITY);
        assert_eq!(weird.count(), 3);
        assert_eq!(weird.max(), 0.0);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_closed() {
        let mut h = LogLinearHistogram::with_scale(1000.0);
        h.record(0.001);
        h.record(0.001);
        h.record(0.5);
        let mut out = String::new();
        h.prometheus_into("stage_seconds", "stage=\"parse\"", &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("stage_seconds_bucket{stage=\"parse\",le=\"0.002\"} 2"));
        assert!(out.contains("le=\"+Inf\"} 3"));
        assert!(out.contains("stage_seconds_sum{stage=\"parse\"} 0.502"));
        assert!(out.contains("stage_seconds_count{stage=\"parse\"} 3"));
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in &lines {
            if let Some((_, tail)) = line.split_once("} ") {
                if line.contains("_bucket{") {
                    let n: u64 = tail.parse().unwrap();
                    assert!(n >= last, "cumulative counts must be monotone");
                    last = n;
                }
            }
        }
        // Label-free exposition omits the empty brace pair on sum/count.
        let mut plain = String::new();
        h.prometheus_into("x", "", &mut plain);
        assert!(plain.contains("x_sum 0.502"));
        assert!(plain.contains("x_count 3"));
        assert!(plain.contains("x_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn wait_stats_carry_full_histograms() {
        let mut w = WaitStats::default();
        for i in 1..=10 {
            w.record(10.0 * i as f64, Some(10.0));
        }
        assert_eq!(w.wait_histogram.count(), 10);
        assert_eq!(w.slowdown_histogram.count(), 10);
        assert_eq!(w.wait_histogram.max(), 100.0);
        assert_eq!(w.slowdown_histogram.max(), 11.0);
        let summary = w.to_summary_value();
        let wh = summary.get("wait_histogram").expect("wait_histogram");
        assert_eq!(wh.get("count").and_then(Value::as_u64), Some(10));
        let sh = summary
            .get("slowdown_histogram")
            .expect("slowdown_histogram");
        assert_eq!(sh.get("count").and_then(Value::as_u64), Some(10));
        // Determinism: identical streams build identical histograms.
        let mut again = WaitStats::default();
        for i in 1..=10 {
            again.record(10.0 * i as f64, Some(10.0));
        }
        assert_eq!(again.wait_histogram, w.wait_histogram);
        assert_eq!(again.slowdown_histogram, w.slowdown_histogram);
    }

    #[test]
    fn window_ring_merges_trailing_seconds_and_expires_old_minutes() {
        let mut ring = WindowRing::with_scale(1000.0);
        // Seconds 100..110, one value of `sec` seconds each.
        for sec in 100u64..110 {
            ring.record(sec, sec as f64);
        }
        let last_10 = ring.merged(109, 10);
        assert_eq!(last_10.count(), 10);
        assert_eq!(last_10.min(), 100.0);
        assert_eq!(last_10.max(), 109.0);
        let last_3 = ring.merged(109, 3);
        assert_eq!(last_3.count(), 3);
        assert_eq!(last_3.min(), 107.0);
        // A view anchored before the data sees nothing.
        assert!(ring.merged(99, 10).is_empty());
        // One minute later the slots are reused: the stale stamps keep
        // old-minute data out of the merge, and a write resets its slot.
        assert!(ring.merged(169, 10).is_empty());
        ring.record(160, 1.0); // same slot as second 100
        assert_eq!(ring.merged(169, 10).count(), 1);
        // A trailing minute anchored at 160 spans seconds 101..=160:
        // second 100's slot was reused by 160 so its value is gone,
        // while 101..=109 still sit inside the window.
        let whole_minute = ring.merged(160, 60);
        assert_eq!(whole_minute.count(), 10, "second 100's value must be gone");
        assert_eq!(whole_minute.min(), 1.0);
        assert_eq!(whole_minute.max(), 109.0);
        // Span 0 clamps to 1 second; oversized spans clamp to the ring.
        assert_eq!(ring.merged(160, 0).count(), 1);
        assert_eq!(ring.merged(160, 10_000).count(), 10);
    }

    #[test]
    fn a_never_recorded_histogram_owns_no_buckets_and_reads_as_empty() {
        let h = LogLinearHistogram::with_scale(1.0);
        assert_eq!(h.counts.capacity(), 0, "no bucket array before a record");
        assert_eq!((h.quantile(0.5), h.quantile(1.0)), (0.0, 0.0));
        assert_eq!(h.nonzero_buckets().count(), 0);
        assert_eq!(
            serde_json::to_string(&h.to_value()).unwrap(),
            r#"{"count":0,"sum":0,"min":0,"max":0,"scale":1,"buckets":[]}"#
        );
        let mut out = String::new();
        h.prometheus_into("stage_seconds", "stage=\"parse\"", &mut out);
        assert_eq!(
            out,
            "stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 0\n\
             stage_seconds_sum{stage=\"parse\"} 0\n\
             stage_seconds_count{stage=\"parse\"} 0\n"
        );
        let mut plain = String::new();
        LogLinearHistogram::default().prometheus_into("x", "", &mut plain);
        assert_eq!(plain, "x_bucket{le=\"+Inf\"} 0\nx_sum 0\nx_count 0\n");
        // The first record allocates the whole array; later ones reuse it.
        let mut h = h;
        h.record(3.0);
        assert_eq!(h.counts.len(), LOG_LINEAR_SLOTS);
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), vec![(3, 4, 1)]);
    }

    #[test]
    fn merges_allocate_only_for_a_non_empty_source() {
        let mut full = LogLinearHistogram::with_scale(1000.0);
        for ms in [1.0, 2.0, 40.0] {
            full.record(ms / 1000.0);
        }
        // empty <- empty: stays unallocated, and equals a fresh one.
        let mut empty = LogLinearHistogram::with_scale(1000.0);
        empty.merge(&LogLinearHistogram::with_scale(1000.0));
        empty.merge(&LogLinearHistogram::with_scale(1000.0));
        assert_eq!(empty.counts.capacity(), 0);
        assert_eq!(empty, LogLinearHistogram::with_scale(1000.0));
        // empty <- full: a copy of the source.
        let mut copy = LogLinearHistogram::with_scale(1000.0);
        copy.merge(&full);
        assert_eq!(copy, full);
        // full <- empty: unchanged.
        let before = full.clone();
        full.merge(&LogLinearHistogram::with_scale(1000.0));
        assert_eq!(full, before);
        // full <- full: every count doubles, the extremes hold.
        full.merge(&before);
        assert_eq!(full.count(), 6);
        assert_eq!((full.min(), full.max()), (0.001, 0.04));
        let counts: Vec<u64> = full.nonzero_buckets().map(|(_, _, c)| c).collect();
        assert_eq!(counts, vec![2, 2, 2]);
    }

    #[test]
    fn window_ring_rotation_over_a_gap_longer_than_a_minute() {
        // An idle ring owns no slots and reads as empty.
        let mut ring = WindowRing::with_scale(1.0);
        assert_eq!(ring.slots.capacity(), 0);
        assert_eq!(ring.total(), LogLinearHistogram::with_scale(1.0));
        assert_eq!(ring.merged(100, 60), LogLinearHistogram::with_scale(1.0));
        ring.record(100, 1.0);
        // 100 s later, in another slot: the old second is out of every
        // trailing view but still in the total, and nothing retired yet.
        ring.record(200, 2.0);
        assert_eq!(ring.merged(200, 60).count(), 1);
        assert_eq!(ring.total().count(), 2);
        assert!(ring.retired.is_empty());
        assert_eq!(ring.retired.counts.capacity(), 0);
        // 120 s after second 100, in its slot: the stale slot retires
        // into the since-boot total and the slot starts afresh.
        ring.record(220, 3.0);
        assert_eq!(ring.retired.count(), 1);
        assert_eq!(ring.retired.max(), 1.0);
        let now = ring.merged(220, 60);
        assert_eq!((now.count(), now.min(), now.max()), (2, 2.0, 3.0));
        assert_eq!(ring.merged(220, 1).count(), 1);
        let total = ring.total();
        assert_eq!((total.count(), total.sum()), (3, 6.0));
        // A stale slot rotated out by a gap never leaks into a view.
        assert!(ring.merged(400, 60).is_empty());
        assert_eq!(ring.total().count(), 3);
    }

    #[test]
    fn service_snapshot_reflects_counters() {
        let s = ServiceMetrics::default();
        ServiceMetrics::bump(&s.requests);
        ServiceMetrics::bump(&s.requests);
        ServiceMetrics::bump(&s.errors);
        let snap = s.snapshot();
        assert_eq!(snap.get("requests").and_then(Value::as_u64), Some(2));
        assert_eq!(snap.get("errors").and_then(Value::as_u64), Some(1));
        assert_eq!(snap.get("connections").and_then(Value::as_u64), Some(0));
    }
}
