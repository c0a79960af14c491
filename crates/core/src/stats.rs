//! Per-job records and simulation summaries.

use commalloc_alloc::metrics::ContiguityStats;
use serde::{Deserialize, Serialize};

/// Everything recorded about one simulated job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Trace identifier.
    pub job_id: u64,
    /// Processors used.
    pub size: usize,
    /// Message quota (one message per second of trace runtime).
    pub messages: u64,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Time the job started running (allocation time).
    pub start: f64,
    /// Time the job finished.
    pub completion: f64,
    /// Average pairwise Manhattan distance of the allocation (the dispersion
    /// metric of Figures 1 and 9).
    pub avg_pairwise_distance: f64,
    /// Average hops travelled by the job's messages (the metric of Figure 10).
    pub avg_message_distance: f64,
    /// Number of rectilinear components of the allocation.
    pub components: usize,
}

impl JobRecord {
    /// Queueing delay: `start − arrival`.
    pub fn wait_time(&self) -> f64 {
        self.start - self.arrival
    }

    /// Running time: `completion − start` (what Figures 9 and 10 plot).
    pub fn running_time(&self) -> f64 {
        self.completion - self.start
    }

    /// Response time: `completion − arrival` (what Figures 7 and 8 plot).
    pub fn response_time(&self) -> f64 {
        self.completion - self.arrival
    }

    /// True when the allocation was a single rectilinear component.
    pub fn contiguous(&self) -> bool {
        self.components == 1
    }

    /// Slowdown of the communication phase relative to the contention-free
    /// duration (the message quota in seconds).
    pub fn comm_slowdown(&self) -> f64 {
        self.running_time() / self.messages as f64
    }
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Number of jobs simulated.
    pub jobs: usize,
    /// Mean response time over all jobs (seconds) — the paper's headline
    /// metric.
    pub mean_response_time: f64,
    /// Mean queueing delay (seconds).
    pub mean_wait_time: f64,
    /// Mean running time (seconds).
    pub mean_running_time: f64,
    /// Mean allocation dispersion (average pairwise distance).
    pub mean_pairwise_distance: f64,
    /// Mean message distance.
    pub mean_message_distance: f64,
    /// Percentage of jobs allocated contiguously (Figure 11, column 1).
    pub percent_contiguous: f64,
    /// Average number of components per job (Figure 11, column 2).
    pub avg_components: f64,
    /// Completion time of the last job (makespan).
    pub makespan: f64,
}

impl SimSummary {
    /// Builds the summary from per-job records.
    pub fn from_records(records: &[JobRecord]) -> Self {
        let n = records.len();
        if n == 0 {
            return SimSummary {
                jobs: 0,
                mean_response_time: 0.0,
                mean_wait_time: 0.0,
                mean_running_time: 0.0,
                mean_pairwise_distance: 0.0,
                mean_message_distance: 0.0,
                percent_contiguous: 0.0,
                avg_components: 0.0,
                makespan: 0.0,
            };
        }
        let nf = n as f64;
        let mut contiguity = ContiguityStats::new();
        for r in records {
            contiguity.record(&commalloc_alloc::AllocationQuality {
                size: r.size,
                avg_pairwise_distance: r.avg_pairwise_distance,
                components: r.components,
                contiguous: r.contiguous(),
            });
        }
        SimSummary {
            jobs: n,
            mean_response_time: records.iter().map(JobRecord::response_time).sum::<f64>() / nf,
            mean_wait_time: records.iter().map(JobRecord::wait_time).sum::<f64>() / nf,
            mean_running_time: records.iter().map(JobRecord::running_time).sum::<f64>() / nf,
            mean_pairwise_distance: records.iter().map(|r| r.avg_pairwise_distance).sum::<f64>()
                / nf,
            mean_message_distance: records.iter().map(|r| r.avg_message_distance).sum::<f64>() / nf,
            percent_contiguous: contiguity.percent_contiguous(),
            avg_components: contiguity.avg_components(),
            makespan: records.iter().map(|r| r.completion).fold(0.0f64, f64::max),
        }
    }
}

/// Pearson correlation coefficient between two equally long series — used to
/// quantify the Figure 9 vs Figure 10 contrast (running time correlates with
/// message distance but not with pairwise distance).
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal length");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Average ranks (1-based; ties share the mean of their rank span),
/// ordered by `total_cmp` — fully deterministic, NaN-safe.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation of `(x, y)` pairs: the Pearson correlation
/// of their average ranks. `None` when fewer than two pairs exist or
/// either side is constant (the correlation is then undefined, not zero).
pub fn spearman(pairs: &[(f64, f64)]) -> Option<f64> {
    let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let (rx, ry) = (average_ranks(&xs), average_ranks(&ys));
    let constant = |ranks: &[f64]| ranks.iter().all(|&r| r == ranks[0]);
    if pairs.len() < 2 || constant(&rx) || constant(&ry) {
        return None;
    }
    Some(pearson_correlation(&rx, &ry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, arrival: f64, start: f64, completion: f64, components: usize) -> JobRecord {
        JobRecord {
            job_id: id,
            size: 4,
            messages: 100,
            arrival,
            start,
            completion,
            avg_pairwise_distance: 2.0,
            avg_message_distance: 1.5,
            components,
        }
    }

    #[test]
    fn job_record_derived_times() {
        let r = record(1, 10.0, 30.0, 130.0, 1);
        assert_eq!(r.wait_time(), 20.0);
        assert_eq!(r.running_time(), 100.0);
        assert_eq!(r.response_time(), 120.0);
        assert!(r.contiguous());
        assert!((r.comm_slowdown() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_aggregates_means_and_contiguity() {
        let records = vec![
            record(1, 0.0, 0.0, 100.0, 1),
            record(2, 0.0, 50.0, 250.0, 2),
        ];
        let s = SimSummary::from_records(&records);
        assert_eq!(s.jobs, 2);
        assert!((s.mean_response_time - (100.0 + 250.0) / 2.0).abs() < 1e-9);
        assert!((s.mean_wait_time - 25.0).abs() < 1e-9);
        assert!((s.percent_contiguous - 50.0).abs() < 1e-9);
        assert!((s.avg_components - 1.5).abs() < 1e-9);
        assert_eq!(s.makespan, 250.0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = SimSummary::from_records(&[]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean_response_time, 0.0);
    }

    #[test]
    fn pearson_correlation_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&xs, &inv) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson_correlation(&xs, &flat), 0.0);
        assert_eq!(pearson_correlation(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn spearman_is_exact_on_monotone_and_reversed_data() {
        let up: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert_eq!(spearman(&up), Some(1.0));
        let down: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert_eq!(spearman(&down), Some(-1.0));
        assert_eq!(spearman(&[]), None);
        assert_eq!(spearman(&[(1.0, 2.0)]), None);
        // A constant side has no defined correlation.
        assert_eq!(spearman(&[(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]), None);
    }

    #[test]
    fn spearman_averages_tied_ranks() {
        // Ties on x: (1,1) (1,2) (2,3) — x ranks 1.5, 1.5, 3.
        let rho = spearman(&[(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)]).unwrap();
        assert!((rho - 0.866_025_403_784_438_6).abs() < 1e-12, "rho={rho}");
    }
}
