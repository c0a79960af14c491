//! The placement calibration plane: does the predicted-contention score
//! actually predict anything?
//!
//! At grant time the registry files a [`PlacementRecord`] for every
//! pattern-scored placement (the chosen candidate's [`ScoreBreakdown`],
//! how many candidates were weighed, and how long the job waited). At
//! release the record is joined with the realized outcome — how long the
//! job actually held its processors (against its walltime estimate, when
//! it gave one); its dispersal is the grant-time term, since nodes never
//! move between grant and release — and folded into a
//! per-(pattern, policy) [`CalibrationCell`]: predicted-vs-realized
//! [`LogLinearHistogram`]s plus a bounded sample of (predicted, realized)
//! pairs summarised by a deterministic Spearman rank correlation.
//!
//! The store is disabled by default; while off, the grant and release
//! paths pay exactly one relaxed atomic load each (priced, with the rest
//! of the observability plane, by the `obs_overhead` bench). All
//! aggregation is bounded: the per-machine side-table caps its live
//! records, and each cell keeps at most [`PAIR_CAP`] correlation pairs
//! (first-come, deterministic under replay).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use commalloc::stats::spearman;
use serde::{Map, Serialize, Value};

use crate::metrics::LogLinearHistogram;
use crate::score::ScoreBreakdown;

/// Cap on live (granted, not yet released) placement records per
/// machine. A machine can hold at most one running job per processor,
/// so this is far above any real concurrency; it bounds the table if
/// releases are somehow lost.
pub(crate) const PLACEMENT_CAP: usize = 4096;

/// Cap on (predicted, realized) correlation pairs kept per cell.
const PAIR_CAP: usize = 2048;

/// What the registry knew about a placement at grant time. Filed into
/// the per-machine side-table, keyed by job id, and joined at release.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRecord {
    /// Canonical name of the job's declared communication pattern.
    pub pattern: &'static str,
    /// Label of the path that placed the job here: a routing-policy
    /// name for pool-routed jobs, `"direct"` otherwise.
    pub policy: &'static str,
    /// The chosen candidate's score, per component.
    pub predicted: ScoreBreakdown,
    /// How many candidate placements were scored before choosing.
    pub candidates: usize,
    /// Seconds the job waited in the admission queue before the grant.
    pub queue_wait: f64,
    /// Machine-clock time of the grant.
    pub granted_at: f64,
    /// The job's walltime estimate, when it gave one.
    pub walltime: Option<f64>,
}

/// A grant-time record joined with its realized outcome at release.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationSample {
    /// The grant-time record.
    pub record: PlacementRecord,
    /// Seconds the job actually held its processors.
    pub held: f64,
}

/// Per-(pattern, policy) aggregation of joined samples.
#[derive(Debug)]
pub struct CalibrationCell {
    joined: u64,
    candidates_sum: u64,
    predicted: LogLinearHistogram,
    realized_held: LogLinearHistogram,
    held_ratio: LogLinearHistogram,
    queue_wait: LogLinearHistogram,
    realized_dispersal: LogLinearHistogram,
    /// Bounded (predicted total, realized held) sample for the rank
    /// correlation; first [`PAIR_CAP`] joins win (deterministic).
    pairs: Vec<(f64, f64)>,
}

impl CalibrationCell {
    fn new() -> Self {
        CalibrationCell {
            joined: 0,
            candidates_sum: 0,
            predicted: LogLinearHistogram::default(),
            realized_held: LogLinearHistogram::default(),
            held_ratio: LogLinearHistogram::default(),
            queue_wait: LogLinearHistogram::default(),
            realized_dispersal: LogLinearHistogram::default(),
            pairs: Vec::new(),
        }
    }

    fn absorb(&mut self, sample: &CalibrationSample) {
        self.joined += 1;
        self.candidates_sum += sample.record.candidates as u64;
        self.predicted.record(sample.record.predicted.total());
        self.realized_held.record(sample.held);
        if let Some(w) = sample.record.walltime {
            // w is validated finite-positive at every boundary.
            self.held_ratio.record(sample.held / w);
        }
        self.queue_wait.record(sample.record.queue_wait);
        // Nodes never move between grant and release, so the realized
        // dispersal is the grant-time term.
        self.realized_dispersal
            .record(sample.record.predicted.dispersal);
        if self.pairs.len() < PAIR_CAP {
            self.pairs
                .push((sample.record.predicted.total(), sample.held));
        }
    }

    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("joined".into(), Value::UInt(self.joined));
        m.insert(
            "candidates_mean".into(),
            Value::Float(if self.joined == 0 {
                0.0
            } else {
                self.candidates_sum as f64 / self.joined as f64
            }),
        );
        match spearman(&self.pairs) {
            Some(rho) => m.insert("rank_correlation".into(), Value::Float(rho)),
            None => m.insert("rank_correlation".into(), Value::Null),
        };
        m.insert(
            "correlation_pairs".into(),
            Value::UInt(self.pairs.len() as u64),
        );
        m.insert("predicted".into(), self.predicted.to_value());
        m.insert("realized_held".into(), self.realized_held.to_value());
        m.insert("held_ratio".into(), self.held_ratio.to_value());
        m.insert("queue_wait".into(), self.queue_wait.to_value());
        m.insert(
            "realized_dispersal".into(),
            self.realized_dispersal.to_value(),
        );
        Value::Object(m)
    }
}

/// The live calibration store: toggled alongside the flight recorder,
/// queried by the `calibration` wire op.
#[derive(Debug)]
pub struct CalibrationStore {
    enabled: AtomicBool,
    /// `BTreeMap` so the exported cell order is deterministic.
    cells: Mutex<BTreeMap<(&'static str, &'static str), CalibrationCell>>,
}

impl Default for CalibrationStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CalibrationStore {
    /// A disabled store with no cells.
    pub fn new() -> Self {
        CalibrationStore {
            enabled: AtomicBool::new(false),
            cells: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether grant/release paths should record. One relaxed load —
    /// the entire disabled-path cost.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggles recording. Existing cells are kept (re-enabling resumes
    /// aggregation rather than forgetting history).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Folds one joined sample into its (pattern, policy) cell.
    pub fn record(&self, sample: &CalibrationSample) {
        let mut cells = self.cells.lock().expect("calibration lock poisoned");
        cells
            .entry((sample.record.pattern, sample.record.policy))
            .or_insert_with(CalibrationCell::new)
            .absorb(sample);
    }

    /// Total joined records across all cells.
    pub fn joined_total(&self) -> u64 {
        let cells = self.cells.lock().expect("calibration lock poisoned");
        cells.values().map(|c| c.joined).sum()
    }

    /// The queryable export: enabled flag, total join count, and one
    /// entry per (pattern, policy) cell in deterministic order.
    pub fn to_value(&self) -> Value {
        let cells = self.cells.lock().expect("calibration lock poisoned");
        let mut m = Map::new();
        m.insert("enabled".into(), Value::Bool(self.enabled()));
        m.insert(
            "joined".into(),
            Value::UInt(cells.values().map(|c| c.joined).sum()),
        );
        let rendered: Vec<Value> = cells
            .iter()
            .map(|(&(pattern, policy), cell)| {
                let mut entry = Map::new();
                entry.insert("pattern".into(), Value::Str(pattern.to_string()));
                entry.insert("policy".into(), Value::Str(policy.to_string()));
                entry.insert("calibration".into(), cell.to_value());
                Value::Object(entry)
            })
            .collect();
        m.insert("cells".into(), Value::Array(rendered));
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pattern: &'static str, predicted: f64, held: f64) -> CalibrationSample {
        CalibrationSample {
            record: PlacementRecord {
                pattern,
                policy: "direct",
                predicted: ScoreBreakdown {
                    network: predicted,
                    locality: 0.0,
                    dispersal: 0.0,
                },
                candidates: 4,
                queue_wait: 0.5,
                granted_at: 0.0,
                walltime: Some(10.0),
            },
            held: held.max(0.0),
        }
    }

    #[test]
    fn store_joins_into_pattern_policy_cells_in_order() {
        let store = CalibrationStore::new();
        assert!(!store.enabled());
        store.set_enabled(true);
        for i in 0..5u64 {
            store.record(&sample("ring", i as f64, (i * 2) as f64));
        }
        store.record(&sample("all-to-all", 3.0, 1.0));
        assert_eq!(store.joined_total(), 6);
        let v = store.to_value();
        assert_eq!(v.get("joined").and_then(Value::as_u64), Some(6));
        let cells = v.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells.len(), 2);
        // BTreeMap order: "all-to-all" < "ring".
        assert_eq!(
            cells[0].get("pattern").and_then(Value::as_str),
            Some("all-to-all")
        );
        let ring = cells[1].get("calibration").unwrap();
        assert_eq!(ring.get("joined").and_then(Value::as_u64), Some(5));
        // Perfectly monotone predicted→held in the ring cell.
        assert_eq!(
            ring.get("rank_correlation").and_then(Value::as_f64),
            Some(1.0)
        );
    }
}
