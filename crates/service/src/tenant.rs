//! The tenant plane: who submitted the work, and how much of the
//! cluster they may hold.
//!
//! Every connection (and every request) can name a tenant; untagged
//! traffic is attributed to the [`DEFAULT_TENANT`]. The table tracks,
//! per tenant:
//!
//! - a **fair-share weight** (heavier tenants drain sooner under the
//!   weighted fair-share admission layer — see
//!   [`crate::admission::AdmissionQueue::resequence`]),
//! - an optional **node-second quota** enforced at admission: every
//!   live job commits `size × walltime` node-seconds (estimate-less
//!   jobs are charged [`DEFAULT_QUOTA_WALLTIME`]); a request that
//!   would push the tenant's outstanding commitment past its quota is
//!   denied with a typed `QuotaExceeded` carrying usage and limit,
//! - an optional **in-flight request cap** applied at the wire: a
//!   tenant whose unflushed responses exceed the cap has its
//!   connections' read interest paused, riding the same machinery as
//!   the per-connection outbox high-water mark,
//! - admitted/denied/queue-depth/node-second series for `metrics`.
//!
//! The accounting is deliberately *commitment-based* (charged at
//! admission from declared walltimes, refunded at release/cancel)
//! rather than measured: commitments are deterministic, replayable
//! from the journal, and exactly recomputable after recovery from the
//! restored running and queued jobs. Untenanted traffic journals no
//! tenant field at all, so pre-tenant journals and untenanted grant
//! logs stay byte-identical.

use crate::protocol::{wire, Opt, Req};
use std::collections::HashMap;
use std::sync::Mutex;

/// The tenant untagged connections and requests are attributed to.
pub const DEFAULT_TENANT: &str = "default";

/// The walltime, in seconds, a job with no estimate is charged against
/// its tenant's node-second quota. Chosen as one hour: long enough
/// that estimate-less jobs are not free, short enough that a single
/// unestimated job does not consume a reasonable quota.
pub const DEFAULT_QUOTA_WALLTIME: f64 = 3600.0;

/// The node-second commitment of a job: `size × walltime`, with
/// estimate-less jobs charged [`DEFAULT_QUOTA_WALLTIME`]. The single
/// cost formula — admission, refund, release settlement and the
/// recovery recomputation all consult this one function, so the
/// ledger cannot drift between layers.
pub fn job_cost(size: usize, walltime: Option<f64>) -> f64 {
    size as f64 * walltime.unwrap_or(DEFAULT_QUOTA_WALLTIME)
}

wire! {
    /// Per-tenant configuration: weight, quota, wire cap. On the journal
    /// it sits in a tenant spec's object, as `"weight"`, `"quota"` and
    /// `"max_in_flight"` (the latter two only when set).
    #[derive(Debug, Clone, PartialEq)]
    pub struct TenantConfig {
        /// Fair-share weight; finite and positive. Default 1.0.
        weight: f64 => Req,
        /// Node-second quota; `None` = unlimited.
        quota_node_seconds = "quota": Option<f64> => Opt,
        /// In-flight wire request cap; `None` = uncapped.
        max_in_flight: Option<u64> => Opt,
    }
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1.0,
            quota_node_seconds: None,
            max_in_flight: None,
        }
    }
}

#[derive(Debug, Default)]
struct TenantState {
    config: TenantConfig,
    /// Node-seconds committed by live (running or queued) jobs.
    outstanding: f64,
    /// Cumulative node-seconds of finished holds (`size × held`).
    consumed: f64,
    admitted: u64,
    denied: u64,
    /// Live queued jobs across all machines.
    queued: u64,
    /// Wire requests whose responses are not yet flushed.
    in_flight: u64,
    /// Times a connection's reads were paused by the in-flight cap.
    backpressure_pauses: u64,
    /// Σ wait/weight over granted jobs (tenant-weighted mean wait).
    weighted_wait_sum: f64,
    waits: u64,
}

/// An exported per-tenant row (for `metrics`, the `tenants` op, and
/// snapshot capture), sorted by tenant name.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantExport {
    pub tenant: String,
    pub config: TenantConfig,
    pub outstanding_node_seconds: f64,
    pub consumed_node_seconds: f64,
    pub admitted: u64,
    pub denied: u64,
    pub queued: u64,
    pub in_flight: u64,
    pub backpressure_pauses: u64,
    pub weighted_wait_sum: f64,
    pub waits: u64,
}

/// The verdict of a quota check that failed.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaDenied {
    pub usage: f64,
    pub limit: f64,
}

/// The journaled tenant table. One process-wide instance hangs off the
/// service and is shared (via `Arc`) with every machine entry, so
/// admission, drain-order keys and release settlement all read the
/// same ledger. A single mutex suffices: every operation is a few
/// loads and stores, and the table is consulted at most once per
/// request — the per-machine locks stay the concurrency story.
#[derive(Debug, Default)]
pub struct TenantTable {
    inner: Mutex<HashMap<String, TenantState>>,
}

/// Maps an optional request tenant to the attribution name.
pub fn tenant_or_default(tenant: Option<&str>) -> &str {
    match tenant {
        Some(t) if !t.is_empty() => t,
        _ => DEFAULT_TENANT,
    }
}

impl TenantTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` on the named tenant's row under the table lock, creating
    /// the row (default config) on first use. Only then is the name
    /// copied into a key, so calls on a known tenant allocate nothing.
    fn with_row<R>(&self, name: &str, f: impl FnOnce(&mut TenantState) -> R) -> R {
        let mut inner = self.inner.lock().unwrap();
        match inner.get_mut(name) {
            Some(state) => f(state),
            None => f(inner.entry(name.to_string()).or_default()),
        }
    }

    /// Ensures the tenant exists (default config when new).
    pub fn touch(&self, tenant: &str) {
        self.with_row(tenant, |_| ());
    }

    /// Installs an absolute configuration (create-or-replace). The
    /// journal records the *resulting* configuration, so replay is
    /// last-writer-wins regardless of which fields the original
    /// request spelled out.
    pub fn configure(&self, tenant: &str, config: TenantConfig) {
        self.with_row(tenant, |state| state.config = config);
    }

    /// The current configuration (default when the tenant is unknown).
    pub fn config_of(&self, tenant: Option<&str>) -> TenantConfig {
        let name = tenant_or_default(tenant);
        let inner = self.inner.lock().unwrap();
        inner
            .get(name)
            .map(|s| s.config.clone())
            .unwrap_or_default()
    }

    /// Quota check-and-commit: atomically verifies the tenant's
    /// outstanding commitment plus `cost` fits the quota and commits
    /// it. On denial nothing is committed and the denial counter
    /// bumps.
    pub fn admit(&self, tenant: Option<&str>, cost: f64) -> Result<(), QuotaDenied> {
        self.with_row(tenant_or_default(tenant), |state| {
            if let Some(limit) = state.config.quota_node_seconds {
                if state.outstanding + cost > limit {
                    state.denied += 1;
                    return Err(QuotaDenied {
                        usage: state.outstanding,
                        limit,
                    });
                }
            }
            state.outstanding += cost;
            state.admitted += 1;
            Ok(())
        })
    }

    /// Returns a committed cost (the request was rejected downstream
    /// of admission, or an error unwound it). Also un-counts the
    /// admission.
    pub fn refund(&self, tenant: Option<&str>, cost: f64) {
        self.with_row(tenant_or_default(tenant), |state| {
            state.outstanding = (state.outstanding - cost).max(0.0);
            state.admitted = state.admitted.saturating_sub(1);
        });
    }

    /// Settles a finished hold: releases the committed node-seconds
    /// and accrues the realized consumption (`size × held`; cancelled
    /// queued jobs settle with zero consumption).
    pub fn settle(&self, tenant: Option<&str>, cost: f64, consumed: f64) {
        self.with_row(tenant_or_default(tenant), |state| {
            state.outstanding = (state.outstanding - cost).max(0.0);
            if consumed.is_finite() && consumed > 0.0 {
                state.consumed += consumed;
            }
        });
    }

    /// Queue-depth gauge: a job of the tenant entered a queue.
    pub fn note_enqueued(&self, tenant: Option<&str>) {
        self.with_row(tenant_or_default(tenant), |state| state.queued += 1);
    }

    /// Queue-depth gauge: a queued job of the tenant left its queue
    /// (granted or cancelled).
    pub fn note_dequeued(&self, tenant: Option<&str>) {
        self.with_row(tenant_or_default(tenant), |state| {
            state.queued = state.queued.saturating_sub(1);
        });
    }

    /// Records a grant's queue wait, tenant-weighted (`wait/weight`).
    pub fn note_wait(&self, tenant: Option<&str>, wait: f64) {
        if !wait.is_finite() || wait < 0.0 {
            return;
        }
        self.with_row(tenant_or_default(tenant), |state| {
            let weight = if state.config.weight > 0.0 {
                state.config.weight
            } else {
                1.0
            };
            state.weighted_wait_sum += wait / weight;
            state.waits += 1;
        });
    }

    /// The fair-share drain key of a tenant: outstanding node-seconds
    /// divided by weight. Lower keys drain first, so a tenant holding
    /// little of the cluster (or weighted heavily) goes ahead of one
    /// holding much. Deterministic given the ledger.
    pub fn fair_key(&self, tenant: Option<&str>) -> f64 {
        let name = tenant_or_default(tenant);
        let inner = self.inner.lock().unwrap();
        match inner.get(name) {
            Some(state) => {
                let weight = if state.config.weight > 0.0 {
                    state.config.weight
                } else {
                    1.0
                };
                state.outstanding / weight
            }
            None => 0.0,
        }
    }

    /// Wire accounting: a request from the tenant was read off a
    /// connection; its response is now pending flush.
    pub fn wire_inc(&self, tenant: Option<&str>, n: u64) {
        self.with_row(tenant_or_default(tenant), |state| state.in_flight += n);
    }

    /// Wire accounting: `n` responses of the tenant flushed.
    pub fn wire_dec(&self, tenant: Option<&str>, n: u64) {
        self.with_row(tenant_or_default(tenant), |state| {
            state.in_flight = state.in_flight.saturating_sub(n);
        });
    }

    /// Whether the tenant's unflushed responses exceed its in-flight
    /// cap (connections should pause reads until the backlog drains).
    pub fn over_in_flight_cap(&self, tenant: Option<&str>) -> bool {
        let name = tenant_or_default(tenant);
        let inner = self.inner.lock().unwrap();
        match inner.get(name) {
            Some(state) => match state.config.max_in_flight {
                Some(cap) => state.in_flight > cap,
                None => false,
            },
            None => false,
        }
    }

    /// Counts one read-pause caused by the in-flight cap.
    pub fn note_backpressure_pause(&self, tenant: Option<&str>) {
        self.with_row(tenant_or_default(tenant), |state| {
            state.backpressure_pauses += 1;
        });
    }

    /// Exports every tenant row, sorted by name.
    pub fn export(&self) -> Vec<TenantExport> {
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<TenantExport> = inner
            .iter()
            .map(|(name, state)| TenantExport {
                tenant: name.clone(),
                config: state.config.clone(),
                outstanding_node_seconds: state.outstanding,
                consumed_node_seconds: state.consumed,
                admitted: state.admitted,
                denied: state.denied,
                queued: state.queued,
                in_flight: state.in_flight,
                backpressure_pauses: state.backpressure_pauses,
                weighted_wait_sum: state.weighted_wait_sum,
                waits: state.waits,
            })
            .collect();
        rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        rows
    }

    /// Whether any tenant is configured (used to skip snapshot
    /// sections — and their bytes — on tenant-free daemons).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    /// Restores a tenant's snapshot image: configuration plus the
    /// cumulative consumption counter. Outstanding commitments are
    /// *not* restored here — recovery recomputes them exactly from
    /// the restored running and queued jobs via
    /// [`TenantTable::reset_outstanding`].
    pub fn restore(&self, tenant: &str, config: TenantConfig, consumed: f64) {
        self.with_row(tenant, |state| {
            state.config = config;
            if consumed.is_finite() && consumed > 0.0 {
                state.consumed = consumed;
            }
        });
    }

    /// Overwrites the outstanding-commitment ledger (the recovery
    /// recomputation: sum of [`job_cost`] over every restored live
    /// job, per tenant). Tenants absent from `ledger` are zeroed.
    pub fn reset_outstanding(&self, ledger: &HashMap<String, f64>) {
        let mut inner = self.inner.lock().unwrap();
        for state in inner.values_mut() {
            state.outstanding = 0.0;
        }
        for (tenant, cost) in ledger {
            let state = inner.entry(tenant.clone()).or_default();
            state.outstanding = *cost;
        }
    }

    /// Overwrites a tenant's queue-depth gauge (recovery).
    pub fn reset_queued(&self, ledger: &HashMap<String, u64>) {
        let mut inner = self.inner.lock().unwrap();
        for state in inner.values_mut() {
            state.queued = 0;
        }
        for (tenant, depth) in ledger {
            let state = inner.entry(tenant.clone()).or_default();
            state.queued = *depth;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_commits_refunds_and_settles() {
        let table = TenantTable::new();
        table.configure(
            "acme",
            TenantConfig {
                weight: 2.0,
                quota_node_seconds: Some(100.0),
                max_in_flight: None,
            },
        );
        assert!(table.admit(Some("acme"), 60.0).is_ok());
        let denied = table.admit(Some("acme"), 60.0).unwrap_err();
        assert_eq!(denied.usage, 60.0);
        assert_eq!(denied.limit, 100.0);
        table.settle(Some("acme"), 60.0, 30.0);
        assert!(table.admit(Some("acme"), 60.0).is_ok());
        table.refund(Some("acme"), 60.0);
        let rows = table.export();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].admitted, 1);
        assert_eq!(rows[0].denied, 1);
        assert_eq!(rows[0].outstanding_node_seconds, 0.0);
        assert_eq!(rows[0].consumed_node_seconds, 30.0);
    }

    #[test]
    fn untagged_traffic_attributes_to_the_default_tenant() {
        let table = TenantTable::new();
        assert!(table.admit(None, 1e12).is_ok(), "default tenant unquotaed");
        table.note_enqueued(None);
        let rows = table.export();
        assert_eq!(rows[0].tenant, DEFAULT_TENANT);
        assert_eq!(rows[0].queued, 1);
    }

    #[test]
    fn fair_key_divides_usage_by_weight() {
        let table = TenantTable::new();
        table.configure(
            "heavy",
            TenantConfig {
                weight: 4.0,
                ..TenantConfig::default()
            },
        );
        table.configure("light", TenantConfig::default());
        table.admit(Some("heavy"), 80.0).unwrap();
        table.admit(Some("light"), 40.0).unwrap();
        assert_eq!(table.fair_key(Some("heavy")), 20.0);
        assert_eq!(table.fair_key(Some("light")), 40.0);
        assert_eq!(table.fair_key(Some("unknown")), 0.0);
    }

    #[test]
    fn in_flight_cap_gates_only_past_the_cap() {
        let table = TenantTable::new();
        table.configure(
            "t",
            TenantConfig {
                max_in_flight: Some(2),
                ..TenantConfig::default()
            },
        );
        table.wire_inc(Some("t"), 2);
        assert!(!table.over_in_flight_cap(Some("t")));
        table.wire_inc(Some("t"), 1);
        assert!(table.over_in_flight_cap(Some("t")));
        table.wire_dec(Some("t"), 3);
        assert!(!table.over_in_flight_cap(Some("t")));
        assert!(!table.over_in_flight_cap(Some("unconfigured")));
    }

    #[test]
    fn job_cost_charges_the_default_walltime_when_unestimated() {
        assert_eq!(job_cost(4, Some(10.0)), 40.0);
        assert_eq!(job_cost(2, None), 2.0 * DEFAULT_QUOTA_WALLTIME);
    }

    #[test]
    fn recovery_resets_overwrite_the_ledgers() {
        let table = TenantTable::new();
        table.admit(Some("a"), 50.0).unwrap();
        table.admit(Some("b"), 70.0).unwrap();
        let mut ledger = HashMap::new();
        ledger.insert("a".to_string(), 12.0);
        table.reset_outstanding(&ledger);
        let rows = table.export();
        assert_eq!(rows[0].outstanding_node_seconds, 12.0);
        assert_eq!(rows[1].outstanding_node_seconds, 0.0);
    }
}
