//! Policy-driven admission queue for requests that cannot be served
//! immediately.
//!
//! PR 1 kept the paper's discipline — strict first-come first-served with
//! head-of-line blocking — as the *only* admission policy. The offline
//! simulator (`commalloc::scheduler`) already models two backfilling
//! extensions, so the queue is now parameterised by
//! [`SchedulerKind`]:
//!
//! * **FCFS** — grants from the head only, stopping at the first request
//!   the machine cannot satisfy (the paper's policy, and the default);
//! * **first-fit backfill** — any queued request that fits may start,
//!   scanned in queue order on every release;
//! * **EASY backfill** — the head holds a reservation at the *shadow
//!   time* (the earliest instant enough processors will have been
//!   released, predicted from running-job walltime estimates); later
//!   requests start only if they fit now **and** cannot delay that
//!   reservation.
//! * **conservative backfill** — *every* queued request holds a
//!   reservation in a shared `ReservationTable`, assigned in queue
//!   order; a request starts only if doing so cannot delay the
//!   reservation of any request ahead of it. Fairer deep into the
//!   queue than EASY, at the cost of fewer backfill opportunities.
//!
//! The queue does not decide on its own: it renders itself as the
//! `&[QueuedJob]` slice the scheduler policies consume and delegates the
//! pick to [`SchedulerKind::select_with_context`] — the *same* function
//! the offline engine calls, which is what makes the online/offline
//! sim-equivalence harness (see `tests/sim_equivalence.rs`) byte-exact.
//! Requests without a walltime estimate are modelled as running forever
//! (`estimate = ∞`), which makes EASY strictly conservative about them.

use crate::journal::QueuedRequest;
use commalloc::scheduler::{QueuedJob, SchedulerKind};
use std::collections::VecDeque;

/// A queued allocation request: the durable [`QueuedRequest`] plus what
/// only the live daemon knows about it (its trace binding, placement
/// provenance and queue-local arrival order).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRequest {
    /// The journaled fact: job, size, walltime estimate (EASY
    /// backfilling treats a missing one as "runs forever"), pattern,
    /// tenant (feeds the weighted fair-share drain order and the quota
    /// settlement when the job is cancelled) and the service-clock
    /// enqueue time (drives the wait-time metrics, doubles as the
    /// arrival stamp the scheduler policies see, and opens a traced
    /// request's `queue` span).
    pub request: QueuedRequest,
    /// Flight-recorder request ID of the wire request that enqueued this
    /// job (0 when untraced): a later grant-from-queue attaches its
    /// trace events, the `queue` span among them, to the *enqueuing*
    /// request, not the request whose release happened to trigger the
    /// drain.
    pub trace_request: u64,
    /// Placement provenance for the calibration plane: the routing
    /// policy that sent the request to this machine, or `"direct"` for
    /// unrouted requests (and recovered queue records, whose placing
    /// path was not journaled).
    pub placed_by: &'static str,
    /// Queue-local arrival sequence, assigned at enqueue. The
    /// tie-breaker of the fair-share reorder: requests with equal
    /// fair-share keys (in particular, *all* requests of a single
    /// tenant) stay in strict arrival order, which is what reduces
    /// fair-share to plain FCFS order for untenanted traffic.
    pub arrival_seq: u64,
}

impl PendingRequest {
    /// A request re-created from its journaled fact. Recovery re-creates
    /// state, not requests: there is no wire request to attach trace
    /// events to, and the placing path was not journaled.
    pub fn restored(request: QueuedRequest) -> PendingRequest {
        PendingRequest {
            request,
            trace_request: 0,
            placed_by: "direct",
            arrival_seq: 0,
        }
    }

    /// The scheduler-facing view of this request — the single place the
    /// `PendingRequest` → [`QueuedJob`] mapping lives (the registry's
    /// drain loop and queue outlook build their policy inputs from it).
    /// A missing walltime estimates as infinity.
    pub fn as_queued(&self) -> QueuedJob {
        QueuedJob {
            job_id: self.request.job,
            size: self.request.size,
            arrival: self.request.enqueued_at,
            estimate: self.request.walltime.unwrap_or(f64::INFINITY),
        }
    }
}

/// An admission queue whose drain discipline is a [`SchedulerKind`],
/// switchable at runtime.
#[derive(Debug)]
pub struct AdmissionQueue {
    kind: SchedulerKind,
    queue: VecDeque<PendingRequest>,
    /// Monotonic enqueue counter; stamps every request's
    /// `arrival_seq`.
    arrivals: u64,
}

impl Default for AdmissionQueue {
    fn default() -> Self {
        AdmissionQueue::new(SchedulerKind::Fcfs)
    }
}

impl AdmissionQueue {
    /// An empty queue drained under `kind`.
    pub fn new(kind: SchedulerKind) -> Self {
        AdmissionQueue {
            kind,
            queue: VecDeque::new(),
            arrivals: 0,
        }
    }

    /// The active scheduling policy.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Switches the scheduling policy. Queued requests keep their order;
    /// the caller should re-drain afterwards (a switch to a backfilling
    /// policy may immediately admit requests FCFS was blocking).
    pub fn set_kind(&mut self, kind: SchedulerKind) {
        self.kind = kind;
    }

    /// Number of waiting requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when `job_id` is waiting.
    pub fn contains(&self, job_id: u64) -> bool {
        self.queue.iter().any(|p| p.request.job == job_id)
    }

    /// Appends a request (stamping its arrival sequence) and returns
    /// its 1-based queue position.
    pub fn enqueue(&mut self, mut request: PendingRequest) -> usize {
        request.arrival_seq = self.arrivals;
        self.arrivals += 1;
        self.queue.push_back(request);
        self.queue.len()
    }

    /// Re-orders the pending queue by weighted fair-share key: a
    /// stable sort on `(key(tenant), arrival_seq)`, where the key is
    /// the tenant's outstanding node-seconds divided by its weight
    /// (see [`crate::tenant::TenantTable::fair_key`]). Tenants holding
    /// less of the machine — or weighted more heavily — move toward
    /// the head; within a tenant (and in the degenerate single-tenant
    /// case, across the whole queue) strict arrival order is
    /// preserved, so untenanted traffic drains exactly as before.
    ///
    /// Called by the registry's drain loop when the machine's
    /// fair-share layer is enabled, *before* the scheduler policy
    /// looks at the queue: the policy still sees an ordinary ordered
    /// queue and keeps its own guarantees (conservative backfilling
    /// still hands every queued job a reservation — the no-starvation
    /// property — just in fair-share order).
    pub fn resequence(&mut self, key: impl Fn(Option<&str>) -> f64) {
        if self.queue.len() < 2 {
            return;
        }
        let mut pending: Vec<PendingRequest> = self.queue.drain(..).collect();
        // Keys are computed once per request up front so the sort sees
        // a consistent ledger snapshot.
        let mut keyed: Vec<(f64, u64)> = Vec::with_capacity(pending.len());
        for request in &pending {
            keyed.push((key(request.request.tenant.as_deref()), request.arrival_seq));
        }
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by(|&a, &b| {
            keyed[a]
                .0
                .total_cmp(&keyed[b].0)
                .then(keyed[a].1.cmp(&keyed[b].1))
        });
        let mut slots: Vec<Option<PendingRequest>> = pending.drain(..).map(Some).collect();
        for index in order {
            self.queue
                .push_back(slots[index].take().expect("each slot moves once"));
        }
    }

    /// The request at the head, if any.
    pub fn head(&self) -> Option<&PendingRequest> {
        self.queue.front()
    }

    /// Removes and returns the request for `job_id`, wherever it waits
    /// (used to cancel a queued job).
    pub fn remove(&mut self, job_id: u64) -> Option<PendingRequest> {
        let at = self.queue.iter().position(|p| p.request.job == job_id)?;
        self.queue.remove(at)
    }

    /// The 1-based position of `job_id`, if it waits.
    pub fn position(&self, job_id: u64) -> Option<usize> {
        self.queue
            .iter()
            .position(|p| p.request.job == job_id)
            .map(|i| i + 1)
    }

    /// Removes and returns the request at 0-based `index` (which must
    /// come from the active policy's `select_with_context` over this
    /// queue).
    pub fn take_at(&mut self, index: usize) -> PendingRequest {
        self.queue.remove(index).expect("index from select is live")
    }

    /// Reinserts a request at 0-based `index`, undoing a
    /// [`AdmissionQueue::take_at`] whose grant the allocator refused.
    pub fn put_back(&mut self, index: usize, request: PendingRequest) {
        self.queue.insert(index, request);
    }

    /// Iterates the waiting requests in queue order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingRequest> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc::scheduler::RunningSnapshot;

    fn req(job: u64, size: usize) -> PendingRequest {
        PendingRequest::restored(QueuedRequest {
            job,
            size,
            walltime: None,
            enqueued_at: 0.0,
            pattern: None,
            tenant: None,
        })
    }

    fn timed(job: u64, size: usize, walltime: f64) -> PendingRequest {
        let mut pending = req(job, size);
        pending.request.walltime = Some(walltime);
        pending
    }

    /// The call the registry's drain makes: the active policy over the
    /// queue's scheduler-facing views.
    fn select(q: &AdmissionQueue, free: usize, running: &[RunningSnapshot]) -> Option<usize> {
        let views: Vec<QueuedJob> = q.iter().map(PendingRequest::as_queued).collect();
        q.kind().select_with_context(&views, free, running, 0.0)
    }

    fn tenant_req(job: u64, tenant: &str) -> PendingRequest {
        let mut pending = req(job, 1);
        pending.request.tenant = Some(tenant.to_string());
        pending
    }

    #[test]
    fn positions_are_one_based_and_fifo() {
        let mut q = AdmissionQueue::default();
        assert_eq!(q.enqueue(req(1, 10)), 1);
        assert_eq!(q.enqueue(req(2, 5)), 2);
        assert!(q.contains(1) && q.contains(2) && !q.contains(3));
        assert_eq!(q.head(), Some(&req(1, 10)));
        assert_eq!(q.position(2), Some(2));
        assert_eq!(q.position(9), None);
    }

    #[test]
    fn fcfs_select_respects_head_of_line_blocking() {
        let mut q = AdmissionQueue::new(SchedulerKind::Fcfs);
        q.enqueue(req(1, 10));
        q.enqueue(req(2, 100)); // too big once 1 is taken
        q.enqueue(req(3, 1)); // would fit, but must wait behind job 2
        assert_eq!(select(&q, 20, &[]), Some(0));
        let taken = q.take_at(0);
        assert_eq!(taken.request.job, 1);
        // 10 free left: the new head (job 2) does not fit, and FCFS never
        // looks past it.
        assert_eq!(select(&q, 10, &[]), None);
    }

    #[test]
    fn first_fit_backfill_scans_the_whole_queue() {
        let mut q = AdmissionQueue::new(SchedulerKind::FirstFitBackfill);
        q.enqueue(req(1, 100));
        q.enqueue(req(2, 8));
        q.enqueue(req(3, 2));
        assert_eq!(select(&q, 10, &[]), Some(1));
        assert_eq!(select(&q, 4, &[]), Some(2));
        assert_eq!(select(&q, 1, &[]), None);
    }

    #[test]
    fn easy_treats_missing_walltimes_as_infinite() {
        let mut q = AdmissionQueue::new(SchedulerKind::EasyBackfill);
        // Head needs 10, only 4 free; the lone running job releases 6 at
        // t = 100, so the shadow time is 100 with 0 extra processors.
        q.enqueue(timed(1, 10, 50.0));
        q.enqueue(req(2, 2)); // no estimate: may run past the shadow time
        q.enqueue(timed(3, 2, 10.0)); // finishes well before it
        let running = [RunningSnapshot {
            completion: 100.0,
            size: 6,
        }];
        assert_eq!(select(&q, 4, &running), Some(2));
        q.remove(3);
        assert_eq!(select(&q, 4, &running), None);
    }

    #[test]
    fn put_back_restores_queue_order() {
        let mut q = AdmissionQueue::new(SchedulerKind::FirstFitBackfill);
        q.enqueue(req(1, 100));
        q.enqueue(req(2, 8));
        q.enqueue(req(3, 2));
        let taken = q.take_at(1);
        assert_eq!(q.position(3), Some(2));
        q.put_back(1, taken);
        let order: Vec<u64> = q.iter().map(|p| p.request.job).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn resequence_orders_by_key_then_arrival() {
        let mut q = AdmissionQueue::default();
        q.enqueue(tenant_req(1, "hog"));
        q.enqueue(tenant_req(2, "hog"));
        q.enqueue(tenant_req(3, "light"));
        q.enqueue(tenant_req(4, "light"));
        q.resequence(|tenant| match tenant {
            Some("hog") => 100.0,
            _ => 1.0,
        });
        let order: Vec<u64> = q.iter().map(|p| p.request.job).collect();
        assert_eq!(order, vec![3, 4, 1, 2], "light ahead, arrival kept");
    }

    #[test]
    fn resequence_with_uniform_keys_is_the_identity() {
        let mut q = AdmissionQueue::default();
        for id in 1..=5 {
            q.enqueue(req(id, 1));
        }
        q.resequence(|_| 0.0);
        let order: Vec<u64> = q.iter().map(|p| p.request.job).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn set_kind_switches_the_policy_in_place() {
        let mut q = AdmissionQueue::new(SchedulerKind::Fcfs);
        q.enqueue(req(1, 100));
        q.enqueue(req(2, 1));
        assert_eq!(select(&q, 10, &[]), None);
        q.set_kind(SchedulerKind::FirstFitBackfill);
        assert_eq!(q.kind(), SchedulerKind::FirstFitBackfill);
        assert_eq!(select(&q, 10, &[]), Some(1));
    }
}
