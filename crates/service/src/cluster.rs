//! Cross-machine placement: routing policies and the pool router.
//!
//! The service already holds many machines, one lock each, but every
//! request names its machine explicitly. This module adds the **cluster
//! layer** above admission: machines registered with a `pool` name become
//! members of that pool, and an `alloc` addressed to `"@pool"` is routed to
//! a member by a [`RoutingPolicy`] — the classic dispatcher design of
//! multi-cluster parallel job schedulers.
//!
//! ## Sample-then-commit, no global lock
//!
//! Routing never takes a lock over the whole cluster. A route call
//!
//! 1. reads the pool's member list and policy (a short read-lock on the
//!    pool table only — machine state is never touched under it),
//! 2. **samples** each member under that member's own lock, one
//!    machine at a time,
//!    capturing `(free, queue length, generation)`,
//! 3. lets the policy **pick** a target from the eligible samples (a pure
//!    function — see [`RoutingPolicy::pick`]), and
//! 4. **commits** by locking only the chosen machine and allocating —
//!    re-checking its generation first, the same optimistic discipline as
//!    the free-interval index's pending-grant protocol from PR 1
//!    (`commalloc_alloc::MachineState::generation`): if another request
//!    moved the machine between sample and commit, the route is retried
//!    with fresh samples rather than committed against stale data. After a
//!    bounded number of retries the commit goes through regardless — a
//!    stale sample can only make the placement suboptimal, never unsound,
//!    because the per-machine admission path still enforces every
//!    occupancy invariant.
//!
//! ## Determinism
//!
//! All routing state advances through a per-pool sequence counter, and the
//! power-of-two-choices sampler derives its randomness from that counter
//! via SplitMix64 instead of an RNG or the clock. Driven single-threaded
//! (the [`crate::replay::replay_cluster`] harness), route decisions are
//! therefore a pure function of the request order, which is what lets the
//! cluster sim-equivalence tests replay a trace through an **offline**
//! router ([`route_offline`]) and demand byte-identical per-machine grant
//! logs from the live pooled service. Both harnesses advance virtual time
//! through one event loop (`crate::replay::drive`); they differ only in
//! how an arrival is placed: the live router, or `pick` applied here.

use crate::registry::ServiceError;
use crate::replay::ReplayJob;
use crate::score::splitmix64;
use crate::service::AllocationService;
use crate::trace::RequestCtx;
use commalloc_workload::CommPattern;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, RwLock};

/// The cluster-level placement disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// Cycle through the eligible members in name order (the baseline —
    /// ignores load entirely).
    #[default]
    RoundRobin,
    /// The eligible member with the largest free-node *fraction* (so a
    /// half-empty small machine beats a quarter-empty big one).
    LeastLoaded,
    /// The eligible member with the fewest queued requests, breaking ties
    /// towards more free processors.
    ShortestQueue,
    /// Power-of-two-choices: sample two distinct eligible members
    /// pseudo-randomly (SplitMix64 of the route sequence) and take the
    /// less loaded of the pair — the classic low-coordination balancer.
    PowerOfTwoChoices,
    /// Communication-aware: the eligible member whose best candidate
    /// placement predicts the lowest contention for the job's declared
    /// communication pattern (the `contention` field of the scored
    /// sample). Members that cannot score the job — no pattern declared,
    /// or no contiguous window fits — are skipped; when *no* member
    /// scored, falls back to shortest-queue, so unpatterned traffic
    /// routes exactly as the queue-length baseline.
    CommAware,
}

impl RoutingPolicy {
    /// Every implemented policy.
    pub fn all() -> [RoutingPolicy; 5] {
        [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::ShortestQueue,
            RoutingPolicy::PowerOfTwoChoices,
            RoutingPolicy::CommAware,
        ]
    }

    /// Canonical name (also the wire spelling).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::ShortestQueue => "shortest-queue",
            RoutingPolicy::PowerOfTwoChoices => "power-of-two",
            RoutingPolicy::CommAware => "comm-aware",
        }
    }

    /// Parses a policy spec: the canonical name or the short aliases
    /// `rr`, `ll`, `sq`, `p2c`, `ca` (case-insensitive).
    pub fn parse(spec: &str) -> Option<RoutingPolicy> {
        let spec = spec.trim();
        RoutingPolicy::all()
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(spec))
            .or(match spec.to_ascii_lowercase().as_str() {
                "rr" | "roundrobin" => Some(RoutingPolicy::RoundRobin),
                "ll" | "leastloaded" => Some(RoutingPolicy::LeastLoaded),
                "sq" | "shortestqueue" => Some(RoutingPolicy::ShortestQueue),
                "p2c" | "two-choices" | "power-of-two-choices" => {
                    Some(RoutingPolicy::PowerOfTwoChoices)
                }
                "ca" | "commaware" | "communication-aware" => Some(RoutingPolicy::CommAware),
                _ => None,
            })
    }

    /// Picks the index of the target machine among `eligible` samples
    /// (all large enough for the request, in sorted member-name order).
    /// Pure: the decision depends only on the samples and the route
    /// sequence number `seq`, never on clocks or thread identity — the
    /// property the cluster sim-equivalence harness relies on.
    ///
    /// # Panics
    ///
    /// Panics when `eligible` is empty (callers reject unroutable
    /// requests before picking).
    pub fn pick(&self, eligible: &[MachineSample], seq: u64) -> usize {
        assert!(!eligible.is_empty(), "pick needs at least one candidate");
        match self {
            RoutingPolicy::RoundRobin => (seq % eligible.len() as u64) as usize,
            RoutingPolicy::LeastLoaded => least_loaded_of(eligible, 0..eligible.len()),
            RoutingPolicy::ShortestQueue => {
                let mut best = 0usize;
                for i in 1..eligible.len() {
                    let (b, c) = (&eligible[best], &eligible[i]);
                    if (c.queue_len, std::cmp::Reverse(c.free))
                        < (b.queue_len, std::cmp::Reverse(b.free))
                    {
                        best = i;
                    }
                }
                best
            }
            RoutingPolicy::PowerOfTwoChoices => {
                let n = eligible.len();
                if n == 1 {
                    return 0;
                }
                let h = splitmix64(seq);
                let first = (h % n as u64) as usize;
                // Second choice drawn from the remaining n-1 members.
                let mut second = ((h >> 32) % (n as u64 - 1)) as usize;
                if second >= first {
                    second += 1;
                }
                least_loaded_of(eligible, [first, second])
            }
            RoutingPolicy::CommAware => {
                // Lowest predicted contention among the scored samples;
                // strict total_cmp-less keeps ties on the earlier index
                // (the lexicographically smaller member name).
                let mut best: Option<(usize, f64)> = None;
                for (i, s) in eligible.iter().enumerate() {
                    if let Some(c) = s.contention {
                        let better = match best {
                            None => true,
                            Some((_, b)) => c.total_cmp(&b) == std::cmp::Ordering::Less,
                        };
                        if better {
                            best = Some((i, c));
                        }
                    }
                }
                match best {
                    Some((i, _)) => i,
                    None => RoutingPolicy::ShortestQueue.pick(eligible, seq),
                }
            }
        }
    }

    /// The pattern member samples are scored for: only comm-aware's
    /// [`RoutingPolicy::pick`] reads a score, so no other policy pays one.
    pub(crate) fn sampled_pattern(self, pattern: Option<CommPattern>) -> Option<CommPattern> {
        pattern.filter(|_| self == RoutingPolicy::CommAware)
    }
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Free-fraction comparison over a subset of samples: the candidate with
/// the largest `free / nodes` wins; ties break towards the earlier index,
/// i.e. the lexicographically smaller machine name (members are sampled
/// in sorted order), keeping the decision deterministic.
fn least_loaded_of(
    samples: &[MachineSample],
    candidates: impl IntoIterator<Item = usize>,
) -> usize {
    let mut candidates = candidates.into_iter();
    let mut best = candidates.next().expect("at least one candidate");
    for i in candidates {
        // a.free/a.nodes < b.free/b.nodes, cross-multiplied to stay exact
        // in integers (node counts are bounded by MAX_MACHINE_NODES, so
        // the products fit u64 comfortably).
        let (a, b) = (&samples[best], &samples[i]);
        let (lhs, rhs) = (
            a.free as u64 * b.nodes as u64,
            b.free as u64 * a.nodes as u64,
        );
        if rhs > lhs || (rhs == lhs && i < best) {
            best = i;
        }
    }
    best
}

/// One machine's routing-relevant state, captured under its lock.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSample {
    /// Machine name.
    pub name: String,
    /// Total processors.
    pub nodes: usize,
    /// Free processors right now.
    pub free: usize,
    /// Requests waiting in the admission queue right now.
    pub queue_len: usize,
    /// The entry's modification generation at sampling time (see
    /// [`crate::registry::MachineEntry::generation`]); the commit step
    /// re-checks it before allocating against the sample.
    pub generation: u64,
    /// The machine's best predicted contention for the specific request
    /// being routed, when it declared a communication pattern, a
    /// candidate window fits and the pool routes comm-aware — the one
    /// policy that reads it (see
    /// [`crate::registry::MachineEntry::sample_for`]); `None` otherwise.
    pub contention: Option<f64>,
}

/// One pool's shared state. Members are kept sorted by name so sampling
/// order — and therefore every tie-break — is deterministic. The list is
/// shared, not copied, with
/// every [`PoolView`]: membership changes only at registration, views are
/// taken per routed request.
struct Pool {
    members: Arc<Vec<String>>,
    policy: RoutingPolicy,
    /// Route sequence: advanced once per routing decision; drives the
    /// round-robin cursor and the power-of-two-choices sampler.
    seq: Arc<AtomicU64>,
}

/// An immutable view of a pool taken at route time.
pub(crate) struct PoolView {
    pub members: Arc<Vec<String>>,
    pub policy: RoutingPolicy,
    pub seq: Arc<AtomicU64>,
}

/// The pool table: pool name → members + policy. Lives beside the
/// machines inside [`AllocationService`]; the lock here guards only this
/// small table (membership and policy), never machine state.
#[derive(Default)]
pub struct PlacementRouter {
    pools: RwLock<HashMap<String, Pool>>,
}

impl PlacementRouter {
    /// Adds `machine` to `pool`, creating the pool (round-robin by
    /// default) on first use. Idempotent for an existing member.
    pub fn add_member(&self, pool: &str, machine: &str) {
        let mut pools = self.pools.write().expect("pool table poisoned");
        let entry = pools.entry(pool.to_string()).or_insert_with(|| Pool {
            members: Arc::default(),
            policy: RoutingPolicy::default(),
            seq: Arc::new(AtomicU64::new(0)),
        });
        if let Err(at) = entry.members.binary_search_by(|m| m.as_str().cmp(machine)) {
            Arc::make_mut(&mut entry.members).insert(at, machine.to_string());
        }
    }

    /// Whether `machine` is a member of `pool` (an unknown pool has none).
    pub(crate) fn is_member(&self, pool: &str, machine: &str) -> bool {
        let pools = self.pools.read().expect("pool table poisoned");
        pools.get(pool).is_some_and(|p| {
            p.members
                .binary_search_by(|m| m.as_str().cmp(machine))
                .is_ok()
        })
    }

    /// Switches the routing policy of `pool`.
    pub fn set_policy(&self, pool: &str, policy: RoutingPolicy) -> Result<(), ServiceError> {
        let mut pools = self.pools.write().expect("pool table poisoned");
        match pools.get_mut(pool) {
            Some(p) => {
                p.policy = policy;
                Ok(())
            }
            None => Err(ServiceError::UnknownPool(pool.to_string())),
        }
    }

    /// The active routing policy of `pool`.
    pub fn policy(&self, pool: &str) -> Result<RoutingPolicy, ServiceError> {
        self.pools
            .read()
            .expect("pool table poisoned")
            .get(pool)
            .map(|p| p.policy)
            .ok_or_else(|| ServiceError::UnknownPool(pool.to_string()))
    }

    /// The members of `pool`, sorted by name.
    pub fn members(&self, pool: &str) -> Result<Vec<String>, ServiceError> {
        self.pools
            .read()
            .expect("pool table poisoned")
            .get(pool)
            .map(|p| p.members.to_vec())
            .ok_or_else(|| ServiceError::UnknownPool(pool.to_string()))
    }

    /// All pool names, sorted.
    pub fn pool_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .pools
            .read()
            .expect("pool table poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The route-time view: members, policy and the sequence handle.
    pub(crate) fn view(&self, pool: &str) -> Result<PoolView, ServiceError> {
        self.pools
            .read()
            .expect("pool table poisoned")
            .get(pool)
            .map(|p| PoolView {
                members: Arc::clone(&p.members),
                policy: p.policy,
                seq: Arc::clone(&p.seq),
            })
            .ok_or_else(|| ServiceError::UnknownPool(pool.to_string()))
    }
}

/// Strips the `@` pool sigil from a machine address, if present: `"@grid"`
/// is the pool `grid`, anything else is a plain machine name.
pub fn pool_of(machine: &str) -> Option<&str> {
    machine.strip_prefix('@')
}

/// One member of an offline-routed cluster, by registration spec (the
/// same string grammar as [`AllocationService::register`]).
#[derive(Debug, Clone)]
pub struct ClusterMember {
    /// Machine name.
    pub name: String,
    /// Mesh spec (`"WxH"` or `"WxHxD"`).
    pub mesh: String,
    /// Allocator (2-D) / curve (3-D) spec; `None` = default.
    pub allocator: Option<String>,
    /// Scheduling-policy spec; `None` = FCFS.
    pub scheduler: Option<String>,
}

impl ClusterMember {
    /// A member with default allocator, parameterised scheduler.
    pub fn new(name: &str, mesh: &str, scheduler: Option<&str>) -> ClusterMember {
        ClusterMember {
            name: name.to_string(),
            mesh: mesh.to_string(),
            allocator: None,
            scheduler: scheduler.map(str::to_string),
        }
    }
}

/// Routes a job trace **offline**: simulates the cluster single-threaded
/// in virtual time on a private service (one isolated machine per member,
/// no pool, no router plumbing) and applies [`RoutingPolicy::pick`]
/// directly to the sampled member states — the reference the online
/// pooled service is proven against. Returns, per trace job in arrival
/// order, the member it was routed to (`None` when no member is large
/// enough).
///
/// Events run through the same loop as [`crate::replay::replay_cluster`]
/// (`crate::replay::drive`, with one machine per member in sorted-name
/// order), members are sampled through the call the online router makes
/// ([`crate::registry::MachineEntry::sample_for`]), and the route
/// sequence advances once per routed arrival — so a single-threaded
/// online run must take byte-identical routing decisions.
pub fn route_offline(
    members: &[ClusterMember],
    policy: RoutingPolicy,
    jobs: &[ReplayJob],
) -> Vec<(u64, Option<String>)> {
    let service = AllocationService::new();
    for m in members {
        service
            .register(
                &m.name,
                &m.mesh,
                m.allocator.as_deref(),
                None,
                m.scheduler.as_deref(),
            )
            .expect("offline cluster member registers");
    }
    let names = service.list();
    let mut routes: Vec<(u64, Option<String>)> = Vec::with_capacity(jobs.len());
    let mut seq = 0u64;
    crate::replay::drive(
        service.clock(),
        names.len(),
        jobs,
        None,
        |job| {
            let pattern = policy.sampled_pattern(job.pattern);
            let sample = |name: &String| {
                (service.with_entry(name, |e| Ok(e.sample_for(job.id, job.size, pattern))))
                    .expect("member exists")
            };
            let eligible: Vec<MachineSample> = (names.iter().map(sample))
                .filter(|s| job.size <= s.nodes)
                .collect();
            if eligible.is_empty() {
                routes.push((job.id, None));
                return None;
            }
            let target = &eligible[policy.pick(&eligible, seq)].name;
            seq += 1;
            routes.push((job.id, Some(target.clone())));
            let outcome = service
                .alloc(target, &job.alloc_args(), &RequestCtx::inert())
                .expect("well-formed offline route");
            Some((names.binary_search(target).expect("member"), outcome))
        },
        |at, job| {
            service
                .release(&names[at], job, &RequestCtx::inert())
                .expect("running job releases cleanly")
        },
    );
    routes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, nodes: usize, free: usize, queue_len: usize) -> MachineSample {
        MachineSample {
            name: name.to_string(),
            nodes,
            free,
            queue_len,
            generation: 0,
            contention: None,
        }
    }

    fn scored(name: &str, contention: Option<f64>) -> MachineSample {
        MachineSample {
            contention,
            ..sample(name, 64, 64, 0)
        }
    }

    #[test]
    fn policy_names_parse_round_trip() {
        for policy in RoutingPolicy::all() {
            assert_eq!(RoutingPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(RoutingPolicy::parse("RR"), Some(RoutingPolicy::RoundRobin));
        assert_eq!(
            RoutingPolicy::parse("p2c"),
            Some(RoutingPolicy::PowerOfTwoChoices)
        );
        assert_eq!(RoutingPolicy::parse("nonsense"), None);
    }

    #[test]
    fn round_robin_cycles_with_the_sequence() {
        let e = vec![sample("a", 16, 16, 0), sample("b", 16, 16, 0)];
        let rr = RoutingPolicy::RoundRobin;
        assert_eq!(rr.pick(&e, 0), 0);
        assert_eq!(rr.pick(&e, 1), 1);
        assert_eq!(rr.pick(&e, 2), 0);
    }

    #[test]
    fn least_loaded_uses_fractions_not_absolutes() {
        // 32/256 free (12.5%) loses to 8/16 free (50%) despite more
        // absolute free nodes.
        let e = vec![sample("big", 256, 32, 0), sample("small", 16, 8, 0)];
        assert_eq!(RoutingPolicy::LeastLoaded.pick(&e, 0), 1);
        // Exact ties break towards the earlier (smaller) name.
        let tied = vec![sample("a", 64, 32, 0), sample("b", 128, 64, 0)];
        assert_eq!(RoutingPolicy::LeastLoaded.pick(&tied, 0), 0);
    }

    #[test]
    fn shortest_queue_breaks_ties_on_free_nodes() {
        let e = vec![
            sample("a", 64, 1, 2),
            sample("b", 64, 9, 1),
            sample("c", 64, 30, 1),
        ];
        assert_eq!(RoutingPolicy::ShortestQueue.pick(&e, 0), 2);
    }

    #[test]
    fn power_of_two_is_deterministic_in_seq_and_never_out_of_range() {
        let e = vec![
            sample("a", 64, 10, 0),
            sample("b", 64, 20, 0),
            sample("c", 64, 30, 0),
        ];
        let p = RoutingPolicy::PowerOfTwoChoices;
        for seq in 0..1000 {
            let at = p.pick(&e, seq);
            assert!(at < e.len());
            assert_eq!(at, p.pick(&e, seq), "same seq must pick the same");
        }
        // Single-member pools short-circuit.
        assert_eq!(p.pick(&e[..1], 7), 0);
        // Over many sequences every member is sampled eventually.
        let mut hit = [false; 3];
        for seq in 0..64 {
            hit[p.pick(&e, seq)] = true;
        }
        // "c" has the most free nodes, so it wins every pair it appears
        // in; "a" only wins (a, a)-impossible pairs, i.e. never.
        assert!(hit[2]);
    }

    #[test]
    fn comm_aware_picks_lowest_contention_and_breaks_ties_early() {
        let e = vec![
            scored("a", Some(9.0)),
            scored("b", Some(3.5)),
            scored("c", None),
            scored("d", Some(3.5)),
        ];
        assert_eq!(RoutingPolicy::CommAware.pick(&e, 0), 1, "lowest wins");
        let tied = vec![scored("a", Some(2.0)), scored("b", Some(2.0))];
        assert_eq!(RoutingPolicy::CommAware.pick(&tied, 7), 0, "tie → earlier");
    }

    #[test]
    fn comm_aware_falls_back_to_shortest_queue_when_nothing_scored() {
        // No member scored the job (unpatterned traffic): behave exactly
        // like shortest-queue, including its free-node tie-break.
        let e = vec![
            sample("a", 64, 1, 2),
            sample("b", 64, 9, 1),
            sample("c", 64, 30, 1),
        ];
        for seq in 0..8 {
            assert_eq!(
                RoutingPolicy::CommAware.pick(&e, seq),
                RoutingPolicy::ShortestQueue.pick(&e, seq)
            );
        }
    }

    #[test]
    fn router_membership_is_sorted_and_idempotent() {
        let router = PlacementRouter::default();
        router.add_member("grid", "m2");
        router.add_member("grid", "m0");
        router.add_member("grid", "m1");
        router.add_member("grid", "m0");
        assert_eq!(
            router.members("grid").unwrap(),
            vec!["m0".to_string(), "m1".to_string(), "m2".to_string()]
        );
        assert!(router.is_member("grid", "m1"));
        assert!(!router.is_member("grid", "m3"));
        assert!(!router.is_member("nope", "m1"), "an unknown pool has none");
        assert_eq!(router.policy("grid").unwrap(), RoutingPolicy::RoundRobin);
        router
            .set_policy("grid", RoutingPolicy::LeastLoaded)
            .unwrap();
        assert_eq!(router.policy("grid").unwrap(), RoutingPolicy::LeastLoaded);
        assert!(matches!(
            router.set_policy("nope", RoutingPolicy::RoundRobin),
            Err(ServiceError::UnknownPool(_))
        ));
        assert_eq!(router.pool_names(), vec!["grid".to_string()]);
    }

    #[test]
    fn pool_sigil_detection() {
        assert_eq!(pool_of("@grid"), Some("grid"));
        assert_eq!(pool_of("grid"), None);
        assert_eq!(pool_of("@"), Some(""));
    }
}
