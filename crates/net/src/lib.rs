//! # commalloc-net
//!
//! Interconnect models for the `commalloc` allocation-strategy simulator.
//!
//! The paper evaluates allocators with ProcSimity, a simulator that "models
//! communication at the flit level, allowing it to measure how network
//! contention affects machine throughput". This crate rebuilds that substrate
//! at three fidelity levels that share the same mesh, x-y routing and
//! traffic descriptions (README § "Substitutions this reproduction makes"
//! says which figure uses which, and why):
//!
//! * [`flit::FlitNetwork`] — a cycle-driven wormhole simulator: messages are
//!   worms of flits that acquire the directed links of their x-y route one
//!   per cycle and block behind each other. Used for microbenchmarks
//!   (Figure 1) and for validating the coarser models.
//! * [`msglevel::MessageLevelNetwork`] — an event-driven store-and-forward
//!   approximation where every link is a FIFO server; useful middle ground
//!   when whole-trace flit simulation is infeasible.
//! * [`fluid::FluidNetwork`] — a contention-rate ("fluid") model: each
//!   running job is described by its expected per-link demand and the model
//!   computes max-min fair message rates under per-link capacities. This is
//!   the model the trace-driven experiments (Figures 7, 8, 11) use.
//!   [`fluid::ProportionalShareModel`] is a simpler non-max-min variant kept
//!   as an ablation of the fairness discipline itself.
//!
//! Traffic descriptions are built with [`traffic::JobTraffic`], which maps a
//! job's rank-level communication pattern onto the physical processors of its
//! allocation and pre-computes per-link demands and the average message
//! distance (the metric of the paper's Figure 10).

pub mod flit;
pub mod fluid;
pub mod latency;
pub mod link;
pub mod msglevel;
pub mod traffic;

/// Rejects duplicate message ids up front: delivery reports are keyed by id,
/// so a duplicate would make the report ambiguous and mask a caller bug
/// (previously swallowed by an `unwrap_or(usize::MAX)` sort key).
///
/// Ids that count `0, 1, 2, …` in input order — what the placement scorer
/// and most tests send — are unique by construction and cost one comparison
/// each; a set is built only from the first id that breaks the count.
pub(crate) fn assert_unique_ids(ids: impl Iterator<Item = u64>) {
    let mut counted = 0u64;
    let mut others = std::collections::HashSet::new();
    for id in ids {
        if others.is_empty() && id == counted {
            counted += 1;
        } else {
            assert!(
                id >= counted && others.insert(id),
                "duplicate message id {id}"
            );
        }
    }
}

pub use fluid::{FluidNetwork, ProportionalShareModel, RateModel, ZeroContentionModel};
pub use link::{LinkId, LinkTable};
pub use traffic::JobTraffic;

#[cfg(test)]
mod tests {
    use super::assert_unique_ids;

    #[test]
    fn unique_ids_pass_whether_or_not_they_count_from_zero() {
        assert_unique_ids([].into_iter());
        assert_unique_ids(0..2048);
        assert_unique_ids([0, 1, 7, 2, 3].into_iter());
        assert_unique_ids([9, 3, 0, 1].into_iter());
    }

    #[test]
    #[should_panic(expected = "duplicate message id 1")]
    fn a_repeat_of_a_counted_id_is_rejected() {
        assert_unique_ids([0, 1, 2, 1].into_iter());
    }

    #[test]
    #[should_panic(expected = "duplicate message id 7")]
    fn a_repeat_of_an_uncounted_id_is_rejected() {
        assert_unique_ids([0, 7, 1, 7].into_iter());
    }
}
