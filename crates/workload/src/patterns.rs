//! Per-job communication patterns (Section 3.2, Figure 5).
//!
//! A job's processors are numbered by *rank* `0..p` in the order the
//! allocator granted them; a pattern describes which ranks exchange messages.
//! [`CommPattern::visit_messages`] walks the messages of one pattern
//! iteration in order; it is the one definition of each pattern. Its
//! consumers read it in two forms:
//!
//! * an **explicit message list** ([`CommPattern::iteration_messages`]) — the
//!   walk collected, used by the flit-level and message-level simulators.
//!   Iterations are repeated until a job's message quota is met, exactly
//!   as in the paper. A consumer that thins the iteration (the placement
//!   scorer) visits every `stride`-th message instead and never builds
//!   the rest;
//! * a **traffic matrix** ([`CommPattern::traffic`]) — the walk counted:
//!   each ordered rank pair's share of the iteration's messages, used by
//!   the fluid contention model. It is not a second form of the pattern;
//!   only the random pattern, whose pairs are drawn, samples its matrix
//!   from its message quota instead.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One entry of a job's traffic matrix: ranks `src → dst` carry `weight`
/// fraction of the job's messages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficEntry {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Fraction of the job's messages on this pair (entries sum to 1).
    pub weight: f64,
}

/// The communication patterns used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommPattern {
    /// Every processor sends to every other processor of the job.
    AllToAll,
    /// The n-body pattern: `⌊p/2⌋` ring subphases (each processor to its ring
    /// successor) followed by one chordal subphase (each processor to the
    /// processor halfway across the ring). For even `p` the chordal pairing
    /// is mutual — ranks `i` and `i + p/2` are each other's partner — so the
    /// chordal subphase exchanges one message per pair, not one per rank.
    NBody,
    /// Each message goes between a uniformly random pair of the job's
    /// processors.
    Random,
    /// Ring communication only (used in the CPlant test suite of Figure 1).
    Ring,
    /// All-pairs ping-pong: a message in each direction for every pair.
    AllPairsPingPong,
    /// The CPlant communication test suite of Leung et al.: all-to-all
    /// broadcast, all-pairs ping-pong and ring, in equal iteration counts.
    TestSuite,
    /// Five-point stencil on a near-square virtual grid of ranks: each rank
    /// exchanges with its up/down/left/right virtual neighbours (the halo
    /// exchange of structured-grid solvers; extension beyond the paper).
    Stencil2D,
    /// Butterfly / hypercube exchange: in dimension `d`, rank `i` sends to
    /// `i XOR 2^d` (the pattern of FFTs and recursive-doubling collectives;
    /// extension beyond the paper).
    Butterfly,
    /// Binomial-tree broadcast from rank 0: in round `k`, every rank below
    /// `2^k` forwards to its partner `2^k` above it (extension beyond the
    /// paper).
    BroadcastTree,
}

impl CommPattern {
    /// The three patterns of the paper's trace-driven experiments
    /// (Figures 7 and 8).
    pub fn paper_patterns() -> [CommPattern; 3] {
        [
            CommPattern::AllToAll,
            CommPattern::NBody,
            CommPattern::Random,
        ]
    }

    /// Every pattern implemented.
    pub fn all() -> [CommPattern; 9] {
        [
            CommPattern::AllToAll,
            CommPattern::NBody,
            CommPattern::Random,
            CommPattern::Ring,
            CommPattern::AllPairsPingPong,
            CommPattern::TestSuite,
            CommPattern::Stencil2D,
            CommPattern::Butterfly,
            CommPattern::BroadcastTree,
        ]
    }

    /// The extension patterns not evaluated in the paper, used by the
    /// pattern-sensitivity benches.
    pub fn extension_patterns() -> [CommPattern; 3] {
        [
            CommPattern::Stencil2D,
            CommPattern::Butterfly,
            CommPattern::BroadcastTree,
        ]
    }

    /// Side lengths `(columns, rows)` of the near-square virtual grid the
    /// stencil pattern arranges `p` ranks into (row-major, last row possibly
    /// ragged).
    pub fn stencil_grid(p: usize) -> (usize, usize) {
        let cols = (p as f64).sqrt().ceil() as usize;
        let cols = cols.max(1);
        let rows = p.div_ceil(cols);
        (cols, rows)
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            CommPattern::AllToAll => "all-to-all",
            CommPattern::NBody => "n-body",
            CommPattern::Random => "random",
            CommPattern::Ring => "ring",
            CommPattern::AllPairsPingPong => "ping-pong",
            CommPattern::TestSuite => "test-suite",
            CommPattern::Stencil2D => "stencil",
            CommPattern::Butterfly => "butterfly",
            CommPattern::BroadcastTree => "broadcast-tree",
        }
    }

    /// Parses a pattern name (used by the figure binaries' CLIs).
    pub fn parse(name: &str) -> Option<CommPattern> {
        Self::all()
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name.trim()))
    }

    /// Number of messages sent in one iteration of the pattern on `p`
    /// processors. Single-processor jobs do not communicate.
    pub fn messages_per_iteration(&self, p: usize) -> u64 {
        if p < 2 {
            return 0;
        }
        let p64 = p as u64;
        match self {
            CommPattern::AllToAll | CommPattern::AllPairsPingPong => p64 * (p64 - 1),
            // ⌊p/2⌋ ring subphases of p messages plus the chordal subphase
            // (p messages for odd p, p/2 mutual-pair messages for even p):
            // both cases collapse to p(p+1)/2.
            CommPattern::NBody => p64 * (p64 + 1) / 2,
            CommPattern::Random => 1,
            CommPattern::Ring => p64,
            CommPattern::TestSuite => {
                CommPattern::AllToAll.messages_per_iteration(p)
                    + CommPattern::AllPairsPingPong.messages_per_iteration(p)
                    + CommPattern::Ring.messages_per_iteration(p)
            }
            // Two messages per grid edge: every full row has `cols - 1`
            // horizontal edges and the ragged last row one fewer than its
            // ranks, and each rank below `p - cols` has one below it.
            CommPattern::Stencil2D => {
                let (cols, rows) = CommPattern::stencil_grid(p);
                let last_row = p - (rows - 1) * cols;
                let horizontal = (rows - 1) * (cols - 1) + last_row - 1;
                2 * (horizontal + p.saturating_sub(cols)) as u64
            }
            // In dimension `d` each rank with bit `d` set and its partner
            // below it exchange, so twice the ranks below `p` with the bit.
            CommPattern::Butterfly => butterfly_dims(p)
                .map(|bit| {
                    let with_bit = p / (2 * bit) * bit + (p % (2 * bit)).saturating_sub(bit);
                    2 * with_bit as u64
                })
                .sum(),
            CommPattern::BroadcastTree => broadcast_spans(p)
                .map(|span| span.min(p - span) as u64)
                .sum(),
        }
    }

    /// The messages (ordered `(src_rank, dst_rank)` pairs) of one
    /// iteration: every one [`CommPattern::visit_messages`] visits.
    pub fn iteration_messages<R: Rng + ?Sized>(
        &self,
        p: usize,
        rng: &mut R,
    ) -> Vec<(usize, usize)> {
        let mut msgs = Vec::new();
        self.visit_messages(p, rng, 1, |m| msgs.push(m));
        msgs
    }

    /// Hands `visit` every `stride`-th message of one iteration, from the
    /// first and in order: the pairs `iteration_messages(..).iter()
    /// .step_by(stride)` gives, with the rest never built. This is the one
    /// definition of each pattern's message order. Each pattern's iterator
    /// is walked by `for_each`, which compiles to its loops, and a
    /// countdown picks the kept messages: `step_by` would reach each
    /// through `nth`, which costs two to four times as much on the short
    /// iterations that keep every message.
    ///
    /// The random pattern draws its single pair from `rng`; all other
    /// patterns are deterministic and ignore it.
    ///
    /// # Panics
    ///
    /// If `stride` is 0.
    pub fn visit_messages<R: Rng + ?Sized>(
        &self,
        p: usize,
        rng: &mut R,
        stride: usize,
        mut visit: impl FnMut((usize, usize)),
    ) {
        assert!(stride > 0, "a message stride must be positive");
        if p < 2 {
            return;
        }
        let mut skip = 0;
        let mut keep = |m| {
            if skip == 0 {
                visit(m);
                skip = stride;
            }
            skip -= 1;
        };
        match self {
            CommPattern::AllToAll => all_to_all_messages(p).for_each(keep),
            CommPattern::NBody => {
                // ⌊p/2⌋ ring subphases, then the chordal subphase. For
                // even p the chordal pairing is mutual (i ↔ i + p/2), so
                // only ranks below p/2 initiate a chordal message.
                let chord_senders = if p.is_multiple_of(2) { p / 2 } else { p };
                (0..p / 2)
                    .flat_map(|_| ring_messages(p))
                    .chain((0..chord_senders).map(|i| (i, (i + p / 2) % p)))
                    .for_each(keep)
            }
            CommPattern::Random => {
                let src = rng.gen_range(0..p);
                let mut dst = rng.gen_range(0..p - 1);
                if dst >= src {
                    dst += 1;
                }
                keep((src, dst))
            }
            CommPattern::Ring => ring_messages(p).for_each(keep),
            CommPattern::Stencil2D => stencil_messages(p).for_each(keep),
            CommPattern::Butterfly => butterfly_messages(p).for_each(keep),
            CommPattern::BroadcastTree => broadcast_tree_messages(p).for_each(keep),
            CommPattern::AllPairsPingPong => ping_pong_messages(p).for_each(keep),
            CommPattern::TestSuite => all_to_all_messages(p)
                .chain(ping_pong_messages(p))
                .chain(ring_messages(p))
                .for_each(keep),
        }
    }

    /// The job's traffic matrix: the fraction of its `quota` messages sent on
    /// each ordered rank pair, in `(src, dst)` order. A deterministic
    /// pattern's matrix is its walk counted: each pair's share of the
    /// messages [`CommPattern::visit_messages`] visits in one iteration,
    /// with `quota` and `rng` unused. The random pattern samples an
    /// empirical matrix instead (multinomial over all ordered pairs, one
    /// draw per message of the quota), so that different jobs see
    /// different — and for small quotas, lumpy — realisations, mirroring
    /// its behaviour in a message-level simulation.
    ///
    /// Weights always sum to 1 (up to floating-point rounding); the result is
    /// empty for single-processor jobs.
    pub fn traffic<R: Rng + ?Sized>(&self, p: usize, quota: u64, rng: &mut R) -> Vec<TrafficEntry> {
        if p < 2 {
            return Vec::new();
        }
        let mut counts = vec![0u32; p * p];
        let mut total = 0usize;
        if *self == CommPattern::Random {
            // Cap the number of draws: beyond ~10^4 the empirical matrix is
            // statistically indistinguishable from uniform for the job
            // sizes in the trace.
            total = quota.clamp(1, 10_000) as usize;
            for _ in 0..total {
                // A draw numbers the ordered pairs row by row, without `src == dst`.
                let pair = rng.gen_range(0..p * (p - 1));
                let (src, k) = (pair / (p - 1), pair % (p - 1));
                counts[src * p + k + usize::from(k >= src)] += 1;
            }
        } else {
            self.visit_messages(p, rng, 1, |(src, dst)| {
                counts[src * p + dst] += 1;
                total += 1;
            });
        }
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(pair, &count)| TrafficEntry {
                src: pair / p,
                dst: pair % p,
                weight: count as f64 / total as f64,
            })
            .collect()
    }
}

/// Messages of one all-to-all iteration: rank `i` to every other rank,
/// `i` in order, then its destinations in order.
fn all_to_all_messages(p: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..p).flat_map(move |i| (0..i).chain(i + 1..p).map(move |j| (i, j)))
}

/// Messages of one all-pairs ping-pong: for every pair `i < j` in order,
/// `i → j` then `j → i`.
fn ping_pong_messages(p: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..p).flat_map(move |i| (i + 1..p).flat_map(move |j| [(i, j), (j, i)]))
}

/// Messages of one ring iteration: every rank to its successor.
fn ring_messages(p: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..p).map(move |i| (i, (i + 1) % p))
}

/// Messages of one five-point-stencil halo exchange: ranks are laid out
/// row-major on the near-square grid of [`CommPattern::stencil_grid`] and
/// each rank sends to every existing left/right/up/down neighbour, in
/// that order.
fn stencil_messages(p: usize) -> impl Iterator<Item = (usize, usize)> {
    let (cols, _rows) = CommPattern::stencil_grid(p);
    (0..p).flat_map(move |rank| {
        let (col, row) = (rank % cols, rank / cols);
        let left = (col > 0).then(|| rank - 1);
        let right = (col + 1 < cols).then_some(rank + 1);
        let up = (row > 0).then(|| rank - cols);
        [left, right, up, Some(rank + cols)]
            .into_iter()
            .flatten()
            .filter(move |&neighbour| neighbour < p)
            .map(move |neighbour| (rank, neighbour))
    })
}

/// Messages of one butterfly (recursive-doubling) exchange: for every
/// dimension `d`, rank `i` sends to `i XOR 2^d` when that partner exists.
fn butterfly_messages(p: usize) -> impl Iterator<Item = (usize, usize)> {
    butterfly_dims(p).flat_map(move |bit| {
        (0..p).filter_map(move |i| {
            let partner = i ^ bit;
            (partner < p).then_some((i, partner))
        })
    })
}

/// The butterfly's dimensions on `p` ranks, as their bits `2^d`: one per
/// bit of `p - 1`.
fn butterfly_dims(p: usize) -> impl Iterator<Item = usize> {
    let dims = usize::BITS - p.saturating_sub(1).leading_zeros();
    (0..dims).map(|d| 1usize << d)
}

/// Messages of one binomial-tree broadcast from rank 0: in round `k`, every
/// rank below `2^k` forwards to the rank `2^k` above it (if it exists).
fn broadcast_tree_messages(p: usize) -> impl Iterator<Item = (usize, usize)> {
    broadcast_spans(p).flat_map(move |span| (0..span.min(p - span)).map(move |i| (i, i + span)))
}

/// The broadcast tree's round spans `2^k` below `p`.
fn broadcast_spans(p: usize) -> impl Iterator<Item = usize> {
    (0..usize::BITS)
        .map(|k| 1usize << k)
        .take_while(move |&span| span < p)
}

impl fmt::Display for CommPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn assert_valid_traffic(pattern: CommPattern, p: usize) {
        let entries = pattern.traffic(p, 5000, &mut rng());
        let total: f64 = entries.iter().map(|e| e.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{pattern} weights must sum to 1, got {total}"
        );
        for e in &entries {
            assert!(e.src < p && e.dst < p && e.src != e.dst);
            assert!(e.weight > 0.0);
        }
    }

    #[test]
    fn traffic_matrices_are_normalised_for_all_patterns() {
        for pattern in CommPattern::all() {
            for p in [2usize, 3, 8, 15, 30] {
                assert_valid_traffic(pattern, p);
            }
        }
    }

    #[test]
    fn single_processor_jobs_do_not_communicate() {
        for pattern in CommPattern::all() {
            assert!(pattern.traffic(1, 100, &mut rng()).is_empty());
            assert!(pattern.iteration_messages(1, &mut rng()).is_empty());
            assert_eq!(pattern.messages_per_iteration(1), 0);
        }
    }

    #[test]
    fn nbody_iteration_structure_matches_figure_5() {
        // 15 processors: 7 ring subphases of 15 messages, then 15 chordal
        // messages (Figure 5 of the paper).
        let msgs = CommPattern::NBody.iteration_messages(15, &mut rng());
        assert_eq!(msgs.len(), 15 * 7 + 15);
        assert_eq!(CommPattern::NBody.messages_per_iteration(15), 120);
        // First subphase: every processor to its ring successor.
        for (i, &msg) in msgs.iter().enumerate().take(15) {
            assert_eq!(msg, (i, (i + 1) % 15));
        }
        // Chordal subphase: processor i to i + 7 (mod 15).
        for i in 0..15 {
            assert_eq!(msgs[7 * 15 + i], (i, (i + 7) % 15));
        }
    }

    #[test]
    fn nbody_even_p_exchanges_each_chordal_pair_once() {
        // Regression: the closed form used to claim p·⌊p/2⌋ + p (12 for
        // p = 4) while the mutual chordal pairing of even p only yields
        // p(p+1)/2 distinct messages (10 for p = 4).
        let msgs = CommPattern::NBody.iteration_messages(4, &mut rng());
        assert_eq!(msgs.len(), 10);
        assert_eq!(CommPattern::NBody.messages_per_iteration(4), 10);
        // Chordal subphase: only ranks below p/2 initiate; their partners
        // answered in the mutual pairing already.
        assert_eq!(&msgs[8..], &[(0, 2), (1, 3)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn messages_per_iteration_matches_iteration_messages(
            p in 1usize..=257,
            idx in 0usize..9,
        ) {
            let pattern = CommPattern::all()[idx];
            let msgs = pattern.iteration_messages(p, &mut rng());
            proptest::prop_assert_eq!(
                pattern.messages_per_iteration(p),
                msgs.len() as u64,
                "{} disagrees at p = {}",
                pattern,
                p
            );
        }
    }

    /// Each pattern's messages built by explicit loops into one `Vec`:
    /// the reference order the walk must keep.
    fn listed_messages(pattern: CommPattern, p: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        let mut msgs = Vec::new();
        if p < 2 {
            return msgs;
        }
        let all_to_all = (0..p).flat_map(|i| (0..p).map(move |j| (i, j)));
        let ring: Vec<_> = (0..p).map(|i| (i, (i + 1) % p)).collect();
        match pattern {
            CommPattern::AllToAll => msgs.extend(all_to_all.filter(|(i, j)| i != j)),
            CommPattern::NBody => {
                for _ in 0..p / 2 {
                    msgs.extend(&ring);
                }
                let chord_senders = if p.is_multiple_of(2) { p / 2 } else { p };
                msgs.extend((0..chord_senders).map(|i| (i, (i + p / 2) % p)));
            }
            CommPattern::Random => {
                let src = rng.gen_range(0..p);
                let dst = rng.gen_range(0..p - 1);
                msgs.push((src, dst + usize::from(dst >= src)));
            }
            CommPattern::Ring => msgs = ring,
            CommPattern::AllPairsPingPong => {
                for (i, j) in all_to_all.filter(|(i, j)| i < j) {
                    msgs.extend([(i, j), (j, i)]);
                }
            }
            CommPattern::TestSuite => {
                for sub in [
                    CommPattern::AllToAll,
                    CommPattern::AllPairsPingPong,
                    CommPattern::Ring,
                ] {
                    msgs.extend(listed_messages(sub, p, rng));
                }
            }
            CommPattern::Stencil2D => {
                let cols = CommPattern::stencil_grid(p).0 as isize;
                for rank in 0..p as isize {
                    let (c, r) = (rank % cols, rank / cols);
                    for (c, r) in [(c - 1, r), (c + 1, r), (c, r - 1), (c, r + 1)] {
                        let n = r * cols + c;
                        if c >= 0 && r >= 0 && c < cols && n < p as isize && n != rank {
                            msgs.push((rank as usize, n as usize));
                        }
                    }
                }
            }
            CommPattern::Butterfly => {
                for d in 0..usize::BITS - (p - 1).leading_zeros() {
                    msgs.extend((0..p).map(|i| (i, i ^ (1 << d))).filter(|&(_, j)| j < p));
                }
            }
            CommPattern::BroadcastTree => {
                let mut span = 1;
                while span < p {
                    msgs.extend((0..span).map(|i| (i, i + span)).filter(|&(_, j)| j < p));
                    span *= 2;
                }
            }
        }
        msgs
    }

    #[test]
    fn thinned_message_streams_keep_the_listed_pairs_in_order() {
        // The scorer keeps every `stride`-th message of the stream, with
        // the stride taken from the declared count; the kept pairs must be
        // those a thinned list gives, for every pattern and job size.
        for pattern in CommPattern::all() {
            for p in 0..=300 {
                let listed = listed_messages(pattern, p, &mut rng());
                assert_eq!(
                    pattern.iteration_messages(p, &mut rng()),
                    listed,
                    "{pattern} p={p}"
                );
                for cap in [2048, 7] {
                    let stride = (pattern.messages_per_iteration(p) as usize)
                        .div_ceil(cap)
                        .max(1);
                    let mut kept = Vec::new();
                    pattern.visit_messages(p, &mut rng(), stride, |m| kept.push(m));
                    let thinned: Vec<_> = listed.iter().copied().step_by(stride).collect();
                    assert_eq!(kept, thinned, "{pattern} p={p} cap={cap}");
                }
            }
        }
    }

    #[test]
    fn traffic_is_the_listed_messages_counted() {
        // Each deterministic pattern's matrix is its iteration's pair
        // counts over the message total, to the bit, in (src, dst) order.
        for pattern in CommPattern::all() {
            if pattern == CommPattern::Random {
                continue;
            }
            for p in 0..=300 {
                let mut listed = listed_messages(pattern, p, &mut rng());
                listed.sort_unstable();
                let counted: Vec<_> = listed
                    .chunk_by(|a, b| a == b)
                    .map(|run| (run[0], (run.len() as f64 / listed.len() as f64).to_bits()))
                    .collect();
                let traffic: Vec<_> = pattern
                    .traffic(p, 1, &mut rng())
                    .iter()
                    .map(|e| ((e.src, e.dst), e.weight.to_bits()))
                    .collect();
                assert_eq!(traffic, counted, "{pattern} p={p}");
            }
        }
    }

    #[test]
    fn all_to_all_counts() {
        let msgs = CommPattern::AllToAll.iteration_messages(8, &mut rng());
        assert_eq!(msgs.len(), 8 * 7);
        let unique: std::collections::HashSet<_> = msgs.iter().collect();
        assert_eq!(unique.len(), 56, "all ordered pairs, no repeats");
    }

    #[test]
    fn ping_pong_has_both_directions() {
        let msgs = CommPattern::AllPairsPingPong.iteration_messages(4, &mut rng());
        assert_eq!(msgs.len(), 12);
        assert!(msgs.contains(&(0, 3)) && msgs.contains(&(3, 0)));
    }

    #[test]
    fn random_traffic_varies_by_rng_but_is_seed_deterministic() {
        let a = CommPattern::Random.traffic(8, 200, &mut StdRng::seed_from_u64(1));
        let b = CommPattern::Random.traffic(8, 200, &mut StdRng::seed_from_u64(1));
        let c = CommPattern::Random.traffic(8, 200, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_messages_are_valid_pairs() {
        let mut r = rng();
        for _ in 0..200 {
            let msgs = CommPattern::Random.iteration_messages(5, &mut r);
            assert_eq!(msgs.len(), 1);
            let (s, d) = msgs[0];
            assert!(s < 5 && d < 5 && s != d);
        }
    }

    #[test]
    fn nbody_p2_merges_ring_and_chord() {
        let entries = CommPattern::NBody.traffic(2, 100, &mut rng());
        // Only two ordered pairs exist; weights still sum to one.
        assert_eq!(entries.len(), 2);
        let total: f64 = entries.iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn test_suite_combines_three_patterns() {
        let p = 6;
        let expected = 2 * 6 * 5 + 6;
        assert_eq!(
            CommPattern::TestSuite.messages_per_iteration(p),
            expected as u64
        );
        let msgs = CommPattern::TestSuite.iteration_messages(p, &mut rng());
        assert_eq!(msgs.len(), expected);
    }

    #[test]
    fn names_parse_back() {
        for pattern in CommPattern::all() {
            assert_eq!(CommPattern::parse(pattern.name()), Some(pattern));
        }
        assert_eq!(CommPattern::parse("nope"), None);
    }

    #[test]
    fn stencil_grid_is_near_square() {
        assert_eq!(CommPattern::stencil_grid(1), (1, 1));
        assert_eq!(CommPattern::stencil_grid(4), (2, 2));
        assert_eq!(CommPattern::stencil_grid(12), (4, 3));
        assert_eq!(CommPattern::stencil_grid(16), (4, 4));
        assert_eq!(CommPattern::stencil_grid(30), (6, 5));
    }

    #[test]
    fn stencil_messages_match_a_full_grid() {
        // 4x4 grid: interior/edge/corner ranks send 4/3/2 messages; total
        // directed halo edges = 2 * (2 * 4 * 3) = 48.
        let msgs = CommPattern::Stencil2D.iteration_messages(16, &mut rng());
        assert_eq!(msgs.len(), 48);
        assert_eq!(CommPattern::Stencil2D.messages_per_iteration(16), 48);
        // Every message is between ranks whose virtual-grid distance is 1.
        for (s, d) in msgs {
            let (cols, _) = CommPattern::stencil_grid(16);
            let (sc, sr) = (s % cols, s / cols);
            let (dc, dr) = (d % cols, d / cols);
            assert_eq!(sc.abs_diff(dc) + sr.abs_diff(dr), 1, "{s} -> {d}");
        }
    }

    #[test]
    fn stencil_handles_ragged_last_rows() {
        // 7 ranks on a 3-wide grid: ranks 6.. are missing; no message may
        // reference a rank >= 7.
        let msgs = CommPattern::Stencil2D.iteration_messages(7, &mut rng());
        assert!(!msgs.is_empty());
        assert!(msgs.iter().all(|&(s, d)| s < 7 && d < 7 && s != d));
        // Symmetry: if (a, b) is present so is (b, a).
        for &(s, d) in &msgs {
            assert!(msgs.contains(&(d, s)), "stencil halo must be symmetric");
        }
    }

    #[test]
    fn butterfly_covers_every_dimension() {
        // p = 8: 3 dimensions, 8 messages each.
        let msgs = CommPattern::Butterfly.iteration_messages(8, &mut rng());
        assert_eq!(msgs.len(), 24);
        assert_eq!(CommPattern::Butterfly.messages_per_iteration(8), 24);
        // Every message connects ranks differing in exactly one bit.
        for (s, d) in msgs {
            assert_eq!((s ^ d).count_ones(), 1);
        }
        // Non-power-of-two sizes drop the partners that do not exist.
        let msgs5 = CommPattern::Butterfly.iteration_messages(5, &mut rng());
        assert!(msgs5.iter().all(|&(s, d)| s < 5 && d < 5));
        assert!(!msgs5.is_empty());
    }

    #[test]
    fn broadcast_tree_reaches_every_rank_once() {
        for p in [2usize, 3, 8, 15, 16, 30] {
            let msgs = CommPattern::BroadcastTree.iteration_messages(p, &mut rng());
            assert_eq!(msgs.len(), p - 1, "p = {p}");
            // Every rank other than 0 receives exactly one message, and only
            // from a lower-numbered rank (the binomial-tree invariant).
            let mut received = vec![0usize; p];
            for (s, d) in msgs {
                assert!(s < d, "binomial tree sends upward in rank: {s} -> {d}");
                received[d] += 1;
            }
            assert_eq!(received[0], 0);
            assert!(received[1..].iter().all(|&r| r == 1));
        }
    }

    #[test]
    fn extension_patterns_have_normalised_traffic() {
        for pattern in CommPattern::extension_patterns() {
            for p in [2usize, 5, 16, 31] {
                let entries = pattern.traffic(p, 1000, &mut rng());
                let total: f64 = entries.iter().map(|e| e.weight).sum();
                assert!((total - 1.0).abs() < 1e-9, "{pattern} p={p}");
            }
        }
    }
}
