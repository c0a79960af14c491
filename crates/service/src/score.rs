//! Predicted-contention scoring of candidate placements.
//!
//! A job that declares a [`CommPattern`] tells the service *which rank
//! pairs will talk*; a candidate placement fixes *where those ranks sit*.
//! Combining the two predicts how much the job's messages will contend
//! before a single processor is committed:
//!
//! * on a 2-D mesh, one pattern iteration is run through the
//!   message-level network simulator ([`commalloc_net::msglevel`]) over
//!   the candidate's actual nodes — per-link queueing included — and the
//!   mean message latency is the contention estimate. The scorer hands
//!   the simulator rank pairs and each rank's place in the nodes'
//!   bounding box, and reads back only the mean
//!   ([`UnitSweep::mean_latency`]);
//! * on a 3-D mesh (the message-level simulator is 2-D), the mean mesh
//!   distance over the same kept messages stands in — a proxy for the
//!   same quantity.
//!
//! Both scores add the placement's curve-locality terms (average pairwise
//! distance, a diameter-sized penalty per extra connected component), so
//! a compact-but-congested placement and a spread-but-quiet one land on a
//! single comparable axis. Lower is better.
//!
//! Every function here is deterministic: the only randomness (the
//! `Random` pattern's pair draws) is seeded from the job id via
//! SplitMix64, so the offline cluster router and the live service compute
//! byte-identical scores — the property the cluster sim-equivalence
//! harness extends over the comm-aware policy.
//!
//! The same determinism lets a machine reuse a score. Only `Random`
//! reads the job id, and nothing here reads occupancy, so every other
//! pattern scores a given node set alike for every job and at every
//! moment. Nor does a score read where the node set sits: the simulation
//! runs in the set's bounding box, distances and components do not move
//! with it, and the mesh enters only through its diameter. So a score
//! depends on the window's *shape* (each rank's coordinates less the
//! box's corner, in rank order) and the pattern, and every translate of a
//! window scores alike to the bit. Each machine keeps one entry per shape
//! and pattern, at most 1 792 of 48 bytes with none on the heap (about
//! 98 KiB of map at worst), and computes each once (`registry.rs`,
//! `ScoreMemo`).

use commalloc_mesh::{Coord, Mesh2D, Mesh3D, NodeId};
use commalloc_net::msglevel::UnitSweep;
use commalloc_workload::CommPattern;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cap on simulated messages per score: one all-to-all iteration is
/// O(p²) messages, so large jobs are thinned (deterministically, by
/// stride) to keep a single score O(cap × hops) events. Only the kept
/// messages are ever built.
const MAX_SCORED_MESSAGES: usize = 2048;

/// The SplitMix64 stream's increment (the golden-ratio constant).
pub(crate) const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: the output the generator gives after state `x` — one
/// increment, then the standard 64-bit finalizer. The crate's one source
/// of clock-free pseudo-randomness: it seeds a job's message draws here,
/// derives the router's power-of-two-choices pair from the route
/// sequence, and steps the slowdown reservoir's replacement draws.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX64_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A predicted-contention score, broken into the components that the
/// calibration plane records at grant time. The components live on one
/// comparable axis (lower is better) and [`ScoreBreakdown::total`] is
/// the scalar the allocator and router order candidates by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBreakdown {
    /// Network-simulation term: mean simulated message latency of one
    /// pattern iteration (2-D), or the mean distance over the same
    /// messages (3-D proxy).
    pub network: f64,
    /// Locality term: average pairwise distance of the placement.
    pub locality: f64,
    /// Dispersal term: one mesh diameter per connected component beyond
    /// the first (a split placement pays for the traffic that must cross
    /// foreign regions even before queueing is modelled).
    pub dispersal: f64,
}

impl ScoreBreakdown {
    /// The scalar score: the sum of the components, associated exactly
    /// as the pre-breakdown scalar was (`network + (locality +
    /// dispersal)`), so the score ordering is bit-for-bit unchanged.
    pub fn total(&self) -> f64 {
        self.network + (self.locality + self.dispersal)
    }
}

/// Hands `visit` the rank pairs both scores read: every `stride`-th
/// message of one `pattern` iteration on `p` ranks, at most
/// [`MAX_SCORED_MESSAGES`] of them, `random`'s draws seeded by `job`.
fn scored_messages(pattern: CommPattern, p: usize, job: u64, visit: impl FnMut((usize, usize))) {
    let mut rng = StdRng::seed_from_u64(splitmix64(job));
    let count = pattern.messages_per_iteration(p) as usize;
    let stride = count.div_ceil(MAX_SCORED_MESSAGES).max(1);
    pattern.visit_messages(p, &mut rng, stride, visit);
}

/// The locality and dispersal terms shared by both meshes.
fn locality_and_dispersal(avg_pairwise: f64, components: usize, diameter: f64) -> (f64, f64) {
    (avg_pairwise, components.saturating_sub(1) as f64 * diameter)
}

/// The buffers a 2-D score reuses: each rank's coordinates in the
/// bounding box of its window, the kept rank pairs, and the line sweep's
/// own. A machine keeps one (`registry.rs`), so a score allocates only
/// when its window or its thinned iteration outgrows every earlier one.
/// At most [`MAX_SCORED_MESSAGES`] pairs are kept, so it holds at most
/// 2 048 × (16 + 60) bytes (about 152 KiB) for the pairs and the sweep,
/// plus 4 bytes a node of the mesh for the coordinates, and 4 bytes a
/// key of the sweep's counting sort: two keys a box node, or one a step
/// of the latest ready time (at most 2 048 plus the box width),
/// whichever is more.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    at: Vec<Coord>,
    pairs: Vec<(usize, usize)>,
    sweep: UnitSweep,
}

/// Predicted contention of placing a `pattern`-declared job on exactly
/// `nodes` (rank `i` on `nodes[i]`) of a 2-D `mesh`: the mean message
/// latency of one simulated pattern iteration plus the locality terms,
/// returned per component. Deterministic in `(mesh, nodes, pattern,
/// job_id)`, and the same for any translate of `nodes` inside `mesh`.
pub fn predicted_contention_2d(
    mesh: Mesh2D,
    nodes: &[NodeId],
    pattern: CommPattern,
    job_id: u64,
) -> ScoreBreakdown {
    predicted_contention_2d_in(&mut ScoreScratch::default(), mesh, nodes, pattern, job_id)
}

/// [`predicted_contention_2d`], with its buffers in `scratch`. The kept
/// messages are rank pairs, and each rank's coordinates are taken once,
/// relative to the bounding box of `nodes` (of the messages' ends, when
/// they are fewer than the ranks): the simulation sweeps that box, not
/// the mesh.
pub(crate) fn predicted_contention_2d_in(
    scratch: &mut ScoreScratch,
    mesh: Mesh2D,
    nodes: &[NodeId],
    pattern: CommPattern,
    job_id: u64,
) -> ScoreBreakdown {
    let ScoreScratch { at, pairs, sweep } = scratch;
    let p = nodes.len();
    pairs.clear();
    scored_messages(pattern, p, job_id, |pair| pairs.push(pair));
    at.clear();
    if 2 * pairs.len() < p {
        // Fewer message ends than ranks (a `random` draw): only the ends
        // are placed, and the box is theirs.
        for (src, dst) in pairs.iter_mut() {
            at.extend([mesh.coord_of(nodes[*src]), mesh.coord_of(nodes[*dst])]);
            (*src, *dst) = (at.len() - 2, at.len() - 1);
        }
    } else {
        at.extend(nodes.iter().map(|&node| mesh.coord_of(node)));
    }
    let low = at.iter().fold(Coord::new(u16::MAX, u16::MAX), |low, c| {
        Coord::new(low.x.min(c.x), low.y.min(c.y))
    });
    let (mut width, mut height) = (1, 1);
    for c in at.iter_mut() {
        *c = Coord::new(c.x - low.x, c.y - low.y);
        (width, height) = (width.max(c.x + 1), height.max(c.y + 1));
    }
    let network = sweep.mean_latency(width, height, at, pairs);
    let diameter = (mesh.width() + mesh.height()) as f64;
    let (locality, dispersal) = locality_and_dispersal(
        mesh.avg_pairwise_distance(nodes),
        mesh.components(nodes),
        diameter,
    );
    ScoreBreakdown {
        network,
        locality,
        dispersal,
    }
}

/// Predicted contention of placing a `pattern`-declared job on exactly
/// `nodes` of a 3-D `mesh`: the mean distance over the messages a 2-D
/// score would simulate (a proxy — the message-level simulator is 2-D
/// only) plus the locality terms, returned per component. Deterministic
/// in `(mesh, nodes, pattern, job_id)`, and the same for any translate of
/// `nodes` inside `mesh`.
pub fn predicted_contention_3d(
    mesh: Mesh3D,
    nodes: &[NodeId],
    pattern: CommPattern,
    job_id: u64,
) -> ScoreBreakdown {
    let (mut hops, mut messages) = (0.0, 0usize);
    scored_messages(pattern, nodes.len(), job_id, |(src, dst)| {
        hops += mesh.distance(nodes[src], nodes[dst]) as f64;
        messages += 1;
    });
    let network = hops / messages.max(1) as f64;
    let diameter = (mesh.width() + mesh.height() + mesh.depth()) as f64;
    let (locality, dispersal) = locality_and_dispersal(
        mesh.avg_pairwise_distance(nodes),
        mesh.components(nodes),
        diameter,
    );
    ScoreBreakdown {
        network,
        locality,
        dispersal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Coord3;
    use proptest::prelude::*;

    fn row(mesh: Mesh2D, y: u16, count: usize) -> Vec<NodeId> {
        (0..count as u16)
            .map(|x| mesh.id_of(Coord::new(x, y)))
            .collect()
    }

    #[test]
    fn scores_are_deterministic_per_job() {
        let mesh = Mesh2D::new(8, 8);
        let nodes = row(mesh, 0, 8);
        for pattern in CommPattern::all() {
            let a = predicted_contention_2d(mesh, &nodes, pattern, 42);
            let b = predicted_contention_2d(mesh, &nodes, pattern, 42);
            assert_eq!(a, b, "{pattern} not deterministic");
            assert!(a.total().is_finite() && a.total() >= 0.0);
        }
    }

    #[test]
    fn breakdown_components_sum_to_the_scalar_score() {
        // The breakdown must be a decomposition, not a reformulation:
        // `network + (locality + dispersal)` — associated exactly as the
        // pre-breakdown scalar computed it — is the total, bit for bit.
        let mesh2 = Mesh2D::new(8, 8);
        let nodes2 = row(mesh2, 1, 6);
        let mesh3 = Mesh3D::new(4, 4, 4);
        let nodes3: Vec<NodeId> = (0..6).map(|i| NodeId(i * 5)).collect();
        for pattern in CommPattern::all() {
            let b2 = predicted_contention_2d(mesh2, &nodes2, pattern, 9);
            assert_eq!(
                b2.total(),
                b2.network + (b2.locality + b2.dispersal),
                "{pattern} 2-D breakdown must sum to the scalar"
            );
            let b3 = predicted_contention_3d(mesh3, &nodes3, pattern, 9);
            assert_eq!(
                b3.total(),
                b3.network + (b3.locality + b3.dispersal),
                "{pattern} 3-D breakdown must sum to the scalar"
            );
            assert!(b2.dispersal >= 0.0 && b3.dispersal >= 0.0);
        }
        // A split placement surfaces its penalty in the dispersal
        // component specifically, not smeared over the others.
        let split: Vec<NodeId> = [(0, 0), (1, 0), (6, 7), (7, 7)]
            .iter()
            .map(|&(x, y)| mesh2.id_of(Coord::new(x, y)))
            .collect();
        let b = predicted_contention_2d(mesh2, &split, CommPattern::Ring, 9);
        assert_eq!(b.dispersal, (mesh2.width() + mesh2.height()) as f64);
    }

    #[test]
    fn compact_placement_beats_scattered_for_all_to_all() {
        let mesh = Mesh2D::new(8, 8);
        // A 2x2 block versus the four mesh corners.
        let compact: Vec<NodeId> = [(0, 0), (1, 0), (0, 1), (1, 1)]
            .iter()
            .map(|&(x, y)| mesh.id_of(Coord::new(x, y)))
            .collect();
        let corners: Vec<NodeId> = [(0, 0), (7, 0), (0, 7), (7, 7)]
            .iter()
            .map(|&(x, y)| mesh.id_of(Coord::new(x, y)))
            .collect();
        let c = predicted_contention_2d(mesh, &compact, CommPattern::AllToAll, 1).total();
        let s = predicted_contention_2d(mesh, &corners, CommPattern::AllToAll, 1).total();
        assert!(c < s, "compact {c} should beat corners {s}");
    }

    #[test]
    fn split_components_pay_the_diameter_penalty() {
        let mesh = Mesh2D::new(8, 8);
        let contiguous = row(mesh, 0, 4);
        let split: Vec<NodeId> = [(0, 0), (1, 0), (6, 7), (7, 7)]
            .iter()
            .map(|&(x, y)| mesh.id_of(Coord::new(x, y)))
            .collect();
        let a = predicted_contention_2d(mesh, &contiguous, CommPattern::Ring, 3).total();
        let b = predicted_contention_2d(mesh, &split, CommPattern::Ring, 3).total();
        assert!(
            b > a + 8.0,
            "two components must cost a diameter: {a} vs {b}"
        );
    }

    #[test]
    fn three_d_proxy_prefers_compact_blocks() {
        let mesh = Mesh3D::new(4, 4, 4);
        let compact: Vec<NodeId> = (0..8).map(NodeId).collect();
        let spread: Vec<NodeId> = (0..8).map(|i| NodeId(i * 8)).collect();
        let c = predicted_contention_3d(mesh, &compact, CommPattern::AllToAll, 1).total();
        let s = predicted_contention_3d(mesh, &spread, CommPattern::AllToAll, 1).total();
        assert!(c < s, "compact {c} should beat spread {s}");
    }

    #[test]
    fn the_3d_network_term_is_the_mean_distance_over_the_kept_messages() {
        // A thinned 96-rank window (all-to-all keeps every fifth of its
        // 9 120 messages; at stride 2 the kept half would mirror the rest
        // and hide the thinning) and an unthinned 6-rank set, every
        // pattern: the kept messages are the iteration's, stepped by the
        // 2-D stride.
        let mesh = Mesh3D::new(8, 8, 4);
        let window: Vec<NodeId> = (0..96).map(NodeId).collect();
        let scattered: Vec<NodeId> = (0..6).map(|i| NodeId(i * 37)).collect();
        for nodes in [window, scattered] {
            let p = nodes.len();
            for pattern in CommPattern::all() {
                let count = pattern.messages_per_iteration(p) as usize;
                let stride = count.div_ceil(MAX_SCORED_MESSAGES).max(1);
                let mut rng = StdRng::seed_from_u64(splitmix64(7));
                let kept = pattern.iteration_messages(p, &mut rng);
                let kept: Vec<_> = kept.into_iter().step_by(stride).collect();
                let hops: f64 = kept
                    .iter()
                    .map(|&(src, dst)| mesh.distance(nodes[src], nodes[dst]) as f64)
                    .sum();
                let network = predicted_contention_3d(mesh, &nodes, pattern, 7).network;
                let mean = hops / kept.len() as f64;
                assert_eq!(network.to_bits(), mean.to_bits(), "{pattern} p={p}");
            }
        }
    }

    #[test]
    fn random_pattern_scores_differ_across_jobs_but_not_within() {
        let mesh = Mesh2D::new(8, 8);
        let nodes = row(mesh, 2, 6);
        let a1 = predicted_contention_2d(mesh, &nodes, CommPattern::Random, 1).total();
        let a2 = predicted_contention_2d(mesh, &nodes, CommPattern::Random, 1).total();
        assert_eq!(a1, a2);
        // Different jobs draw different pairs; scores need not be equal
        // for every pair of ids, but across a few ids at least one must
        // differ (the seed actually feeds the draw).
        let distinct = (1..8u64)
            .map(|id| predicted_contention_2d(mesh, &nodes, CommPattern::Random, id).total())
            .any(|s| s != a1);
        assert!(distinct, "job id must seed the random pattern's draws");
    }

    /// Every pattern but `random`, whose draws the job id seeds.
    fn deterministic() -> Vec<CommPattern> {
        CommPattern::all()
            .into_iter()
            .filter(|&p| p != CommPattern::Random)
            .collect()
    }

    /// Up to 40 distinct cells of a box, in drawn (rank) order.
    fn ranked<T: Copy + Eq + std::hash::Hash>(cells: Vec<T>) -> Vec<T> {
        let mut seen = std::collections::HashSet::new();
        cells.into_iter().filter(|&c| seen.insert(c)).collect()
    }

    fn bits(b: ScoreBreakdown) -> [u64; 3] {
        [b.network, b.locality, b.dispersal].map(f64::to_bits)
    }

    /// A node set of a 2-D mesh up to 16×22, in rank order, and a
    /// translate of it that stays in the mesh.
    fn translated_2d() -> impl Strategy<Value = (Mesh2D, Vec<NodeId>, Vec<NodeId>)> {
        (1u16..=16, 1u16..=22)
            .prop_flat_map(|(w, h)| (Just(Mesh2D::new(w, h)), 1..=w, 1..=h))
            .prop_flat_map(|(mesh, bw, bh)| {
                let cells = prop::collection::vec((0..bw, 0..bh), 1..=40);
                let corner = (0..=mesh.width() - bw, 0..=mesh.height() - bh);
                (Just(mesh), cells, corner.clone(), corner)
            })
            .prop_map(|(mesh, cells, a, b)| {
                let cells = ranked(cells);
                let at = |(x0, y0): (u16, u16)| -> Vec<NodeId> {
                    cells
                        .iter()
                        .map(|&(x, y)| mesh.id_of(Coord::new(x0 + x, y0 + y)))
                        .collect()
                };
                (mesh, at(a), at(b))
            })
    }

    /// A node set of the 8×8×4 mesh, in rank order, and a translate of
    /// it that stays in the mesh.
    fn translated_3d() -> impl Strategy<Value = (Mesh3D, Vec<NodeId>, Vec<NodeId>)> {
        let mesh = Mesh3D::new(8, 8, 4);
        (1u16..=8, 1u16..=8, 1u16..=4)
            .prop_flat_map(|(bw, bh, bd)| {
                let cells = prop::collection::vec((0..bw, 0..bh, 0..bd), 1..=40);
                let corner = (0..=8 - bw, 0..=8 - bh, 0..=4 - bd);
                (cells, corner.clone(), corner)
            })
            .prop_map(move |(cells, a, b)| {
                let cells = ranked(cells);
                let at = |(x0, y0, z0): (u16, u16, u16)| -> Vec<NodeId> {
                    cells
                        .iter()
                        .map(|&(x, y, z)| mesh.id_of(Coord3::new(x0 + x, y0 + y, z0 + z)))
                        .collect()
                };
                (mesh, at(a), at(b))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_translate_scores_alike_on_a_2d_mesh(
            (mesh, nodes, translate) in translated_2d(),
            pattern in prop::sample::select(deterministic()),
            job in any::<u64>(),
        ) {
            prop_assert_eq!(
                bits(predicted_contention_2d(mesh, &nodes, pattern, job)),
                bits(predicted_contention_2d(mesh, &translate, pattern, job))
            );
        }

        #[test]
        fn a_translate_scores_alike_on_a_3d_mesh(
            (mesh, nodes, translate) in translated_3d(),
            pattern in prop::sample::select(deterministic()),
            job in any::<u64>(),
        ) {
            prop_assert_eq!(
                bits(predicted_contention_3d(mesh, &nodes, pattern, job)),
                bits(predicted_contention_3d(mesh, &translate, pattern, job))
            );
        }
    }
}
