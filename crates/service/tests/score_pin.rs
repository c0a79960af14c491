//! The placement score, pinned to the bit.
//!
//! Candidate placements are ordered by comparing these `f64`s, and the
//! offline router and the live service must compute the same ones, so a
//! change to the message-level simulator or to the mesh locality terms that
//! moves one bit of one score changes decisions. The literals were recorded
//! from the heap-based simulator, the O(p²) pair loop and the `HashSet`
//! flood fill (commit 7e91126) before they were replaced.

use commalloc_mesh::{CurveKind, CurveOrder, Mesh2D, NodeId};
use commalloc_service::score::predicted_contention_2d;
use commalloc_workload::CommPattern;

#[test]
fn hilbert_window_scores_on_16x16_are_bit_identical_to_the_recorded_ones() {
    let mesh = Mesh2D::square_16x16();
    let hilbert = CurveOrder::build(CurveKind::Hilbert, mesh);
    let at = |rank: usize| hilbert.node_at(rank);
    // One contiguous window (96 processors: all-to-all is thinned to the
    // scorer's 2048-message cap) and one split in two components.
    let window: Vec<NodeId> = (37..133).map(at).collect();
    let split: Vec<NodeId> = (3..40).chain(100..131).map(at).collect();
    // (network, total) bits per paper pattern: all-to-all, n-body, random.
    let recorded = [
        (
            &window,
            [
                (0x4046_6847_dc11_f704u64, 0x4049_c625_b9ef_d4e2u64),
                (0x4038_9a64_49e5_9bb6, 0x403f_5620_05a1_5772),
                (0x4010_0000_0000_0000, 0x4025_7777_7777_7778),
            ],
        ),
        (
            &split,
            [
                (0x4040_6ad9_67fb_f48a, 0x4052_28f3_555e_6628),
                (0x4032_12fc_b9f1_988d, 0x404c_f08b_9fb9_a40c),
                (0x4014_0000_0000_0000, 0x4046_670d_42c0_d7c5),
            ],
        ),
    ];
    for (nodes, expected) in recorded {
        for (pattern, (network, total)) in CommPattern::paper_patterns().into_iter().zip(expected) {
            let score = predicted_contention_2d(mesh, nodes, pattern, 1996);
            assert_eq!(
                (score.network.to_bits(), score.total().to_bits()),
                (network, total),
                "{pattern} on {} processors scored {score:?}",
                nodes.len()
            );
        }
    }
}
