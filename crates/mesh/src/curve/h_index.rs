//! Closed locality-preserving indexing standing in for H-indexing.
//!
//! The paper's third curve (Figure 2(c)) is the H-indexing of Niedermeier,
//! Reinhardt & Sanders, a *closed* (cyclic) indexing of the `2^k × 2^k` mesh
//! built from recursively indexed right triangles, with locality constants
//! slightly better than the Hilbert curve's.
//!
//! **Substitution note** (listed in README § "Substitutions this
//! reproduction makes"): we realise this curve
//! with the Moore construction — four order-`k-1` Hilbert sub-curves arranged
//! so the overall index is a Hamiltonian *cycle* of the mesh. The Moore curve
//! shares every property the paper's experiments exercise: it visits each
//! processor exactly once, consecutive indices (including last-to-first) are
//! mesh neighbours, and index windows map to compact regions of Hilbert-class
//! locality. The exact per-cell order differs from the triangle-based
//! H-index, but the allocation algorithms only consume the ordering through
//! rank arithmetic, so the qualitative role of the curve (a closed
//! Hilbert-like alternative) is preserved.

use crate::coord::Coord;
use crate::curve::hilbert;

/// Generates the closed curve covering the `n × n` grid where `n` is the
/// smallest power of two `>= side`.
///
/// For `n == 1` the curve is the single cell; for `n >= 2` the result is a
/// Hamiltonian cycle (the last cell is adjacent to the first).
pub fn generate(side: u16) -> Vec<Coord> {
    let n = hilbert::side_to_pow2(side);
    if n == 1 {
        return vec![Coord::new(0, 0)];
    }
    if n == 2 {
        return vec![
            Coord::new(1, 1),
            Coord::new(0, 1),
            Coord::new(0, 0),
            Coord::new(1, 0),
        ];
    }
    let h = n / 2;
    // Base Hilbert curve on the h x h quadrant, running (0,0) -> (h-1,0).
    let base = hilbert::generate(h);
    let hm1 = (h - 1) as i32;

    // Reflection across the anti-diagonal: (x, y) -> (h-1-y, h-1-x).
    let anti = |c: Coord| Coord::new((hm1 - c.y as i32) as u16, (hm1 - c.x as i32) as u16);
    // Reflection across the main diagonal: (x, y) -> (y, x).
    let main = |c: Coord| Coord::new(c.y, c.x);

    let offset = |c: Coord, dx: u16, dy: u16| Coord::new(c.x + dx, c.y + dy);

    let mut out = Vec::with_capacity((n as usize) * (n as usize));
    // Lower-left quadrant: enters at (h-1, h-1), exits at (h-1, 0).
    out.extend(base.iter().map(|&c| offset(anti(c), 0, 0)));
    // Lower-right quadrant: enters at (h, 0), exits at (h, h-1).
    out.extend(base.iter().map(|&c| offset(main(c), h, 0)));
    // Upper-right quadrant: enters at (h, h), exits at (h, 2h-1).
    out.extend(base.iter().map(|&c| offset(main(c), h, h)));
    // Upper-left quadrant: enters at (h-1, 2h-1), exits at (h-1, h),
    // which is adjacent to the lower-left entry, closing the cycle.
    out.extend(base.iter().map(|&c| offset(anti(c), 0, h)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn covers_every_cell_exactly_once() {
        for side in [2u16, 4, 8, 16, 32] {
            let coords = generate(side);
            let n = side as usize;
            assert_eq!(coords.len(), n * n);
            let unique: HashSet<_> = coords.iter().collect();
            assert_eq!(unique.len(), n * n);
        }
    }

    #[test]
    fn is_a_hamiltonian_cycle() {
        for side in [2u16, 4, 8, 16, 32] {
            let coords = generate(side);
            for pair in coords.windows(2) {
                assert!(
                    pair[0].is_adjacent(pair[1]),
                    "consecutive cells must be adjacent: {} {}",
                    pair[0],
                    pair[1]
                );
            }
            let first = coords[0];
            let last = *coords.last().unwrap();
            assert!(
                first.is_adjacent(last),
                "closed curve: last {last} must neighbour first {first}"
            );
        }
    }

    #[test]
    fn order_one_cycle() {
        let coords = generate(2);
        assert_eq!(coords.len(), 4);
        assert!(coords[0].is_adjacent(coords[3]));
    }

    #[test]
    fn single_cell_mesh() {
        assert_eq!(generate(1), vec![Coord::new(0, 0)]);
    }
}
