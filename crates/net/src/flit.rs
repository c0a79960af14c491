//! Cycle-driven flit-level wormhole network simulator.
//!
//! This is the fidelity class of ProcSimity, the simulator the paper uses:
//! messages are worms of flits routed x-y through the mesh; the head flit
//! acquires one directed link per cycle when that link is free and the body
//! follows in pipeline, so a blocked head stalls the whole worm in place and
//! holds its links — which is exactly how interjob contention turns dispersed
//! allocations into slowdowns.
//!
//! The simulator is used for the microbenchmark experiments (the Figure 1
//! communication test suite) and in unit tests; whole-trace simulations
//! use the coarser [`crate::fluid::FluidNetwork`] model (README
//! § "Substitutions this reproduction makes"). Nothing yet compares the
//! two models on the same workload.

use crate::assert_unique_ids;
use crate::link::{LinkId, LinkTable};
use commalloc_mesh::{Mesh2D, NodeId};
use serde::{Deserialize, Serialize};

/// A message to inject into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlitMessage {
    /// Caller-chosen identifier (reported back in the results).
    pub id: u64,
    /// Source processor.
    pub src: NodeId,
    /// Destination processor.
    pub dst: NodeId,
    /// Cycle at which the message becomes ready to inject.
    pub inject_at: u64,
    /// Message length in flits (including the header flit).
    pub flits: u32,
}

/// Delivery record of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// The message identifier.
    pub id: u64,
    /// Cycle at which the last flit arrived.
    pub delivered_at: u64,
    /// `delivered_at - inject_at`.
    pub latency: u64,
}

/// Result of a flit-level simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlitSimReport {
    /// Per-message delivery records, in input order.
    pub deliveries: Vec<Delivery>,
    /// Cycle at which the last message was delivered.
    pub makespan: u64,
}

impl FlitSimReport {
    /// Mean latency over all messages.
    pub fn mean_latency(&self) -> f64 {
        if self.deliveries.is_empty() {
            return 0.0;
        }
        self.deliveries
            .iter()
            .map(|d| d.latency as f64)
            .sum::<f64>()
            / self.deliveries.len() as f64
    }
}

/// The wormhole mesh network.
#[derive(Debug, Clone)]
pub struct FlitNetwork {
    links: LinkTable,
    /// Safety bound on simulated cycles; exceeded only by a routing deadlock,
    /// which x-y routing precludes, so hitting it is a bug.
    max_cycles: u64,
}

#[derive(Debug)]
struct Worm {
    input_index: usize,
    path: Vec<LinkId>,
    inject_at: u64,
    flits: u32,
    /// Links acquired so far (head progress).
    head: usize,
    /// Oldest still-held link index.
    tail: usize,
    /// Cycle the head reached the destination, if it has.
    head_arrived: Option<u64>,
    delivered_at: Option<u64>,
}

impl FlitNetwork {
    /// Creates a simulator over `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        FlitNetwork {
            links: LinkTable::new(mesh),
            max_cycles: 100_000_000,
        }
    }

    /// Overrides the runaway-simulation guard (useful in tests).
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// The mesh being simulated.
    pub fn mesh(&self) -> Mesh2D {
        self.links.mesh()
    }

    /// Simulates all `messages` to completion and reports per-message
    /// delivery times.
    ///
    /// Link conflicts are resolved deterministically in favour of the message
    /// that appears first in `messages`, so runs are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if any message has zero flits, if two messages share an id
    /// (the per-id delivery records would be ambiguous), or if the
    /// simulation exceeds the cycle guard (which would indicate a deadlock
    /// and therefore a bug).
    pub fn simulate(&self, messages: &[FlitMessage]) -> FlitSimReport {
        let mesh = self.mesh();
        assert_unique_ids(messages.iter().map(|m| m.id));
        let mut worms: Vec<Worm> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| {
                assert!(m.flits > 0, "messages must carry at least one flit");
                Worm {
                    input_index: i,
                    path: self.links.route_links(m.src, m.dst),
                    inject_at: m.inject_at,
                    flits: m.flits,
                    head: 0,
                    tail: 0,
                    head_arrived: None,
                    delivered_at: None,
                }
            })
            .collect();
        let _ = mesh;

        let mut occupied: Vec<bool> = vec![false; self.links.num_slots()];
        let mut remaining = worms.len();
        let mut cycle: u64 = 0;

        // Messages between co-located ranks are delivered immediately.
        for w in &mut worms {
            if w.path.is_empty() {
                w.delivered_at = Some(w.inject_at);
                remaining -= 1;
            }
        }

        while remaining > 0 {
            assert!(
                cycle <= self.max_cycles,
                "flit simulation exceeded {} cycles — routing deadlock?",
                self.max_cycles
            );
            for w in worms.iter_mut() {
                if w.delivered_at.is_some() || w.inject_at > cycle {
                    continue;
                }
                match w.head_arrived {
                    None => {
                        // Try to advance the head by one link.
                        let next = w.path[w.head];
                        if !occupied[next.index()] {
                            occupied[next.index()] = true;
                            w.head += 1;
                            // Keep the worm no longer than its flit count.
                            if w.head - w.tail > w.flits as usize {
                                occupied[w.path[w.tail].index()] = false;
                                w.tail += 1;
                            }
                            if w.head == w.path.len() {
                                w.head_arrived = Some(cycle);
                            }
                        }
                    }
                    Some(arrived) => {
                        // One flit drains into the destination per cycle;
                        // the tail releases one link per cycle.
                        if w.tail < w.head {
                            occupied[w.path[w.tail].index()] = false;
                            w.tail += 1;
                        }
                        if cycle - arrived + 1 >= w.flits as u64 {
                            // All flits have arrived; release anything left.
                            // Delivery is stamped at the end of the cycle so
                            // the uncontended latency is hops + flits - 1.
                            while w.tail < w.head {
                                occupied[w.path[w.tail].index()] = false;
                                w.tail += 1;
                            }
                            w.delivered_at = Some(cycle + 1);
                            remaining -= 1;
                        }
                    }
                }
            }
            cycle += 1;
        }

        // Worms were built by enumerating `messages`, so walking them in
        // order already yields deliveries in input order — no re-sort (the
        // old per-element `position()` scan was O(n²) on the hot path).
        let deliveries: Vec<Delivery> = worms
            .iter()
            .map(|w| {
                let delivered_at = w.delivered_at.expect("all worms delivered");
                Delivery {
                    id: messages[w.input_index].id,
                    delivered_at,
                    latency: delivered_at - w.inject_at,
                }
            })
            .collect();
        let makespan = deliveries.iter().map(|d| d.delivered_at).max().unwrap_or(0);
        FlitSimReport {
            deliveries,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Coord;

    fn mesh8() -> Mesh2D {
        Mesh2D::new(8, 8)
    }

    fn msg(
        mesh: Mesh2D,
        id: u64,
        src: (u16, u16),
        dst: (u16, u16),
        at: u64,
        flits: u32,
    ) -> FlitMessage {
        FlitMessage {
            id,
            src: mesh.id_of(Coord::new(src.0, src.1)),
            dst: mesh.id_of(Coord::new(dst.0, dst.1)),
            inject_at: at,
            flits,
        }
    }

    #[test]
    fn uncontended_latency_is_hops_plus_flits() {
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        // 5 hops, 4 flits.
        let report = net.simulate(&[msg(mesh, 1, (0, 0), (3, 2), 0, 4)]);
        assert_eq!(report.deliveries.len(), 1);
        // Head needs 5 cycles (one per link), then 4 drain cycles; delivery is
        // recorded on the cycle the last flit lands.
        let latency = report.deliveries[0].latency;
        assert_eq!(latency, 5 + 4 - 1);
    }

    #[test]
    fn local_message_is_immediate() {
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        let report = net.simulate(&[msg(mesh, 1, (2, 2), (2, 2), 7, 3)]);
        assert_eq!(report.deliveries[0].delivered_at, 7);
        assert_eq!(report.deliveries[0].latency, 0);
    }

    #[test]
    fn contention_on_a_shared_link_serialises_messages() {
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        // Two messages over the same row segment, same direction.
        let a = msg(mesh, 1, (0, 0), (4, 0), 0, 8);
        let b = msg(mesh, 2, (0, 0), (4, 0), 0, 8);
        let both = net.simulate(&[a, b]);
        let alone = net.simulate(&[a]);
        let la = both.deliveries[0].latency;
        let lb = both.deliveries[1].latency;
        assert_eq!(la, alone.deliveries[0].latency, "first message unimpeded");
        assert!(lb > la, "second message must wait behind the first");
    }

    #[test]
    fn disjoint_messages_do_not_interfere() {
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        let a = msg(mesh, 1, (0, 0), (3, 0), 0, 4);
        let b = msg(mesh, 2, (0, 5), (3, 5), 0, 4);
        let both = net.simulate(&[a, b]);
        let only_a = net.simulate(&[a]);
        assert_eq!(both.deliveries[0].latency, only_a.deliveries[0].latency);
        assert_eq!(both.deliveries[0].latency, both.deliveries[1].latency);
    }

    #[test]
    fn deferred_injection_is_respected() {
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        let report = net.simulate(&[msg(mesh, 1, (0, 0), (1, 0), 100, 2)]);
        assert!(report.deliveries[0].delivered_at >= 100);
        assert_eq!(report.deliveries[0].latency, 1 + 2 - 1);
    }

    #[test]
    fn dispersed_all_to_all_is_slower_than_compact() {
        // The Figure 1 mechanism in miniature: the same all-to-all traffic on
        // a compact 2x2 block vs. four corners of the mesh.
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        let compact: Vec<NodeId> = mesh
            .submesh(Coord::new(0, 0), 2, 2)
            .into_iter()
            .map(|c| mesh.id_of(c))
            .collect();
        let corners: Vec<NodeId> = [(0u16, 0u16), (7, 0), (0, 7), (7, 7)]
            .iter()
            .map(|&(x, y)| mesh.id_of(Coord::new(x, y)))
            .collect();
        let build = |nodes: &[NodeId]| -> Vec<FlitMessage> {
            let mut msgs = Vec::new();
            let mut id = 0;
            for _ in 0..4 {
                for i in 0..nodes.len() {
                    for j in 0..nodes.len() {
                        if i != j {
                            msgs.push(FlitMessage {
                                id,
                                src: nodes[i],
                                dst: nodes[j],
                                inject_at: 0,
                                flits: 16,
                            });
                            id += 1;
                        }
                    }
                }
            }
            msgs
        };
        let compact_report = net.simulate(&build(&compact));
        let corner_report = net.simulate(&build(&corners));
        assert!(
            corner_report.makespan > compact_report.makespan,
            "dispersed {} should exceed compact {}",
            corner_report.makespan,
            compact_report.makespan
        );
    }

    #[test]
    fn deliveries_stay_in_input_order_even_when_completion_inverts_it() {
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        // The first input is a long worm, the second a one-flit hop that
        // completes far earlier; the report must still list them as given.
        let slow = msg(mesh, 9, (0, 0), (7, 0), 0, 16);
        let fast = msg(mesh, 3, (0, 5), (1, 5), 0, 1);
        let report = net.simulate(&[slow, fast]);
        let ids: Vec<u64> = report.deliveries.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![9, 3]);
        assert!(report.deliveries[1].delivered_at < report.deliveries[0].delivered_at);
    }

    #[test]
    #[should_panic(expected = "duplicate message id")]
    fn duplicate_message_ids_are_rejected() {
        // Regression: duplicates used to be silently tolerated (the report
        // re-sort fell back to usize::MAX for unmatched ids), leaving the
        // per-id records ambiguous.
        let mesh = mesh8();
        let net = FlitNetwork::new(mesh);
        net.simulate(&[
            msg(mesh, 1, (0, 0), (1, 0), 0, 2),
            msg(mesh, 1, (0, 1), (1, 1), 0, 2),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_message_is_rejected() {
        let mesh = mesh8();
        FlitNetwork::new(mesh).simulate(&[msg(mesh, 1, (0, 0), (1, 0), 0, 0)]);
    }

    #[test]
    fn mean_latency_of_empty_report_is_zero() {
        let report = FlitSimReport {
            deliveries: vec![],
            makespan: 0,
        };
        assert_eq!(report.mean_latency(), 0.0);
    }
}
