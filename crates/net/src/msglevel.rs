//! Event-driven message-level network simulator.
//!
//! A middle fidelity between the flit-level wormhole simulator and the fluid
//! rate model: each directed link is a FIFO server that transmits one whole
//! message at a time (store-and-forward), so a message's uncontended latency
//! is `hops × service_time` and queueing delays appear wherever routes
//! overlap. This model is orders of magnitude faster than flit simulation
//! because it advances by events rather than cycles, yet it still resolves
//! the per-link queueing that the fluid model averages away.
//!
//! Events are ordered by `(time, input index)` and normally live in a binary
//! heap of `f64` times. When every message is injected at `0.0` with service
//! time `1.0` — *unit traffic*, which is all the placement scorer ever sends
//! — every event time is a small integer, and [`MessageLevelNetwork::simulate`]
//! runs the same events in the same order through one bucket per time step
//! instead: no heap, no float comparison, and a report equal to the heap's
//! to the last bit. Any other input takes the heap.

use crate::assert_unique_ids;
use crate::link::{LinkTable, RouteCursor};
use commalloc_mesh::{Mesh2D, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A message to inject.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Caller-chosen identifier.
    pub id: u64,
    /// Source processor.
    pub src: NodeId,
    /// Destination processor.
    pub dst: NodeId,
    /// Time at which the message is ready to leave the source.
    pub inject_at: f64,
    /// Time a link needs to forward the whole message.
    pub service_time: f64,
}

/// Delivery record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageDelivery {
    /// The message identifier.
    pub id: u64,
    /// Time the message fully arrived at its destination.
    pub delivered_at: f64,
    /// `delivered_at - inject_at`.
    pub latency: f64,
}

/// Result of a message-level simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MessageSimReport {
    /// Per-message records, in input order.
    pub deliveries: Vec<MessageDelivery>,
    /// Time the last message arrived.
    pub makespan: f64,
}

impl MessageSimReport {
    fn of(deliveries: Vec<MessageDelivery>) -> Self {
        let makespan = deliveries
            .iter()
            .map(|d| d.delivered_at)
            .fold(0.0f64, f64::max);
        MessageSimReport {
            deliveries,
            makespan,
        }
    }

    /// Mean latency over all messages.
    pub fn mean_latency(&self) -> f64 {
        if self.deliveries.is_empty() {
            return 0.0;
        }
        self.deliveries.iter().map(|d| d.latency).sum::<f64>() / self.deliveries.len() as f64
    }
}

/// The store-and-forward mesh network.
#[derive(Debug, Clone)]
pub struct MessageLevelNetwork {
    links: LinkTable,
}

/// Pending event: message `msg` is ready to cross the next link of its route
/// at `time`. A message has one pending event at a time, so `(time, msg)`
/// orders events totally.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    msg: usize,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.msg.cmp(&other.msg))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// End of a bucket's message list.
const NIL: u32 = u32::MAX;

impl MessageLevelNetwork {
    /// Creates a simulator over `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        MessageLevelNetwork {
            links: LinkTable::new(mesh),
        }
    }

    /// The mesh being simulated.
    pub fn mesh(&self) -> Mesh2D {
        self.links.mesh()
    }

    /// Simulates all messages to completion.
    ///
    /// Ties are broken by input order so runs are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if two messages share an id (the per-id delivery records
    /// would be ambiguous).
    pub fn simulate(&self, messages: &[Message]) -> MessageSimReport {
        assert_unique_ids(messages.iter().map(|m| m.id));
        let unit_traffic = messages
            .iter()
            .all(|m| m.inject_at == 0.0 && m.service_time == 1.0);
        if unit_traffic {
            self.simulate_unit(messages)
        } else {
            self.simulate_heap(messages)
        }
    }

    /// One route cursor per message, and the delivery records of the
    /// messages that are already where they are going. Events carry the
    /// input index, so every other record is later written in place.
    fn start(&self, messages: &[Message]) -> (Vec<RouteCursor>, Vec<MessageDelivery>) {
        messages
            .iter()
            .map(|m| {
                let local = MessageDelivery {
                    id: m.id,
                    delivered_at: m.inject_at,
                    latency: 0.0,
                };
                (self.links.cursor(m.src, m.dst), local)
            })
            .unzip()
    }

    /// The general path: `f64` event times in a binary heap.
    fn simulate_heap(&self, messages: &[Message]) -> MessageSimReport {
        let (mut cursors, mut deliveries) = self.start(messages);
        let mut link_free_at: Vec<f64> = vec![0.0; self.links.num_slots()];
        let mut heap: BinaryHeap<Reverse<Event>> = messages
            .iter()
            .enumerate()
            .filter(|&(msg, _)| !cursors[msg].arrived())
            .map(|(msg, m)| {
                Reverse(Event {
                    time: m.inject_at,
                    msg,
                })
            })
            .collect();

        while let Some(Reverse(Event { time, msg })) = heap.pop() {
            let m = &messages[msg];
            let link = self
                .links
                .advance(&mut cursors[msg])
                .expect("a pending message has a link left to cross");
            let finish = time.max(link_free_at[link.index()]) + m.service_time;
            link_free_at[link.index()] = finish;
            if cursors[msg].arrived() {
                deliveries[msg].delivered_at = finish;
                deliveries[msg].latency = finish - m.inject_at;
            } else {
                heap.push(Reverse(Event { time: finish, msg }));
            }
        }
        MessageSimReport::of(deliveries)
    }

    /// The integer-time kernel for unit traffic (`inject_at == 0.0`,
    /// `service_time == 1.0` throughout). Every event time is an integer, an
    /// event at time `t` schedules its successor at `t + 1` or later, and a
    /// message has one pending event — so bucket `t` is complete when time
    /// reaches it, and walking it in input order is the heap's `(time, msg)`
    /// order exactly. Buckets are intrusive lists (`first[t]`, `next[msg]`),
    /// so nothing is allocated per message or per event. Integers this small
    /// convert to `f64` exactly, which makes the report bit-identical.
    fn simulate_unit(&self, messages: &[Message]) -> MessageSimReport {
        let (mut cursors, mut deliveries) = self.start(messages);
        let count = u32::try_from(messages.len()).expect("message indices fit u32");
        let mut link_free_at: Vec<u32> = vec![0; self.links.num_slots()];
        let mut next: Vec<u32> = vec![NIL; messages.len()];
        let mut first: Vec<u32> = Vec::new();
        let mut bucket: Vec<u32> = (0..count)
            .filter(|&msg| !cursors[msg as usize].arrived())
            .collect();
        let mut time = 0u32;
        loop {
            for &msg in &bucket {
                let cursor = &mut cursors[msg as usize];
                let link = self
                    .links
                    .advance(cursor)
                    .expect("a pending message has a link left to cross");
                let finish = time.max(link_free_at[link.index()]) + 1;
                link_free_at[link.index()] = finish;
                if cursor.arrived() {
                    let delivery = &mut deliveries[msg as usize];
                    delivery.delivered_at = finish as f64;
                    delivery.latency = finish as f64;
                } else {
                    let slot = finish as usize;
                    if slot >= first.len() {
                        first.resize(slot + 1, NIL);
                    }
                    next[msg as usize] = std::mem::replace(&mut first[slot], msg);
                }
            }
            time += 1;
            let Some(&head) = first.get(time as usize) else {
                break;
            };
            bucket.clear();
            let mut msg = head;
            while msg != NIL {
                bucket.push(msg);
                msg = next[msg as usize];
            }
            bucket.sort_unstable();
        }
        MessageSimReport::of(deliveries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Coord;
    use proptest::prelude::*;

    /// Unit-traffic inputs for the kernel-versus-heap pin: any mesh up to
    /// the paper's 16×22 (non-square and one-wide included), up to the
    /// scorer's 2048-message cap, endpoints drawn either from the whole mesh
    /// or from one to three processors — the small pools make most messages
    /// self-addressed or pile hundreds of them onto a single link.
    fn unit_traffic() -> impl Strategy<Value = (Mesh2D, Vec<Message>)> {
        let count = prop_oneof![0usize..=48, 0usize..=2048];
        (1u16..=16, 1u16..=22, 0usize..=3, count).prop_flat_map(|(w, h, pool, count)| {
            let mesh = Mesh2D::new(w, h);
            let nodes = mesh.num_nodes() as u32;
            let pool = if pool == 0 { nodes as usize } else { pool };
            let endpoints = collection::vec(0..nodes, pool);
            let pairs = collection::vec((0..pool, 0..pool), count);
            (Just(mesh), endpoints, pairs).prop_map(|(mesh, endpoints, pairs)| {
                let messages = pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(src, dst))| Message {
                        id: i as u64,
                        src: NodeId(endpoints[src]),
                        dst: NodeId(endpoints[dst]),
                        inject_at: 0.0,
                        service_time: 1.0,
                    })
                    .collect();
                (mesh, messages)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn unit_kernel_report_equals_the_heap_path((mesh, messages) in unit_traffic()) {
            let net = MessageLevelNetwork::new(mesh);
            let kernel = net.simulate_unit(&messages);
            let heap = net.simulate_heap(&messages);
            prop_assert_eq!(&kernel, &heap);
            prop_assert_eq!(kernel.mean_latency().to_bits(), heap.mean_latency().to_bits());
            // `simulate` itself must pick the kernel's answer for this input.
            prop_assert_eq!(&net.simulate(&messages), &heap);
        }
    }

    #[test]
    fn anything_but_unit_traffic_takes_the_heap() {
        // A late injection and a fractional service time: the kernel's
        // integer clock could represent neither.
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let mut late = msg(mesh, 0, (0, 0), (3, 0), 0.0);
        let mut slow = msg(mesh, 1, (1, 0), (3, 0), 0.0);
        late.inject_at = 0.5;
        slow.service_time = 1.25;
        let r = net.simulate(&[late, slow]);
        assert_eq!(r, net.simulate_heap(&[late, slow]));
        // `slow` holds link (1,0)→(2,0) during [0, 1.25) and the next one
        // during [1.25, 2.5); `late` reaches them at 1.5 and at 2.5.
        assert_eq!(r.deliveries[1].delivered_at, 2.5);
        assert_eq!(r.deliveries[0].delivered_at, 3.5);
        assert_eq!(r.deliveries[0].latency, 3.0);
    }

    fn mesh8() -> Mesh2D {
        Mesh2D::new(8, 8)
    }

    fn msg(mesh: Mesh2D, id: u64, src: (u16, u16), dst: (u16, u16), at: f64) -> Message {
        Message {
            id,
            src: mesh.id_of(Coord::new(src.0, src.1)),
            dst: mesh.id_of(Coord::new(dst.0, dst.1)),
            inject_at: at,
            service_time: 1.0,
        }
    }

    #[test]
    fn uncontended_latency_is_hops_times_service() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[msg(mesh, 1, (0, 0), (3, 2), 0.0)]);
        assert!((r.deliveries[0].latency - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shared_link_queues_messages() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[
            msg(mesh, 1, (0, 0), (2, 0), 0.0),
            msg(mesh, 2, (0, 0), (2, 0), 0.0),
        ]);
        assert!((r.deliveries[0].latency - 2.0).abs() < 1e-12);
        // The second message waits one service time at the first link.
        assert!((r.deliveries[1].latency - 3.0).abs() < 1e-12);
    }

    #[test]
    fn local_message_is_immediate() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[msg(mesh, 1, (4, 4), (4, 4), 3.0)]);
        assert_eq!(r.deliveries[0].delivered_at, 3.0);
    }

    #[test]
    fn makespan_and_mean_latency() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let r = net.simulate(&[
            msg(mesh, 1, (0, 0), (1, 0), 0.0),
            msg(mesh, 2, (5, 5), (5, 7), 1.0),
        ]);
        assert!((r.makespan - 3.0).abs() < 1e-12);
        assert!((r.mean_latency() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn deliveries_stay_in_input_order_even_when_completion_inverts_it() {
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        let slow = msg(mesh, 9, (0, 0), (7, 7), 0.0);
        let fast = msg(mesh, 3, (0, 5), (1, 5), 0.0);
        let r = net.simulate(&[slow, fast]);
        let ids: Vec<u64> = r.deliveries.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![9, 3]);
        assert!(r.deliveries[1].delivered_at < r.deliveries[0].delivered_at);
    }

    #[test]
    #[should_panic(expected = "duplicate message id")]
    fn duplicate_message_ids_are_rejected() {
        // Regression: duplicates used to be silently tolerated (the report
        // re-sort fell back to usize::MAX for unmatched ids), leaving the
        // per-id records ambiguous.
        let mesh = mesh8();
        let net = MessageLevelNetwork::new(mesh);
        net.simulate(&[
            msg(mesh, 1, (0, 0), (1, 0), 0.0),
            msg(mesh, 1, (0, 1), (1, 1), 0.0),
        ]);
    }

    #[test]
    fn agrees_with_flit_model_on_relative_contention() {
        // Both models must rank a congested scenario slower than an
        // uncongested one.
        let mesh = mesh8();
        let msg_net = MessageLevelNetwork::new(mesh);
        let congested: Vec<Message> = (0..6).map(|i| msg(mesh, i, (0, 0), (7, 0), 0.0)).collect();
        let spread: Vec<Message> = (0..6)
            .map(|i| msg(mesh, i, (0, i as u16), (7, i as u16), 0.0))
            .collect();
        let c = msg_net.simulate(&congested);
        let s = msg_net.simulate(&spread);
        assert!(c.makespan > s.makespan);
    }
}
