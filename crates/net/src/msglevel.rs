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
//! — [`MessageLevelNetwork::simulate`] runs a line sweep instead, the
//! textbook reading of dimension-order routing (Dally & Towles, *Principles
//! and Practices of Interconnection Networks*, 2004, ch. 8): under x-then-y
//! routing every row direction and every column direction is a queue of its
//! own. The sweep rests on three facts:
//!
//! 1. **Each link lies on one line.** A ±x link of row `r` carries only
//!    messages on their x leg whose source row is `r`; a ±y link of column
//!    `c` carries only messages on their y leg whose destination column is
//!    `c`. So the x legs can all be served first, row by row, and the y
//!    legs after them, column by column, each entering its column when its
//!    x leg is done.
//! 2. **A link's order is fixed.** The heap pops events in `(time, input
//!    index)` order, and a link sees that order restricted to itself: it
//!    grants requests in `(ready time, input index)` order, and its only
//!    state is the time it is free again.
//! 3. **Streams arrive sorted.** With every service time `1`, the finish
//!    times one link hands out strictly increase, so the stream leaving a
//!    link is already in `(ready time, input index)` order for the next:
//!    each link merges that stream with the messages entering there.
//!
//! Walking each line in travel order therefore serves every link's requests
//! in the heap's order, with integer times and no heap: the report equals
//! the heap's to the last bit. Any other input takes the heap. A zero
//! service time breaks fact 3: two messages can leave a link at the same
//! instant, and the next link orders them by input index, not by the order
//! they left in. And the sweep's integer clock cannot hold fractional
//! injection or service times.
//!
//! The placement scorer reads only the mean latency, so it calls
//! [`UnitSweep::mean_latency`]: the same sweep over the bounding box of a
//! window's nodes, with its buffers kept between calls and no message or
//! delivery record built.

use crate::assert_unique_ids;
use crate::link::{LinkTable, RouteCursor};
use commalloc_mesh::{Coord, Mesh2D, NodeId};
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

    /// The line sweep for unit traffic (`inject_at == 0.0`,
    /// `service_time == 1.0` throughout) over the whole mesh; the module
    /// doc gives the three facts it rests on. Times are integers this
    /// small, which convert to `f64` exactly, so the report is the heap's
    /// to the bit.
    fn simulate_unit(&self, messages: &[Message]) -> MessageSimReport {
        let mesh = self.links.mesh();
        let at: Vec<Coord> = messages
            .iter()
            .flat_map(|m| [mesh.coord_of(m.src), mesh.coord_of(m.dst)])
            .collect();
        let pairs: Vec<(usize, usize)> = (0..messages.len()).map(|i| (2 * i, 2 * i + 1)).collect();
        let mut sweep = UnitSweep::default();
        let finish = sweep.finish_times(mesh.width(), mesh.height(), &at, &pairs);
        let deliveries = messages
            .iter()
            .zip(finish)
            .map(|(m, &finish)| {
                let (delivered_at, latency) = if m.src == m.dst {
                    (m.inject_at, 0.0)
                } else {
                    (f64::from(finish), f64::from(finish))
                };
                MessageDelivery {
                    id: m.id,
                    delivered_at,
                    latency,
                }
            })
            .collect();
        MessageSimReport::of(deliveries)
    }
}

/// The unit-traffic line sweep and the buffers it reuses. A caller that
/// sweeps many inputs keeps one (the placement scorer keeps one per
/// machine), so a sweep allocates only when its input outgrows every
/// earlier one. It then holds 60 bytes a message and 4 bytes a key (two
/// a box node, or one a time step of the latest ready time, whichever
/// is more) of the largest input it swept.
#[derive(Debug, Default)]
pub struct UnitSweep {
    finish: Vec<u32>,
    lines: Lines,
}

impl UnitSweep {
    /// The mean delivery latency of unit traffic (every message injected
    /// at `0.0` with service time `1.0`) inside a `width × height` box:
    /// message `i` runs from `at[pairs[i].0]` to `at[pairs[i].1]`, both
    /// coordinates in the box. An x-then-y route never leaves the box its
    /// ends span, so this is `MessageLevelNetwork::simulate(..)
    /// .mean_latency()` of the same messages on any mesh holding the box,
    /// wherever it sits there, to the bit; no message and no delivery
    /// record is built. 0 without messages.
    ///
    /// # Panics
    ///
    /// If a rank is not an index of `at`, or a coordinate lies outside
    /// the box.
    pub fn mean_latency(
        &mut self,
        width: u16,
        height: u16,
        at: &[Coord],
        pairs: &[(usize, usize)],
    ) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        // Every latency is an integer and so is every partial sum, far
        // below 2^53: the report's `f64` sum is exact, and equals this.
        let total: u64 = self
            .finish_times(width, height, at, pairs)
            .iter()
            .map(|&finish| u64::from(finish))
            .sum();
        total as f64 / pairs.len() as f64
    }

    /// Each message's delivery time (0 when self-addressed). The x phase
    /// sweeps every (row, direction) of the box and leaves each message's
    /// x-finish in `finish`; the y phase sweeps every (column, direction)
    /// with those finishes as ready times (0 for a message with no x leg)
    /// and leaves the delivery times there.
    fn finish_times(
        &mut self,
        width: u16,
        height: u16,
        at: &[Coord],
        pairs: &[(usize, usize)],
    ) -> &[u32] {
        let (width, height) = (usize::from(width), usize::from(height));
        assert!(
            at.iter()
                .all(|c| usize::from(c.x) < width && usize::from(c.y) < height),
            "a coordinate lies outside the {width}x{height} box"
        );
        // The x leg runs along the source row, the y leg down the
        // destination column.
        let leg = |msg: usize, axis: usize| {
            let (s, d) = (at[pairs[msg].0], at[pairs[msg].1]);
            if axis == 0 {
                Leg::new(s.x, d.x, width, s.y)
            } else {
                Leg::new(s.y, d.y, height, d.x)
            }
        };
        let (finish, lines) = (&mut self.finish, &mut self.lines);
        finish.clear();
        finish.resize(pairs.len(), 0);
        for axis in 0..2 {
            lines.entrants.clear();
            for (msg, &ready) in finish.iter().enumerate() {
                let Leg { key, hops } = leg(msg, axis);
                if hops > 0 {
                    let msg = u32::try_from(msg).expect("message indices fit u32");
                    lines.entrants.push(Entrant { key, ready, msg });
                }
            }
            lines.sort(2 * width * height);
            let line_len = if axis == 0 { width } else { height };
            lines.sweep(line_len, |msg| leg(msg, axis).hops, finish);
        }
        finish
    }
}

/// One leg of an x-then-y route, placed on its line. `key` is the line
/// position the leg enters at, `(2 × line + direction) × len + offset`:
/// offsets count in travel order, so the leg's next positions are
/// `key + 1`, `key + 2`, …, and each direction of a line owns a range.
#[derive(Debug, Clone, Copy)]
struct Leg {
    key: usize,
    hops: u32,
}

impl Leg {
    /// The leg from `from` to `to` along line `line` of an axis `len`
    /// positions long.
    fn new(from: u16, to: u16, len: usize, line: u16) -> Leg {
        let up = to >= from;
        let offset = if up {
            usize::from(from)
        } else {
            len - 1 - usize::from(from)
        };
        Leg {
            key: (2 * usize::from(line) + usize::from(!up)) * len + offset,
            hops: u32::from(from.abs_diff(to)),
        }
    }
}

/// A message entering a line at position `key`, ready at `ready`.
/// Ordered by `(key, ready, msg)`: position first, then each link's
/// own `(ready time, input index)` grant order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Entrant {
    key: usize,
    ready: u32,
    msg: u32,
}

/// A message on a line: it reaches its next link at `time` with `left`
/// links of the line still to cross.
#[derive(Debug, Clone, Copy, Default)]
struct Hop {
    time: u32,
    msg: u32,
    left: u32,
}

/// A counting sort passes over every line position, so it pays only
/// once there is at least one entrant per `SPARSE` positions; sparser
/// entrants (most of the scorer's small jobs) are sorted by comparison.
const SPARSE: usize = 8;

/// One phase's entrants and the buffers its sort and sweep reuse.
#[derive(Debug, Default)]
struct Lines {
    entrants: Vec<Entrant>,
    sorted: Vec<Entrant>,
    counts: Vec<u32>,
    stream: Vec<Hop>,
    next: Vec<Hop>,
}

impl Lines {
    /// Sorts the entrants (pushed in input order) by `(key, ready, msg)`,
    /// every key below `keys`. Many entrants take two stable counting
    /// sorts, by ready time and then by key; few take a comparison sort.
    fn sort(&mut self, keys: usize) {
        if self.entrants.len() * SPARSE < keys {
            self.entrants.sort_unstable();
            return;
        }
        let latest = self.entrants.iter().map(|e| e.ready).max().unwrap_or(0);
        if latest > 0 {
            self.counting_sort(latest as usize + 1, |e| e.ready as usize);
        }
        self.counting_sort(keys, |e| e.key);
    }

    /// A stable counting sort of the entrants by `bucket`, which is
    /// below `buckets`.
    fn counting_sort(&mut self, buckets: usize, bucket: impl Fn(&Entrant) -> usize) {
        let start = &mut self.counts;
        start.clear();
        start.resize(buckets + 1, 0);
        for e in &self.entrants {
            start[bucket(e) + 1] += 1;
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        self.sorted.clear();
        self.sorted.resize(self.entrants.len(), Entrant::default());
        for e in &self.entrants {
            let slot = &mut start[bucket(e)];
            self.sorted[*slot as usize] = *e;
            *slot += 1;
        }
        std::mem::swap(&mut self.entrants, &mut self.sorted);
    }

    /// Runs every line of the phase, each `line_len` positions long, over
    /// the sorted entrants. A line is walked position by position while
    /// its stream is non-empty; at each position the link grants the
    /// stream that crossed the link before it merged with the messages
    /// entering here, in `(ready time, input index)` order.
    /// `finish[msg]` is written at every crossing, so it ends as the
    /// finish on the leg's last link.
    fn sweep(&mut self, line_len: usize, hops: impl Fn(usize) -> u32, finish: &mut [u32]) {
        let entrants = &self.entrants;
        let mut i = 0;
        while i < entrants.len() {
            let mut at = entrants[i].key;
            // Until it empties, the stream holds at most the line's
            // entrants from here on.
            let line_end = (at / line_len + 1) * line_len;
            let most = entrants[i..].partition_point(|e| e.key < line_end);
            if self.next.len() < most {
                self.stream.resize(most, Hop::default());
                self.next.resize(most, Hop::default());
            }
            let mut len = 0;
            loop {
                let (stream, next) = (&self.stream[..len], &mut self.next);
                let (mut free, mut kept, mut read) = (0u32, 0, 0);
                let mut cross = |hop: Hop| {
                    free = free.max(hop.time) + 1;
                    finish[hop.msg as usize] = free;
                    next[kept] = Hop {
                        time: free,
                        left: hop.left - 1,
                        ..hop
                    };
                    kept += usize::from(hop.left > 1);
                };
                while let Some(&e) = entrants.get(i).filter(|e| e.key == at) {
                    while let Some(&h) = stream
                        .get(read)
                        .filter(|h| (h.time, h.msg) < (e.ready, e.msg))
                    {
                        cross(h);
                        read += 1;
                    }
                    cross(Hop {
                        time: e.ready,
                        msg: e.msg,
                        left: hops(e.msg as usize),
                    });
                    i += 1;
                }
                for &h in &stream[read..] {
                    cross(h);
                }
                len = kept;
                std::mem::swap(&mut self.stream, &mut self.next);
                if len == 0 {
                    break;
                }
                at += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_workload::CommPattern;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// `messages`' mean latency from [`UnitSweep::mean_latency`], each
    /// message remapped into the bounding box of all their endpoints.
    fn boxed_mean(mesh: Mesh2D, messages: &[Message]) -> f64 {
        let at: Vec<Coord> = messages
            .iter()
            .flat_map(|m| [mesh.coord_of(m.src), mesh.coord_of(m.dst)])
            .collect();
        let low = |axis: fn(&Coord) -> u16| at.iter().map(axis).min().unwrap_or(0);
        let (x0, y0) = (low(|c| c.x), low(|c| c.y));
        let boxed: Vec<Coord> = at.iter().map(|c| Coord::new(c.x - x0, c.y - y0)).collect();
        let high = |axis: fn(&Coord) -> u16| boxed.iter().map(axis).max().unwrap_or(0) + 1;
        let pairs: Vec<(usize, usize)> = (0..messages.len()).map(|i| (2 * i, 2 * i + 1)).collect();
        UnitSweep::default().mean_latency(high(|c| c.x), high(|c| c.y), &boxed, &pairs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_boxed_mean_is_the_simulated_mean_on_unit_traffic(
            (mesh, messages) in unit_traffic()
        ) {
            let simulated = MessageLevelNetwork::new(mesh).simulate(&messages).mean_latency();
            prop_assert_eq!(boxed_mean(mesh, &messages).to_bits(), simulated.to_bits());
        }

        #[test]
        fn the_boxed_mean_is_the_simulated_mean_on_the_scorers_traffic(
            (mesh, messages) in scorer_traffic()
        ) {
            let simulated = MessageLevelNetwork::new(mesh).simulate(&messages).mean_latency();
            prop_assert_eq!(boxed_mean(mesh, &messages).to_bits(), simulated.to_bits());
        }
    }

    #[test]
    fn one_sweep_serves_inputs_of_every_size_in_turn() {
        // Buffers grown by a large input and reused by a smaller one, and
        // the other way round, answer as fresh ones do.
        let mesh = Mesh2D::new(6, 5);
        let big: Vec<Message> = (0..120)
            .map(|i| msg(mesh, i, ((i % 6) as u16, 0), (5 - (i % 6) as u16, 4), 0.0))
            .collect();
        let small = unit(mesh, &[((0, 0), (2, 1)), ((2, 1), (0, 0))]);
        let mut sweep = UnitSweep::default();
        for messages in [&small[..], &big[..], &small[..], &[][..], &big[..]] {
            let at: Vec<Coord> = messages
                .iter()
                .flat_map(|m| [mesh.coord_of(m.src), mesh.coord_of(m.dst)])
                .collect();
            let pairs: Vec<(usize, usize)> =
                (0..messages.len()).map(|i| (2 * i, 2 * i + 1)).collect();
            let reused = sweep.mean_latency(mesh.width(), mesh.height(), &at, &pairs);
            assert_eq!(reused.to_bits(), boxed_mean(mesh, messages).to_bits());
        }
    }

    /// One iteration of a pattern the scorer sees, as `score.rs` builds
    /// it: a `p`-rank job on the first `p` processors (row-major) of a
    /// window, the pattern's pairs drawn from a seeded generator and
    /// thinned by stride to at most 2048 messages.
    fn scorer_traffic() -> impl Strategy<Value = (Mesh2D, Vec<Message>)> {
        let patterns = [
            CommPattern::AllToAll,
            CommPattern::AllPairsPingPong,
            CommPattern::TestSuite,
            CommPattern::Stencil2D,
            CommPattern::Ring,
            CommPattern::NBody,
            CommPattern::Random,
        ];
        (1u16..=16, 1u16..=22).prop_flat_map(move |(w, h)| {
            let window = (0..w, 0..h, 1..=w, 1..=h);
            let job = (sample::select(patterns), 2usize..=352, any::<u64>());
            (Just(Mesh2D::new(w, h)), window, job).prop_map(|(mesh, window, job)| {
                let (x0, y0, ww, wh) = window;
                let (pattern, p, seed) = job;
                let (x1, y1) = ((x0 + ww).min(mesh.width()), (y0 + wh).min(mesh.height()));
                let nodes: Vec<NodeId> = (y0..y1)
                    .flat_map(|y| (x0..x1).map(move |x| mesh.id_of(Coord::new(x, y))))
                    .take(p)
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let pairs = pattern.iteration_messages(nodes.len(), &mut rng);
                let stride = pairs.len().div_ceil(2048).max(1);
                let messages = pairs
                    .iter()
                    .step_by(stride)
                    .enumerate()
                    .map(|(i, &(src, dst))| Message {
                        id: i as u64,
                        src: nodes[src],
                        dst: nodes[dst],
                        inject_at: 0.0,
                        service_time: 1.0,
                    })
                    .collect();
                (mesh, messages)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_sweep_matches_the_heap_on_the_scorers_own_traffic(
            (mesh, messages) in scorer_traffic()
        ) {
            let net = MessageLevelNetwork::new(mesh);
            prop_assert_eq!(net.simulate_unit(&messages), net.simulate_heap(&messages));
        }
    }

    /// A processor's `(x, y)`.
    type At = (u16, u16);

    /// Unit messages between `(x, y)` pairs on `mesh`.
    fn unit(mesh: Mesh2D, pairs: &[(At, At)]) -> Vec<Message> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| msg(mesh, i as u64, src, dst, 0.0))
            .collect()
    }

    /// The sweep's latencies, after checking its whole report against
    /// the heap's.
    fn swept(mesh: Mesh2D, messages: &[Message]) -> Vec<f64> {
        let net = MessageLevelNetwork::new(mesh);
        let report = net.simulate_unit(messages);
        assert_eq!(report, net.simulate_heap(messages));
        report.deliveries.iter().map(|d| d.latency).collect()
    }

    #[test]
    fn turns_into_one_column_go_in_ready_then_input_order() {
        // Both x legs end at (2, 0) at time 2 and both turn +y there: the
        // lower index crosses first, whichever side it came from.
        let mesh = Mesh2D::new(5, 3);
        let right_first = unit(mesh, &[((4, 0), (2, 2)), ((0, 0), (2, 2))]);
        assert_eq!(swept(mesh, &right_first), [4.0, 5.0]);
        let left_first = unit(mesh, &[((0, 0), (2, 2)), ((4, 0), (2, 2))]);
        assert_eq!(swept(mesh, &left_first), [4.0, 5.0]);
        // Without the tie, the earlier x-finish goes first whatever its
        // index: (3, 0) reaches the turn at time 1, (0, 0) at time 2.
        let nearer_later = unit(mesh, &[((0, 0), (2, 2)), ((3, 0), (2, 2))]);
        assert_eq!(swept(mesh, &nearer_later), [4.0, 3.0]);
    }

    #[test]
    fn a_turning_message_and_the_column_stream_tie_by_input_index() {
        // Two messages from one node into one column, neither with an x
        // leg: both are ready at 0, so the lower index goes first, not
        // the one that leaves the column sooner.
        let mesh = Mesh2D::new(3, 4);
        let from_one_node: Vec<Message> = [(3, 9), (3, 6)]
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| Message {
                id: i as u64,
                src: NodeId(src),
                dst: NodeId(dst),
                inject_at: 0.0,
                service_time: 1.0,
            })
            .collect();
        assert_eq!(swept(mesh, &from_one_node), [2.0, 2.0]);
        // A message turning at (1, 1) at time 1 meets one that has come
        // up column 1 from (1, 0) and is ready there at time 1 too.
        let mesh = Mesh2D::new(4, 4);
        let stream_first = unit(mesh, &[((1, 0), (1, 3)), ((0, 1), (1, 3))]);
        assert_eq!(swept(mesh, &stream_first), [3.0, 4.0]);
        let turn_first = unit(mesh, &[((0, 1), (1, 3)), ((1, 0), (1, 3))]);
        assert_eq!(swept(mesh, &turn_first), [3.0, 4.0]);
    }

    #[test]
    fn a_line_that_empties_and_refills_starts_each_link_free() {
        // Row 0 carries two messages to (3, 0), then nothing over (3, 0)
        // to (5, 0), then two more from (5, 0) and (6, 0): the later links
        // owe nothing to the earlier queue.
        let mesh = Mesh2D::new(8, 2);
        let row = unit(
            mesh,
            &[
                ((0, 0), (3, 0)),
                ((1, 0), (3, 0)),
                ((5, 0), (7, 0)),
                ((6, 0), (7, 0)),
                ((7, 1), (0, 1)),
            ],
        );
        assert_eq!(swept(mesh, &row), [3.0, 2.0, 2.0, 1.0, 7.0]);
    }

    #[test]
    fn one_wide_and_one_high_meshes_sweep_their_single_line() {
        let column = Mesh2D::new(1, 6);
        let up_and_down = unit(
            column,
            &[
                ((0, 0), (0, 5)),
                ((0, 3), (0, 0)),
                ((0, 2), (0, 5)),
                ((0, 5), (0, 1)),
                ((0, 1), (0, 4)),
            ],
        );
        assert_eq!(swept(column, &up_and_down), [5.0, 3.0, 3.0, 4.0, 3.0]);
        let row = Mesh2D::new(6, 1);
        let left_and_right = unit(
            row,
            &[
                ((0, 0), (5, 0)),
                ((3, 0), (0, 0)),
                ((2, 0), (5, 0)),
                ((5, 0), (1, 0)),
                ((1, 0), (4, 0)),
            ],
        );
        assert_eq!(swept(row, &left_and_right), [5.0, 3.0, 3.0, 4.0, 3.0]);
    }

    #[test]
    fn zero_length_legs_skip_their_phase() {
        // A self-addressed message, one with no y leg, one with no x leg,
        // and one with both that queues behind the no-x message in
        // column 2.
        let mesh = Mesh2D::new(4, 4);
        let mixed = unit(
            mesh,
            &[
                ((1, 1), (1, 1)),
                ((0, 2), (3, 2)),
                ((2, 0), (2, 3)),
                ((0, 0), (2, 2)),
            ],
        );
        assert_eq!(swept(mesh, &mixed), [0.0, 3.0, 3.0, 4.0]);
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
