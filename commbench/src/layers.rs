//! The traced pass: per-layer numbers, measured from outside.
//!
//! Single-threaded and in-process: one script cycle goes through the
//! public functions the server calls, in the order it calls them, with a
//! benchmark-side span around each. Nothing here touches the daemon's
//! own code; spans inside it are a later change. End-to-end metrics
//! never come from this pass.

use crate::alloc_count;
use crate::replay::PatternedGrant;
use crate::script::{self, OpKind, Script};
use commalloc_alloc::{AllocRequest, Allocation, Allocator, AllocatorKind, MachineState};
use commalloc_mesh::{Mesh2D, NodeId};
use commalloc_net::msglevel::{Message, MessageLevelNetwork};
use commalloc_service::framing::{self, Frame, FrameBuffer, Framing};
use commalloc_service::score::predicted_contention_2d;
use commalloc_service::{AllocationService, JournalRecord, Request, Response};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One benchmark-side span: a call into a layer, or an op enclosing its
/// calls.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<u32>,
    /// Script op the span belongs to (the first of a burst, for a read).
    pub op: u32,
}

/// Spans of one pass, kept in memory until the benchmark ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the clock is read last, so bookkeeping stays outside
    /// the interval.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: usize) -> u32 {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: op as u32,
        });
        self.spans[id].start_ns = self.now();
        id as u32
    }

    /// Closes a span; the clock is read first.
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Summed duration of the spans called `name`.
    fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The trace as JSON: one array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            ));
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Runs `work` inside a span when tracing.
#[inline(always)]
fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<u32>,
    op: usize,
    work: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let id = t.open(name, parent, op);
            let out = work();
            t.close(id);
            out
        }
        None => work(),
    }
}

/// Requests per simulated socket read: the client sends half a window
/// at a time, so that is what one server read usually delivers.
const BURST: usize = crate::wire::WINDOW / 2;

/// The server's parse step, through the same public functions.
fn parse_frame(frame: &Frame) -> Request {
    match frame.framing {
        Framing::Ndjson => {
            let line = std::str::from_utf8(&frame.payload).expect("generated lines are UTF-8");
            Request::from_line(line).expect("a generated line parses")
        }
        Framing::Binary => {
            let value = framing::decode_value(&frame.payload).expect("a generated frame decodes");
            Request::from_value(&value).expect("a generated frame parses")
        }
    }
}

/// Heap allocations of one pipeline pass, per stage (whole cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageAllocs {
    pub decode: u64,
    pub handle: u64,
    pub encode: u64,
}

pub struct PipelinePass {
    pub wall_ns: u64,
    pub allocs: StageAllocs,
    /// Ops whose encoded response differed from the twin's.
    pub wrong: u64,
}

/// One script cycle through split → decode → handle → encode on
/// `service`, as the server's `dispatch_frame` does it, with spans when
/// `tracer` is given. Counting must be on for the allocation counts.
pub fn pipeline_pass(
    script: &Script,
    service: &AllocationService,
    mut tracer: Option<&mut Tracer>,
) -> PipelinePass {
    let framing = script.profile.framing;
    let mut buffer = FrameBuffer::new();
    let mut outbox: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut allocs = StageAllocs::default();
    let mut wrong = 0u64;
    let start = Instant::now();
    let mut first = 0;
    while first < script.len() {
        let burst = BURST.min(script.len() - first);
        let read = script.request_range(first, burst);
        spanned(&mut tracer, "framing.extend", None, first, || {
            buffer.extend(read)
        });
        for op in first..first + burst {
            let op_span = tracer.as_mut().map(|t| t.open("op", None, op));
            let frame = spanned(&mut tracer, "framing.split", op_span, op, || {
                buffer
                    .next_frame()
                    .expect("the stream stays aligned")
                    .expect("a whole frame was fed")
            });
            let a0 = alloc_count::thread_allocations();
            let request = spanned(&mut tracer, "protocol.decode", op_span, op, || {
                parse_frame(&frame)
            });
            let a1 = alloc_count::thread_allocations();
            let response = spanned(&mut tracer, "service.handle", op_span, op, || {
                service.handle(&request)
            });
            let a2 = alloc_count::thread_allocations();
            spanned(&mut tracer, "protocol.encode", op_span, op, || {
                script::encode_response(&response, framing, &mut outbox)
            });
            let a3 = alloc_count::thread_allocations();
            allocs.decode += a1 - a0;
            allocs.handle += a2 - a1;
            allocs.encode += a3 - a2;
            // Freed inside the op's span, as the server frees them
            // before its next frame.
            drop((frame, request, response));
            if let (Some(t), Some(id)) = (tracer.as_mut(), op_span) {
                t.close(id);
            }
        }
        if outbox != script.response_range(first, burst) {
            wrong += 1;
        }
        outbox.clear();
        first += burst;
    }
    PipelinePass {
        wall_ns: start.elapsed().as_nanos() as u64,
        allocs,
        wrong,
    }
}

/// Mean nanoseconds per op of each layer, from one traced pass.
pub struct LayerTimes {
    pub split_ns: f64,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub handle: HandleTimes,
}

/// Mean `handle` nanoseconds per op of each kind.
#[derive(Debug, Clone, Copy)]
pub struct HandleTimes {
    pub alloc_ns: f64,
    pub release_ns: f64,
    pub release_drain_ns: f64,
    pub poll_ns: f64,
    /// Over every op of the cycle.
    pub all_ns: f64,
}

fn is_alloc(kind: OpKind) -> bool {
    matches!(kind, OpKind::AllocGranted | OpKind::AllocQueued)
}

impl HandleTimes {
    /// From per-op handle durations.
    fn from_durations(script: &Script, ns_of_op: &[u64]) -> HandleTimes {
        let mean = |keep: &dyn Fn(OpKind) -> bool| {
            let (mut sum, mut count) = (0u64, 0u64);
            for (kind, ns) in script.kinds.iter().zip(ns_of_op) {
                if keep(*kind) {
                    sum += ns;
                    count += 1;
                }
            }
            sum as f64 / count.max(1) as f64
        };
        HandleTimes {
            alloc_ns: mean(&is_alloc),
            release_ns: mean(&|k| k == OpKind::Release),
            release_drain_ns: mean(&|k| k == OpKind::ReleaseDrain),
            poll_ns: mean(&|k| k == OpKind::Poll),
            all_ns: mean(&|_| true),
        }
    }
}

pub fn layer_times(script: &Script, tracer: &Tracer) -> LayerTimes {
    let n = script.len() as f64;
    let per_op = |name: &str| tracer.total_ns(name) as f64 / n;
    let mut handle_ns = vec![0u64; script.len()];
    for s in tracer.spans.iter().filter(|s| s.name == "service.handle") {
        handle_ns[s.op as usize] = s.end_ns - s.start_ns;
    }
    LayerTimes {
        split_ns: per_op("framing.extend") + per_op("framing.split"),
        decode_ns: per_op("protocol.decode"),
        encode_ns: per_op("protocol.encode"),
        handle: HandleTimes::from_durations(script, &handle_ns),
    }
}

/// `requests` through `handle` alone, each call timed; `expected` are
/// the answers the calls must give.
pub fn handle_pass(
    script: &Script,
    service: &AllocationService,
    requests: &[Request],
    expected: &[Response],
) -> (HandleTimes, u64) {
    let mut ns_of_op = Vec::with_capacity(requests.len());
    let mut wrong = 0u64;
    for (request, want) in requests.iter().zip(expected) {
        let start = Instant::now();
        let response = service.handle(request);
        ns_of_op.push(start.elapsed().as_nanos() as u64);
        wrong += u64::from(response != *want);
    }
    (HandleTimes::from_durations(script, &ns_of_op), wrong)
}

/// The pooled script re-addressed to the member each op resolved to:
/// the same state changes without the router or the pool job index.
/// Responses then name no machine, which is the only difference.
pub fn member_addressed(script: &Script) -> (Vec<Request>, Vec<Response>) {
    let mut requests = Vec::with_capacity(script.len());
    let mut expected = Vec::with_capacity(script.len());
    for (request, response) in script.requests.iter().zip(&script.expected) {
        let mut response = response.clone();
        let member = match &mut response {
            Response::Granted { machine, .. }
            | Response::Queued { machine, .. }
            | Response::Released { machine, .. }
            | Response::Running { machine, .. }
            | Response::Waiting { machine, .. } => machine.take(),
            _ => None,
        }
        .expect("a pooled response names its member");
        let mut request = request.clone();
        match &mut request {
            Request::Alloc { machine, .. } => *machine = member,
            Request::Release { machine, .. } | Request::Poll { machine, .. } => {
                *machine = Some(member)
            }
            other => unreachable!("scripts hold alloc, release and poll only, not {other:?}"),
        }
        requests.push(request);
        expected.push(response);
    }
    (requests, expected)
}

/// A placement decision or its undoing, in the order they happened.
pub enum PlacementEvent {
    Grant {
        machine: usize,
        job: u64,
        nodes: Vec<NodeId>,
    },
    Free {
        machine: usize,
        job: u64,
    },
}

/// The grants and frees a script's expected responses describe.
pub fn placement_events(script: &Script) -> Vec<PlacementEvent> {
    let machines = script.profile.machines();
    let index = |name: &Option<String>| match name {
        Some(name) => machines
            .iter()
            .position(|(m, _)| m == name)
            .expect("responses name registered machines"),
        None => 0,
    };
    let mut events = Vec::new();
    for response in &script.expected {
        match response {
            Response::Granted {
                job,
                nodes,
                machine,
            } => events.push(PlacementEvent::Grant {
                machine: index(machine),
                job: *job,
                nodes: nodes.clone(),
            }),
            Response::Released {
                job,
                granted,
                machine,
            } => {
                let machine = index(machine);
                events.push(PlacementEvent::Free { machine, job: *job });
                for (job, nodes) in granted {
                    events.push(PlacementEvent::Grant {
                        machine,
                        job: *job,
                        nodes: nodes.clone(),
                    });
                }
            }
            _ => {}
        }
    }
    events
}

/// The script's patterned grants as placed.
pub fn patterned_grants(script: &Script, events: &[PlacementEvent]) -> Vec<PatternedGrant> {
    let patterns: HashMap<u64, _> = script
        .requests
        .iter()
        .filter_map(|r| match r {
            Request::Alloc {
                job,
                pattern: Some(pattern),
                ..
            } => Some((*job, *pattern)),
            _ => None,
        })
        .collect();
    let meshes = meshes_of(script.profile.machines());
    events
        .iter()
        .filter_map(|e| match e {
            PlacementEvent::Grant {
                machine,
                job,
                nodes,
            } => patterns.get(job).map(|&pattern| PatternedGrant {
                mesh: meshes[*machine],
                nodes: nodes.clone(),
                pattern,
                job: *job,
            }),
            PlacementEvent::Free { .. } => None,
        })
        .collect()
}

pub fn meshes_of(machines: &[(&str, &str)]) -> Vec<Mesh2D> {
    machines
        .iter()
        .map(|(_, spec)| script::mesh_of(spec))
        .collect()
}

pub struct AllocatorCosts {
    pub allocate_ns: f64,
    pub release_ns: f64,
    /// Mean average pairwise distance of the grants as the service
    /// placed them — the paper's Fig. 11 dispersal metric.
    pub avg_pairwise_dist: f64,
}

/// The bare `Hilbert w/BF` allocator over plain `MachineState`s, fed the
/// sizes and order of `events`: what allocation costs with no service
/// around it. It places by its own choice; only the recorded dispersal
/// uses the service's actual nodes.
pub fn allocator_pass(meshes: &[Mesh2D], events: &[PlacementEvent]) -> AllocatorCosts {
    let mut machines: Vec<(MachineState, Box<dyn Allocator>)> = meshes
        .iter()
        .map(|&mesh| {
            (
                MachineState::new(mesh),
                AllocatorKind::HilbertBestFit.build(mesh),
            )
        })
        .collect();
    let mut held: HashMap<(usize, u64), Allocation> = HashMap::new();
    let (mut allocate_ns, mut grants) = (0u64, 0u64);
    let (mut release_ns, mut frees) = (0u64, 0u64);
    let mut dispersal = 0.0;
    for event in events {
        match event {
            PlacementEvent::Grant {
                machine,
                job,
                nodes,
            } => {
                let (state, allocator) = &mut machines[*machine];
                let start = Instant::now();
                let allocation = allocator
                    .allocate(&AllocRequest::new(*job, nodes.len()), state)
                    .expect("the service placed this job, so it fits");
                state.occupy(&allocation.nodes);
                allocate_ns += start.elapsed().as_nanos() as u64;
                grants += 1;
                held.insert((*machine, *job), allocation);
                dispersal += meshes[*machine].avg_pairwise_distance(nodes);
            }
            PlacementEvent::Free { machine, job } => {
                let (state, allocator) = &mut machines[*machine];
                let allocation = held
                    .remove(&(*machine, *job))
                    .expect("a freed job was granted");
                let start = Instant::now();
                state.release(&allocation.nodes);
                allocator.release(&allocation, state);
                release_ns += start.elapsed().as_nanos() as u64;
                frees += 1;
            }
        }
    }
    AllocatorCosts {
        allocate_ns: allocate_ns as f64 / grants.max(1) as f64,
        release_ns: release_ns as f64 / frees.max(1) as f64,
        avg_pairwise_dist: dispersal / grants.max(1) as f64,
    }
}

pub struct ScoreCosts {
    pub predict_ns: f64,
    pub expand_ns: f64,
    pub simulate_ns: f64,
    pub locality_ns: f64,
    pub mean_contention: f64,
}

/// `score.rs` thins a pattern iteration to this many simulated messages.
const MAX_SCORED_MESSAGES: usize = 2048;

/// One score per patterned grant, whole (`predicted_contention_2d`) and
/// then by hand through the same three public steps it is made of:
/// expand the pattern, simulate the messages, measure locality.
pub fn score_pass(grants: &[PatternedGrant]) -> ScoreCosts {
    let (mut predict, mut expand, mut simulate, mut locality) = (0u64, 0u64, 0u64, 0u64);
    let mut contention = 0.0;
    for g in grants {
        let start = Instant::now();
        contention += predicted_contention_2d(g.mesh, &g.nodes, g.pattern, g.job).total();
        predict += start.elapsed().as_nanos() as u64;

        let mut rng = StdRng::seed_from_u64(g.job);
        let start = Instant::now();
        let pairs = g.pattern.iteration_messages(g.nodes.len(), &mut rng);
        expand += start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let stride = pairs.len().div_ceil(MAX_SCORED_MESSAGES).max(1);
        let messages: Vec<Message> = pairs
            .iter()
            .step_by(stride)
            .enumerate()
            .map(|(i, &(src, dst))| Message {
                id: i as u64,
                src: g.nodes[src],
                dst: g.nodes[dst],
                inject_at: 0.0,
                service_time: 1.0,
            })
            .collect();
        let report = MessageLevelNetwork::new(g.mesh).simulate(&messages);
        simulate += start.elapsed().as_nanos() as u64;
        std::hint::black_box(report.mean_latency());

        let start = Instant::now();
        let spread = (
            g.mesh.avg_pairwise_distance(&g.nodes),
            g.mesh.components(&g.nodes),
        );
        locality += start.elapsed().as_nanos() as u64;
        std::hint::black_box(spread);
    }
    let n = grants.len().max(1) as f64;
    ScoreCosts {
        predict_ns: predict as f64 / n,
        expand_ns: expand as f64 / n,
        simulate_ns: simulate as f64 / n,
        locality_ns: locality as f64 / n,
        mean_contention: contention / n,
    }
}

/// Mean nanoseconds to render one of `records` as its journal line, and
/// to append one to a fresh default-configured file journal in `dir`.
pub fn journal_costs(records: &[(u64, JournalRecord)], dir: &Path) -> io::Result<(f64, f64)> {
    let n = records.len().max(1) as f64;
    let mut line = String::with_capacity(256);
    let start = Instant::now();
    for (seq, record) in records {
        line.clear();
        record.write_line(*seq, &mut line);
        std::hint::black_box(&line);
    }
    let encode_ns = start.elapsed().as_nanos() as f64 / n;

    let sink = script::default_journal(dir)?;
    let start = Instant::now();
    for (_, record) in records {
        std::hint::black_box(sink.append(record));
    }
    let append_ns = start.elapsed().as_nanos() as f64 / n;
    drop(sink);
    std::fs::remove_dir_all(dir)?;
    Ok((encode_ns, append_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{build_service, generate, Profile};

    fn pooled() -> Script {
        generate(
            &Profile {
                framing: Framing::Binary,
                pooled: true,
                patterned: false,
                size_scale: 1,
                ops: 600,
            },
            13,
        )
    }

    #[test]
    fn the_pipeline_reproduces_the_twins_bytes_and_counts_repeat() {
        alloc_count::set_counting(true);
        for framing in [Framing::Ndjson, Framing::Binary] {
            let profile = Profile {
                framing,
                pooled: false,
                patterned: false,
                size_scale: 1,
                ops: 600,
            };
            let script = generate(&profile, 13);
            let mut tracer = Tracer::with_capacity(6 * script.len());
            let traced = pipeline_pass(&script, &build_service(&profile, None), Some(&mut tracer));
            let plain = pipeline_pass(&script, &build_service(&profile, None), None);
            assert_eq!((traced.wrong, plain.wrong), (0, 0));
            assert_eq!(traced.allocs, plain.allocs);
            assert!(traced.allocs.decode > 0 && traced.allocs.encode > 0);
            // Five spans per op plus one per simulated read.
            let reads = script.len().div_ceil(BURST);
            assert_eq!(tracer.spans.len(), 5 * script.len() + reads);
            let times = layer_times(&script, &tracer);
            assert!(times.decode_ns > 0.0 && times.handle.alloc_ns > 0.0);
            // Children lie inside their op.
            for s in &tracer.spans {
                if let Some(p) = s.parent {
                    let parent = &tracer.spans[p as usize];
                    assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                }
            }
        }
    }

    #[test]
    fn member_addressed_ops_leave_the_same_state_behind() {
        let script = pooled();
        let (requests, expected) = member_addressed(&script);
        let service = build_service(&script.profile, None);
        let (_, wrong) = handle_pass(&script, &service, &requests, &expected);
        assert_eq!(wrong, 0);
        script::assert_idle(&service, &script.profile);
    }

    #[test]
    fn the_bare_allocator_replays_the_placement_sequence() {
        let script = pooled();
        let events = placement_events(&script);
        let grants = events
            .iter()
            .filter(|e| matches!(e, PlacementEvent::Grant { .. }))
            .count();
        assert_eq!(
            grants,
            script.count(OpKind::AllocGranted) + script.count(OpKind::AllocQueued)
        );
        let costs = allocator_pass(&meshes_of(script.profile.machines()), &events);
        assert!(costs.allocate_ns > 0.0 && costs.avg_pairwise_dist > 0.0);
    }

    #[test]
    fn the_hand_decomposed_score_covers_the_patterned_grants() {
        let profile = Profile {
            framing: Framing::Ndjson,
            pooled: false,
            patterned: true,
            size_scale: 4,
            ops: 200,
        };
        let script = generate(&profile, 13);
        let grants = patterned_grants(&script, &placement_events(&script));
        assert_eq!(
            grants.len(),
            script.count(OpKind::AllocGranted) + script.count(OpKind::AllocQueued)
        );
        let costs = score_pass(&grants);
        assert!(costs.mean_contention > 0.0 && costs.simulate_ns > 0.0);
    }
}
