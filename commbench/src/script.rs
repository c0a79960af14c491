//! The twin and the op script.
//!
//! A *twin* is an in-process [`AllocationService`] configured exactly
//! like the daemon under test. Driving it with seeded requests yields
//! the op script and, as the twin's own answers, the expected output of
//! every op. The script is a **cycle**: it ends by releasing every job,
//! so replaying it leaves the daemon where it started and the same
//! expected bytes hold for every repetition.

use commalloc_mesh::Mesh2D;
use commalloc_service::framing::{self, Framing};
use commalloc_service::{
    AllocationService, FileJournal, JobRef, JournalConfig, JournalSink, Request, Response,
};
use commalloc_workload::synthetic::ParagonTraceModel;
use commalloc_workload::CommPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The single machine of the direct workloads.
pub const DIRECT: [(&str, &str); 1] = [("m0", "16x16")];
/// The heterogeneous pool: 256 + 128 + 64 + 32 = 480 processors.
pub const POOL: [(&str, &str); 4] = [
    ("m0", "16x16"),
    ("m1", "16x8"),
    ("m2", "8x8"),
    ("m3", "8x4"),
];
pub const POOL_NAME: &str = "grid";
pub const POOL_ADDRESS: &str = "@grid";
const ALLOCATOR: &str = "Hilbert w/BF";
const SCHEDULER: &str = "easy";
/// No member is larger, so no generated job may be.
const LARGEST_MACHINE: usize = 256;
/// Outstanding demand (granted plus queued sizes) is steered to this
/// share of capacity: high enough that roughly one alloc in seven
/// queues and later starts from a release's drain, so admission and the
/// scheduler are on the measured path, not only the allocator.
const TARGET_LOAD: f64 = 0.92;
const POLL_SHARE: f64 = 0.10;

/// What the daemon is configured as, and what the script asks of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    pub framing: Framing,
    /// Four-machine pool addressed as `@grid` (else one machine by name).
    pub pooled: bool,
    /// Every alloc declares one of the paper's three patterns.
    pub patterned: bool,
    /// Multiplier on the trace model's job sizes (clamped to the largest
    /// machine). 1 is the paper's size distribution.
    pub size_scale: usize,
    /// Ops generated before the closing drain.
    pub ops: usize,
}

impl Profile {
    pub fn machines(&self) -> &'static [(&'static str, &'static str)] {
        if self.pooled {
            &POOL
        } else {
            &DIRECT
        }
    }

    fn capacity(&self) -> usize {
        self.machines().iter().map(|(_, m)| mesh_nodes(m)).sum()
    }
}

/// The 2-D mesh a `"WxH"` spec names.
pub fn mesh_of(spec: &str) -> Mesh2D {
    let mut dims = spec
        .split('x')
        .map(|d| d.parse::<u16>().expect("mesh dims are integers"));
    let (w, h) = (dims.next().expect("width"), dims.next().expect("height"));
    Mesh2D::new(w, h)
}

pub fn mesh_nodes(spec: &str) -> usize {
    mesh_of(spec).num_nodes()
}

/// A fresh file journal in `dir` (emptied first) under
/// `JournalConfig::default()`: group commit 512, snapshot every 100k.
pub fn default_journal(dir: &Path) -> io::Result<Arc<dyn JournalSink>> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = FileJournal::create(dir, JournalConfig::default(), 0, 1, 0)?;
    Ok(Arc::new(journal))
}

/// A fresh daemon state for `profile`: machines registered (joined to
/// the pool under shortest-queue routing when pooled), EASY scheduling,
/// every clock pinned to virtual time 0 so no scheduling decision reads
/// the wall clock.
pub fn build_service(
    profile: &Profile,
    journal: Option<Arc<dyn JournalSink>>,
) -> AllocationService {
    let service = match journal {
        Some(sink) => AllocationService::new().with_journal(sink),
        None => AllocationService::new(),
    };
    for (name, mesh) in profile.machines() {
        service
            .register_in_pool(
                name,
                mesh,
                Some(ALLOCATOR),
                None,
                Some(SCHEDULER),
                profile.pooled.then_some(POOL_NAME),
            )
            .expect("a fresh service accepts the registration");
        service
            .set_time(name, 0.0)
            .expect("machine just registered");
    }
    if profile.pooled {
        service
            .set_router(POOL_NAME, "shortest-queue")
            .expect("the pool exists and the policy parses");
    }
    service
}

/// What an op turned out to be, by its expected response — the traced
/// pass reports `service.handle` per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    AllocGranted,
    AllocQueued,
    Release,
    /// A release whose response starts at least one queued job.
    ReleaseDrain,
    Poll,
}

/// One generated cycle: requests, the twin's responses, and both
/// pre-encoded in the profile's framing.
pub struct Script {
    pub profile: Profile,
    pub requests: Vec<Request>,
    pub expected: Vec<Response>,
    pub kinds: Vec<OpKind>,
    pub request_bytes: Vec<u8>,
    /// `request_ends[i]` is one past the last byte of request `i`.
    pub request_ends: Vec<u32>,
    pub response_bytes: Vec<u8>,
    pub response_ends: Vec<u32>,
}

impl Script {
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// The encoded requests of ops `first .. first + count`, contiguous.
    pub fn request_range(&self, first: usize, count: usize) -> &[u8] {
        range(&self.request_bytes, &self.request_ends, first, count)
    }

    /// The expected response bytes of ops `first .. first + count`.
    pub fn response_range(&self, first: usize, count: usize) -> &[u8] {
        range(&self.response_bytes, &self.response_ends, first, count)
    }

    /// The expected response bytes of op `op`.
    pub fn response_span(&self, op: usize) -> &[u8] {
        self.response_range(op, 1)
    }

    pub fn count(&self, kind: OpKind) -> usize {
        self.kinds.iter().filter(|&&k| k == kind).count()
    }
}

fn range<'a>(bytes: &'a [u8], ends: &[u32], first: usize, count: usize) -> &'a [u8] {
    let start = match first {
        0 => 0,
        _ => ends[first - 1] as usize,
    };
    &bytes[start..ends[first + count - 1] as usize]
}

/// Appends `request` as the client would send it.
pub fn encode_request(request: &Request, framing: Framing, out: &mut Vec<u8>) {
    match framing {
        Framing::Ndjson => {
            out.extend_from_slice(request.to_line().as_bytes());
            out.push(b'\n');
        }
        Framing::Binary => framing::encode_frame_into(&request.to_value(), out)
            .expect("a generated request encodes"),
    }
}

/// Appends `response` exactly as the server's outbox does.
pub fn encode_response(response: &Response, framing: Framing, out: &mut Vec<u8>) {
    match framing {
        Framing::Ndjson => {
            out.extend_from_slice(response.to_line().as_bytes());
            out.push(b'\n');
        }
        Framing::Binary => {
            framing::encode_frame_into(&response.to_value(), out).expect("a twin response encodes")
        }
    }
}

/// Parses one complete encoded request the way the server does, so the
/// twin handles what the daemon will see after the codec, not what the
/// generator meant.
pub fn decode_request(frame: &[u8], framing: Framing) -> Request {
    match framing {
        Framing::Ndjson => {
            let line = std::str::from_utf8(&frame[..frame.len() - 1]).expect("lines are UTF-8");
            Request::from_line(line).expect("a generated line parses")
        }
        Framing::Binary => {
            let value = framing::decode_value(&frame[5..]).expect("a generated frame decodes");
            Request::from_value(&value).expect("a generated frame parses")
        }
    }
}

/// The paper's three patterns in equal thirds, keyed on the job id.
fn pattern_of(job: u64) -> CommPattern {
    CommPattern::paper_patterns()[(job % 3) as usize]
}

struct Generator {
    profile: Profile,
    twin: AllocationService,
    script: Script,
    rng: StdRng,
    running: Vec<u64>,
    queued: Vec<u64>,
    sizes: HashMap<u64, usize>,
    outstanding: usize,
}

impl Generator {
    fn address(&self) -> String {
        if self.profile.pooled {
            POOL_ADDRESS.to_string()
        } else {
            DIRECT[0].0.to_string()
        }
    }

    /// Encodes, decodes, runs on the twin, records, and folds the
    /// response back into the generator's view of who runs and who waits.
    fn step(&mut self, request: Request) {
        let framing = self.profile.framing;
        let script = &mut self.script;
        let start = script.request_bytes.len();
        encode_request(&request, framing, &mut script.request_bytes);
        let request = decode_request(&script.request_bytes[start..], framing);
        let response = self.twin.handle(&request);
        encode_response(&response, framing, &mut script.response_bytes);
        script.request_ends.push(offset(script.request_bytes.len()));
        script
            .response_ends
            .push(offset(script.response_bytes.len()));

        let kind = match &response {
            Response::Granted { job, .. } => {
                self.running.push(*job);
                self.outstanding += self.sizes[job];
                OpKind::AllocGranted
            }
            Response::Queued { job, .. } => {
                self.queued.push(*job);
                self.outstanding += self.sizes[job];
                OpKind::AllocQueued
            }
            Response::Released { job, granted, .. } => {
                self.running.retain(|j| j != job);
                self.outstanding -= self.sizes[job];
                for (started, _) in granted {
                    self.queued.retain(|j| j != started);
                    self.running.push(*started);
                }
                if granted.is_empty() {
                    OpKind::Release
                } else {
                    OpKind::ReleaseDrain
                }
            }
            Response::Running { .. } | Response::Waiting { .. } => OpKind::Poll,
            other => panic!("the generator asked for something the twin refused: {other:?}"),
        };
        script.kinds.push(kind);
        script.requests.push(request);
        script.expected.push(response);
    }

    fn release_random_running(&mut self) {
        let victim = self.running[self.rng.gen_range(0..self.running.len())];
        let machine = Some(self.address());
        self.step(Request::Release {
            machine,
            job: JobRef::Bare(victim),
        });
    }
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a script's encoded bytes fit 4 GiB")
}

/// Generates the cycle for `profile` from `seed`.
pub fn generate(profile: &Profile, seed: u64) -> Script {
    // The paper's §3.1 workload: sizes and runtimes of the synthetic
    // Paragon trace. Fewer than half the ops are allocs, so `ops` jobs
    // are more than the cycle consumes.
    let trace = ParagonTraceModel::scaled(profile.ops.max(1)).generate(seed);
    let mut jobs = trace
        .jobs()
        .iter()
        .filter(|j| j.size <= LARGEST_MACHINE)
        .map(|j| {
            (
                (j.size * profile.size_scale).min(LARGEST_MACHINE),
                j.runtime,
            )
        });
    let target = (TARGET_LOAD * profile.capacity() as f64) as usize;

    let mut gen = Generator {
        profile: *profile,
        twin: build_service(profile, None),
        script: Script {
            profile: *profile,
            requests: Vec::new(),
            expected: Vec::new(),
            kinds: Vec::new(),
            request_bytes: Vec::new(),
            request_ends: Vec::new(),
            response_bytes: Vec::new(),
            response_ends: Vec::new(),
        },
        // Decorrelated from the trace model, which seeds from `seed` too.
        rng: StdRng::seed_from_u64(seed ^ 0x5eed_c0de_5eed_c0de),
        running: Vec::new(),
        queued: Vec::new(),
        sizes: HashMap::new(),
        outstanding: 0,
    };
    let mut next_job = 1u64;

    while gen.script.len() < profile.ops {
        let live = gen.running.len() + gen.queued.len();
        if live > 0 && gen.rng.gen::<f64>() < POLL_SHARE {
            let at = gen.rng.gen_range(0..live);
            let job = match at.checked_sub(gen.running.len()) {
                None => gen.running[at],
                Some(q) => gen.queued[q],
            };
            let machine = Some(gen.address());
            gen.step(Request::Poll {
                machine,
                job: JobRef::Bare(job),
            });
        } else if gen.outstanding < target {
            let (size, runtime) = jobs.next().expect("the trace outlasts the cycle");
            let job = next_job;
            next_job += 1;
            gen.sizes.insert(job, size);
            let machine = gen.address();
            gen.step(Request::Alloc {
                machine,
                job,
                size,
                wait: true,
                walltime: Some(runtime),
                pattern: profile.patterned.then(|| pattern_of(job)),
                tenant: None,
            });
        } else {
            // Demand at or over target means something runs: an empty
            // machine would have started its queue's head.
            gen.release_random_running();
        }
    }
    // Close the cycle. Only running jobs are released, so every queued
    // job starts (and is then released) rather than being cancelled.
    while !gen.running.is_empty() {
        gen.release_random_running();
    }
    assert!(gen.queued.is_empty(), "the drain starts every queued job");
    assert_idle(&gen.twin, profile);
    gen.script
}

/// Panics unless every machine of `profile` is empty with an empty queue.
pub fn assert_idle(service: &AllocationService, profile: &Profile) {
    for (name, _) in profile.machines() {
        let snapshot = service.query(name).expect("machine exists");
        assert_eq!(
            (snapshot.busy, snapshot.live_jobs, snapshot.queue_len),
            (0, 0, 0),
            "{name} is not idle at the end of a cycle"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(framing: Framing, pooled: bool, patterned: bool) -> Profile {
        Profile {
            framing,
            pooled,
            patterned,
            size_scale: 1,
            ops: 1500,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_script_and_expected_responses() {
        for profile in [
            small(Framing::Ndjson, false, false),
            small(Framing::Binary, true, false),
        ] {
            let (a, b) = (generate(&profile, 7), generate(&profile, 7));
            assert_eq!(a.request_bytes, b.request_bytes);
            assert_eq!(a.response_bytes, b.response_bytes);
            assert_eq!(a.request_ends, b.request_ends);
            assert_eq!(a.response_ends, b.response_ends);
        }
    }

    #[test]
    fn another_seed_gives_another_script() {
        let profile = small(Framing::Ndjson, false, false);
        assert_ne!(
            generate(&profile, 7).request_bytes,
            generate(&profile, 8).request_bytes
        );
    }

    #[test]
    fn a_cycle_repeats_byte_for_byte_on_the_state_it_leaves_behind() {
        for profile in [
            small(Framing::Ndjson, false, false),
            small(Framing::Binary, true, false),
            Profile {
                ops: 300,
                ..small(Framing::Ndjson, false, true)
            },
        ] {
            let script = generate(&profile, 11);
            let service = build_service(&profile, None);
            for cycle in 0..2 {
                for (op, request) in script.requests.iter().enumerate() {
                    let mut got = Vec::new();
                    encode_response(&service.handle(request), profile.framing, &mut got);
                    assert_eq!(got, script.response_span(op), "cycle {cycle}, op {op}");
                }
                // generate() asserted the twin idle; the replica must be too.
                assert_idle(&service, &profile);
            }
        }
    }

    #[test]
    fn the_mix_queues_some_allocs_and_drains_them_through_releases() {
        let script = generate(&small(Framing::Ndjson, false, false), 3);
        let granted = script.count(OpKind::AllocGranted);
        let queued = script.count(OpKind::AllocQueued);
        assert!(
            queued > 0 && granted > queued,
            "granted {granted}, queued {queued}"
        );
        assert!(script.count(OpKind::ReleaseDrain) > 0);
        assert!(script.count(OpKind::Poll) > 0);
        assert_eq!(
            granted + queued,
            script.count(OpKind::Release) + script.count(OpKind::ReleaseDrain)
        );
    }
}
