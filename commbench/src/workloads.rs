//! The five workloads and their end-to-end runs.

use crate::recovery;
use crate::replay;
use crate::script::{self, Profile, Script};
use crate::stats;
use crate::wire::{self, Rig, WireRun};
use commalloc_service::framing::Framing;
use commalloc_service::{ClusterReplayLog, ReplayJob};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NdjsonDirect,
    BinaryPoolJournal,
    PatternedDirect,
    TraceReplay,
    Recovery,
}

/// Jobs in the replayed trace: the paper's full 6087, or a few hundred
/// for `--check`.
pub fn trace_jobs(ctx: &Context) -> usize {
    if ctx.small {
        400
    } else {
        6087
    }
}

/// Records in the recovery journal: sized so one recovery takes about
/// half a second here and a run times a dozen or more of them.
const RECOVERY_RECORDS: u64 = 150_000;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::NdjsonDirect,
        Workload::BinaryPoolJournal,
        Workload::PatternedDirect,
        Workload::TraceReplay,
        Workload::Recovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NdjsonDirect => "ndjson_direct",
            Workload::BinaryPoolJournal => "binary_pool_journal",
            Workload::PatternedDirect => "patterned_direct",
            Workload::TraceReplay => "trace_replay",
            Workload::Recovery => "recovery",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The script profile, and whether the daemon journals: for the three
    /// wire workloads what is served, for `recovery` what wrote the
    /// journal. `small` is the `--check` size.
    pub fn profile(self, small: bool) -> Option<(Profile, bool)> {
        let direct = Profile {
            framing: Framing::Ndjson,
            pooled: false,
            patterned: false,
            size_scale: 1,
            ops: if small { 4_000 } else { 50_000 },
        };
        let pooled = Profile {
            framing: Framing::Binary,
            pooled: true,
            ..direct
        };
        match self {
            Workload::NdjsonDirect => Some((direct, false)),
            Workload::BinaryPoolJournal | Workload::Recovery => Some((pooled, true)),
            // Sizes are four times the paper's, or the codec and the wire
            // would still outweigh the scorer. A shorter cycle, because
            // each op costs twenty times more — but not much shorter: a
            // few whole-machine jobs carry much of a cycle's cost, and
            // with under 20k ops their count makes seeds differ by more
            // than the host does.
            Workload::PatternedDirect => Some((
                Profile {
                    patterned: true,
                    size_scale: 4,
                    ops: if small { 600 } else { 20_000 },
                    ..direct
                },
                false,
            )),
            Workload::TraceReplay => None,
        }
    }
}

pub struct Context {
    pub seed: u64,
    pub seconds: f64,
    /// A directory of this run's own, inside the build directory.
    pub scratch: PathBuf,
    /// Flip one byte of one expected response (wire workloads): the run
    /// must then fail. Proves the check can fail.
    pub corrupt_expected: bool,
    /// `--check`: small inputs, one pass, correctness only.
    pub small: bool,
    /// Set-ups per run; `setup_s` is their median. Three for the
    /// end-to-end run, one where set-up time is not reported.
    pub setups: usize,
}

/// What a run measured: ops attempted and failed, and named values.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Runs `set_up` `times` times, tearing down all but the last with
/// `discard`; returns the last product and the median set-up seconds.
fn median_setup<T>(
    times: usize,
    mut set_up: impl FnMut() -> io::Result<T>,
    mut discard: impl FnMut(T) -> io::Result<()>,
) -> io::Result<(T, f64)> {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = last.take() {
            discard(previous)?;
        }
        let start = Instant::now();
        last = Some(set_up()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up"),
        stats::median(&mut seconds),
    ))
}

/// Set-up of a wire workload: twin, script, encoding, journal and server
/// start, connect. The warm-up cycle is not part of it.
pub fn wire_setup(workload: Workload, ctx: &Context) -> io::Result<((Script, Rig), f64)> {
    let (profile, journaled) = workload.profile(ctx.small).expect("a wire workload");
    let ((mut script, rig), seconds) = median_setup(
        ctx.setups,
        || {
            let script = script::generate(&profile, ctx.seed);
            let rig = Rig::start(&profile, journaled, &ctx.scratch)?;
            Ok((script, rig))
        },
        |(_, rig)| rig.stop(),
    )?;
    if ctx.corrupt_expected {
        let victim = script.response_ends[script.len() / 2] as usize + 3;
        script.response_bytes[victim] ^= 0x01;
    }
    Ok(((script, rig), seconds))
}

fn wire_end_to_end(workload: Workload, ctx: &Context) -> io::Result<Measured> {
    let ((script, mut rig), setup_s) = wire_setup(workload, ctx)?;
    let run = wire::drive(&mut rig, &script, ctx.seconds);
    rig.stop()?;
    let mut out = Measured {
        attempted: run.attempted,
        failed: run.failed,
        ..Measured::default()
    };
    out.set("setup_s", setup_s);
    if run.ops > 0 {
        wire_metrics(&script, run, &mut out);
    }
    Ok(out)
}

fn wire_metrics(script: &Script, mut run: WireRun, out: &mut Measured) {
    let n = script.len() as f64;
    let mut rates: Vec<f64> = run.cycle_seconds.iter().map(|s| n / s).collect();
    out.set("throughput_ops_s", stats::median(&mut rates));
    let p50 = run.latency.quantile_us(0.5).expect("ops completed");
    out.set("latency_p50_us", p50);
    out.set(
        "cpu_us_per_op",
        run.process_cpu_ns as f64 / 1000.0 / run.ops as f64,
    );
    out.set("peak_rss_mb", stats::peak_rss_mb());
    eprintln!(
        "  {} ops in {:.2} s over {} cycles; {} latency samples; spin {:.1} -> {:.1} ms{}",
        run.ops,
        run.window_seconds,
        run.cycle_seconds.len(),
        run.latency.count(),
        run.spin_before_ns / 1e6,
        run.spin_after_ns / 1e6,
        if stats::noisy(run.spin_before_ns, run.spin_after_ns) {
            " (noisy)"
        } else {
            ""
        }
    );
}

/// The timed part of the two workloads without a wire: repeats `once`
/// (one replay, one recovery — `work` ops each) until `seconds` have
/// passed, at least once, and sets the four timing and memory metrics
/// from the repetitions' wall seconds and CPU nanoseconds.
fn repeat_timed(
    out: &mut Measured,
    seconds: f64,
    what: &str,
    work: u64,
    mut once: impl FnMut(&mut Measured) -> io::Result<(f64, u64)>,
) -> io::Result<()> {
    let spin_before = stats::spin_ns();
    let started = Instant::now();
    let (mut walls, mut cpu_ns) = (Vec::new(), 0u64);
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (wall, cpu) = once(out)?;
        out.attempted += work;
        walls.push(wall);
        cpu_ns += cpu;
    }
    let spin_after = stats::spin_ns();
    let repeats = walls.len() as f64;
    let mut rates: Vec<f64> = walls.iter().map(|s| work as f64 / s).collect();
    out.set("throughput_ops_s", stats::median(&mut rates));
    out.set("latency_p50_us", stats::median(&mut walls) * 1e6);
    out.set(
        "cpu_us_per_op",
        cpu_ns as f64 / 1000.0 / (repeats * work as f64),
    );
    out.set("peak_rss_mb", stats::peak_rss_mb());
    eprintln!(
        "  {repeats} {what} of {work} ops; spin {:.1} -> {:.1} ms",
        spin_before / 1e6,
        spin_after / 1e6
    );
    Ok(())
}

/// Set-up of `trace_replay`: the stream and, as the wire workloads'
/// twin does for them, the expected output — one reference replay.
pub fn replay_setup(ctx: &Context) -> io::Result<((Vec<ReplayJob>, ClusterReplayLog), f64)> {
    median_setup(
        ctx.setups,
        || {
            let jobs = replay::stream(trace_jobs(ctx), ctx.seed);
            let (reference, _) = replay::replay_once(&jobs);
            Ok((jobs, reference))
        },
        |_| Ok(()),
    )
}

fn replay_end_to_end(ctx: &Context) -> io::Result<Measured> {
    let ((jobs, reference), setup_s) = replay_setup(ctx)?;
    let ops = replay::ops(&jobs);
    let mut out = Measured {
        attempted: ops,
        failed: if replay::complete(&reference, &jobs) {
            0
        } else {
            ops
        },
        ..Measured::default()
    };
    out.set("setup_s", setup_s);

    repeat_timed(&mut out, ctx.seconds, "replays", ops, |out| {
        let cpu = stats::thread_cpu_ns();
        let (log, seconds) = replay::replay_once(&jobs);
        let cpu_ns = stats::thread_cpu_ns() - cpu;
        // The grant log must be identical across repeats.
        if log != reference {
            out.failed += ops;
        }
        Ok((seconds, cpu_ns))
    })?;
    Ok(out)
}

/// Set-up of `recovery`: the script and the written journal.
pub fn recovery_setup(ctx: &Context) -> io::Result<((Script, recovery::Fixture), f64)> {
    let (profile, _) = Workload::Recovery
        .profile(ctx.small)
        .expect("has a profile");
    let records = if ctx.small { 10_000 } else { RECOVERY_RECORDS };
    let dir = ctx.scratch.join("written");
    median_setup(
        ctx.setups,
        || {
            let script = script::generate(&profile, ctx.seed);
            let fixture = recovery::write_journal(&script, records, &dir)?;
            Ok((script, fixture))
        },
        |_| Ok(()),
    )
}

fn recovery_end_to_end(ctx: &Context) -> io::Result<Measured> {
    let ((script, fixture), setup_s) = recovery_setup(ctx)?;
    let mut out = Measured {
        attempted: fixture.ops,
        failed: fixture.wrong,
        ..Measured::default()
    };
    out.set("setup_s", setup_s);

    let work = ctx.scratch.join("recovering");
    // Untimed: fills the page cache with the segments, as a restart soon
    // after a crash finds them.
    recovery::recover(&fixture, &script, &work)?;
    repeat_timed(
        &mut out,
        ctx.seconds,
        "recoveries",
        fixture.records,
        |out| {
            let recovery = recovery::recover(&fixture, &script, &work)?;
            if !recovery.correct {
                out.failed += fixture.records;
            }
            Ok((recovery.seconds, recovery.cpu_ns))
        },
    )?;
    std::fs::remove_dir_all(&fixture.dir)?;
    Ok(out)
}

/// The untraced run: every end-to-end metric of `workload`.
pub fn end_to_end(workload: Workload, ctx: &Context) -> io::Result<Measured> {
    match workload {
        Workload::NdjsonDirect | Workload::BinaryPoolJournal | Workload::PatternedDirect => {
            wire_end_to_end(workload, ctx)
        }
        Workload::TraceReplay => replay_end_to_end(ctx),
        Workload::Recovery => recovery_end_to_end(ctx),
    }
}
