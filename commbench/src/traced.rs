//! The traced run (`--trace 1`): every per-layer metric of a workload.
//!
//! For a wire workload that is a shorter wire run (the server's and the
//! client's CPU, wake-ups and tail latency need the wire) followed by
//! the in-process passes of [`crate::layers`] over one script cycle.

use crate::alloc_count;
use crate::layers::{self, HandleTimes, PlacementEvent, Tracer};
use crate::recovery::{self, journal_stat};
use crate::replay;
use crate::script::{self, OpKind, Profile, Script, POOL};
use crate::stats;
use crate::wire;
use crate::workloads::{self, Context, Measured, Workload};
use commalloc_service::{
    read_journal_dir, AllocationService, ClusterReplayLog, JournalRecord, ReplayJob,
};
use std::io;
use std::path::Path;

/// Traced/untraced pass pairs per run; layer times are medians over them.
const PASSES: usize = 3;

fn median_of(mut values: Vec<f64>) -> f64 {
    stats::median(&mut values)
}

fn median_handle(passes: &[HandleTimes]) -> HandleTimes {
    let by = |field: fn(&HandleTimes) -> f64| median_of(passes.iter().map(field).collect());
    HandleTimes {
        alloc_ns: by(|h| h.alloc_ns),
        release_ns: by(|h| h.release_ns),
        release_drain_ns: by(|h| h.release_drain_ns),
        poll_ns: by(|h| h.poll_ns),
        all_ns: by(|h| h.all_ns),
    }
}

/// A fresh daemon state as the workload serves it, journaling into `dir`
/// when `journaled`.
fn fresh_service(profile: &Profile, journaled: bool, dir: &Path) -> io::Result<AllocationService> {
    let sink = journaled
        .then(|| script::default_journal(dir))
        .transpose()?;
    Ok(script::build_service(profile, sink))
}

fn set_placement_metrics(out: &mut Measured, machines: &[(&str, &str)], events: &[PlacementEvent]) {
    let costs = layers::allocator_pass(&layers::meshes_of(machines), events);
    out.set("alloc.allocate_ns", costs.allocate_ns);
    out.set("alloc.release_ns", costs.release_ns);
    out.set("alloc.avg_pairwise_dist", costs.avg_pairwise_dist);
}

fn set_score_metrics(out: &mut Measured, grants: &[replay::PatternedGrant]) {
    let costs = layers::score_pass(grants);
    out.set("score.predict_ns", costs.predict_ns);
    out.set("workload.expand_ns", costs.expand_ns);
    out.set("net.simulate_ns", costs.simulate_ns);
    out.set("mesh.locality_ns", costs.locality_ns);
    out.set("score.mean_contention", costs.mean_contention);
}

fn set_journal_costs(
    out: &mut Measured,
    records: &[(u64, JournalRecord)],
    scratch: &Path,
) -> io::Result<()> {
    let (encode_ns, append_ns) = layers::journal_costs(records, &scratch.join("appending"))?;
    out.set("journal.encode_ns", encode_ns);
    out.set("journal.append_ns", append_ns);
    Ok(())
}

fn set_spins(out: &mut Measured, before: f64, after: f64) {
    out.set("host.spin_ns_before", before);
    out.set("host.spin_ns_after", after);
    out.set(
        "host.noisy",
        f64::from(u8::from(stats::noisy(before, after))),
    );
}

fn wire_layers(
    workload: Workload,
    ctx: &Context,
    trace_out: Option<&Path>,
) -> io::Result<Measured> {
    let (profile, journaled) = workload.profile(ctx.small).expect("a wire workload");
    let ((script, mut rig), _) = workloads::wire_setup(workload, ctx)?;
    let n = script.len() as f64;
    let mut out = Measured::default();

    // The wire half: what only a live server and client can show.
    let mut run = wire::drive(&mut rig, &script, ctx.seconds / 2.0);
    if journaled {
        out.set(
            "journal.snapshots",
            journal_stat(&rig.service, "snapshots_installed") as f64,
        );
    }
    rig.stop()?;
    out.attempted = run.attempted;
    out.failed = run.failed;
    let ops = run.ops.max(1) as f64;
    let server_cpu_us = (run.process_cpu_ns - run.client_cpu_ns) as f64 / 1000.0 / ops;
    out.set("server.cpu_us_per_op", server_cpu_us);
    out.set(
        "client.cpu_us_per_op",
        run.client_cpu_ns as f64 / 1000.0 / ops,
    );
    out.set(
        "server.wakeups_per_op",
        (run.process_switches - run.client_switches) as f64 / ops,
    );
    out.set(
        "client.latency_p99_us",
        run.latency.quantile_us(0.99).unwrap_or(0.0),
    );
    out.set(
        "client.latency_p999_us",
        run.latency.quantile_us(0.999).unwrap_or(0.0),
    );
    set_spins(&mut out, run.spin_before_ns, run.spin_after_ns);

    // The in-process half: one cycle per pass, traced and untraced in turn.
    alloc_count::set_counting(true);
    let journal_dir = ctx.scratch.join("traced-journal");
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut times = Vec::new();
    let mut allocs = None;
    let mut records: Vec<(u64, JournalRecord)> = Vec::new();
    for pass in 0..PASSES {
        let service = fresh_service(&profile, journaled, &journal_dir)?;
        let before = journaled.then(|| {
            (
                journal_stat(&service, "appended"),
                journal_stat(&service, "bytes_appended"),
            )
        });
        let mut tracer = Tracer::with_capacity(6 * script.len() + 16);
        let traced = layers::pipeline_pass(&script, &service, Some(&mut tracer));
        if let (0, Some((appended, bytes))) = (pass, before) {
            let cycle_records = journal_stat(&service, "appended") - appended;
            let cycle_bytes = journal_stat(&service, "bytes_appended") - bytes;
            out.set("journal.records_per_op", cycle_records as f64 / n);
            out.set("journal.bytes_per_op", cycle_bytes as f64 / n);
        }
        // Closing the journal flushes it; the first pass's records are
        // what the append and encode costs are measured over.
        drop(service);
        if journaled && pass == 0 {
            records = read_journal_dir(&journal_dir)
                .map_err(|e| io::Error::other(format!("journal unreadable: {e}")))?
                .tail;
        }
        let service = fresh_service(&profile, journaled, &journal_dir)?;
        let plain = layers::pipeline_pass(&script, &service, None);
        drop(service);

        out.attempted += 2 * script.len() as u64;
        out.failed += traced.wrong + plain.wrong;
        // Same cycle, same code: the codec's allocation counts must
        // repeat exactly, traced or not. `handle`'s may differ by a few in
        // hundreds of thousands: std's randomly seeded hash maps decide
        // when they rehash.
        for counted in [traced.allocs, plain.allocs] {
            let first = *allocs.get_or_insert(counted);
            assert_eq!(
                (first.decode, first.encode),
                (counted.decode, counted.encode),
                "codec allocation counts differ between passes over the same cycle"
            );
            assert!(
                first.handle.abs_diff(counted.handle) * 1000 <= first.handle,
                "handle allocation counts differ between passes: {first:?} and {counted:?}"
            );
        }
        traced_walls.push(traced.wall_ns as f64);
        plain_walls.push(plain.wall_ns as f64);
        times.push(layers::layer_times(&script, &tracer));
        if let (0, Some(path)) = (pass, trace_out) {
            std::fs::write(path, tracer.to_json())?;
        }
    }
    if journaled {
        std::fs::remove_dir_all(&journal_dir)?;
    }
    let allocs = allocs.expect("at least one pass");
    let split_ns = median_of(times.iter().map(|t| t.split_ns).collect());
    let decode_ns = median_of(times.iter().map(|t| t.decode_ns).collect());
    let encode_ns = median_of(times.iter().map(|t| t.encode_ns).collect());
    let handle = median_handle(&times.iter().map(|t| t.handle).collect::<Vec<_>>());
    let plain_wall = median_of(plain_walls);
    out.set(
        "trace.overhead_share",
        (median_of(traced_walls) - plain_wall) / plain_wall,
    );
    out.set("framing.split_ns", split_ns);
    out.set(
        "framing.request_bytes",
        script.request_bytes.len() as f64 / n,
    );
    out.set(
        "framing.response_bytes",
        script.response_bytes.len() as f64 / n,
    );
    out.set("protocol.decode_ns", decode_ns);
    out.set("protocol.encode_ns", encode_ns);
    out.set("protocol.decode_allocs", allocs.decode as f64 / n);
    out.set("protocol.encode_allocs", allocs.encode as f64 / n);
    out.set("service.handle_alloc_ns", handle.alloc_ns);
    out.set("service.handle_release_ns", handle.release_ns);
    out.set("service.handle_release_drain_ns", handle.release_drain_ns);
    out.set("service.handle_poll_ns", handle.poll_ns);
    out.set("service.handle_allocs", allocs.handle as f64 / n);
    let granted = script.count(OpKind::AllocGranted) as f64;
    let queued = script.count(OpKind::AllocQueued) as f64;
    out.set("service.granted_share", granted / (granted + queued));
    out.set("service.queued_share", queued / (granted + queued));

    // The budget: what the server's CPU per op is not spent on in the
    // four layers is its socket, event loop and outbox.
    let layers_us = (split_ns + decode_ns + handle.all_ns + encode_ns) / 1000.0;
    out.set("server.io_us_per_op", server_cpu_us - layers_us);
    out.set(
        "budget.residual_share",
        (server_cpu_us - layers_us) / server_cpu_us,
    );

    // `handle` alone on the same ops without the journal, then without
    // the pool: each difference is one layer's cost.
    let mut unjournaled = handle;
    if journaled {
        unjournaled = median_handle(&handle_passes(
            &script,
            &profile,
            &script.requests,
            &script.expected,
            &mut out,
        ));
        out.set(
            "journal.handle_delta_ns",
            handle.all_ns - unjournaled.all_ns,
        );
        set_journal_costs(&mut out, &records, &ctx.scratch)?;
    }
    if profile.pooled {
        let (requests, expected) = layers::member_addressed(&script);
        let direct = median_handle(&handle_passes(
            &script, &profile, &requests, &expected, &mut out,
        ));
        out.set("cluster.route_ns", unjournaled.alloc_ns - direct.alloc_ns);
        out.set(
            "cluster.resolve_ns",
            unjournaled.release_ns - direct.release_ns,
        );
    }

    let events = layers::placement_events(&script);
    set_placement_metrics(&mut out, profile.machines(), &events);
    if profile.patterned {
        set_score_metrics(&mut out, &layers::patterned_grants(&script, &events));
    }
    Ok(out)
}

/// [`PASSES`] handle-only passes of `requests` on fresh unjournaled
/// services.
fn handle_passes(
    script: &Script,
    profile: &Profile,
    requests: &[commalloc_service::Request],
    expected: &[commalloc_service::Response],
    out: &mut Measured,
) -> Vec<HandleTimes> {
    (0..PASSES)
        .map(|_| {
            let service = script::build_service(profile, None);
            let (times, wrong) = layers::handle_pass(script, &service, requests, expected);
            out.attempted += requests.len() as u64;
            out.failed += wrong;
            times
        })
        .collect()
}

/// The placement sequence of a replay: each machine's grants, and each
/// job's release a duration later, merged in time order (releases first
/// at equal times, so occupancy never overshoots).
fn replay_events(log: &ClusterReplayLog, jobs: &[ReplayJob]) -> Vec<PlacementEvent> {
    let duration: std::collections::HashMap<u64, f64> =
        jobs.iter().map(|j| (j.id, j.duration)).collect();
    let mut timed: Vec<(f64, u8, PlacementEvent)> = Vec::new();
    for (machine, (name, _)) in POOL.iter().enumerate() {
        for grant in &log.grants[*name] {
            let job = grant.job_id;
            timed.push((
                grant.time,
                1,
                PlacementEvent::Grant {
                    machine,
                    job,
                    nodes: grant.nodes.clone(),
                },
            ));
            timed.push((
                grant.time + duration[&job],
                0,
                PlacementEvent::Free { machine, job },
            ));
        }
    }
    // Stable: equal (time, kind) keep machine and grant order.
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    timed.into_iter().map(|(_, _, event)| event).collect()
}

fn replay_layers(ctx: &Context, trace_out: Option<&Path>) -> io::Result<Measured> {
    let jobs = replay::stream(workloads::trace_jobs(ctx), ctx.seed);
    let ops = replay::ops(&jobs);
    let mut out = Measured::default();

    let spin_before = stats::spin_ns();
    let mut tracer = Tracer::with_capacity(1);
    let span = tracer.open("replay_cluster", None, 0);
    let (log, _) = replay::replay_once(&jobs);
    tracer.close(span);
    set_spins(&mut out, spin_before, stats::spin_ns());
    if let Some(path) = trace_out {
        std::fs::write(path, tracer.to_json())?;
    }
    out.attempted = ops;
    out.failed = if replay::complete(&log, &jobs) {
        0
    } else {
        ops
    };

    let (mean_wait, patterned) = replay::outcome(&log, &jobs);
    out.set("quality.mean_wait_s", mean_wait);
    out.set(
        "quality.mean_contention",
        replay::mean_contention(&patterned),
    );
    set_score_metrics(&mut out, &patterned);
    set_placement_metrics(&mut out, &POOL, &replay_events(&log, &jobs));
    let arrivals: std::collections::HashMap<u64, f64> =
        jobs.iter().map(|j| (j.id, j.arrival)).collect();
    let immediate = log
        .grants
        .values()
        .flatten()
        .filter(|g| g.time == arrivals[&g.job_id])
        .count() as f64;
    out.set("service.granted_share", immediate / jobs.len() as f64);
    out.set("service.queued_share", 1.0 - immediate / jobs.len() as f64);
    Ok(out)
}

fn recovery_layers(ctx: &Context, trace_out: Option<&Path>) -> io::Result<Measured> {
    let ((script, fixture), _) = workloads::recovery_setup(ctx)?;
    let mut out = Measured {
        attempted: fixture.ops,
        failed: fixture.wrong,
        ..Measured::default()
    };
    let records = fixture.records as f64;
    let work = ctx.scratch.join("recovering");
    let mut tracer = Tracer::with_capacity(2 * PASSES);
    let (mut reads, mut opens) = (Vec::new(), Vec::new());
    let spin_before = stats::spin_ns();
    for pass in 0..PASSES {
        let span = tracer.open("journal.read", None, pass);
        reads.push(recovery::read_seconds(&fixture)?);
        tracer.close(span);
        let span = tracer.open("journal.open", None, pass);
        let recovered = recovery::recover(&fixture, &script, &work)?;
        tracer.close(span);
        opens.push(recovered.seconds);
        out.attempted += fixture.records;
        if !recovered.correct {
            out.failed += fixture.records;
        }
    }
    set_spins(&mut out, spin_before, stats::spin_ns());
    if let Some(path) = trace_out {
        std::fs::write(path, tracer.to_json())?;
    }
    let (read, open) = (median_of(reads), median_of(opens));
    out.set("journal.read_ns", read * 1e9 / records);
    out.set("journal.fold_ns", (open - read) * 1e9 / records);
    out.set("journal.records_per_op", records / fixture.ops as f64);
    out.set(
        "journal.bytes_per_op",
        fixture.bytes as f64 / fixture.ops as f64,
    );
    let tail = read_journal_dir(&fixture.dir)
        .map_err(|e| io::Error::other(format!("journal unreadable: {e}")))?
        .tail;
    set_journal_costs(&mut out, &tail, &ctx.scratch)?;
    std::fs::remove_dir_all(&fixture.dir)?;
    Ok(out)
}

/// Every per-layer metric `workload` has; the rest read 0.
pub fn per_layer(
    workload: Workload,
    ctx: &Context,
    trace_out: Option<&Path>,
) -> io::Result<Measured> {
    match workload {
        Workload::NdjsonDirect | Workload::BinaryPoolJournal | Workload::PatternedDirect => {
            wire_layers(workload, ctx, trace_out)
        }
        Workload::TraceReplay => replay_layers(ctx, trace_out),
        Workload::Recovery => recovery_layers(ctx, trace_out),
    }
}
