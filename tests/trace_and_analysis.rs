//! Integration tests for the workload side of the public API: synthetic
//! trace statistics, SWF round-tripping, and the analysis helpers — the
//! pieces README § "Substitutions this reproduction makes" relies on when it
//! claims the synthetic generator stands in for the real SDSC trace.

use commalloc::prelude::*;
use commalloc_workload::analysis::TraceAnalysis;
use commalloc_workload::swf;

#[test]
fn synthetic_trace_matches_the_papers_published_statistics() {
    // Section 3.1 of the paper: 6087 jobs, mean interarrival 1301 s (CV 3.7),
    // mean size 14.5 (CV 1.5, power-of-two biased), mean runtime 3.04 h
    // (CV 1.13). The generator should land near those moments at full scale.
    let trace = ParagonTraceModel::default().generate(1);
    let s = trace.summary();
    assert_eq!(s.jobs, 6087);
    assert!(
        (s.mean_interarrival - 1301.0).abs() / 1301.0 < 0.15,
        "mean interarrival {} too far from 1301",
        s.mean_interarrival
    );
    assert!(
        (s.mean_size - 14.5).abs() / 14.5 < 0.35,
        "mean size {} too far from 14.5",
        s.mean_size
    );
    assert!(
        (s.mean_runtime - 3.04 * 3600.0).abs() / (3.04 * 3600.0) < 0.25,
        "mean runtime {} too far from 10944",
        s.mean_runtime
    );
    assert!(s.cv_interarrival > 1.5, "arrivals must be bursty");
    assert!(
        s.power_of_two_fraction > 0.5,
        "sizes must favour powers of two"
    );
}

#[test]
fn swf_round_trip_preserves_simulation_results() {
    // Writing a synthetic trace to SWF and reading it back must not change
    // what the simulator computes from it.
    let original = ParagonTraceModel::scaled(80).generate(11);
    let path = std::env::temp_dir().join(format!(
        "commalloc-integration-roundtrip-{}.swf",
        std::process::id()
    ));
    swf::write_file(&original, &path).expect("write SWF");
    let reloaded = swf::parse_file(&path).expect("parse SWF");
    let _ = std::fs::remove_file(&path);

    let config = SimConfig::new(
        Mesh2D::square_16x16(),
        CommPattern::AllToAll,
        AllocatorKind::HilbertBestFit,
    );
    let a = simulate(&original.filter_fitting(256), &config);
    let b = simulate(&reloaded.filter_fitting(256), &config);
    assert_eq!(a.records.len(), b.records.len());
    assert!(
        (a.summary.mean_response_time - b.summary.mean_response_time).abs() < 1e-6,
        "round-tripped trace changed the simulation: {} vs {}",
        a.summary.mean_response_time,
        b.summary.mean_response_time
    );
}

#[test]
fn two_seeds_of_the_model_are_distributionally_close() {
    // The analysis distance between two independent draws of the same model
    // should be much smaller than the distance to a deliberately different
    // workload (uniform job sizes, regular arrivals).
    let a = TraceAnalysis::of(&ParagonTraceModel::scaled(600).generate(1), 10);
    let b = TraceAnalysis::of(&ParagonTraceModel::scaled(600).generate(2), 10);
    let same_model = a.distance(&b);

    let regular = Trace::new(
        (0..600u64)
            .map(|i| commalloc_workload::Job::new(i, i as f64 * 50.0, 200, 50.0))
            .collect(),
    );
    let different = a.distance(&TraceAnalysis::of(&regular, 10));
    assert!(
        same_model < different,
        "same-model distance {same_model} should be below cross-workload distance {different}"
    );
}

#[test]
fn load_factor_preserves_work_and_only_moves_arrivals() {
    let trace = ParagonTraceModel::scaled(200).generate(5);
    let loaded = trace.with_load_factor(0.2);
    assert_eq!(trace.len(), loaded.len());
    let total_work =
        |t: &Trace| -> f64 { t.jobs().iter().map(|j| j.size as f64 * j.runtime).sum() };
    assert!((total_work(&trace) - total_work(&loaded)).abs() < 1e-6);
    let span = |t: &Trace| t.jobs().last().unwrap().arrival;
    assert!(
        (span(&loaded) - 0.2 * span(&trace)).abs() < 1e-6,
        "arrival span must contract by the load factor"
    );
}

#[test]
fn filter_fitting_is_what_the_16x16_experiments_rely_on() {
    // The paper removes the three 320-node jobs when moving from the 16 x 22
    // to the 16 x 16 machine; the equivalent operation on a synthetic trace
    // must drop exactly the jobs that cannot fit and leave the rest intact.
    let trace = ParagonTraceModel::default().generate(7);
    let fitted = trace.filter_fitting(256);
    assert!(fitted.len() <= trace.len());
    assert!(fitted.jobs().iter().all(|j| j.size <= 256));
    let oversized = trace.jobs().iter().filter(|j| j.size > 256).count();
    assert_eq!(trace.len() - fitted.len(), oversized);
}
