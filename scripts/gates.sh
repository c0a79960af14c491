#!/bin/sh
# The benchmark gates, as CI's `bench-gate` job runs them, in one place a
# local run can reach: every step runs (so one red gate does not hide
# another), and the script exits non-zero when any of them failed.
#
#   journal_overhead   group-commit journaled grants stay at >= 0.5x of
#                      unjournaled throughput
#   obs_overhead       the flight recorder stays free when off (0.98x),
#                      cheap when on (0.90x), and the full observability
#                      stack (recorder + calibration store, including the
#                      scores recording computes and the untraced baseline
#                      skips) cheap on a patterned workload (0.88x). Default
#                      op count: the interleaved-slice method needs the full
#                      200k ops for its noise floor to sit below the 2% gate.
#   routing_study      comm-aware mean predicted contention at moderate
#                      load no worse than round-robin's
#   scheduler_throughput, cluster_routing, routing_study
#                      run in virtual time on seeded inputs, so their
#                      committed BENCH files must reproduce byte for byte
#   commbench          builds against this tree and passes --check
#
# Usage: scripts/gates.sh (from anywhere; ~2-3 min on 2 vCPUs).
set -u
cd "$(dirname "$0")/.."
failed=""

step() {
    name=$1
    shift
    echo "== $name: $*"
    if ! "$@"; then
        echo "FAILED: $name" >&2
        failed="$failed $name"
    fi
}

step build cargo build --release -p commalloc-bench
step journal_overhead target/release/journal_overhead --ops 100000 --min-ratio 0.5
step obs_overhead target/release/obs_overhead \
    --min-disabled 0.98 --min-enabled 0.90 --min-calibration 0.88
step routing_study target/release/routing_study
step scheduler_throughput target/release/scheduler_throughput
step cluster_routing target/release/cluster_routing
step bench_files_reproduce git diff --exit-code \
    BENCH_schedulers.json BENCH_cluster.json BENCH_routing.json
step commbench_build cargo build --release --manifest-path commbench/Cargo.toml
step commbench_check cargo run --release --quiet --manifest-path commbench/Cargo.toml -- --check

if [ -n "$failed" ]; then
    echo "gates failed:$failed" >&2
    exit 1
fi
echo "all gates passed"
