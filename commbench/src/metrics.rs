//! Every metric the benchmark reports: name, unit, direction. The same
//! lists are in `BENCHMARK.json` (a self-test keeps the two in step);
//! the bounds live only there.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a caller of the system sees; measured with tracing off.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", "lower"),
    m("throughput_ops_s", "ops/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("cpu_us_per_op", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single layers, from the traced pass. A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: [Metric; 45] = [
    m("framing.split_ns", "ns", "lower"),
    m("framing.request_bytes", "B/op", "lower"),
    m("framing.response_bytes", "B/op", "lower"),
    m("protocol.decode_ns", "ns", "lower"),
    m("protocol.encode_ns", "ns", "lower"),
    m("protocol.decode_allocs", "count", "lower"),
    m("protocol.encode_allocs", "count", "lower"),
    m("service.handle_alloc_ns", "ns", "lower"),
    m("service.handle_release_ns", "ns", "lower"),
    m("service.handle_release_drain_ns", "ns", "lower"),
    m("service.handle_poll_ns", "ns", "lower"),
    m("service.handle_allocs", "count", "lower"),
    m("service.granted_share", "ratio", "higher"),
    m("service.queued_share", "ratio", "lower"),
    m("cluster.route_ns", "ns", "lower"),
    m("cluster.resolve_ns", "ns", "lower"),
    m("journal.handle_delta_ns", "ns", "lower"),
    m("journal.append_ns", "ns", "lower"),
    m("journal.encode_ns", "ns", "lower"),
    m("journal.records_per_op", "ratio", "lower"),
    m("journal.bytes_per_op", "B/op", "lower"),
    m("journal.snapshots", "count", "lower"),
    m("journal.read_ns", "ns", "lower"),
    m("journal.fold_ns", "ns", "lower"),
    m("alloc.allocate_ns", "ns", "lower"),
    m("alloc.release_ns", "ns", "lower"),
    m("alloc.avg_pairwise_dist", "hops", "lower"),
    m("score.predict_ns", "ns", "lower"),
    m("net.simulate_ns", "ns", "lower"),
    m("workload.expand_ns", "ns", "lower"),
    m("mesh.locality_ns", "ns", "lower"),
    m("score.mean_contention", "score", "lower"),
    m("quality.mean_wait_s", "s", "lower"),
    m("quality.mean_contention", "score", "lower"),
    m("server.cpu_us_per_op", "us", "lower"),
    m("client.cpu_us_per_op", "us", "lower"),
    m("server.io_us_per_op", "us", "lower"),
    m("budget.residual_share", "ratio", "lower"),
    m("server.wakeups_per_op", "ratio", "lower"),
    m("client.latency_p99_us", "us", "lower"),
    m("client.latency_p999_us", "us", "lower"),
    m("trace.overhead_share", "ratio", "lower"),
    m("host.spin_ns_before", "ns", "lower"),
    m("host.spin_ns_after", "ns", "lower"),
    m("host.noisy", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// (name, unit, better) of each entry of one list in BENCHMARK.json.
    fn declared(file: &Value, list: &str) -> Vec<(String, String, String)> {
        let field = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{list} entry lacks {key}"))
                .to_string()
        };
        file.get(list)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn coded(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let file: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(declared(&file, "end_to_end"), coded(&END_TO_END));
        assert_eq!(declared(&file, "per_layer"), coded(&PER_LAYER));
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let known: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, known);
    }
}
