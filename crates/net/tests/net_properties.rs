//! Property-based tests for the network models.

use commalloc_mesh::{Mesh2D, NodeId};
use commalloc_net::flit::{FlitMessage, FlitNetwork};
use commalloc_net::fluid::{FluidNetwork, RateModel};
use commalloc_net::msglevel::{Message, MessageLevelNetwork};
use commalloc_net::traffic::JobTraffic;
use commalloc_net::LinkTable;
use commalloc_workload::TrafficEntry;
use proptest::prelude::*;

fn arb_node(max: u32) -> impl Strategy<Value = NodeId> {
    (0..max).prop_map(NodeId)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every injected flit-level message is delivered, no earlier than its
    /// injection time plus its minimum possible latency.
    #[test]
    fn flit_messages_all_delivered_with_lower_bound(
        specs in proptest::collection::vec(
            (arb_node(64), arb_node(64), 0u64..20, 1u32..6),
            1..12,
        )
    ) {
        let mesh = Mesh2D::new(8, 8);
        let net = FlitNetwork::new(mesh);
        let messages: Vec<FlitMessage> = specs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, at, flits))| FlitMessage {
                id: i as u64,
                src,
                dst,
                inject_at: at,
                flits,
            })
            .collect();
        let report = net.simulate(&messages);
        prop_assert_eq!(report.deliveries.len(), messages.len());
        for (m, d) in messages.iter().zip(&report.deliveries) {
            prop_assert_eq!(m.id, d.id);
            let hops = mesh.distance(m.src, m.dst) as u64;
            let min_latency = if hops == 0 { 0 } else { hops + m.flits as u64 - 1 };
            prop_assert!(
                d.latency >= min_latency,
                "latency {} below contention-free minimum {}",
                d.latency,
                min_latency
            );
            prop_assert!(d.delivered_at >= m.inject_at);
        }
    }

    /// The message-level model delivers every message with latency at least
    /// hops × service_time, and adding traffic never speeds anything up.
    #[test]
    fn msglevel_latency_monotone_under_added_traffic(
        specs in proptest::collection::vec(
            (arb_node(64), arb_node(64), 0u64..10),
            2..10,
        )
    ) {
        let mesh = Mesh2D::new(8, 8);
        let net = MessageLevelNetwork::new(mesh);
        let messages: Vec<Message> = specs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, at))| Message {
                id: i as u64,
                src,
                dst,
                inject_at: at as f64,
                service_time: 1.0,
            })
            .collect();
        let full = net.simulate(&messages);
        for (m, d) in messages.iter().zip(&full.deliveries) {
            let hops = mesh.distance(m.src, m.dst) as f64;
            prop_assert!(d.latency + 1e-9 >= hops);
        }
        // Removing the last message never hurts the remaining ones.
        let fewer = net.simulate(&messages[..messages.len() - 1]);
        for (a, b) in fewer.deliveries.iter().zip(&full.deliveries) {
            prop_assert!(a.latency <= b.latency + 1e-9);
        }
    }

    /// Fluid rates are always in (0, nominal], never over-subscribe any
    /// link, and never leave a job below the equal share of its own most
    /// loaded link (the max-min lower bound).
    ///
    /// Note that *removal monotonicity* — "removing a job never lowers any
    /// remaining job's rate" — is deliberately NOT asserted: it is false for
    /// max-min fairness in networks. Removing a job from one link can let a
    /// multi-link neighbour grow past its old bottleneck and squeeze a third
    /// job on a different link (e.g. link X carries {A, B}, link Y carries
    /// {B, C, D}: with everyone present A gets the slack B leaves on X, and
    /// removing D lets B grow, shrinking A). The paper's fluid substitution
    /// only relies on the feasibility and fairness bounds checked here.
    #[test]
    fn fluid_rates_bounded_feasible_and_fair(
        pairs in proptest::collection::vec((arb_node(256), arb_node(256)), 2..12)
    ) {
        let mesh = Mesh2D::square_16x16();
        let links = LinkTable::new(mesh);
        let jobs: Vec<JobTraffic> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                JobTraffic::new(
                    mesh,
                    &links,
                    i as u64,
                    &[a, b],
                    &[TrafficEntry { src: 0, dst: 1, weight: 1.0 }],
                    1.0,
                )
            })
            .collect();
        let capacity = 0.5f64;
        let model = FluidNetwork::with_capacity(links.num_slots(), capacity);
        let all: Vec<&JobTraffic> = jobs.iter().collect();
        let rates = model.rates(&all);

        // Bounds: positive, never above the nominal one-message-per-second.
        for &r in &rates {
            prop_assert!(r > 0.0 && r <= 1.0 + 1e-9);
        }

        // Feasibility: no link carries more than its capacity.
        let mut usage = vec![0.0f64; links.num_slots()];
        for (job, &rate) in jobs.iter().zip(&rates) {
            for &(l, q) in &job.link_demand {
                usage[l.index()] += rate * q;
            }
        }
        for (l, &u) in usage.iter().enumerate() {
            prop_assert!(
                u <= capacity + 1e-6,
                "link {l} oversubscribed: {u} > {capacity}"
            );
        }

        // Fairness lower bound: a job is never pushed below the equal split
        // of its most contended link (computed against every job's peak
        // demand), which is what max-min guarantees at minimum.
        for (i, (job, &rate)) in jobs.iter().zip(&rates).enumerate() {
            if job.is_local() {
                prop_assert!((rate - job.nominal_rate).abs() < 1e-9);
                continue;
            }
            let mut worst_sharers = 1usize;
            for &(l, q) in &job.link_demand {
                if q <= 1e-12 {
                    continue;
                }
                let sharers = jobs
                    .iter()
                    .filter(|other| {
                        other
                            .link_demand
                            .iter()
                            .any(|&(ol, oq)| ol == l && oq > 1e-12)
                    })
                    .count();
                worst_sharers = worst_sharers.max(sharers);
            }
            let lower_bound = (capacity / worst_sharers as f64).min(job.nominal_rate);
            prop_assert!(
                rate + 1e-6 >= lower_bound,
                "job {i} rate {rate} below max-min lower bound {lower_bound}"
            );
        }
    }
}
