//! Benchmarks of the three network-model fidelities, justifying the fluid
//! substitution (README § "Substitutions this reproduction makes"): the
//! flit-level model is the
//! reference but is orders of magnitude more expensive per simulated message
//! than the fluid rate computation the trace sweeps rely on.

use commalloc_mesh::{Coord, Mesh2D, NodeId};
use commalloc_net::flit::{FlitMessage, FlitNetwork};
use commalloc_net::fluid::{FluidNetwork, RateModel};
use commalloc_net::msglevel::{Message, MessageLevelNetwork};
use commalloc_net::traffic::JobTraffic;
use commalloc_net::LinkTable;
use commalloc_workload::CommPattern;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_messages(mesh: Mesh2D, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a = NodeId(rng.gen_range(0..mesh.num_nodes() as u32));
            let b = NodeId(rng.gen_range(0..mesh.num_nodes() as u32));
            (a, b)
        })
        .collect()
}

fn bench_flit_vs_message_level(c: &mut Criterion) {
    let mesh = Mesh2D::square_16x16();
    let mut group = c.benchmark_group("drain_500_random_messages");
    let pairs = random_messages(mesh, 500, 3);

    let flit_msgs: Vec<FlitMessage> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| FlitMessage {
            id: i as u64,
            src,
            dst,
            inject_at: 0,
            flits: 16,
        })
        .collect();
    let flit_net = FlitNetwork::new(mesh);
    group.bench_function(BenchmarkId::new("flit_level", 500), |b| {
        b.iter(|| black_box(flit_net.simulate(black_box(&flit_msgs))))
    });

    let level_msgs: Vec<Message> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| Message {
            id: i as u64,
            src,
            dst,
            inject_at: 0.0,
            service_time: 1.0,
        })
        .collect();
    let msg_net = MessageLevelNetwork::new(mesh);
    group.bench_function(BenchmarkId::new("message_level", 500), |b| {
        b.iter(|| black_box(msg_net.simulate(black_box(&level_msgs))))
    });
    group.finish();
}

fn bench_fluid_rate_computation(c: &mut Criterion) {
    let mesh = Mesh2D::paragon_16x22();
    let links = LinkTable::new(mesh);
    let mut group = c.benchmark_group("fluid_rates");
    for num_jobs in [4usize, 16, 64] {
        // Each job: 16 processors in a row, all-to-all traffic.
        let jobs: Vec<JobTraffic> = (0..num_jobs)
            .map(|j| {
                let row = (j % mesh.height() as usize) as u16;
                let nodes: Vec<NodeId> =
                    (0..16u16).map(|x| mesh.id_of(Coord::new(x, row))).collect();
                let traffic = CommPattern::AllToAll.traffic(16, 1, &mut StdRng::seed_from_u64(0));
                JobTraffic::new(mesh, &links, j as u64, &nodes, &traffic, 1.0)
            })
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let model = FluidNetwork::new(links.num_slots());
        group.bench_with_input(BenchmarkId::from_parameter(num_jobs), &refs, |b, refs| {
            b.iter(|| black_box(model.rates(black_box(refs))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flit_vs_message_level,
    bench_fluid_rate_computation
);
criterion_main!(benches);
