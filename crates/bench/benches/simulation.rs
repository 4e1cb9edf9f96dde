//! Criterion: simulation-kernel throughput — event queue, MAC run rate,
//! flood rounds. Determines how large an E3-style sweep is affordable.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zeiot_backscatter::mac::{simulate, MacConfig, MacFaults, MacMode};
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_net::flooding::SyncFlood;
use zeiot_net::Topology;
use zeiot_sim::queue::EventQueue;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                // Scatter times to exercise heap reordering.
                q.push(
                    SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % 1_000_000),
                    i,
                );
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_mac_second(c: &mut Criterion) {
    let config = MacConfig::default_with_devices(20).unwrap();
    c.bench_function("mac_scheduled_1s_20dev", |b| {
        b.iter(|| {
            let mut rng = SeedRng::new(1);
            black_box(simulate(
                &config,
                MacMode::Scheduled,
                SimDuration::from_secs(1),
                &mut rng,
                &MacFaults::none(),
                None,
                None,
            ))
        })
    });
}

fn bench_flood_round(c: &mut Criterion) {
    let topo = Topology::grid(10, 10, 1.0, 1.5).unwrap();
    let flood = SyncFlood::new(0.9, 30).unwrap();
    c.bench_function("sync_flood_round_100_nodes", |b| {
        b.iter(|| {
            let mut rng = SeedRng::new(2);
            black_box(flood.run(&topo, NodeId::new(0), &mut rng))
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_mac_second,
    bench_flood_round
);
criterion_main!(benches);
