//! Microbenchmarks of the substrate layers: event queue, PRNG, decision
//! process, topology generation, graph metrics.

use std::time::Duration;

use bgpscale_bgp::decision::{select_best, Candidate};
use bgpscale_bench::fixture;
use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};
use bgpscale_simkernel::{EventQueue, SimTime, DEFAULT_SLOT_BITS};
use bgpscale_topology::metrics::{avg_valley_free_path_length, clustering_coefficient};
use bgpscale_topology::valley::valley_free_distances;
use bgpscale_topology::{generate, AsId, GrowthScenario, Relationship};
use bgpscale_bench::harness::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_10k_random", |b| {
        let mut rng = Xoshiro256StarStar::new(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.next_below(1_000_000)).collect();
        b.iter(|| {
            let mut q = EventQueue::with_slot_bits(DEFAULT_SLOT_BITS, 10_000);
            for &t in &times {
                q.schedule(SimTime::from_micros(t), t);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        });
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.bench_function("xoshiro_next_u64_x1000", |b| {
        let mut rng = Xoshiro256StarStar::new(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });
    g.bench_function("choose_weighted_1000", |b| {
        let mut rng = Xoshiro256StarStar::new(9);
        let weights: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        b.iter(|| black_box(rng.choose_weighted(&weights)));
    });
    g.finish();
}

fn bench_decision(c: &mut Criterion) {
    let mut g = c.benchmark_group("decision");
    // A T-node-at-n=10000-sized candidate set.
    let paths: Vec<Vec<AsId>> = (0..1500u32)
        .map(|i| (0..(2 + i % 4)).map(|k| AsId(10_000 + i * 8 + k)).collect())
        .collect();
    let cands: Vec<Candidate<'_>> = paths
        .iter()
        .enumerate()
        .map(|(i, path)| Candidate {
            neighbor: AsId(i as u32),
            rel: match i % 3 {
                0 => Relationship::Customer,
                1 => Relationship::Peer,
                _ => Relationship::Provider,
            },
            path: path.as_slice(),
        })
        .collect();
    g.bench_function("select_best_1500_candidates", |b| {
        b.iter(|| black_box(select_best(black_box(&cands))));
    });
    g.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology");
    g.sample_size(10);
    g.bench_function("generate_baseline_n1000", |b| {
        b.iter(|| black_box(generate(GrowthScenario::Baseline, 1_000, 42)));
    });
    g.bench_function("generate_dense_core_n1000", |b| {
        b.iter(|| black_box(generate(GrowthScenario::DenseCore, 1_000, 42)));
    });
    let graph = generate(GrowthScenario::Baseline, 1_000, 42);
    g.bench_function("clustering_coefficient_n1000", |b| {
        b.iter(|| black_box(clustering_coefficient(&graph, 1)));
    });
    g.bench_function("valley_free_distances_n1000", |b| {
        b.iter(|| black_box(valley_free_distances(&graph, AsId(999))));
    });
    g.bench_function("avg_path_length_n1000_5src", |b| {
        b.iter(|| black_box(avg_valley_free_path_length(&graph, 5, 1)));
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    let fix = fixture(500, 3);
    g.bench_function("c_event_n500", |b| {
        b.iter_batched(
            || fix.graph.clone(),
            |graph| {
                let mut sim = bgpscale_core::Simulator::new(
                    graph,
                    bgpscale_bgp::BgpConfig::default(),
                    11,
                );
                sim.originate(fix.origin, bgpscale_bgp::Prefix(0));
                sim.run_to_quiescence().unwrap();
                sim.withdraw(fix.origin, bgpscale_bgp::Prefix(0));
                sim.run_to_quiescence().unwrap();
                black_box(sim.events_processed())
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    targets = bench_event_queue, bench_rng, bench_decision, bench_topology, bench_simulator
}
criterion_main!(benches);
