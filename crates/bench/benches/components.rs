//! Component micro-benchmarks: arbiter `IBUS` evaluation, workload
//! generation, and the ablation comparison between the interference
//! modes of the incremental analysis.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mia_arbiter::{Fifo, FixedPriority, MppaTree, Regulated, RoundRobin, Tdm};
use mia_cli::benchmark_problem;
use mia_core::{analyze_with, AnalysisOptions, InterferenceMode, NoopObserver};
use mia_dag_gen::{Family, LayeredDag};
use mia_model::{arbiter::InterfererDemand, Arbiter, CoreId, Cycles};

fn arbiter_ibus(c: &mut Criterion) {
    let mut group = c.benchmark_group("ibus");
    group.measurement_time(Duration::from_secs(2));
    let interferers: Vec<InterfererDemand> = (1..16)
        .map(|i| InterfererDemand {
            core: CoreId(i),
            accesses: 100 + (i as u64) * 13,
        })
        .collect();
    let arbiters: Vec<Box<dyn Arbiter>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(MppaTree::cluster16()),
        Box::new(Tdm::new()),
        Box::new(Fifo::new()),
        Box::new(FixedPriority::by_core_id()),
        Box::new(Regulated::new(8, 128)),
    ];
    for arb in &arbiters {
        group.bench_function(arb.name(), |b| {
            b.iter(|| {
                black_box(arb.bank_interference(
                    CoreId(0),
                    black_box(400),
                    black_box(&interferers),
                    Cycles(1),
                ))
            })
        });
    }
    group.finish();
}

fn generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("generator");
    group.measurement_time(Duration::from_secs(3));
    for n in [256usize, 2048, 8448] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let w = LayeredDag::new(Family::FixedLayerSize(64).config(n, 7)).generate();
                black_box(w.graph.len())
            })
        });
    }
    group.finish();
}

fn interference_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("interference_mode");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let problem = benchmark_problem(Family::FixedLayerSize(16), 2048, 2020);
    for (name, mode) in [
        ("aggregate_by_core", InterferenceMode::AggregateByCore),
        ("pairwise_additive", InterferenceMode::PairwiseAdditive),
    ] {
        let opts = AnalysisOptions::new().interference_mode(mode);
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = analyze_with(
                    black_box(&problem),
                    &RoundRobin::new(),
                    &opts,
                    &mut NoopObserver,
                )
                .unwrap();
                black_box(r.schedule.makespan())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, arbiter_ibus, generator, interference_modes);
criterion_main!(benches);
