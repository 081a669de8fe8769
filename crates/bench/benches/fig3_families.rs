//! Criterion version of the Figure 3 sweep (reduced grid so that
//! `cargo bench` terminates in minutes; the full sweep with timeouts is
//! `cargo run --release -p mia-bench --bin fig3`).
//!
//! One group per benchmark family; within each group, the incremental
//! ("new") algorithm is measured across sizes, and the original ("old")
//! algorithm on small sizes where it is still tractable.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mia_arbiter::RoundRobin;
use mia_cli::benchmark_problem;
use mia_dag_gen::Family;

fn figure3_new(c: &mut Criterion) {
    for family in Family::figure3() {
        let mut group = c.benchmark_group(format!("fig3_{}_new", family.label()));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(4))
            .warm_up_time(Duration::from_millis(500));
        for n in [64usize, 256, 1024, 4096] {
            let problem = benchmark_problem(family, n, 2020);
            group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
                b.iter(|| {
                    let s = mia_core::analyze(black_box(p), &RoundRobin::new()).unwrap();
                    black_box(s.makespan())
                })
            });
        }
        group.finish();
    }
}

fn figure3_old(c: &mut Criterion) {
    // The O(n⁴) algorithm: only the sizes where a criterion run stays
    // affordable. Its growth is the point of the plot.
    for family in [Family::FixedLayerSize(16), Family::FixedLayers(16)] {
        let mut group = c.benchmark_group(format!("fig3_{}_old", family.label()));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(4))
            .warm_up_time(Duration::from_millis(500));
        for n in [32usize, 64, 128] {
            let problem = benchmark_problem(family, n, 2020);
            group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
                b.iter(|| {
                    let s = mia_baseline::analyze(black_box(p), &RoundRobin::new()).unwrap();
                    black_box(s.makespan())
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, figure3_new, figure3_old);
criterion_main!(benches);
