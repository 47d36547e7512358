//! End-to-end search benchmarks: the wedge engine against its rivals on
//! a realistic projectile-point database, plus ablations over linkage
//! and fixed wedge-set sizes (the design choices DESIGN.md calls out).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rotind_bench::nearest_scan;
use rotind_cluster::linkage::Linkage;
use rotind_distance::Measure;
use rotind_envelope::WedgeTree;
use rotind_eval::speedup::{scan_steps, SearchAlgorithm};
use rotind_index::engine::{Invariance, KPolicy, RotationQuery};
use rotind_obs::NoopObserver;
use rotind_shape::dataset::projectile_points;
use rotind_ts::rotate::RotationMatrix;
use rotind_ts::StepCounter;
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    let n = 128;
    let m = 400;
    let ds = projectile_points(m + 4, n, 9);
    let db: Vec<Vec<f64>> = ds.items[..m].to_vec();
    let query = ds.items[m].clone();

    let mut group = c.benchmark_group("search");
    group.sample_size(10);

    for alg in [
        SearchAlgorithm::EarlyAbandon,
        SearchAlgorithm::Fft,
        SearchAlgorithm::Convolution,
        SearchAlgorithm::Wedge,
    ] {
        group.bench_with_input(BenchmarkId::new("1nn_scan", alg.name()), &alg, |b, &alg| {
            b.iter(|| scan_steps(black_box(&db), black_box(&query), alg, Measure::Euclidean))
        });
    }

    // Ablation: fixed wedge-set sizes vs the dynamic planner.
    for k in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("fixed_k", k), &k, |b, &k| {
            let engine = RotationQuery::new(&query, Invariance::Rotation)
                .expect("valid")
                .with_k_policy(KPolicy::Fixed(k));
            b.iter(|| {
                let mut s = StepCounter::new();
                nearest_scan(&engine, black_box(&db), &mut s, &mut NoopObserver).expect("valid")
            })
        });
    }
    group.bench_function("dynamic_k", |b| {
        let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid");
        b.iter(|| {
            let mut s = StepCounter::new();
            nearest_scan(&engine, black_box(&db), &mut s, &mut NoopObserver).expect("valid")
        })
    });

    // Ablation: wedge-set derivation linkage (the paper uses average).
    for (name, linkage) in [
        ("single", Linkage::Single),
        ("complete", Linkage::Complete),
        ("average", Linkage::Average),
        ("ward", Linkage::Ward),
    ] {
        group.bench_with_input(
            BenchmarkId::new("linkage_build", name),
            &linkage,
            |b, &linkage| {
                b.iter(|| {
                    WedgeTree::build(
                        RotationMatrix::full(black_box(&query)).expect("valid"),
                        linkage,
                        0,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
