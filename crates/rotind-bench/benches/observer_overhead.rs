//! The zero-overhead claim, measured: `RotationQuery::search` with a
//! [`NoopObserver`] must cost the same as the plain `nearest` path (the
//! no-op callbacks are monomorphized away), and a recording
//! [`QueryTrace`] should add only the cost of bumping a few counters.
//!
//! [`NoopObserver`]: rotind_obs::NoopObserver
//! [`QueryTrace`]: rotind_obs::QueryTrace

use criterion::{criterion_group, criterion_main, Criterion};
use rotind_bench::nearest_scan;
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_obs::{NoopObserver, Profiler, QueryTrace};
use rotind_shape::dataset::projectile_points;
use rotind_ts::StepCounter;
use std::hint::black_box;

fn bench_observer_overhead(c: &mut Criterion) {
    let n = 128;
    let m = 400;
    let ds = projectile_points(m + 1, n, 9);
    let db: Vec<Vec<f64>> = ds.items[..m].to_vec();
    let query = ds.items[m].clone();
    let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid");

    let mut group = c.benchmark_group("observer");
    group.sample_size(20);

    group.bench_function("plain", |b| {
        b.iter(|| engine.nearest(black_box(&db)).expect("valid"))
    });
    group.bench_function("noop_observer", |b| {
        b.iter(|| {
            let mut s = StepCounter::new();
            nearest_scan(&engine, black_box(&db), &mut s, &mut NoopObserver).expect("valid")
        })
    });
    group.bench_function("query_trace", |b| {
        b.iter(|| {
            let mut s = StepCounter::new();
            let mut trace = QueryTrace::new(n);
            nearest_scan(&engine, black_box(&db), &mut s, &mut trace).expect("valid")
        })
    });
    // The profiler reads the clock at every phase boundary — the
    // costliest observer. This row bounds what `--bin trace`'s second
    // pass and the cascade bin's fan-out observer pay.
    group.bench_function("profiler", |b| {
        b.iter(|| {
            let mut s = StepCounter::new();
            let mut profiler = Profiler::new();
            nearest_scan(&engine, black_box(&db), &mut s, &mut profiler).expect("valid")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_observer_overhead);
criterion_main!(benches);
