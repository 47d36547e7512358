//! The parallel scan's headline guarantee, tested end-to-end: chunked
//! multi-threaded search with a shared best-so-far returns results
//! **bit-identical** to the sequential scan and the brute-force oracle
//! — same indices, same distance bits, same rotations, same tie-break —
//! for every query kind and thread count, and its merged telemetry
//! equals the sum of the per-thread parts.

use proptest::prelude::*;
use rotind::distance::measure::Measure;
use rotind::distance::rotation::search_database;
use rotind::index::engine::{Invariance, Neighbor, QueryKind, RotationQuery};
use rotind::index::ParallelReport;
use rotind::obs::{ForkJoinObserver, NoopObserver, QueryTrace};
use rotind::ts::rotate::{rotated, RotationMatrix};
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

fn db_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(series_strategy(n), 1..=m)
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// `search_parallel`, unbudgeted, reporting to `observer`.
fn observed<O: ForkJoinObserver>(
    engine: &RotationQuery,
    db: &[Vec<f64>],
    kind: QueryKind,
    threads: usize,
    counter: &mut StepCounter,
    observer: &mut O,
) -> (Vec<Neighbor>, ParallelReport) {
    let (outcome, report) = engine
        .search_parallel(db, kind, threads, counter, observer, None)
        .unwrap();
    (outcome.into_inner(), report)
}

fn parallel(
    engine: &RotationQuery,
    db: &[Vec<f64>],
    kind: QueryKind,
    threads: usize,
) -> Vec<Neighbor> {
    let counter = &mut StepCounter::new();
    observed(engine, db, kind, threads, counter, &mut NoopObserver).0
}

fn distance_bits(hits: &[Neighbor]) -> Vec<u64> {
    hits.iter().map(|h| h.distance.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    // >= 100 randomized databases, identical `Neighbor` results at 2, 4
    // and 8 threads vs the sequential scan and the brute-force oracle,
    // for nearest and k-NN.
    #[test]
    fn nearest_parallel_is_bit_identical_to_sequential_and_oracle(
        query in series_strategy(16),
        db in db_strategy(16, 20),
        k in 1usize..6,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle =
            search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(sequential.index, oracle.index);
        prop_assert!((sequential.distance - oracle.distance).abs() < 1e-9);
        let sequential_knn = engine.k_nearest(&db, k).unwrap();
        for threads in THREAD_COUNTS {
            let hits = parallel(&engine, &db, QueryKind::Nearest, threads);
            prop_assert_eq!(&hits, &vec![sequential]);
            prop_assert_eq!(
                distance_bits(&hits),
                distance_bits(&[sequential]),
                "distance must be bit-identical at {} threads",
                threads
            );
            let hits = parallel(&engine, &db, QueryKind::KNearest(k), threads);
            prop_assert_eq!(&hits, &sequential_knn, "k = {}, threads = {}", k, threads);
            prop_assert_eq!(distance_bits(&hits), distance_bits(&sequential_knn));
        }
    }

    #[test]
    fn nearest_parallel_preserves_lowest_index_tie_break(
        query in series_strategy(12),
        db in db_strategy(12, 16),
        lo in 0usize..16,
        hi in 0usize..16,
        shift in 0usize..12,
    ) {
        // Plant the same rotation of the query at two positions: exact
        // ties across chunks must resolve to the lower index, exactly
        // as the sequential scan does — for nearest, and for k-NN,
        // where both tied items are in the answer.
        let mut db = db;
        let planted = rotated(&query, shift);
        let lo = lo % db.len();
        let hi = hi % db.len();
        db[lo] = planted.clone();
        db[hi] = planted;
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        prop_assert_eq!(sequential.index, lo.min(hi));
        for threads in THREAD_COUNTS {
            prop_assert_eq!(
                parallel(&engine, &db, QueryKind::Nearest, threads),
                vec![sequential]
            );
        }
        let k = 3.min(db.len());
        let sequential_knn = engine.k_nearest(&db, k).unwrap();
        if lo != hi {
            prop_assert_eq!(sequential_knn[0].index, lo.min(hi));
            prop_assert_eq!(sequential_knn[1].index, lo.max(hi));
        }
        for threads in [1, 2, 4, 7] {
            let hits = parallel(&engine, &db, QueryKind::KNearest(k), threads);
            prop_assert_eq!(&hits, &sequential_knn, "threads = {}", threads);
            prop_assert_eq!(distance_bits(&hits), distance_bits(&sequential_knn));
        }
    }

    #[test]
    fn merged_telemetry_equals_per_thread_sum(
        query in series_strategy(16),
        db in db_strategy(16, 20),
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        let sequential_knn = engine.k_nearest(&db, 3).unwrap();
        for threads in THREAD_COUNTS {
            for (kind, expected) in [
                (QueryKind::Nearest, vec![sequential]),
                (QueryKind::KNearest(3), sequential_knn.clone()),
            ] {
                let mut counter = StepCounter::new();
                let mut trace = QueryTrace::new(16);
                let (hits, report) =
                    observed(&engine, &db, kind, threads, &mut counter, &mut trace);
                prop_assert_eq!(hits, expected);
                let sum: u64 = report.per_thread_steps.iter().sum();
                prop_assert_eq!(counter.steps(), sum);
                prop_assert_eq!(report.chunk_lens.iter().sum::<usize>(), db.len());
                prop_assert!(trace.leaf_distances() >= 1, "the winner's leaf was observed");
            }
        }
    }

    #[test]
    fn range_parallel_matches_sequential(
        query in series_strategy(16),
        db in db_strategy(16, 20),
        scale in 0.5f64..3.0,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        // A radius around the nearest distance keeps both empty-ish and
        // full-ish result sets in play across cases.
        let radius = engine.nearest(&db).unwrap().distance * scale;
        prop_assert!(radius.is_finite());
        let sequential = engine.range(&db, radius).unwrap();
        for threads in THREAD_COUNTS {
            let hits = parallel(&engine, &db, QueryKind::Range(radius), threads);
            prop_assert_eq!(&hits, &sequential, "threads = {}", threads);
        }
    }
}
