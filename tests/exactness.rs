//! The library's headline guarantee, tested end-to-end: the wedge
//! engine returns **exactly** the brute-force answers — "we prove that
//! we will always return the same answer set as the slower methods" —
//! for every measure, invariance mode and wedge-set policy.

use proptest::prelude::*;
use rotind::distance::rotation::{search_database, test_all_rotations};
use rotind::distance::{DtwParams, LcssParams, Measure};
use rotind::index::engine::{Invariance, KPolicy, QueryKind, RotationQuery};
use rotind::index::snapshot::{IndexSnapshot, QuerySpec};
use rotind::index::SearchError;
use rotind::obs::{NoBudget, NoopObserver};
use rotind::ts::rotate::RotationMatrix;
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

fn db_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(series_strategy(n), 1..=m)
}

fn measures() -> Vec<Measure> {
    vec![
        Measure::Euclidean,
        Measure::Dtw(DtwParams::new(2)),
        Measure::Lcss(LcssParams::new(0.5, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The snapshot is the trust boundary for database contents: it
    /// refuses a NaN or an infinity by item and position, and on every
    /// database it accepts, the served answer equals the brute-force
    /// oracle.
    #[test]
    fn engine_equals_oracle_on_every_accepted_database(
        query in series_strategy(16),
        db in db_strategy(16, 10),
        item in 0usize..10,
        position in 0usize..16,
        poison in 0usize..4,
        measure_idx in 0usize..3,
    ) {
        let mut db = db;
        let item = item % db.len();
        let bad = [None, Some(f64::NAN), Some(f64::INFINITY), Some(f64::NEG_INFINITY)][poison];
        if let Some(bad) = bad {
            db[item][position] = bad;
        }
        let measure = measures()[measure_idx];
        let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();
        match IndexSnapshot::new(db.clone()) {
            Err(err) => {
                prop_assert!(bad.is_some(), "a finite database was refused: {:?}", err);
                let expected = SearchError::NonFinite { index: item, position };
                prop_assert_eq!(&err, &expected);
                prop_assert_eq!(engine.nearest(&db).unwrap_err(), expected);
            }
            Ok(snapshot) => {
                prop_assert!(bad.is_none(), "a non-finite database was accepted");
                let spec = QuerySpec {
                    series: query.clone(),
                    invariance: Invariance::Rotation,
                    measure,
                    kind: QueryKind::Nearest,
                };
                let hits = snapshot
                    .execute(&spec, &mut StepCounter::new(), &mut NoopObserver, &mut NoBudget, None)
                    .unwrap()
                    .into_inner();
                let matrix = RotationMatrix::full(&query).unwrap();
                let oracle =
                    search_database(&matrix, &db, measure, &mut StepCounter::new()).unwrap();
                prop_assert_eq!(hits.len(), 1);
                prop_assert_eq!(hits[0].index, oracle.index);
                prop_assert!((hits[0].distance - oracle.distance).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn nearest_equals_brute_force(
        query in series_strategy(20),
        db in db_strategy(20, 12),
        measure_idx in 0usize..3,
    ) {
        let measure = measures()[measure_idx];
        let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle = search_database(&matrix, &db, measure, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(hit.index, oracle.index);
        prop_assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn every_k_policy_is_exact(
        query in series_strategy(16),
        db in db_strategy(16, 8),
        k in 1usize..40,
    ) {
        let fixed = RotationQuery::new(&query, Invariance::Rotation)
            .unwrap()
            .with_k_policy(KPolicy::Fixed(k));
        let dynamic = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let a = fixed.nearest(&db).unwrap();
        let b = dynamic.nearest(&db).unwrap();
        prop_assert_eq!(a.index, b.index);
        prop_assert!((a.distance - b.distance).abs() < 1e-9);
    }

    #[test]
    fn mirror_invariance_equals_explicit_mirror_scan(
        query in series_strategy(14),
        db in db_strategy(14, 8),
    ) {
        let engine = RotationQuery::new(&query, Invariance::RotationMirror).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::with_mirror(&query).unwrap();
        let oracle =
            search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(hit.index, oracle.index);
        prop_assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn rotation_limited_equals_limited_scan(
        query in series_strategy(18),
        db in db_strategy(18, 8),
        max_shift in 0usize..9,
    ) {
        let engine =
            RotationQuery::new(&query, Invariance::RotationLimited { max_shift }).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::limited(&query, max_shift).unwrap();
        let oracle =
            search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(hit.index, oracle.index);
        prop_assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn knn_equals_sorted_oracle(
        query in series_strategy(16),
        db in db_strategy(16, 10),
        k in 1usize..6,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hits = engine.k_nearest(&db, k).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let mut oracle: Vec<(usize, f64)> = db
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let d = test_all_rotations(
                    item,
                    &matrix,
                    f64::INFINITY,
                    Measure::Euclidean,
                    &mut StepCounter::new(),
                )
                .unwrap()
                .distance;
                (i, d)
            })
            .collect();
        oracle.sort_by(|a, b| a.1.total_cmp(&b.1));
        prop_assert_eq!(hits.len(), k.min(db.len()));
        for (hit, (_, od)) in hits.iter().zip(&oracle) {
            // Indices can differ under exact ties; distances cannot.
            prop_assert!((hit.distance - od).abs() < 1e-9);
        }
    }

    #[test]
    fn range_equals_filtered_oracle(
        query in series_strategy(14),
        db in db_strategy(14, 10),
        radius in 0.0f64..20.0,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hits = engine.range(&db, radius).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let expected: Vec<usize> = db
            .iter()
            .enumerate()
            .filter_map(|(i, item)| {
                let d = test_all_rotations(
                    item,
                    &matrix,
                    f64::INFINITY,
                    Measure::Euclidean,
                    &mut StepCounter::new(),
                )
                .unwrap()
                .distance;
                (d <= radius).then_some(i)
            })
            .collect();
        let mut got: Vec<usize> = hits.iter().map(|h| h.index).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn reported_rotation_reproduces_the_distance(
        query in series_strategy(16),
        db in db_strategy(16, 6),
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let rotated = rotind::ts::rotate::rotated(&query, hit.rotation.shift);
        let direct: f64 = db[hit.index]
            .iter()
            .zip(&rotated)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        prop_assert!((direct - hit.distance).abs() < 1e-9);
    }
}
