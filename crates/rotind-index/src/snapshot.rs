//! Immutable database snapshots for long-lived serving.
//!
//! A query service owns one validated, immutable database and
//! multiplexes many queries over it. [`IndexSnapshot`] is that handle:
//! the database sits behind an [`Arc`], so worker threads share it
//! without copies and a snapshot swap is a pointer swap; validation
//! (non-empty, uniform series length, finite samples) happens at
//! construction, and so does the one read of the cascade configuration
//! (`ROTIND_CASCADE`), so no served query touches the environment.
//! [`IndexSnapshot::execute`] is the single entry point the serve crate
//! drives: it builds the query's engine and runs
//! [`RotationQuery::search`] — optionally through a [`BatchPaaCache`] so
//! the tier-2 candidate projections are amortized across the queries of
//! a worker instead of rebuilt per query.
//!
//! Results are bit-identical to calling [`RotationQuery`] directly:
//! `execute` adds no logic, only ownership and dispatch (the serve
//! integration tests replay fixed query sets both ways and assert
//! equality).

use crate::cascade::{BatchPaaCache, CascadeConfig};
use crate::engine::{check_series, Invariance, Neighbor, RotationQuery};
use crate::error::SearchError;
use rotind_distance::measure::Measure;
use rotind_obs::{BudgetHook, BudgetOutcome, SearchObserver};
use rotind_ts::StepCounter;
use std::sync::Arc;

pub use crate::engine::QueryKind;

/// One self-contained query against a snapshot: the series, the
/// admitted rotations, the measure and the kind of answer wanted.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The query series (must match the snapshot's series length).
    pub series: Vec<f64>,
    /// Which rotations of the query are admitted.
    pub invariance: Invariance,
    /// The distance measure to search under.
    pub measure: Measure,
    /// Nearest / k-NN / range.
    pub kind: QueryKind,
}

/// A validated, immutable, shareable database handle.
///
/// Cloning a snapshot clones the [`Arc`], not the data — the server's
/// worker threads each hold one handle to the same database.
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    database: Arc<Vec<Vec<f64>>>,
    series_len: usize,
    cascade: CascadeConfig,
}

impl IndexSnapshot {
    /// Validate and take ownership of a database: it must be non-empty,
    /// every series must have the same length, and every sample must be
    /// finite. The cascade configuration every query will run is read
    /// from the environment here, once.
    pub fn new(database: Vec<Vec<f64>>) -> Result<Self, SearchError> {
        let Some(first) = database.first() else {
            return Err(SearchError::EmptyDatabase);
        };
        let series_len = first.len();
        for (index, item) in database.iter().enumerate() {
            check_series(index, item, series_len)?;
        }
        Ok(IndexSnapshot {
            database: Arc::new(database),
            series_len,
            cascade: CascadeConfig::from_env(),
        })
    }

    /// The snapshot's database.
    pub fn database(&self) -> &[Vec<f64>] {
        &self.database
    }

    /// Number of series in the snapshot.
    pub fn len(&self) -> usize {
        self.database.len()
    }

    /// Always false — construction rejects empty databases — but kept
    /// for the conventional pairing with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.database.is_empty()
    }

    /// Length `n` of every series in the snapshot.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// A fresh candidate-projection cache sized for this snapshot, at
    /// the dimensionality of the snapshot's cascade configuration. One
    /// per worker thread; see [`BatchPaaCache`].
    pub fn paa_cache(&self) -> BatchPaaCache {
        BatchPaaCache::new(self.database.len(), self.cascade.dims)
    }

    /// Run one query against the snapshot under a budget, optionally
    /// through a worker's [`BatchPaaCache`]: build the query's engine
    /// under the snapshot's cascade configuration and run
    /// [`RotationQuery::search`]. Engine construction costs the paper's
    /// `O(n²)` startup per query and is not counted in `counter`,
    /// matching direct engine use. A query whose length differs from the
    /// snapshot's is refused with [`SearchError::QueryLength`] before
    /// that build.
    pub fn execute<O: SearchObserver, B: BudgetHook>(
        &self,
        spec: &QuerySpec,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: &mut B,
        cache: Option<&mut BatchPaaCache>,
    ) -> Result<BudgetOutcome<Vec<Neighbor>>, SearchError> {
        // Checked before the O(n²) build, whose cost the query's length
        // alone sets.
        if spec.series.len() != self.series_len {
            return Err(SearchError::QueryLength {
                expected: self.series_len,
                actual: spec.series.len(),
            });
        }
        let engine =
            RotationQuery::with_config(&spec.series, spec.invariance, spec.measure, self.cascade)
                .map_err(|e| SearchError::invalid_param("query", e.to_string()))?;
        engine.search(&self.database, spec.kind, counter, observer, budget, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_obs::{NoBudget, NoopObserver, QueryBudget};
    use rotind_ts::rotate::rotated;

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.31 + phase).sin() + 0.4 * (i as f64 * 0.83 + phase).cos())
            .collect()
    }

    fn database(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m).map(|k| signal(n, 1.0 + k as f64 * 0.41)).collect()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            IndexSnapshot::new(vec![]).unwrap_err(),
            SearchError::EmptyDatabase
        );
        let ragged = vec![vec![0.0; 8], vec![0.0; 9]];
        assert!(matches!(
            IndexSnapshot::new(ragged).unwrap_err(),
            SearchError::LengthMismatch {
                index: 1,
                expected: 8,
                actual: 9
            }
        ));
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        assert_eq!((snap.len(), snap.series_len()), (5, 16));
        assert!(!snap.is_empty());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut db = database(6, 16);
            db[4][11] = bad;
            assert_eq!(
                IndexSnapshot::new(db).unwrap_err(),
                SearchError::NonFinite {
                    index: 4,
                    position: 11
                }
            );
        }
    }

    #[test]
    fn execute_matches_direct_engine_calls() {
        let n = 32;
        let mut db = database(20, n);
        let query = signal(n, 0.12);
        db[7] = rotated(&query, 11);
        let snap = IndexSnapshot::new(db.clone()).unwrap();
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let radius = engine.nearest(&db).unwrap().distance + 1.0;

        for kind in [
            QueryKind::Nearest,
            QueryKind::KNearest(4),
            QueryKind::Range(radius),
        ] {
            let spec = QuerySpec {
                series: query.clone(),
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind,
            };
            let got = snap
                .execute(
                    &spec,
                    &mut StepCounter::new(),
                    &mut NoopObserver,
                    &mut NoBudget,
                    None,
                )
                .unwrap()
                .into_inner();
            let expected = match kind {
                QueryKind::Nearest => vec![engine.nearest(&db).unwrap()],
                QueryKind::KNearest(k) => engine.k_nearest(&db, k).unwrap(),
                QueryKind::Range(r) => engine.range(&db, r).unwrap(),
            };
            assert_eq!(got, expected, "{kind:?}");
        }
    }

    #[test]
    fn cached_execute_is_result_identical_and_amortizes_steps() {
        let n = 32;
        let db = database(40, n);
        let snap = IndexSnapshot::new(db).unwrap();
        let mut cache = snap.paa_cache();
        let specs: Vec<QuerySpec> = (0..4)
            .map(|i| QuerySpec {
                series: signal(n, 0.1 + i as f64 * 0.2),
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: QueryKind::KNearest(3),
            })
            .collect();
        let mut cached_steps = 0u64;
        let mut fresh_steps = 0u64;
        for spec in &specs {
            let mut c1 = StepCounter::new();
            let cached = snap
                .execute(
                    spec,
                    &mut c1,
                    &mut NoopObserver,
                    &mut NoBudget,
                    Some(&mut cache),
                )
                .unwrap()
                .into_inner();
            let mut c2 = StepCounter::new();
            let fresh = snap
                .execute(spec, &mut c2, &mut NoopObserver, &mut NoBudget, None)
                .unwrap()
                .into_inner();
            assert_eq!(cached, fresh, "cache must never change results");
            cached_steps += c1.steps();
            fresh_steps += c2.steps();
        }
        assert!(
            cached_steps <= fresh_steps,
            "cached {cached_steps} !<= fresh {fresh_steps}"
        );
        if cache.reused() > 0 {
            assert!(
                cached_steps < fresh_steps,
                "reuse must save the recharged projections"
            );
        }
    }

    #[test]
    fn execute_rejects_mismatched_cache_dims() {
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        let mut wrong = BatchPaaCache::new(snap.len(), CascadeConfig::from_env().dims + 1);
        let spec = QuerySpec {
            series: signal(16, 0.0),
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        let err = snap
            .execute(
                &spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut NoBudget,
                Some(&mut wrong),
            )
            .unwrap_err();
        assert!(matches!(err, SearchError::InvalidParam { .. }));
    }

    #[test]
    fn execute_surfaces_budget_exhaustion() {
        let snap = IndexSnapshot::new(database(30, 24)).unwrap();
        let spec = QuerySpec {
            series: signal(24, 0.2),
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        let mut budget = QueryBudget::max_steps(1);
        let outcome = snap
            .execute(
                &spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut budget,
                None,
            )
            .unwrap();
        assert!(!outcome.is_complete(), "a 1-step budget must trip");
    }

    #[test]
    fn bad_query_series_is_a_typed_error() {
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        let spec = QuerySpec {
            series: signal(8, 0.0), // wrong length vs snapshot
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        assert!(snap
            .execute(
                &spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut NoBudget,
                None,
            )
            .is_err());
    }

    #[test]
    fn a_query_of_the_wrong_length_is_refused_before_the_build() {
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        for len in [8usize, 17, 4096] {
            let spec = QuerySpec {
                series: signal(len, 0.0),
                invariance: Invariance::RotationMirror,
                measure: Measure::Euclidean,
                kind: QueryKind::Nearest,
            };
            let mut counter = StepCounter::new();
            let err = snap
                .execute(&spec, &mut counter, &mut NoopObserver, &mut NoBudget, None)
                .unwrap_err();
            assert_eq!(
                err,
                SearchError::QueryLength {
                    expected: 16,
                    actual: len
                }
            );
            assert_eq!(counter.steps(), 0);
        }
    }
}
