//! Parallel chunked database scans with a shared best-so-far.
//!
//! The paper's experiments scan the database sequentially; on a modern
//! multicore machine the scan is embarrassingly parallel *except* for
//! the best-so-far threshold, which every H-Merge comparison wants as
//! tight as possible. [`RotationQuery::search_parallel`] splits the
//! database into one contiguous chunk per worker thread (hand-rolled on
//! [`std::thread::scope`] — no external thread pool). Every worker runs
//! the sequential scan loop over its chunk with its own k-NN list, and a
//! k-NN scan shares the minimum of the chunk k-th bests through a single
//! atomic word, so an improvement found by any worker immediately
//! tightens pruning in all of them. A range scan's radius is fixed, so
//! its workers share nothing.
//!
//! # Determinism
//!
//! The parallel scan returns results **bit-identical** to the
//! sequential scan, including the lowest-index tie-break, even though
//! the shared threshold tightens in nondeterministic order. The
//! argument (DESIGN.md §10):
//!
//! 1. The shared radius only ever holds chunk k-th bests. A chunk's
//!    k-th best is the largest of `k` achieved exact distances, so it
//!    is always `>=` the global k-th best `d*`.
//! 2. Admission is inclusive (`d <= r`) and dismissal strict, so every
//!    item of the global answer is fully evaluated no matter when other
//!    workers tighten the radius.
//! 3. Leaf distances are exact and threshold-independent, and H-Merge
//!    breaks exact ties by the canonical rotation key — its outcome is
//!    a pure function of (candidate, tree, measure) for any threshold
//!    admitting the true minimum.
//! 4. Each chunk keeps its k best with ties in index order, and chunk
//!    lists are merged in chunk order by `(distance, index)` —
//!    reproducing the sequential lowest-index tie-break globally.
//!
//! Per-worker [`StepCounter`]s and forked observers
//! ([`ForkJoinObserver`]) are joined in chunk order after the scope
//! ends, so the merged telemetry is deterministic and equals the sum of
//! the per-thread parts.

use crate::engine::{finish, Hits, Neighbor, QueryKind, RotationQuery, ScanState};
use crate::error::SearchError;
use crate::radius::SharedRadius;
use rotind_obs::{
    BudgetHook, BudgetOutcome, ForkJoinObserver, NoBudget, QueryBudget, SharedBudget,
};
use rotind_ts::StepCounter;
use std::ops::Range;
use std::thread;

/// Worker-thread count used when a caller passes `threads == 0`: the
/// `ROTIND_THREADS` environment variable when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`], otherwise
/// one. A set-but-invalid value falls back with a one-line stderr
/// warning (see [`rotind_obs::envcfg`]) instead of silently running a
/// different thread count than the operator asked for.
pub fn default_threads() -> usize {
    let auto = thread::available_parallelism().map_or(1, |n| n.get());
    rotind_obs::env_positive_usize("ROTIND_THREADS", auto)
}

/// Per-thread accounting from one parallel scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelReport {
    /// Worker threads actually used — the requested count bounded by the
    /// database size (a chunk is never empty), with `0` resolved via
    /// [`default_threads`].
    pub threads: usize,
    /// Database items in each worker's chunk, in chunk order. Chunks are
    /// contiguous and balanced: sizes differ by at most one.
    pub chunk_lens: Vec<usize>,
    /// Steps charged by each worker, in chunk order. Their sum is
    /// exactly what the scan merges into the caller's [`StepCounter`].
    pub per_thread_steps: Vec<u64>,
}

/// Balanced contiguous chunks: the first `len % threads` chunks get one
/// extra item. `threads` is clamped to `1..=len` so no chunk is empty.
// lint: panic-exempt(t is clamped to at least one, so the divisors are never zero)
fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let t = threads.clamp(1, len.max(1));
    let base = len / t;
    let rem = len % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    out
}

impl RotationQuery {
    /// [`search`](RotationQuery::search) over `threads` worker threads
    /// (`0` = auto, see [`default_threads`]). The answers are exactly
    /// the sequential ones — same indices, same distance bits, same
    /// rotations, same order — for every kind and thread count.
    ///
    /// - The summed per-thread `num_steps` is merged into `counter`;
    ///   the returned [`ParallelReport`] carries the per-thread parts.
    /// - The observer is [forked](ForkJoinObserver::fork) once per
    ///   worker and the children are [joined](ForkJoinObserver::join)
    ///   back in chunk order, so aggregate telemetry is deterministic.
    /// - A `budget` becomes one pool ([`SharedBudget`]) that every
    ///   worker charges its local step delta into at each dismissal
    ///   boundary, so a trip by any worker stops all of them at their
    ///   next check. On exhaustion the partial hits cover whatever
    ///   prefix of each chunk was scanned. `None` scans unbudgeted at no
    ///   cost.
    pub fn search_parallel<O: ForkJoinObserver>(
        &self,
        database: &[Vec<f64>],
        kind: QueryKind,
        threads: usize,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: Option<&QueryBudget>,
    ) -> Result<(BudgetOutcome<Vec<Neighbor>>, ParallelReport), SearchError> {
        let hits = self.validate(database, kind)?;
        Ok(match budget {
            None => {
                let (hits, report) =
                    self.scan_chunks(database, hits, threads, counter, observer, || NoBudget);
                (BudgetOutcome::Complete(hits), report)
            }
            Some(budget) => {
                let pool = SharedBudget::from_budget(budget);
                let (hits, report) =
                    self.scan_chunks(database, hits, threads, counter, observer, || pool.hook());
                (finish(hits, pool.trip_reason(), pool.spent()), report)
            }
        })
    }

    /// Run the scan loop over balanced contiguous chunks, one thread
    /// each, with a fresh [`ScanState`], step counter, forked observer,
    /// budget hook and copy of `empty` per worker. Telemetry is joined
    /// into `counter` and `observer` in chunk order.
    // lint: panic-exempt(the join expect re-raises a worker's own panic on the caller's thread and adds none)
    fn scan_chunks<O, B, MB>(
        &self,
        database: &[Vec<f64>],
        empty: Hits,
        threads: usize,
        counter: &mut StepCounter,
        observer: &mut O,
        make_budget: MB,
    ) -> (Vec<Neighbor>, ParallelReport)
    where
        O: ForkJoinObserver,
        B: BudgetHook,
        MB: Fn() -> B + Sync,
    {
        let chunks = chunk_ranges(database.len(), resolve_threads(threads));
        let shared = empty.tightens().then(|| SharedRadius::new(f64::INFINITY));
        let shared = shared.as_ref();
        let make_budget = &make_budget;
        let outputs: Vec<(Hits, StepCounter, O)> = thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|range| {
                    let items = database.get(range.clone()).unwrap_or_default();
                    let first = range.start;
                    let mut hits = empty.clone();
                    let mut child = observer.fork();
                    scope.spawn(move || {
                        let mut steps = StepCounter::new();
                        let mut budget = make_budget();
                        ScanState::new(self).run(
                            items,
                            first,
                            &mut hits,
                            &mut steps,
                            &mut child,
                            &mut budget,
                            None,
                            shared,
                        );
                        (hits, steps, child)
                    })
                })
                .collect();
            // Join in spawn (= chunk) order: observer joins and counter
            // merges become deterministic. A worker can only panic if
            // the search itself panicked; re-raising on the caller's
            // thread is the correct propagation, not a new panic site.
            handles
                .into_iter()
                // rotind-lint: allow(no-panic)
                .map(|h| h.join().expect("parallel scan worker panicked"))
                .collect()
        });
        let report = ParallelReport {
            threads: chunks.len(),
            chunk_lens: chunks.iter().map(ExactSizeIterator::len).collect(),
            per_thread_steps: outputs.iter().map(|(_, steps, _)| steps.steps()).collect(),
        };
        let mut parts = Vec::with_capacity(outputs.len());
        for (hits, steps, child) in outputs {
            counter.merge(steps);
            observer.join(child);
            parts.push(hits);
        }
        (Hits::merge_chunks(parts), report)
    }
}

/// Resolve a caller-supplied thread count: `0` means "auto".
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Invariance;
    use rotind_obs::{NoBudget, NoopObserver, QueryTrace};
    use rotind_ts::rotate::rotated;

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.29 + phase).sin() + 0.5 * (i as f64 * 0.91 + phase).cos())
            .collect()
    }

    fn database(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m).map(|k| signal(n, 1.0 + k as f64 * 0.37)).collect()
    }

    /// `search_parallel` with a step counter and an observer,
    /// unbudgeted.
    fn parallel<O: ForkJoinObserver>(
        engine: &RotationQuery,
        db: &[Vec<f64>],
        kind: QueryKind,
        threads: usize,
        counter: &mut StepCounter,
        observer: &mut O,
    ) -> Result<(Vec<Neighbor>, ParallelReport), SearchError> {
        let (outcome, report) =
            engine.search_parallel(db, kind, threads, counter, observer, None)?;
        Ok((outcome.into_inner(), report))
    }

    fn hits(
        engine: &RotationQuery,
        db: &[Vec<f64>],
        kind: QueryKind,
        threads: usize,
    ) -> Result<Vec<Neighbor>, SearchError> {
        let counter = &mut StepCounter::new();
        parallel(engine, db, kind, threads, counter, &mut NoopObserver).map(|(h, _)| h)
    }

    #[test]
    fn chunks_are_balanced_contiguous_and_cover() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for threads in [1usize, 2, 3, 4, 8, 200] {
                let chunks = chunk_ranges(len, threads);
                assert!(!chunks.is_empty());
                assert!(chunks.len() <= threads);
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next, "contiguous");
                    next = c.end;
                    if len > 0 {
                        assert!(!c.is_empty(), "no empty chunks when items exist");
                    }
                }
                assert_eq!(next, len, "chunks cover the database");
                let sizes: Vec<usize> = chunks.iter().map(ExactSizeIterator::len).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn nearest_parallel_matches_sequential_exactly() {
        let n = 32;
        let query = signal(n, 0.11);
        let mut db = database(37, n);
        db[20] = rotated(&query, 9);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        let sequential_knn = engine.k_nearest(&db, 4).unwrap();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = hits(&engine, &db, QueryKind::Nearest, threads).unwrap();
            assert_eq!(got, vec![sequential], "threads = {threads}");
            let got = hits(&engine, &db, QueryKind::KNearest(4), threads).unwrap();
            assert_eq!(got, sequential_knn, "k-NN, threads = {threads}");
        }
        // threads = 0 resolves to an automatic count and must also agree.
        let auto = hits(&engine, &db, QueryKind::Nearest, 0).unwrap();
        assert_eq!(auto, vec![sequential]);
    }

    #[test]
    fn range_parallel_matches_sequential_exactly() {
        let n = 24;
        let query = signal(n, 0.0);
        let db = database(31, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let radius = engine.nearest(&db).unwrap().distance * 2.0;
        let sequential = engine.range(&db, radius).unwrap();
        assert!(!sequential.is_empty());
        for threads in [1, 2, 4, 7] {
            let got = hits(&engine, &db, QueryKind::Range(radius), threads).unwrap();
            assert_eq!(got, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn boundary_item_survives_parallel_range() {
        // Item at exactly the radius (exact-integer construction, see
        // the engine tests) must be returned by every thread count.
        let n = 16;
        let query: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut boundary = query.clone();
        boundary[5] += 3.0;
        let mut db = database(9, n);
        db[4] = boundary;
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        for threads in [1, 2, 3, 9] {
            let got = hits(&engine, &db, QueryKind::Range(3.0), threads).unwrap();
            assert!(
                got.iter().any(|h| h.index == 4 && h.distance == 3.0),
                "threads = {threads}: {got:?}"
            );
        }
    }

    #[test]
    fn tie_break_prefers_lowest_index_across_chunks() {
        // Two bit-identical planted items in different chunks: every
        // thread count must return the lower index first, like the
        // sequential scan — for nearest, and for k-NN, whose list holds
        // the exact tie that the chunk merge must order by index.
        let n = 24;
        let query = signal(n, 0.5);
        let mut db = database(16, n);
        let planted = rotated(&query, 5);
        db[3] = planted.clone();
        db[12] = planted;
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        assert_eq!(sequential.index, 3);
        for threads in [1, 2, 4, 16] {
            let got = hits(&engine, &db, QueryKind::Nearest, threads).unwrap();
            assert_eq!(got, vec![sequential], "threads = {threads}");
        }
        for k in [2, 5, 16, 40] {
            let sequential = engine.k_nearest(&db, k).unwrap();
            assert_eq!(sequential.len(), k.min(db.len()));
            assert_eq!((sequential[0].index, sequential[1].index), (3, 12));
            for threads in [1, 2, 4, 7] {
                let got = hits(&engine, &db, QueryKind::KNearest(k), threads).unwrap();
                assert_eq!(got, sequential, "k = {k}, threads = {threads}");
                let bits =
                    |h: &[Neighbor]| h.iter().map(|n| n.distance.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&sequential));
            }
        }
    }

    #[test]
    fn report_steps_sum_to_merged_counter() {
        let n = 24;
        let query = signal(n, 0.2);
        let db = database(23, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        for (threads, kind) in [1, 3, 5]
            .into_iter()
            .flat_map(|t| [(t, QueryKind::Nearest), (t, QueryKind::KNearest(3))])
        {
            let mut counter = StepCounter::new();
            let mut trace = QueryTrace::new(n);
            let (got, report) =
                parallel(&engine, &db, kind, threads, &mut counter, &mut trace).unwrap();
            let sequential = engine
                .search(
                    &db,
                    kind,
                    &mut StepCounter::new(),
                    &mut NoopObserver,
                    &mut NoBudget,
                    None,
                )
                .unwrap()
                .into_inner();
            assert_eq!(got, sequential, "{kind:?}");
            assert_eq!(report.threads, threads);
            assert_eq!(report.per_thread_steps.len(), threads);
            assert_eq!(report.chunk_lens.iter().sum::<usize>(), db.len());
            let sum: u64 = report.per_thread_steps.iter().sum();
            assert_eq!(counter.steps(), sum, "threads = {threads}");
            assert!(counter.steps() > 0);
            assert!(trace.leaf_distances() > 0, "joined trace saw leaves");
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let n = 16;
        let query = signal(n, 0.1);
        let db = database(3, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let counter = &mut StepCounter::new();
        let (got, report) = parallel(
            &engine,
            &db,
            QueryKind::Nearest,
            100,
            counter,
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(got, vec![engine.nearest(&db).unwrap()]);
        assert_eq!(report.threads, 3, "clamped to database size");
    }

    #[test]
    fn parallel_error_paths_match_sequential() {
        let engine = RotationQuery::new(&signal(16, 0.0), Invariance::Rotation).unwrap();
        assert_eq!(
            hits(&engine, &[], QueryKind::Nearest, 4).unwrap_err(),
            SearchError::EmptyDatabase
        );
        let bad = vec![vec![0.0; 8]];
        assert!(matches!(
            hits(&engine, &bad, QueryKind::Nearest, 4).unwrap_err(),
            SearchError::LengthMismatch { .. }
        ));
        let mut nan = database(3, 16);
        nan[2][9] = f64::NAN;
        assert_eq!(
            hits(&engine, &nan, QueryKind::KNearest(2), 4).unwrap_err(),
            SearchError::NonFinite {
                index: 2,
                position: 9
            }
        );
        assert!(hits(&engine, &database(3, 16), QueryKind::KNearest(0), 4).is_err());
        assert!(hits(&engine, &database(3, 16), QueryKind::Range(-1.0), 4).is_err());
        assert!(hits(&engine, &database(3, 16), QueryKind::Range(f64::NAN), 4).is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
