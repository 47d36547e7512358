//! The traced run's span log and the in-process build/scan split.
//!
//! Spans are recorded in memory around calls into the program's public
//! functions and written out as JSON lines when the run ends. A span's
//! self time is its duration minus the part its child spans cover.

use crate::check::{answer_of, Answer};
use crate::report::{ratio, Values};
use rotind_cluster::rotation_shift::rotation_distance_matrix;
use rotind_cluster::{cluster, Linkage};
use rotind_envelope::WedgeTree;
use rotind_index::{
    BatchPaaCache, BoundCascade, CascadeConfig, Invariance, Neighbor, QueryKind, QuerySpec,
    RotationQuery, SearchError,
};
use rotind_obs::{BudgetOutcome, CascadeTier, NoBudget, NoopObserver, QueryTrace, SearchObserver};
use rotind_ts::{RotationMatrix, StepCounter};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The largest share of traced end-to-end time that the layer spans
/// may leave uncovered.
pub const RESIDUAL_TOLERANCE: f64 = 0.05;

struct Span {
    query: usize,
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Spans of one run, in memory until [`SpanLog::write_jsonl`].
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Milliseconds from `from` to `to` (0 if `to` is earlier).
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Move `other`'s spans into this log.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Record a span of query `query`; returns its id for children.
    pub fn push(
        &mut self,
        query: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            query,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Each span's self time in ms: its duration minus the union of its
    /// children's intervals, clipped to its own.
    fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| {
                let mut intervals: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(s, e)| s < e)
                    .collect();
                intervals.sort();
                let mut covered = 0.0;
                let mut reach = span.start;
                for (s, e) in intervals {
                    if e > reach {
                        covered += ms(s.max(reach), e);
                        reach = e;
                    }
                }
                ms(span.start, span.end) - covered
            })
            .collect()
    }

    /// Span durations summed per span name, in ms.
    fn duration_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.name).or_default() += ms(span.start, span.end);
        }
        out
    }

    /// Share of the root spans' (end-to-end) time that no layer span
    /// covers: the roots' summed self time over their summed duration.
    pub fn residual_share(&self) -> f64 {
        let self_ms = self.self_ms();
        let (mut residual, mut total) = (0.0, 0.0);
        for (span, s) in self.spans.iter().zip(self_ms) {
            if span.parent.is_none() {
                residual += s;
                total += ms(span.start, span.end);
            }
        }
        ratio(residual, total)
    }

    /// Write one JSON object per span: id, query, name, parent, and
    /// start/end in µs from the log's creation.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let origin = self.origin;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"query\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.query,
                s.name,
                ms(origin, s.start) * 1e3,
                ms(origin, s.end) * 1e3
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Run the scan `IndexSnapshot::execute` would run for `kind`, on an
/// engine built beforehand.
fn scan<O: SearchObserver>(
    engine: &RotationQuery,
    db: &[Vec<f64>],
    kind: QueryKind,
    counter: &mut StepCounter,
    observer: &mut O,
    cache: &mut BatchPaaCache,
) -> Result<BudgetOutcome<Vec<Neighbor>>, SearchError> {
    let budget = &mut NoBudget;
    match kind {
        QueryKind::Nearest => {
            engine.k_nearest_budgeted_cached(db, 1, counter, observer, budget, cache)
        }
        QueryKind::KNearest(k) => {
            engine.k_nearest_budgeted_cached(db, k, counter, observer, budget, cache)
        }
        QueryKind::Range(r) => {
            engine.range_budgeted_cached(db, r, counter, observer, budget, cache)
        }
    }
}

/// The in-process split of queries into build and scan.
pub struct Decomposition {
    pub log: SpanLog,
    /// Each query's traced end-to-end time (its root span), in ms.
    pub query_ms: Vec<f64>,
    /// Each query's answer from the traced scan.
    pub answers: Vec<Answer>,
    /// Tier counts from the separate untimed `QueryTrace` pass.
    pub trace: QueryTrace,
    pub steps: u64,
    timed_cache: BatchPaaCache,
    traced_cache: BatchPaaCache,
}

impl Decomposition {
    /// Start a split whose scans use worker-style caches cloned from
    /// `warm`: one for the timed scan, and one that follows the same
    /// query sequence for the untimed `QueryTrace` pass, so observer
    /// callbacks stay out of the timed scan while its step and tier
    /// counts are those of the same scan.
    pub fn new(warm: &BatchPaaCache, series_len: usize) -> Self {
        Decomposition {
            log: SpanLog::new(),
            query_ms: Vec::new(),
            answers: Vec::new(),
            trace: QueryTrace::new(series_len),
            steps: 0,
            timed_cache: warm.clone(),
            traced_cache: warm.clone(),
        }
    }

    /// Split one query. Its engine is built first (untimed); then under a
    /// root span `query` the build is repeated one public stage at a time
    /// (the stages `RotationQuery::with_measure` runs) and the engine
    /// scans.
    pub fn query(&mut self, db: &[Vec<f64>], spec: &QuerySpec) -> Result<(), String> {
        let engine = RotationQuery::with_measure(&spec.series, spec.invariance, spec.measure)
            .map_err(|e| e.to_string())?;
        let q = &spec.series;

        let root = Instant::now();
        let build = Instant::now();
        let t0 = Instant::now();
        let matrix = match spec.invariance {
            Invariance::RotationMirror => RotationMatrix::with_mirror(q),
            _ => RotationMatrix::full(q),
        }
        .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let distances = rotation_distance_matrix(&matrix);
        let t2 = Instant::now();
        let dendrogram = cluster(&distances, Linkage::Average);
        let t3 = Instant::now();
        let tree = WedgeTree::from_dendrogram(matrix, dendrogram, spec.measure.warping_band());
        let t4 = Instant::now();
        let bounds = BoundCascade::build(&tree, CascadeConfig::all());
        let t5 = Instant::now();
        let build_end = Instant::now();
        let scan_start = Instant::now();
        let mut counter = StepCounter::new();
        let cache = &mut self.timed_cache;
        let result = scan(
            &engine,
            db,
            spec.kind,
            &mut counter,
            &mut NoopObserver,
            cache,
        );
        let scan_end = Instant::now();
        let root_end = Instant::now();

        let neighbors = result.map_err(|e| e.to_string())?.into_inner();
        if tree.dendrogram().merges() != engine.tree().dendrogram().merges() {
            return Err("stage-by-stage build differs from RotationQuery::with_measure".into());
        }
        black_box((distances, bounds));

        let qid = self.query_ms.len();
        let log = &mut self.log;
        let r = log.push(qid, "query", None, root, root_end);
        let b = log.push(qid, "build", Some(r), build, build_end);
        log.push(qid, "build.rotation_matrix", Some(b), t0, t1);
        log.push(qid, "build.distance_matrix", Some(b), t1, t2);
        log.push(qid, "build.cluster", Some(b), t2, t3);
        log.push(qid, "build.wedges", Some(b), t3, t4);
        log.push(qid, "build.cascade", Some(b), t4, t5);
        log.push(qid, "scan", Some(r), scan_start, scan_end);
        self.query_ms.push(ms(root, root_end));
        self.answers.push(answer_of(&neighbors));

        let mut counter = StepCounter::new();
        let (trace, cache) = (&mut self.trace, &mut self.traced_cache);
        scan(&engine, db, spec.kind, &mut counter, trace, cache).map_err(|e| e.to_string())?;
        self.steps += counter.steps();
        Ok(())
    }

    /// The build, scan and tier metrics, per query.
    pub fn layer_values(&self, values: &mut Values) {
        let queries = self.query_ms.len() as f64;
        let totals = self.log.duration_ms();
        let per_query = |name: &str| ratio(totals.get(name).copied().unwrap_or(0.0), queries);
        for (metric, span) in [
            ("build.ms", "build"),
            ("build.rotation_matrix_ms", "build.rotation_matrix"),
            ("build.distance_matrix_ms", "build.distance_matrix"),
            ("build.cluster_ms", "build.cluster"),
            ("build.wedges_ms", "build.wedges"),
            ("build.cascade_ms", "build.cascade"),
            ("scan.ms", "scan"),
        ] {
            values.insert(metric, per_query(span));
        }
        let t = &self.trace;
        values.insert("scan.steps", ratio(self.steps as f64, queries));
        values.insert(
            "scan.wedges_tested",
            ratio(t.wedges_tested() as f64, queries),
        );
        values.insert(
            "scan.leaf_distances",
            ratio(t.leaf_distances() as f64, queries),
        );
        values.insert(
            "scan.early_abandons",
            ratio(t.early_abandons() as f64, queries),
        );
        for (tier, [tested, pruned, rate]) in CascadeTier::ALL.into_iter().zip([
            [
                "scan.tier.kim.tested",
                "scan.tier.kim.pruned",
                "scan.tier.kim.prune_rate",
            ],
            [
                "scan.tier.reduced.tested",
                "scan.tier.reduced.pruned",
                "scan.tier.reduced.prune_rate",
            ],
            [
                "scan.tier.keogh.tested",
                "scan.tier.keogh.pruned",
                "scan.tier.keogh.prune_rate",
            ],
            [
                "scan.tier.improved.tested",
                "scan.tier.improved.pruned",
                "scan.tier.improved.prune_rate",
            ],
        ]) {
            let (n_tested, n_pruned) = (t.tier_tested(tier) as f64, t.tier_pruned(tier) as f64);
            values.insert(tested, ratio(n_tested, queries));
            values.insert(pruned, ratio(n_pruned, queries));
            values.insert(rate, ratio(n_pruned, n_tested));
        }
    }
}
