//! The `snapshot-mirror-range` workload: one caller thread in a closed loop over
//! `IndexSnapshot::execute`, through a worker-style `BatchPaaCache`.

use crate::check::{self, answer_of};
use crate::report::{mean, quantile, ratio, window_count, windowed, Tally, Values};
use crate::spans::{Decomposition, SpanLog, RESIDUAL_TOLERANCE};
use crate::workload::Workload;
use crate::{Args, Outcome, SETUP_GROUPS, SETUP_REPEATS};
use rotind_index::{BatchPaaCache, IndexSnapshot, QuerySpec};
use rotind_obs::{NoBudget, NoopObserver};
use rotind_ts::StepCounter;
use std::time::Instant;

/// Snapshot validation, cache creation and a first query, which fills
/// the cache as a serve worker's first query does.
pub fn setup(
    db: &[Vec<f64>],
    warm: &QuerySpec,
) -> Result<(IndexSnapshot, BatchPaaCache, f64), String> {
    let db = db.to_vec();
    let start = Instant::now();
    let snapshot = IndexSnapshot::new(db).map_err(|e| e.to_string())?;
    let mut cache = snapshot.paa_cache();
    execute(&snapshot, &mut cache, warm).ok_or("the warm-up query was not answered")?;
    Ok((snapshot, cache, start.elapsed().as_secs_f64()))
}

/// One query; `None` when it errs or runs out of budget.
fn execute(snapshot: &IndexSnapshot, cache: &mut BatchPaaCache, spec: &QuerySpec) -> Outcome {
    snapshot
        .execute(
            spec,
            &mut StepCounter::new(),
            &mut NoopObserver,
            &mut NoBudget,
            Some(cache),
        )
        .ok()
        .filter(|o| o.is_complete())
        .map(|o| answer_of(&o.into_inner()))
}

/// The queries one closed loop ran, their latencies (ms) and outcomes.
pub struct Run {
    pub specs: Vec<QuerySpec>,
    pub latency_ms: Vec<f64>,
    pub outcomes: Vec<Outcome>,
}

/// Run the pool's queries in order until `seconds` of query time have
/// been measured or the pool is used up. Each spec is resolved before
/// its timing starts, and `after` runs untimed after each query.
fn closed_loop(
    w: &Workload,
    snapshot: &IndexSnapshot,
    cache: &mut BatchPaaCache,
    pool: &[Vec<f64>],
    seconds: f64,
    mut after: impl FnMut(&QuerySpec) -> Result<(), String>,
) -> Result<Run, String> {
    let mut run = Run {
        specs: Vec::new(),
        latency_ms: Vec::new(),
        outcomes: Vec::new(),
    };
    let mut busy_ms = 0.0;
    for series in pool {
        if busy_ms >= seconds * 1e3 {
            break;
        }
        let spec = w.spec(snapshot.database(), series);
        let start = Instant::now();
        let outcome = execute(snapshot, cache, &spec);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        busy_ms += ms;
        after(&spec)?;
        run.specs.push(spec);
        run.latency_ms.push(ms);
        run.outcomes.push(outcome);
    }
    Ok(run)
}

/// Set up once per warm-up query; keeps the last snapshot and cache, and
/// returns the set-up times.
fn repeated_setup(
    w: &Workload,
    db: &[Vec<f64>],
    warm: &[Vec<f64>],
) -> Result<(IndexSnapshot, BatchPaaCache, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for series in warm {
        let (snapshot, cache, secs) = setup(db, &w.spec(db, series))?;
        times.push(secs);
        last = Some((snapshot, cache));
    }
    let (snapshot, cache) = last.ok_or("no set-up ran")?;
    Ok((snapshot, cache, times))
}

/// The untraced run: end-to-end metrics.
pub fn measure(w: &Workload, args: &Args) -> Result<(Tally, Values), String> {
    let pool = SETUP_REPEATS + (w.pool_rate * args.seconds).ceil() as usize;
    let data = w.generate(args.seed, pool);
    let (warm, pool) = data.queries.split_at(SETUP_REPEATS);
    // Set-ups in groups before, between and after the two halves of the
    // closed loop; the loop keeps the first group's snapshot and cache.
    let mut groups = warm.chunks(SETUP_REPEATS / SETUP_GROUPS);
    let mut next_group = || groups.next().ok_or("no warm-up queries left");
    let (snapshot, mut cache, mut setup_times) = repeated_setup(w, &data.db, next_group()?)?;
    let half = args.seconds / 2.0;
    let mut run = closed_loop(w, &snapshot, &mut cache, pool, half, |_| Ok(()))?;
    setup_times.extend(repeated_setup(w, &data.db, next_group()?)?.2);
    let rest = &pool[run.specs.len()..];
    let second = closed_loop(w, &snapshot, &mut cache, rest, half, |_| Ok(()))?;
    setup_times.extend(repeated_setup(w, &data.db, next_group()?)?.2);
    run.specs.extend(second.specs);
    run.latency_ms.extend(second.latency_ms);
    run.outcomes.extend(second.outcomes);
    let busy_s = run.latency_ms.iter().sum::<f64>() / 1e3;
    println!("timed queries: {} in {busy_s:.3} s", run.specs.len());

    let tally = crate::tally(&data.db, &run.specs, &run.outcomes, args.seed);
    let correct = run.outcomes.len() as u64 - tally.failed().min(run.outcomes.len() as u64);
    // Windows of consecutive queries, each about `WINDOW_S` of query time.
    let windows = window_count(busy_s);
    let latency = &run.latency_ms;
    let mut values = Values::new();
    values.insert(
        "latency_p50_ms",
        windowed(latency, windows, |w| quantile(w, 0.5)),
    );
    values.insert(
        "latency_p95_ms",
        windowed(latency, windows, |w| quantile(w, 0.95)),
    );
    let rate = windowed(latency, windows, |w| {
        ratio(w.len() as f64, w.iter().sum::<f64>() / 1e3)
    });
    values.insert(
        "throughput_qps",
        rate * ratio(correct as f64, run.outcomes.len() as f64),
    );
    values.insert("setup_s", quantile(&setup_times, 0.5));
    Ok((tally, values))
}

/// Run `pool` in-process after a worker-style warm-up for up to `seconds`
/// of untraced query time, splitting each query into build and scan
/// right after its untraced run.
pub fn replay(
    w: &Workload,
    snapshot: &IndexSnapshot,
    warm_cache: &BatchPaaCache,
    pool: &[Vec<f64>],
    seconds: f64,
    values: &mut Values,
) -> Result<(Run, Decomposition), String> {
    let mut cache = warm_cache.clone();
    let db = snapshot.database();
    let mut split = Decomposition::new(warm_cache, w.series_len);
    let run = closed_loop(w, snapshot, &mut cache, pool, seconds, |spec| {
        split.query(db, spec)
    })?;
    split.layer_values(values);
    let n = run.specs.len() as f64;
    let reused = (cache.reused() - warm_cache.reused()) as f64;
    values.insert("snapshot.execute_ms", mean(&run.latency_ms));
    values.insert(
        "cache.built",
        ratio((cache.built() - warm_cache.built()) as f64, n),
    );
    values.insert("cache.reused", ratio(reused, n));
    values.insert("cache.hit_rate", ratio(reused, n * w.db_len as f64));
    Ok((run, split))
}

/// The traced run: the closed loop for half the time, each query run
/// untraced and then through the traced build/scan split.
pub fn traced(w: &Workload, args: &Args) -> Result<(Tally, Values, bool), String> {
    let seconds = args.seconds / 2.0;
    let pool = SETUP_REPEATS + (w.pool_rate * seconds).ceil() as usize;
    let data = w.generate(args.seed, pool);
    let (warm, pool) = data.queries.split_at(SETUP_REPEATS);
    let (snapshot, warm_cache, _) = repeated_setup(w, &data.db, warm)?;
    let mut values = crate::off_path_values();
    let (run, split) = replay(w, &snapshot, &warm_cache, pool, seconds, &mut values)?;
    let mut tally = crate::tally(&data.db, &run.specs, &run.outcomes, args.seed);
    let reconciled = finish_trace(
        w,
        args,
        SpanLog::new(),
        &run,
        split,
        &mut tally,
        &mut values,
    )?;
    Ok((tally, values, reconciled))
}

/// Answers present in both lists that differ.
pub fn disagreements(a: &[Outcome], b: &[Outcome]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(a, b)| matches!((a, b), (Some(a), Some(b)) if !check::agrees(a, b)))
        .count() as u64
}

/// The end of every traced run: the split's answers must be the untraced
/// ones; trace overhead (traced split vs untraced `execute`, per query
/// back to back) and the residual of `log` with the split's spans added;
/// the spans are written out. Returns whether the layer spans reconcile
/// with the end-to-end spans.
pub fn finish_trace(
    w: &Workload,
    args: &Args,
    mut log: SpanLog,
    run: &Run,
    split: Decomposition,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<bool, String> {
    let split_answers: Vec<Outcome> = split.answers.iter().cloned().map(Some).collect();
    tally.wrong += disagreements(&run.outcomes, &split_answers);
    let traced_p50 = quantile(&split.query_ms, 0.5);
    let overhead = ratio(traced_p50, quantile(&run.latency_ms, 0.5)) - 1.0;
    values.insert("trace.overhead_share", overhead);
    log.append(split.log);
    let residual = log.residual_share();
    values.insert("trace.residual_share", residual);
    values.insert("failed_share", tally.failed_share());
    crate::write_spans(w, args, &log)?;
    Ok(residual <= RESIDUAL_TOLERANCE)
}
