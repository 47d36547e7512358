//! Metric names and units, exact-sample statistics, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run, each normalised per query,
/// with their units.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("failed_share", "share"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_response_us", "us"),
    ("server.queue_wait_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.overloaded", "share"),
    ("snapshot.execute_ms", "ms"),
    ("build.ms", "ms"),
    ("build.rotation_matrix_ms", "ms"),
    ("build.distance_matrix_ms", "ms"),
    ("build.cluster_ms", "ms"),
    ("build.wedges_ms", "ms"),
    ("build.cascade_ms", "ms"),
    ("scan.ms", "ms"),
    ("scan.steps", "count"),
    ("scan.wedges_tested", "count"),
    ("scan.leaf_distances", "count"),
    ("scan.early_abandons", "count"),
    ("scan.tier.kim.tested", "count"),
    ("scan.tier.kim.pruned", "count"),
    ("scan.tier.kim.prune_rate", "share"),
    ("scan.tier.reduced.tested", "count"),
    ("scan.tier.reduced.pruned", "count"),
    ("scan.tier.reduced.prune_rate", "share"),
    ("scan.tier.keogh.tested", "count"),
    ("scan.tier.keogh.pruned", "count"),
    ("scan.tier.keogh.prune_rate", "share"),
    ("scan.tier.improved.tested", "count"),
    ("scan.tier.improved.pruned", "count"),
    ("scan.tier.improved.prune_rate", "share"),
    ("cache.built", "count"),
    ("cache.reused", "count"),
    ("cache.hit_rate", "share"),
    ("loadgen.late_share", "share"),
    ("loadgen.send_lag_ms_p95", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.residual_share", "share"),
];

/// Metric values by name, filled in by a workload run.
pub type Values = BTreeMap<&'static str, f64>;

/// The `q`-quantile of exact samples (linear interpolation between the
/// two closest ranks); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Length in seconds of the windows that end-to-end quantiles and rates
/// are taken over.
pub const WINDOW_S: f64 = 3.0;

/// How many `WINDOW_S` windows fit in `seconds` (at least one).
pub fn window_count(seconds: f64) -> usize {
    ((seconds / WINDOW_S).floor() as usize).max(1)
}

/// The median, over `windows` consecutive windows of near-equal size, of
/// `stat` of each window of `samples` (in the order they were taken). A
/// burst of host noise moves the windows it falls in, not their median.
pub fn windowed(samples: &[f64], windows: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    let per: Vec<f64> = samples.chunks(size).map(stat).collect();
    quantile(&per, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts of one run's queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Queries issued in the timed phases.
    pub attempted: u64,
    /// Errors, overloaded and budget-exhausted replies.
    pub unanswered: u64,
    /// Answers of the wrong shape or that disagree with the oracle.
    pub wrong: u64,
    /// Answers compared with the oracle.
    pub checked: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.unanswered + self.wrong
    }

    pub fn failed_share(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }
}

/// The JSON object that ends the benchmark's standard output.
pub fn result_line(
    tally: &Tally,
    correct: bool,
    values: &Values,
    metrics: &[(&str, &str)],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let value = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted,
        tally.failed()
    ))
}

/// The process's peak resident set size in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
