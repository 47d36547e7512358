//! `rotind-perfbench`: the end-to-end and per-layer benchmark of the
//! rotind query paths (see README.md for workloads and metrics).
//!
//! ```text
//! rotind-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  --serve-rate <req/s> [--quick]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The exit code is 0 only when every answer checked is
//! correct; a usage or set-up error exits 2 without a result line.

mod check;
mod report;
mod serve;
mod snapshot;
mod spans;
mod workload;

use check::Answer;
use report::{Tally, Values};
use rotind_index::{CascadeConfig, QuerySpec};
use spans::SpanLog;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Path, Workload};

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// The set-ups are made in this many equal groups, before, between and
/// after the timed phases, so that a slow second of the host moves one
/// group, not the median.
pub const SETUP_GROUPS: usize = 3;

/// How many of a run's answers are compared with the brute-force oracle.
const ORACLE_SAMPLE: usize = 12;

/// A query's answer, or `None` when it was refused, failed or ran out of
/// budget.
pub type Outcome = Option<Answer>;

/// Parsed command line.
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    /// Offered rate of the served workload's open loop, in requests per
    /// second.
    pub serve_rate: f64,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut rate) = (None, None, None, None, None);
    let mut quick = false;
    while let Some(flag) = raw.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(e.to_string()))?),
            "--serve-rate" => rate = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        serve_rate: rate.ok_or("--serve-rate is required")?,
        quick,
    };
    if !(args.seconds > 0.0 && args.serve_rate > 0.0) {
        return Err("--seconds and --serve-rate must be positive".into());
    }
    Ok(args)
}

/// The program reads `ROTIND_*` variables (the cascade choice on every
/// query, server sizing), so an inherited one would silently measure a
/// different program.
fn refuse_rotind_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ROTIND_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} before benchmarking", set.join(", ")))
    }
}

/// Count a run's outcomes: refused or failed replies, answers of the
/// wrong size, and a seeded sample compared with the oracle.
pub fn tally(db: &[Vec<f64>], specs: &[QuerySpec], outcomes: &[Outcome], seed: u64) -> Tally {
    let mut t = Tally {
        attempted: outcomes.len() as u64,
        ..Tally::default()
    };
    let mut answered = Vec::new();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        match outcome {
            None => t.unanswered += 1,
            Some(a) if check::expected_len(spec, db.len()).is_some_and(|n| n != a.len()) => {
                t.wrong += 1
            }
            Some(a) => answered.push((spec, a)),
        }
    }
    let (checked, wrong) = check::sample(db, &answered, ORACLE_SAMPLE, seed);
    t.checked = checked;
    t.wrong += wrong;
    t
}

/// Per-layer values of the serve-only layers, which `snapshot-mirror-range`
/// does not pass through.
pub fn off_path_values() -> Values {
    [
        "wire.request_bytes",
        "wire.response_bytes",
        "wire.decode_request_us",
        "wire.encode_response_us",
        "server.queue_wait_ms",
        "server.service_ms",
        "server.overhead_ms",
        "server.overloaded",
        "loadgen.late_share",
        "loadgen.send_lag_ms_p95",
    ]
    .into_iter()
    .map(|name| (name, 0.0))
    .collect()
}

/// Write a traced run's spans under the benchmark's `runs/` directory.
pub fn write_spans(w: &Workload, args: &Args, log: &SpanLog) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("runs")
        .join(format!("{}-seed{}.spans.jsonl", w.name, args.seed));
    log.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(())
}

fn run() -> Result<(String, bool), String> {
    let args = parse_args()?;
    refuse_rotind_env()?;
    let w = Workload::named(&args.workload, args.quick).ok_or_else(|| {
        format!(
            "unknown workload {}; expected one of {}",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    // With no ROTIND_CASCADE set, every engine scans with this cascade.
    let cascade = CascadeConfig::from_env();
    if cascade != CascadeConfig::all() {
        return Err("cascade configuration is not the default".into());
    }
    let c = serve::config();
    println!(
        "workload {} (m = {}, n = {}, {:?}, {:?}) seed {} for {} s, trace {}",
        w.name,
        w.db_len,
        w.series_len,
        w.invariance,
        w.measure,
        args.seed,
        args.seconds,
        args.trace
    );
    println!(
        "serve: {} workers, queue {}, batch {}, {} req/s open loop; cascade: {cascade:?}",
        c.workers, c.queue_depth, c.batch, args.serve_rate
    );

    let (tally, values, checks_pass, metrics) = if args.trace {
        let (tally, values, reconciled) = match w.path {
            Path::Served => serve::traced(&w, &args)?,
            Path::Snapshot => snapshot::traced(&w, &args)?,
        };
        if !reconciled {
            eprintln!("layer self times leave more than the tolerated share of end-to-end time");
        }
        (tally, values, reconciled, &report::PER_LAYER[..])
    } else {
        let (tally, mut values) = match w.path {
            Path::Served => serve::measure(&w, &args)?,
            Path::Snapshot => snapshot::measure(&w, &args)?,
        };
        values.insert("peak_rss_mb", report::peak_rss_mb()?);
        (tally, values, true, &report::END_TO_END[..])
    };
    println!(
        "attempted {}, unanswered {}, wrong {}, checked against the oracle {}",
        tally.attempted, tally.unanswered, tally.wrong, tally.checked
    );
    let correct = checks_pass && tally.failed() == 0 && tally.checked > 0;
    let line = report::result_line(&tally, correct, &values, metrics)?;
    Ok((line, correct))
}

fn main() -> ExitCode {
    match run() {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rotind-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
