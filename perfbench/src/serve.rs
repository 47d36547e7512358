//! The `serve-ed-nearest` workload: queries over loopback to an
//! in-process `rotind-serve` server. The untraced run is a closed loop
//! on two connections, which keeps both workers busy; the traced run is
//! an open loop at the pinned rate.
//!
//! End-to-end latency comes from the closed loop because an open loop on
//! a shared host idles its vCPUs between requests, and waking them adds
//! the host's scheduling delay, which varies from run to run with the
//! neighbours' load: at 25 req/s the open-loop p95 swung between 33 and
//! 58 ms over runs of the same code, tracking the generator's own send
//! lag (p95 0.2 to 2 ms), while the closed-loop p95 in the same minutes
//! stayed within 32 to 37 ms.

use crate::check::Answer;
use crate::report::{mean, quantile, ratio, window_count, windowed, Tally, Values};
use crate::snapshot;
use crate::spans::{ms, SpanLog};
use crate::workload::Workload;
use crate::{Args, Outcome, SETUP_GROUPS, SETUP_REPEATS};
use rotind_index::{IndexSnapshot, QuerySpec};
use rotind_obs::MetricsRegistry;
use rotind_serve::wire::{self, Request, Response};
use rotind_serve::{QueryRequest, QueryStatus, ServeConfig, Server};
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Client connections; each sends one request at a time.
const CONNECTIONS: usize = 2;

/// Server worker threads.
const WORKERS: usize = 2;

/// Warm-up queries per set-up, sent one at a time on one connection: a
/// worker leaves the queue to the others while it runs a query, so each
/// worker serves one (and fills its PAA cache) before timing starts, and
/// no two warm-up queries contend for the host's cores.
const WARM_PER_SETUP: usize = WORKERS;

/// Codec calls are timed this many times each and averaged.
const CODEC_REPS: u32 = 16;

/// The measured server's configuration, passed explicitly so that the
/// environment cannot change it.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_depth: 64,
        batch: 8,
        clock: None,
    }
}

/// One request's timestamps and reply.
struct Sample {
    query: usize,
    /// When the request was scheduled to be sent (open loop) or was sent
    /// (closed loop).
    due: Instant,
    sent: Instant,
    encoded: Instant,
    exchanged: Instant,
    done: Instant,
    response: Response,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms(self.due, self.done)
    }
}

fn request(spec: &QuerySpec) -> Request {
    Request::Query(QueryRequest {
        spec: spec.clone(),
        max_steps: None,
        deadline: None,
    })
}

/// One client connection sending `arrivals` — `(query, due)` pairs —
/// one at a time, with the codec and the exchange timed apart.
fn lane(
    addr: SocketAddr,
    queries: &[QuerySpec],
    arrivals: impl Iterator<Item = (usize, Option<Instant>)>,
) -> std::io::Result<Vec<Sample>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut out = Vec::new();
    for (query, due) in arrivals {
        if let Some(due) = due {
            thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let request = request(&queries[query]);
        let sent = Instant::now();
        let frame = wire::encode_request(&request);
        let encoded = Instant::now();
        wire::write_frame(&mut stream, &frame)?;
        let payload = wire::read_frame(&mut stream)?;
        let exchanged = Instant::now();
        let response = wire::decode_response(&payload)?;
        let done = Instant::now();
        out.push(Sample {
            query,
            due: due.unwrap_or(sent),
            sent,
            encoded,
            exchanged,
            done,
            response,
        });
    }
    Ok(out)
}

/// Run `CONNECTIONS` lanes, lane `l` taking the arrivals `make(l)` gives,
/// and merge their samples in query order.
fn run_lanes<I>(
    addr: SocketAddr,
    queries: &[QuerySpec],
    make: impl Fn(usize) -> I + Sync,
) -> Result<Vec<Sample>, String>
where
    I: Iterator<Item = (usize, Option<Instant>)>,
{
    let mut samples = thread::scope(|s| {
        let lanes: Vec<_> = (0..CONNECTIONS)
            .map(|l| {
                let make = &make;
                s.spawn(move || lane(addr, queries, make(l)))
            })
            .collect();
        lanes
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client lane panicked")
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?
    .into_iter()
    .flatten()
    .collect::<Vec<_>>();
    samples.sort_by_key(|s| s.query);
    Ok(samples)
}

/// Open loop: arrival `k` is due `k / rate` seconds after start, and
/// lane `l` sends the arrivals `k ≡ l (mod CONNECTIONS)`.
fn open_loop(addr: SocketAddr, queries: &[QuerySpec], rate: f64) -> Result<Vec<Sample>, String> {
    // Leave the lanes time to connect before the first arrival.
    let start = Instant::now() + Duration::from_millis(20);
    run_lanes(addr, queries, |l| {
        (l..queries.len())
            .step_by(CONNECTIONS)
            .map(move |k| (k, Some(start + Duration::from_secs_f64(k as f64 / rate))))
    })
}

/// Closed loop: each lane sends the next unsent query as soon as its
/// previous reply arrives, until `seconds` pass or the pool is used up.
/// Returns the samples and, for each window that tiles the loop, the
/// answered replies per second that completed in it.
fn closed_loop(
    addr: SocketAddr,
    queries: &[QuerySpec],
    seconds: f64,
) -> Result<(Vec<Sample>, Vec<f64>), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let samples = run_lanes(addr, queries, |_| {
        let next = &next;
        std::iter::from_fn(move || {
            if Instant::now() >= stop {
                return None;
            }
            let k = next.fetch_add(1, Ordering::Relaxed);
            (k < queries.len()).then_some((k, None))
        })
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let windows = window_count(elapsed);
    let len = elapsed / windows as f64;
    let mut rates = vec![0.0; windows];
    for s in samples.iter().filter(|s| outcome(&s.response).is_some()) {
        let i = (ms(start, s.done) / 1e3 / len) as usize;
        rates[i.min(windows - 1)] += 1.0 / len;
    }
    Ok((samples, rates))
}

fn outcome(response: &Response) -> Outcome {
    match response {
        Response::Query(r) if r.status == QueryStatus::Complete => Some(
            r.hits
                .iter()
                .map(|h| (h.index as usize, h.distance))
                .collect::<Answer>(),
        ),
        _ => None,
    }
}

/// Snapshot validation, server start and the warm-up queries; returns
/// the running server and the time taken.
fn setup(db: &[Vec<f64>], warm: &[QuerySpec]) -> Result<(Server, f64), String> {
    let db = db.to_vec();
    let start = Instant::now();
    let snapshot = IndexSnapshot::new(db).map_err(|e| e.to_string())?;
    let server = Server::start(snapshot, config()).map_err(|e| e.to_string())?;
    let replies =
        lane(server.addr(), warm, (0..warm.len()).map(|k| (k, None))).map_err(|e| e.to_string())?;
    if replies.iter().any(|s| outcome(&s.response).is_none()) {
        return Err("a warm-up query was not answered".into());
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Set up once per `WARM_PER_SETUP` warm-up queries; keeps the last
/// server running and returns the set-up times.
fn repeated_setup(db: &[Vec<f64>], warm: &[QuerySpec]) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last: Option<Server> = None;
    for chunk in warm.chunks(WARM_PER_SETUP) {
        if let Some(mut server) = last.take() {
            server.shutdown();
        }
        let (server, secs) = setup(db, chunk)?;
        times.push(secs);
        last = Some(server);
    }
    let server = last.ok_or("no set-up ran")?;
    Ok((server, times))
}

/// A group of set-ups beside the measured server; returns their times.
fn setup_group(db: &[Vec<f64>], warm: &[QuerySpec]) -> Result<Vec<f64>, String> {
    let (mut server, times) = repeated_setup(db, warm)?;
    server.shutdown();
    Ok(times)
}

fn open_count(args: &Args, seconds: f64) -> usize {
    (args.serve_rate * seconds).floor().max(1.0) as usize
}

/// The untraced run: a closed loop in two halves, with set-up groups
/// before, between and after them.
pub fn measure(w: &Workload, args: &Args) -> Result<(Tally, Values), String> {
    let half = args.seconds / 2.0;
    let half_n = (w.pool_rate * half).ceil() as usize;
    let warm_n = SETUP_REPEATS * WARM_PER_SETUP;
    let data = w.generate(args.seed, warm_n + 2 * half_n);
    let specs: Vec<QuerySpec> = data.queries.iter().map(|s| w.spec(&data.db, s)).collect();
    let (warm, rest) = specs.split_at(warm_n);
    let (first_q, second_q) = rest.split_at(half_n);

    let mut groups = warm.chunks(SETUP_REPEATS / SETUP_GROUPS * WARM_PER_SETUP);
    let mut next_group = || groups.next().ok_or("no warm-up queries left");
    let (mut server, mut setup_times) = repeated_setup(&data.db, next_group()?)?;
    let (first, mut rates) = closed_loop(server.addr(), first_q, half)?;
    setup_times.extend(setup_group(&data.db, next_group()?)?);
    let (second, second_rates) = closed_loop(server.addr(), second_q, half)?;
    server.shutdown();
    setup_times.extend(setup_group(&data.db, next_group()?)?);
    rates.extend(second_rates);
    println!(
        "closed loop: {} + {} requests on {CONNECTIONS} connections",
        first.len(),
        second.len()
    );

    let specs: Vec<QuerySpec> = (first.iter().map(|s| &first_q[s.query]))
        .chain(second.iter().map(|s| &second_q[s.query]))
        .cloned()
        .collect();
    let samples: Vec<&Sample> = first.iter().chain(&second).collect();
    let outcomes: Vec<Outcome> = samples.iter().map(|s| outcome(&s.response)).collect();
    let tally = crate::tally(&data.db, &specs, &outcomes, args.seed);
    // Samples are in send order, so windows of them are windows of time.
    let latency: Vec<f64> = samples.iter().map(|s| s.latency_ms()).collect();
    let windows = rates.len();
    let mut values = Values::new();
    values.insert(
        "latency_p50_ms",
        windowed(&latency, windows, |w| quantile(w, 0.5)),
    );
    values.insert(
        "latency_p95_ms",
        windowed(&latency, windows, |w| quantile(w, 0.95)),
    );
    let answered = outcomes.iter().flatten().count() as u64;
    values.insert(
        "throughput_qps",
        quantile(&rates, 0.5)
            * ratio(
                (answered - tally.wrong.min(answered)) as f64,
                answered as f64,
            ),
    );
    values.insert("setup_s", quantile(&setup_times, 0.5));
    Ok((tally, values))
}

/// Mean queue wait and service time (ms) and overloaded replies over
/// one phase, from the server's own histograms and counters.
fn server_delta(before: &MetricsRegistry, after: &MetricsRegistry) -> (f64, f64, u64) {
    let mean_ms = |name: &str| {
        let totals = |r: &MetricsRegistry| {
            r.log_histogram_get(name)
                .map_or((0.0, 0.0), |h| (h.sum() as f64, h.count() as f64))
        };
        let ((sum_b, n_b), (sum_a, n_a)) = (totals(before), totals(after));
        ratio(sum_a - sum_b, n_a - n_b) / 1e6
    };
    let overloaded = |r: &MetricsRegistry| r.counter("rotind_serve_overload_total");
    (
        mean_ms("rotind_serve_queue_wait_ns"),
        mean_ms("rotind_serve_latency_ns"),
        overloaded(after) - overloaded(before),
    )
}

/// Mean µs per call of `f`, over `CODEC_REPS` calls per item.
fn codec_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        for _ in 0..CODEC_REPS {
            f(item);
        }
    }
    ratio(
        start.elapsed().as_secs_f64() * 1e6,
        (items.len() as u32 * CODEC_REPS) as f64,
    )
}

/// The traced run: one open loop for half the time with spans built from
/// each request's timestamps (the client records the same timestamps
/// untraced, so spans cost the requests nothing), the codec timed on
/// those requests and replies, and an in-process replay of the queries
/// for the build/scan split.
pub fn traced(w: &Workload, args: &Args) -> Result<(Tally, Values, bool), String> {
    let open_n = open_count(args, args.seconds / 2.0);
    let warm_n = SETUP_REPEATS * WARM_PER_SETUP;
    let data = w.generate(args.seed, warm_n + open_n);
    let specs: Vec<QuerySpec> = data.queries.iter().map(|s| w.spec(&data.db, s)).collect();
    let (warm, open_q) = specs.split_at(warm_n);

    let (mut server, _) = repeated_setup(&data.db, warm)?;
    let before = server.metrics();
    let samples = open_loop(server.addr(), open_q, args.serve_rate)?;
    let after = server.metrics();
    server.shutdown();

    let mut log = SpanLog::new();
    for s in &samples {
        let root = log.push(s.query, "request", None, s.due, s.done);
        log.push(s.query, "loadgen.lag", Some(root), s.due, s.sent);
        log.push(
            s.query,
            "wire.encode_request",
            Some(root),
            s.sent,
            s.encoded,
        );
        log.push(s.query, "exchange", Some(root), s.encoded, s.exchanged);
        log.push(
            s.query,
            "wire.decode_response",
            Some(root),
            s.exchanged,
            s.done,
        );
    }
    let served: Vec<Outcome> = samples.iter().map(|s| outcome(&s.response)).collect();
    let mut tally = crate::tally(&data.db, open_q, &served, args.seed);

    let mut values = Values::new();
    // Codec cost on this run's own requests and replies.
    let requests: Vec<Vec<u8>> = open_q
        .iter()
        .map(|q| wire::encode_request(&request(q)))
        .collect();
    let responses: Vec<&Response> = samples.iter().map(|s| &s.response).collect();
    let bytes =
        |frames: Vec<usize>| mean(&frames.into_iter().map(|n| n as f64).collect::<Vec<_>>());
    values.insert(
        "wire.request_bytes",
        bytes(requests.iter().map(Vec::len).collect()),
    );
    values.insert(
        "wire.response_bytes",
        bytes(
            responses
                .iter()
                .map(|r| wire::encode_response(r).len())
                .collect(),
        ),
    );
    values.insert(
        "wire.decode_request_us",
        codec_us(&requests, |r| {
            black_box(wire::decode_request(black_box(r)).is_ok());
        }),
    );
    values.insert(
        "wire.encode_response_us",
        codec_us(&responses, |r| {
            black_box(wire::encode_response(black_box(r)));
        }),
    );

    // The server's split of each exchange: queue wait and service from
    // its histograms; the rest is overhead.
    let (queue_ms, service_ms, overloaded) = server_delta(&before, &after);
    let exchange: Vec<f64> = samples.iter().map(|s| ms(s.encoded, s.exchanged)).collect();
    let requests_n = samples.len() as f64;
    values.insert("server.queue_wait_ms", queue_ms);
    values.insert("server.service_ms", service_ms);
    values.insert(
        "server.overhead_ms",
        mean(&exchange) - queue_ms - service_ms,
    );
    values.insert("server.overloaded", ratio(overloaded as f64, requests_n));

    // Load generator validity: how late the schedule ran.
    let lane_period_ms = 1e3 * CONNECTIONS as f64 / args.serve_rate;
    let lag: Vec<f64> = samples.iter().map(|s| ms(s.due, s.sent)).collect();
    let late = lag.iter().filter(|&&l| l > lane_period_ms).count();
    values.insert("loadgen.late_share", ratio(late as f64, requests_n));
    values.insert("loadgen.send_lag_ms_p95", quantile(&lag, 0.95));

    // In-process replay of the same queries for the build/scan split;
    // serving must not change the answers.
    let (snapshot, warm_cache, _) = snapshot::setup(&data.db, &warm[0])?;
    let open_series = &data.queries[warm_n..];
    let (run, split) = snapshot::replay(
        w,
        &snapshot,
        &warm_cache,
        open_series,
        f64::INFINITY,
        &mut values,
    )?;
    tally.wrong += snapshot::disagreements(&served, &run.outcomes);
    let reconciled = snapshot::finish_trace(w, args, log, &run, split, &mut tally, &mut values)?;
    Ok((tally, values, reconciled))
}
