//! The named workloads and the seeded inputs they run on.

use crate::check;
use rotind_distance::Measure;
use rotind_index::{Invariance, QueryKind, QuerySpec};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["serve-ed-nearest", "snapshot-mirror-range"];

/// Seed of every workload's database: the projectile-points database of
/// the repository's `serve_load` reference workload. Runs vary only their
/// queries, so that run-to-run spread measures the program, not how hard
/// one random database happens to be.
const DB_SEED: u64 = 1906;

/// A range query's radius is its query's distance to this oracle
/// neighbour, so each range query returns about this many hits.
const RANGE_RANK: usize = 10;

/// Which program path a workload's queries go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Over loopback through an in-process `rotind-serve` server.
    Served,
    /// One caller thread on `IndexSnapshot::execute` with a worker-style
    /// `BatchPaaCache`.
    Snapshot,
}

/// The answer a workload asks for.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Nearest,
    /// `QueryKind::Range`, radius taken from the oracle neighbour of this
    /// rank.
    RangeAtRank(usize),
}

/// One workload: what is asked, over how much data, through which path.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub invariance: Invariance,
    pub measure: Measure,
    kind: Kind,
    /// Database size `m`.
    pub db_len: usize,
    /// Series length `n`.
    pub series_len: usize,
    /// Upper estimate of queries per second one closed-loop caller (or
    /// the served pool) completes; sizes the held-out query pool so that
    /// no query repeats within a run. A run that uses up its pool ends
    /// early and reports what it measured.
    pub pool_rate: f64,
}

impl Workload {
    /// The named workload; `quick` shrinks the data for the self-test.
    pub fn named(name: &str, quick: bool) -> Option<Workload> {
        let w = match name {
            "serve-ed-nearest" => Workload {
                name: NAMES[0],
                path: Path::Served,
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: Kind::Nearest,
                db_len: 2000,
                series_len: 251,
                pool_rate: 200.0,
            },
            "snapshot-mirror-range" => Workload {
                name: NAMES[1],
                path: Path::Snapshot,
                invariance: Invariance::RotationMirror,
                measure: Measure::Euclidean,
                kind: Kind::RangeAtRank(RANGE_RANK),
                db_len: 250,
                series_len: 251,
                pool_rate: 100.0,
            },
            _ => return None,
        };
        Some(if quick {
            Workload {
                db_len: 60,
                series_len: 48,
                ..w
            }
        } else {
            w
        })
    }

    /// The database is the first `db_len` `projectile_points` items of
    /// the fixed `DB_SEED`; the query series are the `queries` items that
    /// follow the first `db_len` items of the run's `seed`, so they are
    /// held out from the database whatever the seed.
    pub fn generate(&self, seed: u64, queries: usize) -> Data {
        let points = |count, seed| {
            rotind_shape::dataset::projectile_points(count, self.series_len, seed).items
        };
        Data {
            db: points(self.db_len, DB_SEED),
            queries: points(self.db_len + queries, seed).split_off(self.db_len),
        }
    }

    /// The query this workload asks with `series`. A range radius comes
    /// from the oracle, so callers resolve specs before timing starts.
    pub fn spec(&self, db: &[Vec<f64>], series: &[f64]) -> QuerySpec {
        let kind = match self.kind {
            Kind::Nearest => QueryKind::Nearest,
            Kind::RangeAtRank(rank) => {
                let nearest = check::oracle_knn(db, series, self.invariance, self.measure, rank);
                QueryKind::Range(nearest.last().map_or(0.0, |&(_, d)| d))
            }
        };
        QuerySpec {
            series: series.to_vec(),
            invariance: self.invariance,
            measure: self.measure,
            kind,
        }
    }
}

/// A workload's database and its held-out query series.
pub struct Data {
    pub db: Vec<Vec<f64>>,
    pub queries: Vec<Vec<f64>>,
}
