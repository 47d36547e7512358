//! The brute-force oracle every answer is checked against.

use rotind_distance::rotation::test_all_rotations;
use rotind_distance::Measure;
use rotind_index::{Invariance, Neighbor, QueryKind, QuerySpec};
use rotind_ts::{RotationMatrix, StepCounter};

/// Distances must agree with the oracle's within this much.
const DISTANCE_TOLERANCE: f64 = 1e-9;

/// An answer as `(database index, distance)` pairs, in answer order.
pub type Answer = Vec<(usize, f64)>;

pub fn answer_of(neighbors: &[Neighbor]) -> Answer {
    neighbors.iter().map(|n| (n.index, n.distance)).collect()
}

fn rotations(query: &[f64], invariance: Invariance) -> RotationMatrix {
    match invariance {
        Invariance::RotationMirror => RotationMatrix::with_mirror(query),
        _ => RotationMatrix::full(query),
    }
    .expect("generated queries are non-empty and finite")
}

/// The exact `k` nearest items, ties to the lower index: Table 2's
/// `Test_All_Rotations` per item, threading the current `k`-th best
/// distance so that items that cannot enter are abandoned early.
pub fn oracle_knn(
    db: &[Vec<f64>],
    query: &[f64],
    invariance: Invariance,
    measure: Measure,
    k: usize,
) -> Answer {
    let matrix = rotations(query, invariance);
    let mut best: Answer = Vec::with_capacity(k + 1);
    for (index, item) in db.iter().enumerate() {
        let kth = if best.len() == k {
            best[k - 1].1
        } else {
            f64::INFINITY
        };
        let Some(hit) = test_all_rotations(item, &matrix, kth, measure, &mut StepCounter::new())
        else {
            continue;
        };
        // Admission is inclusive; an item tied with the k-th keeps out
        // because the incumbent has the lower index.
        if best.len() == k && hit.distance >= kth {
            continue;
        }
        let at = best.partition_point(|&(_, d)| d <= hit.distance);
        best.insert(at, (index, hit.distance));
        best.truncate(k);
    }
    best
}

/// Every item within `radius` (inclusive), in database order.
fn oracle_range(
    db: &[Vec<f64>],
    query: &[f64],
    invariance: Invariance,
    measure: Measure,
    radius: f64,
) -> Answer {
    let matrix = rotations(query, invariance);
    db.iter()
        .enumerate()
        .filter_map(|(index, item)| {
            test_all_rotations(item, &matrix, radius, measure, &mut StepCounter::new())
                .map(|hit| (index, hit.distance))
        })
        .collect()
}

/// The oracle's answer to `spec`.
pub fn expected(db: &[Vec<f64>], spec: &QuerySpec) -> Answer {
    let (series, inv, measure) = (&spec.series, spec.invariance, spec.measure);
    match spec.kind {
        QueryKind::Nearest => oracle_knn(db, series, inv, measure, 1),
        QueryKind::KNearest(k) => oracle_knn(db, series, inv, measure, k),
        QueryKind::Range(r) => oracle_range(db, series, inv, measure, r),
    }
}

/// Same indices in the same order, distances within tolerance.
pub fn agrees(got: &[(usize, f64)], want: &[(usize, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && (g.1 - w.1).abs() <= DISTANCE_TOLERANCE)
}

/// How many answers a well-formed reply to `spec` holds, when that is
/// known without the oracle.
pub fn expected_len(spec: &QuerySpec, db_len: usize) -> Option<usize> {
    match spec.kind {
        QueryKind::Nearest => Some(1),
        QueryKind::KNearest(k) => Some(k.min(db_len)),
        QueryKind::Range(_) => None,
    }
}

/// Compare a seeded sample of `count` answered queries with the oracle;
/// returns `(checked, wrong)`.
pub fn sample(
    db: &[Vec<f64>],
    answered: &[(&QuerySpec, &Answer)],
    count: usize,
    seed: u64,
) -> (u64, u64) {
    let n = answered.len();
    let count = count.min(n);
    let offset = (seed % n.max(1) as u64) as usize;
    let mut wrong = 0;
    for i in 0..count {
        let (spec, got) = answered[(offset + i * n / count) % n];
        let want = expected(db, spec);
        if !agrees(got, &want) {
            eprintln!("answer mismatch: got {got:?}, oracle {want:?}");
            wrong += 1;
        }
    }
    (count as u64, wrong)
}
