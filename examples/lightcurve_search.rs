//! Star light-curve search (Section 2.4 of the paper).
//!
//! ```sh
//! cargo run --release --example lightcurve_search
//! ```
//!
//! A phase-folded periodic light curve has no natural starting point, so
//! finding similar stars requires comparing every circular shift — the
//! rotation-invariance problem verbatim. This example searches a
//! synthetic survey three ways: brute force (steps counted
//! analytically), the wedge engine in main memory, and the
//! Fourier/VP-tree disk index, reporting steps and disk accesses.

use rotind::distance::Measure;
use rotind::index::disk::{IndexedDatabase, ReducedRepr};
use rotind::index::engine::{Invariance, Neighbor, QueryKind, RotationQuery};
use rotind::lightcurve::dataset::light_curves;
use rotind::obs::{NoBudget, NoopObserver};
use rotind::ts::StepCounter;

/// The nearest star, with the scan's steps charged to `steps`.
fn nearest(engine: &RotationQuery, database: &[Vec<f64>], steps: &mut StepCounter) -> Neighbor {
    let kind = QueryKind::Nearest;
    let hits = engine
        .search(
            database,
            kind,
            steps,
            &mut NoopObserver,
            &mut NoBudget,
            None,
        )
        .expect("non-empty")
        .into_inner();
    hits[0]
}

fn main() {
    let n = 512;
    let survey = light_curves(600, n, 7);
    let database: Vec<Vec<f64>> = survey.items[..599].to_vec();
    let query = survey.items[599].clone();
    let query_class = survey.labels[599];
    println!(
        "survey: {} curves of length {n}; query is a fresh {}\n",
        database.len(),
        survey.class_names[query_class]
    );

    // Main-memory wedge search.
    let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid query");
    let mut steps = StepCounter::new();
    let hit = nearest(&engine, &database, &mut steps);
    let brute = rotind::eval::speedup::brute_force_steps(database.len(), n, n, Measure::Euclidean);
    println!(
        "wedge search : star {} ({}) at distance {:.4}",
        hit.index, survey.class_names[survey.labels[hit.index]], hit.distance
    );
    println!(
        "               {} steps vs {} brute force ({:.0}x faster)",
        steps.steps(),
        brute,
        brute as f64 / steps.steps() as f64
    );
    assert_eq!(
        survey.labels[hit.index], query_class,
        "the nearest star should share the query's variability class"
    );

    // The convolution trick (what the astronomy community uses): exact
    // but Euclidean-only and O(n log n) per star regardless of pruning.
    let (conv_d, conv_shift) =
        rotind::fft::convolution::min_shift_euclidean(&database[hit.index], &query);
    println!("convolution  : confirms distance {conv_d:.4} at phase shift {conv_shift} ✓");
    assert!((conv_d - hit.distance).abs() < 1e-6);

    // Disk-based search: only 16 Fourier magnitudes per star live in the
    // index; full curves are fetched only when the bound fails.
    let index = IndexedDatabase::build(database.clone(), 16, ReducedRepr::FourierMagnitude)
        .expect("valid database");
    let (disk_hit, stats) = index
        .nearest(&query, Measure::Euclidean)
        .expect("valid query");
    println!(
        "disk index   : star {} at {:.4}; retrieved {}/{} curves ({:.1}% of the survey)",
        disk_hit.index,
        disk_hit.distance,
        stats.retrieved,
        stats.total,
        100.0 * stats.fraction()
    );
    assert_eq!(disk_hit.index, hit.index);

    // DTW handles stars whose folded curves are locally distorted
    // (period error, asymmetric cycles).
    let dtw_engine = RotationQuery::with_measure(
        &query,
        Invariance::Rotation,
        Measure::Dtw(rotind::distance::DtwParams::new(5)),
    )
    .expect("valid query");
    let mut dtw_steps = StepCounter::new();
    let dtw_hit = nearest(&dtw_engine, &database, &mut dtw_steps);
    let dtw_brute = rotind::eval::speedup::brute_force_steps(
        database.len(),
        n,
        n,
        Measure::Dtw(rotind::distance::DtwParams::new(5)),
    );
    println!(
        "DTW (R=5)    : star {} at {:.4}; {} steps vs {} brute ({:.0}x faster)",
        dtw_hit.index,
        dtw_hit.distance,
        dtw_steps.steps(),
        dtw_brute,
        dtw_brute as f64 / dtw_steps.steps() as f64
    );
}
