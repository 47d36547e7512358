//! End-to-end pipeline tests spanning every crate: bitmap → contour →
//! centroid series → normalisation → rotation-invariant search → disk
//! index, plus the dataset builders the experiments rely on.

use rotind::distance::{DtwParams, Measure};
use rotind::index::disk::{IndexedDatabase, ReducedRepr};
use rotind::index::engine::{Invariance, QueryKind, RotationQuery};
use rotind::lightcurve::dataset::light_curves;
use rotind::obs::{NoBudget, NoopObserver};
use rotind::shape::bitmap::Bitmap;
use rotind::shape::centroid::shape_to_series;
use rotind::shape::dataset as shapes;
use rotind::shape::poly::{radial_to_polygon, rasterize_polygon};
use rotind::ts::normalize::z_normalize_lossy;
use rotind::ts::rotate::rotated;
use rotind::ts::StepCounter;

/// Rasterise a radial profile and run it through the full Figure-2
/// pipeline.
fn raster_series(radii: &[f64], n: usize) -> Vec<f64> {
    let poly = radial_to_polygon(radii, 220, 0.9);
    let bitmap = rasterize_polygon(&poly, 220, 220);
    z_normalize_lossy(&shape_to_series(&bitmap, n).expect("non-empty shape"))
}

#[test]
fn bitmap_pipeline_retrieves_the_rotated_shape() {
    let n = 96;
    // Database of rasterised superformula shapes.
    let profiles: Vec<Vec<f64>> = (0..12)
        .map(|k| {
            rotind::shape::generators::superformula(
                2.0 + (k % 5) as f64,
                0.8 + 0.17 * (k % 7) as f64,
                2.2,
                1.8,
                256,
            )
        })
        .collect();
    let database: Vec<Vec<f64>> = profiles.iter().map(|p| raster_series(p, n)).collect();

    // The query is shape 7 *physically rotated* before rasterisation —
    // nothing in the pipeline sees the original orientation.
    let rotated_profile = rotated(&profiles[7], 100);
    let query = raster_series(&rotated_profile, n);

    let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid query");
    let hit = engine.nearest(&database).expect("non-empty database");
    assert_eq!(hit.index, 7, "physical rotation must not change identity");
    assert!(
        hit.distance < 3.0,
        "raster noise only: distance {}",
        hit.distance
    );
}

#[test]
fn bitmap_pipeline_under_dtw() {
    let n = 64;
    let profile = rotind::shape::generators::superformula(4.0, 1.0, 2.0, 2.0, 256);
    let a = raster_series(&profile, n);
    let b = raster_series(&rotated(&profile, 64), n);
    let engine =
        RotationQuery::with_measure(&a, Invariance::Rotation, Measure::Dtw(DtwParams::new(3)))
            .expect("valid");
    let d = engine.distance_to(&b).expect("equal lengths");
    assert!(d < 1.5, "DTW distance between rotated rasters: {d}");
}

#[test]
fn skull_bitmap_roundtrip() {
    // A skull profile survives rasterisation: its raster series matches
    // the direct radial series far better than a different species'.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let n = 96;
    let human = rotind::shape::generators::skull::skull_profile(
        &rotind::shape::generators::skull::PRIMATES[0].params,
        512,
        0.0,
        &mut rng,
    );
    let orang = rotind::shape::generators::skull::skull_profile(
        &rotind::shape::generators::skull::PRIMATES[2].params,
        512,
        0.0,
        &mut rng,
    );
    let human_raster = raster_series(&human, n);
    let human_direct = z_normalize_lossy(
        &rotind::shape::centroid::radial_profile_to_series(&human, n).expect("non-empty"),
    );
    let orang_direct = z_normalize_lossy(
        &rotind::shape::centroid::radial_profile_to_series(&orang, n).expect("non-empty"),
    );
    let engine = RotationQuery::new(&human_raster, Invariance::Rotation).expect("valid");
    let d_same = engine.distance_to(&human_direct).expect("len");
    let d_other = engine.distance_to(&orang_direct).expect("len");
    assert!(
        d_same < d_other,
        "raster/direct mismatch: {d_same} !< {d_other}"
    );
}

#[test]
fn disk_index_agrees_with_engine_on_shapes() {
    let ds = shapes::projectile_points(150, 128, 33);
    let db: Vec<Vec<f64>> = ds.items[..149].to_vec();
    let query = ds.items[149].clone();
    let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid");
    let direct = engine.nearest(&db).expect("non-empty");
    for d in [4usize, 16] {
        let index =
            IndexedDatabase::build(db.clone(), d, ReducedRepr::FourierMagnitude).expect("valid db");
        let (hit, stats) = index
            .nearest(&query, Measure::Euclidean)
            .expect("valid query");
        assert_eq!(hit.index, direct.index, "D = {d}");
        assert!((hit.distance - direct.distance).abs() < 1e-9);
        assert!(stats.retrieved <= stats.total);
    }
}

#[test]
fn disk_index_agrees_with_engine_on_lightcurves_dtw() {
    let ds = light_curves(80, 128, 21);
    let db: Vec<Vec<f64>> = ds.items[..79].to_vec();
    let query = ds.items[79].clone();
    let measure = Measure::Dtw(DtwParams::new(4));
    let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).expect("valid");
    let direct = engine.nearest(&db).expect("non-empty");
    let index = IndexedDatabase::build(db.clone(), 8, ReducedRepr::Paa).expect("valid db");
    let (hit, _) = index.nearest(&query, measure).expect("valid query");
    assert_eq!(hit.index, direct.index);
    assert!((hit.distance - direct.distance).abs() < 1e-9);
}

#[test]
fn classification_beats_chance_on_every_dataset() {
    // Tiny stratified subsamples keep this fast; the full Table 8 runs
    // in the bench harness.
    let sets: Vec<rotind::shape::Dataset> = vec![
        shapes::aircraft(3).subsample(42, 1),
        shapes::mixed_bag(3).subsample(45, 1),
        light_curves(45, 128, 3),
    ];
    for ds in sets {
        let result = rotind::eval::one_nn_error(&ds, Measure::Euclidean);
        let chance = 1.0 - 1.0 / ds.num_classes() as f64;
        assert!(
            result.error_rate() < chance * 0.8,
            "{}: error {} vs chance {}",
            ds.name,
            result.error_rate(),
            chance
        );
    }
}

#[test]
fn glyph_six_and_nine_separate_only_under_limited_rotation() {
    // Condensed version of the shape_retrieval example, as a regression
    // test for the rotation-limited path.
    let n = 96;
    let c = 48.0;
    let six = Bitmap::from_fn(96, 96, |x, y| {
        let (xf, yf) = (x as f64, y as f64);
        let body = (xf - c).powi(2) + (yf - (c + 12.0)).powi(2) <= 20.0 * 20.0;
        let asc = (xf - (c + 9.0)).abs() < 7.0 && (yf - (c - 17.0)).abs() < 21.0;
        body || asc
    });
    let nine = Bitmap::from_fn(96, 96, |x, y| six.get(95 - x as isize, 95 - y as isize));
    let s6 = z_normalize_lossy(&shape_to_series(&six, n).expect("glyph"));
    let s9 = z_normalize_lossy(&shape_to_series(&nine, n).expect("glyph"));

    let full = RotationQuery::new(&s6, Invariance::Rotation).expect("valid");
    let limited =
        RotationQuery::new(&s6, Invariance::RotationLimited { max_shift: n / 24 }).expect("valid");
    let d_full = full.distance_to(&s9).expect("len");
    let d_limited = limited.distance_to(&s9).expect("len");
    assert!(d_full < 2.0, "under full invariance 6 ≈ 9: {d_full}");
    assert!(
        d_limited > d_full + 0.5,
        "limited invariance must separate: {d_limited} vs {d_full}"
    );
}

#[test]
fn step_counts_are_reproducible() {
    // The num_steps metric must be deterministic — figures depend on it.
    let ds = shapes::projectile_points(60, 64, 9);
    let query = ds.items[59].clone();
    let db: Vec<Vec<f64>> = ds.items[..59].to_vec();
    let run = || {
        let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid");
        let mut counter = StepCounter::new();
        engine
            .search(
                &db,
                QueryKind::Nearest,
                &mut counter,
                &mut NoopObserver,
                &mut NoBudget,
                None,
            )
            .expect("non-empty");
        counter.steps()
    };
    assert_eq!(run(), run());
}
