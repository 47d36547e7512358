//! Shape motif discovery: the closest pair under rotation invariance.
//!
//! The paper's conclusion: *"we have begun to use our algorithm as a
//! subroutine in several data mining algorithms which attempt to
//! cluster, classify and discover motifs in a variety of anthropological
//! datasets"*. The motif primitive is the closest pair of shapes in a
//! collection — the most-repeated design in a projectile-point or
//! petroglyph database. A naive scan is `O(m²)` rotation-invariant
//! comparisons; threading one *global* best-so-far through H-Merge makes
//! the overwhelming majority of those comparisons abandon after a few
//! steps.

use crate::cascade::{BoundCascade, CandidateCtx};
use crate::error::SearchError;
use crate::hmerge::h_merge_cascade;
use rotind_distance::measure::Measure;
use rotind_envelope::WedgeTree;
use rotind_obs::{NoBudget, NoopObserver};
use rotind_ts::rotate::{Rotation, RotationMatrix};
use rotind_ts::StepCounter;

/// A motif: two items and their rotation-invariant distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifPair {
    /// First item index (the one whose rotations were enveloped).
    pub a: usize,
    /// Second item index.
    pub b: usize,
    /// Rotation-invariant distance between them.
    pub distance: f64,
    /// The rotation of `a` that realises the distance against `b`.
    pub rotation: Rotation,
}

/// The closest pair in `items` under rotation-invariant `measure`
/// (LCSS included — its distance form is scanned without abandoning).
///
/// Exact: equals the brute-force double loop, verified by the unit
/// tests. Steps are charged to `counter`.
///
/// # Errors
///
/// [`SearchError::EmptyDatabase`] with fewer than two items;
/// [`SearchError::LengthMismatch`] on ragged input.
pub fn closest_pair(
    items: &[Vec<f64>],
    measure: Measure,
    counter: &mut StepCounter,
) -> Result<MotifPair, SearchError> {
    let pairs = top_motifs(items, 1, measure, counter)?;
    Ok(pairs.into_iter().next().expect("k = 1 yields one pair"))
}

/// The `k` closest pairs, each involving distinct index pairs (items may
/// repeat across pairs), sorted ascending by distance.
///
/// # Errors
///
/// As [`closest_pair`]; additionally `k = 0` is invalid.
pub fn top_motifs(
    items: &[Vec<f64>],
    k: usize,
    measure: Measure,
    counter: &mut StepCounter,
) -> Result<Vec<MotifPair>, SearchError> {
    if k == 0 {
        return Err(SearchError::invalid_param("k", "must be >= 1"));
    }
    if items.len() < 2 {
        return Err(SearchError::EmptyDatabase);
    }
    let n = items[0].len();
    for (index, item) in items.iter().enumerate() {
        if item.len() != n {
            return Err(SearchError::LengthMismatch {
                index,
                expected: n,
                actual: item.len(),
            });
        }
    }

    // Best-k pairs, sorted ascending; the k-th distance is the global
    // pruning threshold for every remaining comparison.
    let mut best: Vec<MotifPair> = Vec::with_capacity(k + 1);
    for a in 0..items.len() - 1 {
        let matrix = RotationMatrix::full(&items[a])
            .map_err(|e| SearchError::invalid_param("items", e.to_string()))?;
        let tree = WedgeTree::new(matrix, measure.warping_band());
        // A mid-sized fixed cut works well for one-shot scans (the
        // dynamic planner needs a longer scan to pay off).
        let cut = tree.cut_nodes(16.min(tree.max_k()));
        #[allow(clippy::needless_range_loop)] // b is also stored in the MotifPair
        for b in a + 1..items.len() {
            let threshold = if best.len() == k {
                best[k - 1].distance
            } else {
                f64::INFINITY
            };
            // The legacy (single LB_Keogh) cascade: the walk of the
            // original motif search, step for step.
            if let Some(outcome) = h_merge_cascade(
                &items[b],
                &tree,
                &BoundCascade::legacy(),
                &cut,
                threshold,
                measure,
                counter,
                &mut NoopObserver,
                &mut NoBudget,
                &mut CandidateCtx::new(),
            ) {
                best.push(MotifPair {
                    a,
                    b,
                    distance: outcome.distance,
                    rotation: outcome.rotation,
                });
                best.sort_by(|x, y| x.distance.total_cmp(&y.distance));
                best.truncate(k);
            }
        }
    }
    if best.is_empty() {
        // Unreachable for k >= 1 and >= 2 items: an infinite threshold
        // always yields a pair on the very first comparison.
        return Err(SearchError::EmptyDatabase);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::rotation::rotation_invariant_distance;
    use rotind_distance::DtwParams;
    use rotind_ts::rotate::rotated;

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    fn collection(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m)
            .map(|k| {
                (0..n)
                    .map(|i| (i as f64 * (0.11 + 0.017 * k as f64)).sin() + (k as f64 * 0.9).cos())
                    .collect()
            })
            .collect()
    }

    /// Oracle: brute-force closest pair.
    fn oracle(items: &[Vec<f64>], measure: Measure) -> (usize, usize, f64) {
        let mut best = (0, 0, f64::INFINITY);
        for a in 0..items.len() {
            for b in a + 1..items.len() {
                let d = rotation_invariant_distance(&items[b], &items[a], measure, &mut steps());
                if d < best.2 {
                    best = (a, b, d);
                }
            }
        }
        best
    }

    #[test]
    fn finds_planted_near_duplicate() {
        let mut items = collection(14, 40);
        // Plant: item 11 is a rotated, slightly noisy copy of item 3.
        items[11] = rotated(&items[3], 17)
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.001 * (i as f64).sin())
            .collect();
        let motif = closest_pair(&items, Measure::Euclidean, &mut steps()).unwrap();
        assert_eq!((motif.a, motif.b), (3, 11));
        assert!(motif.distance < 0.1);
        // The reported rotation reproduces the distance.
        let d = rotated(&items[3], motif.rotation.shift)
            .iter()
            .zip(&items[11])
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!((d - motif.distance).abs() < 1e-9);
    }

    #[test]
    fn equals_brute_force_oracle() {
        let items = collection(10, 24);
        for measure in [Measure::Euclidean, Measure::Dtw(DtwParams::new(2))] {
            let motif = closest_pair(&items, measure, &mut steps()).unwrap();
            let (oa, ob, od) = oracle(&items, measure);
            assert!((motif.distance - od).abs() < 1e-9, "{}", measure.name());
            // Index equality up to exact distance ties.
            if (motif.a, motif.b) != (oa, ob) {
                let d = rotation_invariant_distance(
                    &items[motif.b],
                    &items[motif.a],
                    measure,
                    &mut steps(),
                );
                assert!((d - od).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn top_k_is_sorted_and_distinct() {
        let items = collection(9, 20);
        let motifs = top_motifs(&items, 3, Measure::Euclidean, &mut steps()).unwrap();
        assert_eq!(motifs.len(), 3);
        assert!(motifs.windows(2).all(|w| w[0].distance <= w[1].distance));
        let mut pairs: Vec<(usize, usize)> = motifs.iter().map(|m| (m.a, m.b)).collect();
        pairs.dedup();
        assert_eq!(pairs.len(), 3, "pairs must be distinct");
    }

    #[test]
    fn global_threshold_prunes() {
        // With a planted duplicate, the global best-so-far collapses
        // early and the remaining comparisons mostly abandon: the scan
        // must use far fewer steps than the exhaustive double loop.
        let mut items = collection(20, 48);
        items[1] = rotated(&items[0], 5);
        let mut fast = steps();
        closest_pair(&items, Measure::Euclidean, &mut fast).unwrap();
        let exhaustive = (20 * 19 / 2) as u64 * 48 * 48; // pairs × n rotations × n
        assert!(
            fast.steps() * 4 < exhaustive,
            "{} !<< {exhaustive}",
            fast.steps()
        );
    }

    #[test]
    fn error_paths() {
        assert!(matches!(
            closest_pair(&[], Measure::Euclidean, &mut steps()),
            Err(SearchError::EmptyDatabase)
        ));
        assert!(matches!(
            closest_pair(&[vec![1.0, 2.0]], Measure::Euclidean, &mut steps()),
            Err(SearchError::EmptyDatabase)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            closest_pair(&ragged, Measure::Euclidean, &mut steps()),
            Err(SearchError::LengthMismatch { index: 1, .. })
        ));
        assert!(top_motifs(&collection(3, 8), 0, Measure::Euclidean, &mut steps()).is_err());
    }
}
