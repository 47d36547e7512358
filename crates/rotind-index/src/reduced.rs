//! Reduced representations for disk-based indexing (Section 4.2,
//! Figure 24).
//!
//! The index must prune *in the reduced space*, i.e. from `D ≪ n`
//! numbers per item, while remaining admissible with respect to the true
//! rotation-invariant distance:
//!
//! * **Euclidean** — the first `D` Fourier magnitude coefficients (the
//!   paper's choice, after \[4\]/\[38\]): Euclidean distance between
//!   magnitude prefixes lower-bounds the rotation-invariant Euclidean
//!   distance (see `rotind-fft::lower_bound`).
//! * **DTW** — Fourier magnitudes do *not* lower-bound DTW, so the paper's
//!   elided "minor modifications" are realised here with the classic
//!   PAA projection: each item stores `D` segment means, the query-side
//!   wedge envelopes (already widened by the band, Proposition 2) are
//!   projected to per-segment max/min, and the point-to-envelope distance
//!   in PAA space lower-bounds `LB_Keogh_DTW` and hence DTW. Segments of
//!   equal width `⌊n/D⌋` are used and the remainder tail is dropped —
//!   dropping non-negative terms preserves admissibility for awkward
//!   lengths like the paper's `n = 251`.
//!
//! Stored PAA vectors are pre-scaled by `√seg` so that the envelope
//! distance is plain Euclidean geometry in the reduced space and is
//! 1-Lipschitz there — the property the VP-tree search relies on.

use rotind_envelope::Wedge;
use rotind_ts::StepCounter;

/// A `√seg`-scaled piecewise aggregate approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct Paa {
    values: Vec<f64>,
    seg: usize,
}

impl Paa {
    /// Project `series` onto `d` equal segments of width `⌊n/d⌋`
    /// (clamped so the width is at least 1); the remainder tail is
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics for an empty series or `d = 0`.
    // lint: panic-exempt(documented preconditions: the snapshot rejects empty series and zero dims at admission)
    pub fn of(series: &[f64], d: usize) -> Self {
        let n = series.len();
        assert!(n > 0, "Paa::of: empty series");
        assert!(d > 0, "Paa::of: d must be >= 1");
        let d = d.min(n);
        let seg = n / d;
        let scale = (seg as f64).sqrt();
        let values = (0..d)
            .map(|j| {
                let chunk = &series[j * seg..(j + 1) * seg];
                scale * chunk.iter().sum::<f64>() / seg as f64
            })
            .collect();
        Paa { values, seg }
    }

    /// Rebuild a `Paa` from already-scaled values (as stored in an
    /// index). The caller asserts the values came from [`Paa::of`] with
    /// the same segment width.
    pub fn from_scaled(values: Vec<f64>, seg: usize) -> Self {
        assert!(seg > 0, "Paa::from_scaled: seg must be >= 1");
        Paa { values, seg }
    }

    /// The scaled segment means (length `d`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Segment width.
    pub fn seg(&self) -> usize {
        self.seg
    }

    /// Number of segments `d`.
    pub fn dims(&self) -> usize {
        self.values.len()
    }
}

/// A wedge envelope projected to PAA space: per-segment max of `U` and
/// min of `L`, `√seg`-scaled like [`Paa`].
#[derive(Debug, Clone, PartialEq)]
pub struct PaaEnvelope {
    upper: Vec<f64>,
    lower: Vec<f64>,
    seg: usize,
}

impl PaaEnvelope {
    /// Project a wedge onto `d` segments. Pass the *lower-bounding*
    /// wedge (already widened by the DTW band) for DTW admissibility.
    // lint: panic-exempt(documented preconditions: wedges are non-empty and the cascade fixes d at construction)
    pub fn of_wedge(wedge: &Wedge, d: usize) -> Self {
        let n = wedge.len();
        assert!(n > 0, "PaaEnvelope::of_wedge: empty wedge");
        assert!(d > 0, "PaaEnvelope::of_wedge: d must be >= 1");
        let d = d.min(n);
        let seg = n / d;
        let scale = (seg as f64).sqrt();
        let mut upper = Vec::with_capacity(d);
        let mut lower = Vec::with_capacity(d);
        for j in 0..d {
            let range = j * seg..(j + 1) * seg;
            let u = wedge.upper()[range.clone()]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let l = wedge.lower()[range]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            upper.push(scale * u);
            lower.push(scale * l);
        }
        PaaEnvelope { upper, lower, seg }
    }

    /// Segment width.
    pub fn seg(&self) -> usize {
        self.seg
    }

    /// `LB_PAA`: the Euclidean distance from a PAA point to this envelope
    /// rectangle — an admissible lower bound of `LB_Keogh` between the
    /// full-resolution series and wedge (per-segment Jensen argument).
    /// One step per segment.
    // lint: panic-exempt(projection and envelope are built with the same d by the cascade constructor)
    pub fn min_dist(&self, paa: &Paa, counter: &mut StepCounter) -> f64 {
        assert_eq!(self.seg, paa.seg, "PaaEnvelope::min_dist: segment mismatch");
        assert_eq!(
            self.upper.len(),
            paa.values.len(),
            "PaaEnvelope::min_dist: dimension mismatch"
        );
        let mut acc = 0.0;
        for ((&x, &u), &l) in paa.values.iter().zip(&self.upper).zip(&self.lower) {
            counter.tick();
            if x > u {
                let t = x - u;
                acc += t * t;
            } else if x < l {
                let t = l - x;
                acc += t * t;
            }
        }
        acc.sqrt()
    }
}

/// The query side of the DTW disk index: the PAA projections of a
/// wedge-set cut. The per-item lower bound is the minimum over the set.
#[derive(Debug, Clone)]
pub struct PaaWedgeSet {
    envelopes: Vec<PaaEnvelope>,
}

impl PaaWedgeSet {
    /// Project each wedge of a cut.
    // lint: panic-exempt(documented precondition: dendrogram cuts are never empty)
    pub fn new(wedges: &[&Wedge], d: usize) -> Self {
        assert!(!wedges.is_empty(), "PaaWedgeSet::new: empty wedge set");
        PaaWedgeSet {
            envelopes: wedges.iter().map(|w| PaaEnvelope::of_wedge(w, d)).collect(),
        }
    }

    /// Admissible lower bound of the rotation-invariant distance: the
    /// minimum point-to-envelope distance over the wedge set (every
    /// rotation lives in some wedge).
    // lint: witness-exempt(min-fold over PaaEnvelope::min_dist; the true distance is not available at this layer to witness at runtime — admissibility vs DTW is property-tested in this module's tests and tests/lower_bounds.rs)
    pub fn lower_bound(&self, paa: &Paa, counter: &mut StepCounter) -> f64 {
        self.envelopes
            .iter()
            .map(|e| e.min_dist(paa, counter))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::{dtw, DtwParams};
    use rotind_envelope::WedgeTree;
    use rotind_ts::rotate::RotationMatrix;

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.23 + phase).sin() + 0.3 * (i as f64 * 0.71).cos())
            .collect()
    }

    #[test]
    fn paa_basic() {
        let p = Paa::of(&[1.0, 3.0, 5.0, 7.0], 2);
        // seg = 2, scale = √2; means are 2 and 6.
        assert_eq!(p.seg(), 2);
        assert_eq!(p.dims(), 2);
        assert!((p.values()[0] - 2.0 * 2f64.sqrt()).abs() < 1e-12);
        assert!((p.values()[1] - 6.0 * 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn paa_with_remainder_drops_tail() {
        // n = 7, d = 2 → seg = 3, uses first 6 samples.
        let p = Paa::of(&[1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 999.0], 2);
        assert_eq!(p.seg(), 3);
        assert!((p.values()[0] - 3f64.sqrt()).abs() < 1e-12);
        assert!((p.values()[1] - 5.0 * 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn paa_clamps_d() {
        let p = Paa::of(&[1.0, 2.0], 100);
        assert_eq!(p.dims(), 2);
        assert_eq!(p.seg(), 1);
    }

    #[test]
    fn paa_distance_lower_bounds_euclidean() {
        // For singleton wedges, LB_PAA(q, env(c)) <= ED(q, c).
        let q = signal(64, 0.1);
        let c = signal(64, 1.3);
        let ed = q
            .iter()
            .zip(&c)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        for d in [2usize, 4, 8, 16, 32] {
            let w = rotind_envelope::Wedge::from_single(&c);
            let env = PaaEnvelope::of_wedge(&w, d);
            let lb = env.min_dist(&Paa::of(&q, d), &mut steps());
            assert!(lb <= ed + 1e-9, "d = {d}: {lb} > {ed}");
        }
    }

    #[test]
    fn envelope_bound_is_admissible_for_dtw_rotations() {
        let n = 48;
        let band = 3;
        let query = signal(n, 0.0);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), band);
        let candidate = signal(n, 2.1);
        // True rotation-invariant DTW distance.
        let true_dist = (0..n)
            .map(|s| {
                dtw(
                    &candidate,
                    &rotind_ts::rotate::rotated(&query, s),
                    DtwParams::new(band),
                    &mut steps(),
                )
            })
            .fold(f64::INFINITY, f64::min);
        for d in [4usize, 8, 16] {
            for k in [1usize, 4, 8] {
                let cut = tree.cut_nodes(k);
                let wedges: Vec<&rotind_envelope::Wedge> =
                    cut.iter().map(|&node| tree.lb_wedge(node)).collect();
                let set = PaaWedgeSet::new(&wedges, d);
                let lb = set.lower_bound(&Paa::of(&candidate, d), &mut steps());
                assert!(
                    lb <= true_dist + 1e-9,
                    "d = {d}, k = {k}: lb {lb} > true {true_dist}"
                );
            }
        }
    }

    #[test]
    fn envelope_bound_admissible_at_awkward_length_251() {
        let n = 251;
        let query = signal(n, 0.4);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), 0);
        let candidate = signal(n, 1.9);
        let true_dist = (0..n)
            .map(|s| {
                let r = rotind_ts::rotate::rotated(&query, s);
                candidate
                    .iter()
                    .zip(&r)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        for d in [4usize, 8, 16, 32] {
            let cut = tree.cut_nodes(8);
            let wedges: Vec<&rotind_envelope::Wedge> =
                cut.iter().map(|&node| tree.lb_wedge(node)).collect();
            let set = PaaWedgeSet::new(&wedges, d);
            let lb = set.lower_bound(&Paa::of(&candidate, d), &mut steps());
            assert!(lb <= true_dist + 1e-9, "d = {d}");
        }
    }

    #[test]
    fn bound_is_zero_for_contained_series() {
        let n = 32;
        let query = signal(n, 0.0);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), 0);
        let cut = tree.cut_nodes(1);
        let wedges: Vec<&rotind_envelope::Wedge> =
            cut.iter().map(|&node| tree.lb_wedge(node)).collect();
        let set = PaaWedgeSet::new(&wedges, 8);
        // Any rotation of the query is inside the root wedge.
        let rot = rotind_ts::rotate::rotated(&query, 5);
        assert_eq!(set.lower_bound(&Paa::of(&rot, 8), &mut steps()), 0.0);
    }

    #[test]
    fn singleton_cut_dominates_root_cut() {
        let n = 40;
        let query = signal(n, 0.0);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), 0);
        let candidate = signal(n, 2.8);
        let paa = Paa::of(&candidate, 8);
        let bound_at = |k: usize| {
            let cut = tree.cut_nodes(k);
            let wedges: Vec<&rotind_envelope::Wedge> =
                cut.iter().map(|&node| tree.lb_wedge(node)).collect();
            PaaWedgeSet::new(&wedges, 8).lower_bound(&paa, &mut steps())
        };
        // k = max (singleton wedges) dominates k = 1 (root wedge).
        assert!(bound_at(n) >= bound_at(1) - 1e-12);
    }

    #[test]
    #[should_panic(expected = "segment mismatch")]
    fn mismatched_segments_panic() {
        let w = rotind_envelope::Wedge::from_single(&signal(32, 0.0));
        let env = PaaEnvelope::of_wedge(&w, 4);
        let paa = Paa::of(&signal(32, 0.0), 8);
        env.min_dist(&paa, &mut steps());
    }
}
