//! The wedge type `W = {U, L}` (Section 4.1, Figure 6).

use crate::envelope::{envelope_of, sliding_max_into, sliding_min_into, SlidingScratch};
use rotind_distance::kernels::LANES;
use rotind_ts::rotate::RotationMatrix;
use std::sync::OnceLock;

/// A wedge: the smallest bounding envelope enclosing a set of candidate
/// rotations from above (`upper`) and below (`lower`), together with the
/// number of rotations it covers.
///
/// The two envelopes live in one packed structure-of-arrays slab —
/// `upper` at offset 0, `lower` at a lane-aligned stride — so the clamp
/// kernels stream both from a single contiguous allocation. A wedge
/// whose two envelopes are bit-identical (a single series) stores the
/// series once and reads both envelopes from it.
///
/// ```
/// use rotind_envelope::Wedge;
/// use rotind_ts::rotate::RotationMatrix;
/// let series = [1.0, 5.0, 2.0, 8.0];
/// let matrix = RotationMatrix::full(&series).unwrap();
/// let wedge = Wedge::from_rows(&matrix, &[0, 1]);
/// assert_eq!(wedge.upper(), &[5.0, 5.0, 8.0, 8.0]);
/// assert_eq!(wedge.lower(), &[1.0, 2.0, 2.0, 1.0]);
/// assert!(wedge.contains(&[3.0, 4.0, 5.0, 2.0]));
/// ```
#[derive(Debug, Clone)]
pub struct Wedge {
    /// Packed envelope slab: `upper` occupies `[0, n)` and `lower`
    /// occupies `[lower_at, lower_at + n)`; all padding is 0.0.
    env: Vec<f64>,
    /// Series length `n`.
    n: usize,
    /// Offset of `lower` in the slab: `n` rounded up to the kernel lane
    /// count, or 0 when `lower` is bit-identical to `upper`.
    lower_at: usize,
    /// Number of covered rotations (the paper's `cardinality(T)`).
    cardinality: usize,
    /// Position permutation for reordered early abandoning, filled by
    /// [`Wedge::abandon_order`] on first read. A pure function of
    /// `(upper, lower)`, so a cache filled by any thread holds the same
    /// permutation; most wedges of a hierarchy are never asked for it.
    order: OnceLock<Vec<u32>>,
}

/// Equality of the envelopes and the cardinality; neither the slab
/// layout nor whether the abandon order has been computed yet is part
/// of a wedge's value.
impl PartialEq for Wedge {
    fn eq(&self, other: &Self) -> bool {
        self.upper() == other.upper()
            && self.lower() == other.lower()
            && self.cardinality == other.cardinality
    }
}

/// Lane-aligned stride of the envelope slab for series length `n`.
#[inline]
fn slab_stride(n: usize) -> usize {
    n.next_multiple_of(LANES)
}

/// Distance of the interval `[lower, upper]` from zero.
#[inline]
fn gap(upper: f64, lower: f64) -> f64 {
    if lower > 0.0 {
        lower
    } else if upper < 0.0 {
        -upper
    } else {
        0.0
    }
}

/// Order-preserving map of [`f64::total_cmp`] onto `u64`: negative
/// values (sign bit set) have all bits flipped, the rest get the sign
/// bit set, so unsigned comparison of keys is `total_cmp` of values.
#[inline]
fn total_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Positions sorted so the terms most likely to dominate an `LB_Keogh`
/// accumulation come first: primary key is the envelope's distance from
/// zero (`gap(0, [L_i, U_i])`, descending — intervals far from the
/// baseline force a contribution from any roughly-centred candidate),
/// tie-broken by envelope width ascending (narrow intervals reject more
/// candidates) and finally by index so the permutation is deterministic.
///
/// The sort runs on precomputed integer keys `(!key(gap), key(width),
/// index)` under [`total_key`]; every key is unique, so the unstable
/// sort yields exactly the permutation of a `total_cmp` comparator sort.
fn abandon_order_of(upper: &[f64], lower: &[f64]) -> Vec<u32> {
    let mut keys: Vec<(u64, u64, u32)> = upper
        .iter()
        .zip(lower)
        .zip(0u32..)
        .map(|((&u, &l), i)| (!total_key(gap(u, l)), total_key(u - l), i))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, _, i)| i).collect()
}

impl Wedge {
    /// Pack an (upper, lower) envelope pair into the SoA slab, storing
    /// `lower` only when its bits differ from `upper`'s.
    // lint: panic-exempt(n <= stride and the slab holds lower_at + stride >= lower_at + n values by construction, so every slice is in range)
    fn pack(upper: &[f64], lower: &[f64], cardinality: usize) -> Self {
        debug_assert_eq!(upper.len(), lower.len());
        let n = upper.len();
        let stride = slab_stride(n);
        let same = upper
            .iter()
            .zip(lower)
            .all(|(u, l)| u.to_bits() == l.to_bits());
        let lower_at = if same { 0 } else { stride };
        let mut env = vec![0.0; lower_at + stride];
        // rotind-lint: allow(no-index) — n <= stride <= env.len() - lower_at by construction
        env[..n].copy_from_slice(upper);
        env[lower_at..lower_at + n].copy_from_slice(lower);
        Wedge {
            env,
            n,
            lower_at,
            cardinality,
            order: OnceLock::new(),
        }
    }

    /// A degenerate wedge over a single candidate sequence — the case in
    /// which `LB_Keogh` collapses to the exact Euclidean distance.
    pub fn from_single(series: &[f64]) -> Self {
        Wedge::pack(series, series, 1)
    }

    /// The wedge over the given rows of a rotation matrix.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty or contains an out-of-range row index.
    // lint: panic-exempt(documented precondition: cut member lists are non-empty rows of the same matrix)
    pub fn from_rows(matrix: &RotationMatrix, rows: &[usize]) -> Self {
        assert!(!rows.is_empty(), "Wedge::from_rows: empty row set");
        let series: Vec<Vec<f64>> = rows.iter().map(|&r| matrix.row(r).to_vec()).collect();
        let (upper, lower) = envelope_of(&series);
        Wedge::pack(&upper, &lower, rows.len())
    }

    /// Merge two wedges into their combined envelope (Figure 7:
    /// `W((1,2),3)` from `W(1,2)` and `W3`). The elementwise max/min run
    /// straight into the merged slab, lane-parallel.
    ///
    /// # Panics
    ///
    /// Panics when the wedges differ in length.
    // lint: panic-exempt(documented precondition: wedges of one hierarchy share the series length)
    pub fn merge(a: &Wedge, b: &Wedge) -> Self {
        assert_eq!(a.len(), b.len(), "Wedge::merge: length mismatch");
        let n = a.n;
        let stride = slab_stride(n);
        let mut env = vec![0.0; 2 * stride];
        {
            let (up, lo) = env.split_at_mut(stride);
            for ((dst, x), y) in up.iter_mut().zip(a.upper()).zip(b.upper()) {
                *dst = x.max(*y);
            }
            for ((dst, x), y) in lo.iter_mut().zip(a.lower()).zip(b.lower()) {
                *dst = x.min(*y);
            }
        }
        Wedge {
            env,
            n,
            lower_at: stride,
            cardinality: a.cardinality + b.cardinality,
            order: OnceLock::new(),
        }
    }

    /// Widen the envelope by the warping radius `R` (Section 4.3):
    /// `DTW_U_i = max(U_{i−R} : U_{i+R})`, `DTW_L_i = min(L_{i−R} :
    /// L_{i+R})`. With `R = 0` this is a clone.
    pub fn widened(&self, radius: usize) -> Self {
        self.widened_with(radius, &mut SlidingScratch::new())
    }

    /// [`Wedge::widened`] with caller-owned scratch: the sliding-window
    /// workspace is reused across calls, so building the `2n − 1` widened
    /// envelopes of a hierarchy allocates only the buffers it keeps.
    pub fn widened_with(&self, radius: usize, scratch: &mut SlidingScratch) -> Self {
        let mut upper = Vec::new();
        let mut lower = Vec::new();
        sliding_max_into(self.upper(), radius, scratch, &mut upper);
        sliding_min_into(self.lower(), radius, scratch, &mut lower);
        Wedge::pack(&upper, &lower, self.cardinality)
    }

    /// Series length `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the wedge covers a zero-length series (never for a
    /// constructed wedge).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Upper envelope `U` — the first row of the SoA slab.
    // lint: panic-exempt(n <= env.len() is a struct invariant enforced by pack/merge)
    #[inline]
    pub fn upper(&self) -> &[f64] {
        // rotind-lint: allow(no-index) — n <= env.len() is a struct invariant
        &self.env[..self.n]
    }

    /// Lower envelope `L` — the second, lane-aligned row of the SoA slab,
    /// or the first when it equals `U`.
    // lint: panic-exempt(lower_at + n <= env.len() is a struct invariant enforced by pack/merge)
    #[inline]
    pub fn lower(&self) -> &[f64] {
        // rotind-lint: allow(no-index) — lower_at + n <= env.len() is a struct invariant
        &self.env[self.lower_at..self.lower_at + self.n]
    }

    /// Positions in decreasing expected-contribution order, for reordered
    /// early abandoning of `LB_Keogh` (cascade tier 3). Always a
    /// permutation of `0..len()`, sorted on the first call and cached.
    #[inline]
    pub fn abandon_order(&self) -> &[u32] {
        let sort = || abandon_order_of(self.upper(), self.lower());
        // lint: blocking-allowed(a concurrent first reader waits for at most one O(n log n) sort of a pure function of the envelopes; no IO or lock runs under it)
        self.order.get_or_init(sort)
    }

    /// Number of covered rotations (the paper's `cardinality(T)`).
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Wedge area `Σ (U_i − L_i)` — the utility heuristic of Figure 8:
    /// fat wedges produce loose lower bounds.
    pub fn area(&self) -> f64 {
        self.upper()
            .iter()
            .zip(self.lower())
            .map(|(u, l)| u - l)
            .sum()
    }

    /// `true` when `series` lies within the envelope at every position.
    pub fn contains(&self, series: &[f64]) -> bool {
        series.len() == self.len()
            && series
                .iter()
                .zip(self.lower())
                .zip(self.upper())
                .all(|((&x, &l), &u)| l <= x && x <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rotind_ts::rotate::rotated;

    /// The comparator sort the key sort replaced: the reference
    /// permutation [`abandon_order_of`] must reproduce exactly.
    fn comparator_order_of(upper: &[f64], lower: &[f64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..upper.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            gap(upper[b], lower[b])
                .total_cmp(&gap(upper[a], lower[a]))
                .then((upper[a] - lower[a]).total_cmp(&(upper[b] - lower[b])))
                .then(a.cmp(&b))
        });
        order
    }

    /// Signed zeros, both NaN signs, both infinities and small integers
    /// (so gaps and widths tie often), mixed with arbitrary bit patterns.
    fn awkward_value(r: u64) -> f64 {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
        ];
        match r % 16 {
            0..=5 => SPECIAL[(r / 16 % 8) as usize],
            6..=11 => ((r / 16) % 5) as f64 - 2.0,
            _ => f64::from_bits(r),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn key_sort_equals_comparator_sort(bits in prop::collection::vec(0u64..u64::MAX, 0..160)) {
            let (upper, lower): (Vec<f64>, Vec<f64>) = bits
                .chunks_exact(2)
                .map(|p| (awkward_value(p[0]), awkward_value(p[1])))
                .unzip();
            prop_assert_eq!(
                abandon_order_of(&upper, &lower),
                comparator_order_of(&upper, &lower)
            );
        }
    }

    fn signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.61).sin() * 2.0).collect()
    }

    #[test]
    fn single_wedge_is_the_series() {
        let s = signal(16);
        let w = Wedge::from_single(&s);
        assert_eq!(w.upper(), &s[..]);
        assert_eq!(w.lower(), &s[..]);
        assert_eq!(w.area(), 0.0);
        assert_eq!(w.cardinality(), 1);
        assert!(w.contains(&s));
    }

    #[test]
    fn from_rows_bounds_members() {
        let c = signal(20);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 3, 7]);
        assert_eq!(w.cardinality(), 3);
        for &row in &[0usize, 3, 7] {
            assert!(w.contains(&m.row(row).to_vec()), "row {row} escapes wedge");
        }
        // A rotation outside the wedge set is typically NOT contained.
        assert!(!w.contains(&m.row(10).to_vec()));
    }

    #[test]
    fn merge_contains_both_children() {
        let c = signal(24);
        let m = RotationMatrix::full(&c).unwrap();
        let a = Wedge::from_rows(&m, &[0, 1]);
        let b = Wedge::from_rows(&m, &[5, 6]);
        let merged = Wedge::merge(&a, &b);
        assert_eq!(merged.cardinality(), 4);
        for row in [0usize, 1, 5, 6] {
            assert!(merged.contains(&rotated(&c, row)));
        }
        // Merged area dominates each child's area (Figure 8).
        assert!(merged.area() >= a.area());
        assert!(merged.area() >= b.area());
    }

    #[test]
    fn merge_equals_from_rows() {
        let c = signal(18);
        let m = RotationMatrix::full(&c).unwrap();
        let a = Wedge::from_rows(&m, &[2, 4]);
        let b = Wedge::from_rows(&m, &[9]);
        let merged = Wedge::merge(&a, &b);
        let direct = Wedge::from_rows(&m, &[2, 4, 9]);
        assert_eq!(merged.upper(), direct.upper());
        assert_eq!(merged.lower(), direct.lower());
    }

    #[test]
    fn widened_contains_original_and_grows_area() {
        let c = signal(32);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 2, 4]);
        let wide = w.widened(3);
        for i in 0..w.len() {
            assert!(wide.upper()[i] >= w.upper()[i]);
            assert!(wide.lower()[i] <= w.lower()[i]);
        }
        assert!(wide.area() >= w.area());
        assert_eq!(wide.cardinality(), w.cardinality());
        assert_eq!(w.widened(0).upper(), w.upper());
    }

    #[test]
    fn abandon_order_is_a_permutation_sorted_by_contribution() {
        let c = signal(24);
        let m = RotationMatrix::full(&c).unwrap();
        for w in [
            Wedge::from_rows(&m, &[0, 5, 11]),
            Wedge::from_single(&c),
            Wedge::from_rows(&m, &[0, 5, 11]).widened(3),
        ] {
            let mut seen: Vec<u32> = w.abandon_order().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..w.len() as u32).collect::<Vec<_>>());
            // Primary key (distance of the envelope interval from zero)
            // must be non-increasing along the order.
            let gap = |i: usize| {
                let (u, l) = (w.upper()[i], w.lower()[i]);
                if l > 0.0 {
                    l
                } else if u < 0.0 {
                    -u
                } else {
                    0.0
                }
            };
            for pair in w.abandon_order().windows(2) {
                assert!(gap(pair[0] as usize) >= gap(pair[1] as usize));
            }
        }
    }

    #[test]
    fn widened_with_matches_widened() {
        let c = signal(40);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[1, 2, 8]);
        let mut scratch = SlidingScratch::new();
        for r in [0usize, 2, 7] {
            assert_eq!(w.widened_with(r, &mut scratch), w.widened(r));
        }
    }

    #[test]
    fn single_series_is_stored_once() {
        let c = signal(30);
        let m = RotationMatrix::full(&c).unwrap();
        let leaf = Wedge::from_rows(&m, &[4]);
        assert_eq!(leaf.env.len(), slab_stride(30));
        assert_eq!(leaf.upper(), leaf.lower());
        assert_eq!(leaf.lower(), &rotated(&c, 4)[..]);
        // Widening splits the envelopes again; merging always stores both.
        let wide = leaf.widened(2);
        assert_eq!(wide.env.len(), 2 * slab_stride(30));
        assert_ne!(wide.upper(), wide.lower());
        let merged = Wedge::merge(&leaf, &leaf);
        assert_eq!(merged.env.len(), 2 * slab_stride(30));
        assert_eq!(
            (merged.upper(), merged.lower()),
            (leaf.upper(), leaf.lower())
        );
    }

    #[test]
    fn equality_ignores_whether_the_order_is_cached() {
        let c = signal(40);
        let m = RotationMatrix::full(&c).unwrap();
        let read = Wedge::from_rows(&m, &[1, 2, 8]);
        let fresh = read.clone();
        read.abandon_order();
        assert_eq!(read, fresh);
        assert_eq!(fresh, read.clone());
        let wider = Wedge::from_rows(&m, &[1, 2, 8, 9]);
        assert_ne!(read, wider);
    }

    #[test]
    fn concurrent_first_reads_see_the_eager_permutation() {
        let c = signal(251);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 5, 11, 40]).widened(5);
        let eager = comparator_order_of(w.upper(), w.lower());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        w.abandon_order().to_vec()
                    })
                })
                .collect();
            for reader in readers {
                assert_eq!(reader.join().unwrap(), eager);
            }
        });
        assert_eq!(w.abandon_order(), &eager[..]);
    }

    #[test]
    fn contains_rejects_wrong_length() {
        let w = Wedge::from_single(&signal(8));
        assert!(!w.contains(&signal(9)));
    }

    #[test]
    #[should_panic(expected = "empty row set")]
    fn from_rows_rejects_empty() {
        let c = signal(8);
        let m = RotationMatrix::full(&c).unwrap();
        Wedge::from_rows(&m, &[]);
    }
}
