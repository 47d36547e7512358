//! `O(n²)` distance matrices over the rotations of a single series.
//!
//! Clustering the `n` rotations of a query naively costs `O(n³)` (`n²`
//! pairs × `O(n)` per distance) — far more than the `O(n²)` wedge-build
//! budget the paper claims (Section 5.3: *"we include a startup cost of
//! O(n²), which is the time required to build the wedges"*). The saving
//! comes from shift structure: for two rotations of the *same* base
//! series,
//!
//! ```text
//! ED(rot_i(x), rot_j(y)) = ED(x, rot_{(j−i) mod n}(y))
//! ```
//!
//! so the whole matrix is determined by a handful of length-`n` distance
//! *profiles* (plain↔plain, mirror↔mirror and plain↔mirror when mirror
//! rows are present), each computable in `O(n²)` total.
//!
//! The matrix is stored condensed, one value per pair, read from the
//! profile on the upper row's side: `p[s]` for the pair at shift
//! difference `s`. The lower side's `p[n − s]` is equal in exact
//! arithmetic but sums the same squares in another order, so it can
//! differ in the last bits. [`crate::linkage::cluster`] therefore
//! copies the upper triangle into the lower half of its dense working
//! copy instead of recomputing it from the profiles: a recomputed lower
//! half makes the matrix asymmetric bit for bit, and on such a matrix
//! the nearest-neighbour chain can fail to find a reciprocal pair.

use crate::matrix::DistanceMatrix;
use rotind_ts::rotate::{mirror, Rotation, RotationMatrix};

/// `profile[s] = ED(x, rot_s(y))` for all shifts `s`, `O(n²)`.
///
/// One pass over `x` serves four shifts at once against `y` laid out
/// twice, so shift `s` reads `y` from offset `s` with no wrap branch.
/// Each shift keeps its own accumulator, summed in `x` order, so every
/// entry is the plain one-shift-at-a-time sum bit for bit.
// lint: panic-exempt(rotations of one series always share its length; the assert documents the contract)
pub fn shift_profile(x: &[f64], y: &[f64]) -> Vec<f64> {
    let n = x.len();
    assert_eq!(n, y.len(), "shift_profile: length mismatch");
    let doubled: Vec<f64> = y.iter().chain(y).copied().collect();
    // Window `s` is `y` rotated left by `s`.
    let shifted: Vec<&[f64]> = doubled.windows(n.max(1)).take(n).collect();
    let mut profile = Vec::with_capacity(n);
    let mut quads = shifted.chunks_exact(4);
    for quad in &mut quads {
        if let [y0, y1, y2, y3] = *quad {
            let mut acc = [0.0f64; 4];
            for ((((&xj, &a), &b), &c), &d) in x.iter().zip(y0).zip(y1).zip(y2).zip(y3) {
                let diffs = [xj - a, xj - b, xj - c, xj - d];
                for (sum, diff) in acc.iter_mut().zip(diffs) {
                    *sum += diff * diff;
                }
            }
            profile.extend(acc.map(f64::sqrt));
        }
    }
    for rotated in quads.remainder() {
        let mut acc = 0.0;
        for (&xj, &yk) in x.iter().zip(*rotated) {
            let d = xj - yk;
            acc += d * d;
        }
        profile.push(acc.sqrt());
    }
    profile
}

/// Pairwise Euclidean distance matrix over all rows of a
/// [`RotationMatrix`], exploiting shift structure.
///
/// Rows are ordered as in [`RotationMatrix::rotations`]. Works for full,
/// mirror-augmented and rotation-limited matrices. The condensed rows
/// are filled one at a time. Along a row, a stretch of columns with
/// consecutive shifts and one mirror flag reads consecutive profile
/// entries, so it is one slice copy out of the profile laid out twice
/// (reversed for a mirrored row against plain columns); the start is
/// reduced mod `n` by a conditional subtract.
pub fn rotation_distance_matrix(matrix: &RotationMatrix) -> DistanceMatrix {
    distances_between(matrix.base(), matrix.rotations())
}

/// [`rotation_distance_matrix`] over rotations of `base` in any order.
/// (A [`RotationMatrix`] lists its plain rows first, so only another
/// order puts a plain column after a mirrored row.)
fn distances_between(base: &[f64], rotations: &[Rotation]) -> DistanceMatrix {
    let n = base.len();
    let needs_mirror = rotations.iter().any(|r| r.mirrored);
    let doubled = |profile: Vec<f64>| profile.repeat(2);

    let plain_plain = doubled(shift_profile(base, base));
    let (mirror_mirror, plain_mirror) = if needs_mirror {
        let m = mirror(base);
        (
            doubled(shift_profile(&m, &m)),
            doubled(shift_profile(base, &m)),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    // `a − b mod n` for shifts `a, b < n`.
    let sub = |a: usize, b: usize| if a >= b { a - b } else { a + n - b };

    let rows = rotations.len();
    let mut condensed = Vec::with_capacity(rows * rows.saturating_sub(1) / 2);
    let mut rest = rotations;
    while let Some((&a, later)) = rest.split_first() {
        rest = later;
        let stretches = later.chunk_by(|p, q| p.mirrored == q.mirrored && q.shift == p.shift + 1);
        for stretch in stretches {
            let Some(&Rotation { shift, mirrored }) = stretch.first() else {
                continue;
            };
            let len = stretch.len();
            // ED(rot_i(x), rot_j(y)) = ED(x, rot_{j-i}(y)) with x = base,
            // y = mirror(base) — symmetric in which argument is mirrored
            // because ED itself is symmetric. The profile index rises
            // with the column's shift, except for a mirrored row against
            // plain columns, where it falls.
            let (profile, rising) = match (a.mirrored, mirrored) {
                (false, false) => (&plain_plain, true),
                (true, true) => (&mirror_mirror, true),
                (false, true) => (&plain_mirror, true),
                (true, false) => (&plain_mirror, false),
            };
            if rising {
                let start = sub(shift, a.shift);
                condensed.extend_from_slice(profile.get(start..start + len).unwrap_or_default());
            } else {
                let end = sub(a.shift, shift) + n + 1;
                let source = profile.get(end - len..end).unwrap_or_default();
                condensed.extend(source.iter().rev());
            }
        }
    }
    DistanceMatrix::from_condensed(rows, condensed)
}

/// Reference implementation: materialize every rotation and compare
/// pairwise. `O(n³)`; used by tests and available for verification.
pub fn rotation_distance_matrix_naive(matrix: &RotationMatrix) -> DistanceMatrix {
    let rows = matrix.materialize();
    DistanceMatrix::from_fn(rows.len(), |i, j| {
        rows[i]
            .iter()
            .zip(&rows[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rotind_ts::rotate::rotated;

    /// Reference for [`shift_profile`]: one shift at a time, wrapping
    /// the index into `y`.
    fn shift_profile_reference(x: &[f64], y: &[f64]) -> Vec<f64> {
        let n = x.len();
        assert_eq!(n, y.len(), "shift_profile: length mismatch");
        (0..n)
            .map(|s| {
                let mut acc = 0.0;
                #[allow(clippy::needless_range_loop)] // index used across multiple slices
                for j in 0..n {
                    let mut k = j + s;
                    if k >= n {
                        k -= n;
                    }
                    let d = x[j] - y[k];
                    acc += d * d;
                }
                acc.sqrt()
            })
            .collect()
    }

    /// Reference for [`rotation_distance_matrix`]: every entry looked up
    /// through a `%`-reduced shift.
    fn rotation_distance_matrix_reference(matrix: &RotationMatrix) -> DistanceMatrix {
        distances_between_reference(matrix.base(), matrix.rotations())
    }

    fn distances_between_reference(base: &[f64], rotations: &[Rotation]) -> DistanceMatrix {
        let n = base.len();
        let needs_mirror = rotations.iter().any(|r| r.mirrored);
        let plain_plain = shift_profile_reference(base, base);
        let (mirror_mirror, plain_mirror) = if needs_mirror {
            let m = mirror(base);
            (
                shift_profile_reference(&m, &m),
                shift_profile_reference(base, &m),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        DistanceMatrix::from_fn(rotations.len(), |i, j| {
            let a = rotations[i];
            let b = rotations[j];
            match (a.mirrored, b.mirrored) {
                (false, false) => plain_plain[(n + b.shift - a.shift) % n],
                (true, true) => mirror_mirror[(n + b.shift - a.shift) % n],
                (false, true) => plain_mirror[(n + b.shift - a.shift) % n],
                (true, false) => plain_mirror[(n + a.shift - b.shift) % n],
            }
        })
    }

    /// A test series from raw draws: `kind` 0 is random, 1 a short motif
    /// repeated (many exactly tied distances), 2 constant (all zero
    /// distances), 3 small quantized integers.
    pub(crate) fn awkward_series(kind: usize, raw: &[u64], repeat: usize) -> Vec<f64> {
        match kind {
            0 => raw
                .iter()
                .map(|&r| (r % 6001) as f64 / 1000.0 - 3.0)
                .collect(),
            1 => raw
                .iter()
                .take(3)
                .map(|&r| (r % 5) as f64)
                .collect::<Vec<_>>()
                .repeat(repeat),
            2 => vec![1.25; raw.len()],
            _ => raw.iter().map(|&r| (r % 3) as f64).collect(),
        }
    }

    /// The four matrix kinds over `series` (the limited ones only when
    /// `max_shift` is below the series length).
    pub(crate) fn matrix_kinds(series: &[f64], max_shift: usize) -> Vec<RotationMatrix> {
        let mut out = vec![
            RotationMatrix::full(series).unwrap(),
            RotationMatrix::with_mirror(series).unwrap(),
        ];
        if max_shift < series.len() {
            out.push(RotationMatrix::limited(series, max_shift).unwrap());
            out.push(RotationMatrix::limited_with_mirror(series, max_shift).unwrap());
        }
        out
    }

    fn bits(profile: &[f64]) -> Vec<u64> {
        profile.iter().map(|v| v.to_bits()).collect()
    }

    fn matrix_bits(matrix: &DistanceMatrix) -> Vec<u64> {
        matrix.rows().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn profile_equals_the_scalar_reference_at_every_remainder() {
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 251] {
            let x = signal(n);
            let y: Vec<f64> = x.iter().rev().map(|v| v * 1.3 - 0.2).collect();
            assert_eq!(
                bits(&shift_profile(&x, &y)),
                bits(&shift_profile_reference(&x, &y)),
                "n = {n}"
            );
            assert_eq!(
                bits(&shift_profile(&x, &x)),
                bits(&shift_profile_reference(&x, &x))
            );
        }
        assert!(shift_profile(&[], &[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn profile_is_bit_identical_to_the_reference(
            pick in 0usize..8,
            random_n in 1usize..300,
            raw in prop::collection::vec(0u64..u64::MAX, 300..301),
            kind in 0usize..4,
        ) {
            let n = [1, 2, 3, 4, 5, 7, 251, random_n][pick];
            let x: Vec<f64> = awkward_series(kind, &raw[..n], n).into_iter().take(n).collect();
            let y: Vec<f64> = raw[..n].iter().map(|&r| (r % 997) as f64 / 97.0).collect();
            prop_assert_eq!(bits(&shift_profile(&x, &y)), bits(&shift_profile_reference(&x, &y)));
            prop_assert_eq!(bits(&shift_profile(&x, &x)), bits(&shift_profile_reference(&x, &x)));
        }

        #[test]
        fn matrix_is_bit_identical_to_the_reference(
            kind in 0usize..4,
            raw in prop::collection::vec(0u64..u64::MAX, 1..40),
            repeat in 1usize..8,
            max_shift in 0usize..12,
        ) {
            let series = awkward_series(kind, &raw, repeat);
            for m in matrix_kinds(&series, max_shift) {
                prop_assert_eq!(
                    matrix_bits(&rotation_distance_matrix(&m)),
                    matrix_bits(&rotation_distance_matrix_reference(&m))
                );
                // Mirrored rows first, and every row reversed: plain
                // columns now follow mirrored rows.
                let rows = m.rotations();
                let mirrored_first: Vec<Rotation> = rows
                    .iter()
                    .filter(|r| r.mirrored)
                    .chain(rows.iter().filter(|r| !r.mirrored))
                    .copied()
                    .collect();
                let reversed: Vec<Rotation> = rows.iter().rev().copied().collect();
                for order in [mirrored_first, reversed] {
                    prop_assert_eq!(
                        matrix_bits(&distances_between(m.base(), &order)),
                        matrix_bits(&distances_between_reference(m.base(), &order))
                    );
                }
            }
        }
    }

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| (j as f64 * 0.47).sin() + 0.3 * (j as f64 * 1.21).cos())
            .collect()
    }

    fn assert_matrices_close(a: &DistanceMatrix, b: &DistanceMatrix) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert!(
                    (a.get(i, j) - b.get(i, j)).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn profile_matches_direct_distances() {
        let x = signal(17);
        let y: Vec<f64> = signal(17).iter().map(|v| v * 0.8 + 0.1).collect();
        let profile = shift_profile(&x, &y);
        #[allow(clippy::needless_range_loop)] // index used across multiple slices
        for s in 0..17 {
            let direct = x
                .iter()
                .zip(&rotated(&y, s))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!((profile[s] - direct).abs() < 1e-12, "shift {s}");
        }
    }

    #[test]
    fn full_matrix_matches_naive() {
        let c = signal(24);
        let m = RotationMatrix::full(&c).unwrap();
        assert_matrices_close(
            &rotation_distance_matrix(&m),
            &rotation_distance_matrix_naive(&m),
        );
    }

    #[test]
    fn mirror_matrix_matches_naive() {
        let c = signal(15);
        let m = RotationMatrix::with_mirror(&c).unwrap();
        assert_matrices_close(
            &rotation_distance_matrix(&m),
            &rotation_distance_matrix_naive(&m),
        );
    }

    #[test]
    fn limited_matrix_matches_naive() {
        let c = signal(20);
        let m = RotationMatrix::limited_with_mirror(&c, 4).unwrap();
        assert_matrices_close(
            &rotation_distance_matrix(&m),
            &rotation_distance_matrix_naive(&m),
        );
    }

    #[test]
    fn adjacent_rotations_are_close_for_smooth_series() {
        // A smooth series' neighbouring rotations are nearer than distant
        // ones — the fact that makes clustering rotations worthwhile.
        let c: Vec<f64> = (0..64)
            .map(|j| (j as f64 / 64.0 * std::f64::consts::TAU).sin())
            .collect();
        let m = RotationMatrix::full(&c).unwrap();
        let d = rotation_distance_matrix(&m);
        assert!(d.get(0, 1) < d.get(0, 32));
        assert!(d.get(10, 11) < d.get(10, 42));
    }
}
