//! Nearest-neighbour-chain agglomerative clustering.
//!
//! The NN-chain algorithm produces the exact agglomerative clustering for
//! every *reducible* linkage — single, complete, group-average and Ward —
//! in `O(m²)` time and memory, without the `O(m³)` cost of the naive
//! method. The paper's wedge sets are derived from group-average
//! dendrograms (Figure 9); the other linkages are provided for the
//! ablation benches.

use crate::dendrogram::{Dendrogram, RawMerge};
use crate::matrix::DistanceMatrix;

/// Cluster-to-cluster distance update rule (Lance–Williams family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance. A complete-linkage cluster's diameter is
    /// exactly the paper's wedge-area proxy ("the area of a wedge is
    /// simply the maximum Euclidean distance between any sequences
    /// contained therein").
    Complete,
    /// Unweighted group average (UPGMA) — the linkage used throughout the
    /// paper's figures.
    Average,
    /// Ward's minimum-variance criterion (expects Euclidean distances).
    Ward,
}

impl Linkage {
    /// Lance–Williams distance from the merge of clusters `a` (size
    /// `na`) and `b` (size `nb`) to another cluster `k` (size `nk`),
    /// given the pre-merge distances.
    fn update(self, dak: f64, dbk: f64, dab: f64, na: f64, nb: f64, nk: f64) -> f64 {
        match self {
            Linkage::Single => dak.min(dbk),
            Linkage::Complete => dak.max(dbk),
            Linkage::Average => (na * dak + nb * dbk) / (na + nb),
            Linkage::Ward => {
                let t = na + nb + nk;
                (((na + nk) * dak * dak + (nb + nk) * dbk * dbk - nk * dab * dab) / t)
                    .max(0.0)
                    .sqrt()
            }
        }
    }
}

/// Agglomerate `matrix.len()` items under `linkage`, returning the full
/// dendrogram.
///
/// The chain runs on a dense row-major `m × m` working copy of the
/// condensed input, so each nearest-neighbour search is one contiguous
/// row scan. The diagonal and the column of every retired slot hold
/// `+∞`, which no strict `<` picks. The search takes the first index
/// holding the smallest distance strictly below the previous chain
/// element's, else that previous element, so ties resolve as in a
/// per-pair scan of the condensed matrix and the merges are the same
/// bit for bit.
///
/// # Panics
///
/// Panics for an empty matrix (there is nothing to cluster).
// lint: panic-exempt(documented precondition: the index builder always clusters a non-empty rotation matrix)
pub fn cluster(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
    let m = matrix.len();
    assert!(m > 0, "cluster: empty distance matrix");
    if m == 1 {
        return Dendrogram::from_raw_merges(1, Vec::new());
    }

    let mut dist = Dense::of(matrix);
    // `size[i]` is the cardinality of the cluster slot i holds (exact
    // in f64 at any size a matrix can have); `live` lists the slots
    // still in play, in increasing order.
    let mut size = vec![1.0f64; m];
    let mut live: Vec<usize> = (0..m).collect();
    let mut merges: Vec<RawMerge> = Vec::with_capacity(m - 1);

    // NN-chain stack.
    let mut chain: Vec<usize> = Vec::with_capacity(m);

    while live.len() > 1 {
        if chain.is_empty() {
            chain.extend(live.first());
        }
        // Grow the chain until it ends in a pair of reciprocal nearest
        // neighbours.
        while let Some(&top) = chain.last() {
            debug_assert!(chain.len() <= live.len());
            let prev = chain.iter().rev().nth(1).copied();
            let nearest = match nearest_in_row(dist.row(top), prev) {
                Some(k) => k,
                // Only a row with no distance below +∞ to a live slot
                // gets here; take the first live slot so the chain
                // still ends.
                None => live.iter().copied().find(|&k| k != top).unwrap_or(top),
            };
            if Some(nearest) != prev {
                chain.push(nearest);
                continue;
            }
            // Reciprocal nearest neighbours found: merge `nearest` into
            // `top`'s slot.
            chain.truncate(chain.len().saturating_sub(2));
            let (a, b) = (top, nearest);
            let dab = dist.get(a, b);
            merges.push(RawMerge { a, b, height: dab });
            live.retain(|&k| k != b);
            let (na, nb) = (size_at(&size, a), size_at(&size, b));
            for &k in &live {
                if k != a {
                    let updated = linkage.update(
                        dist.get(a, k),
                        dist.get(b, k),
                        dab,
                        na,
                        nb,
                        size_at(&size, k),
                    );
                    dist.set(a, k, updated);
                    dist.set(k, a, updated);
                }
            }
            for &k in &live {
                dist.set(k, b, f64::INFINITY);
            }
            if let Some(merged) = size.get_mut(a) {
                *merged = na + nb;
            }
            break;
        }
    }

    Dendrogram::from_raw_merges(m, merges)
}

/// `size[i]`, read without a panic path (every slot id is in range).
fn size_at(size: &[f64], i: usize) -> f64 {
    size.get(i).copied().unwrap_or(0.0)
}

/// The NN-chain's working copy: a dense row-major `m × m` matrix with
/// `+∞` on the diagonal.
struct Dense {
    m: usize,
    cells: Vec<f64>,
}

impl Dense {
    /// Copy `matrix`: the upper rows are the condensed rows, and the
    /// lower triangle is their transpose (copied, not recomputed: see
    /// [`crate::rotation_shift`]), written in blocks of rows so the
    /// scattered writes stay in cache.
    fn of(matrix: &DistanceMatrix) -> Self {
        const BLOCK: usize = 16;
        let m = matrix.len();
        let mut cells = vec![f64::INFINITY; m * m];
        for ((i, row), upper) in cells.chunks_exact_mut(m).enumerate().zip(matrix.rows()) {
            row.split_at_mut(i + 1).1.copy_from_slice(upper);
        }
        for (block_index, block) in cells.chunks_mut(BLOCK * m).enumerate() {
            // Rows `lo..hi` take column `i` from condensed row `i < hi`.
            let lo = block_index * BLOCK;
            let hi = (lo + BLOCK).min(m);
            for (i, upper) in matrix.rows().enumerate().take(hi - 1) {
                let first = lo.max(i + 1);
                let Some(column) = upper.get(first - i - 1..hi - i - 1) else {
                    continue;
                };
                for (row, &v) in block.chunks_exact_mut(m).skip(first - lo).zip(column) {
                    if let Some(cell) = row.get_mut(i) {
                        *cell = v;
                    }
                }
            }
        }
        Dense { m, cells }
    }

    /// Row `i`, contiguous.
    fn row(&self, i: usize) -> &[f64] {
        self.cells.chunks_exact(self.m).nth(i).unwrap_or_default()
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.cells
            .get(i * self.m + j)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    fn set(&mut self, i: usize, j: usize, value: f64) {
        if let Some(cell) = self.cells.get_mut(i * self.m + j) {
            *cell = value;
        }
    }
}

/// The index of `row`'s smallest entry strictly below the `prev` entry
/// (below `+∞` without one), the first such index on a tie; `prev` when
/// no entry is below it; `None` when there is neither.
fn nearest_in_row(row: &[f64], prev: Option<usize>) -> Option<usize> {
    let start = prev
        .and_then(|p| row.get(p))
        .copied()
        .unwrap_or(f64::INFINITY);
    // A strict-`<` minimum in each of eight lanes (independent compare
    // chains the compiler can vectorize), then across lanes: the minimum
    // value is the same in any order, and the first index holding it is
    // found below.
    let mut lanes = [start; 8];
    let mut blocks = row.chunks_exact(8);
    for block in &mut blocks {
        for (lane, &v) in lanes.iter_mut().zip(block) {
            if v < *lane {
                *lane = v;
            }
        }
    }
    let min = lanes
        .into_iter()
        .chain(blocks.remainder().iter().copied())
        .fold(start, |min, v| if v < min { v } else { min });
    if min < start {
        row.iter().position(|&v| v == min)
    } else {
        prev
    }
}

/// Convenience: cluster raw vectors under the Euclidean metric.
///
/// ```
/// use rotind_cluster::linkage::{cluster_series, Linkage};
/// let series = vec![vec![0.0], vec![0.1], vec![9.0], vec![9.1]];
/// let dendrogram = cluster_series(&series, Linkage::Average);
/// let mut cut = dendrogram.cut(2);
/// for group in &mut cut { group.sort_unstable(); }
/// cut.sort();
/// assert_eq!(cut, vec![vec![0, 1], vec![2, 3]]);
/// ```
// lint: panic-exempt(DistanceMatrix::from_fn yields i and j below series.len() by contract)
pub fn cluster_series(series: &[Vec<f64>], linkage: Linkage) -> Dendrogram {
    let matrix = DistanceMatrix::from_fn(series.len(), |i, j| {
        series[i]
            .iter()
            .zip(&series[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    });
    cluster(&matrix, linkage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation_shift::rotation_distance_matrix;
    use crate::rotation_shift::tests::{awkward_series, matrix_kinds};
    use proptest::prelude::*;
    use rotind_ts::rotate::RotationMatrix;

    /// Reference for [`cluster`]: the NN-chain on the condensed matrix
    /// through `get`, with an `active` test per slot.
    fn cluster_reference(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
        let m = matrix.len();
        assert!(m > 0, "cluster: empty distance matrix");
        if m == 1 {
            return Dendrogram::from_raw_merges(1, Vec::new());
        }

        // Working copy of the distance matrix, updated in place as clusters
        // merge; `size[i]` is the cardinality of the cluster currently
        // represented by slot i; `active[i]` marks live slots.
        let mut dist = matrix.clone();
        let mut size = vec![1usize; m];
        let mut active = vec![true; m];
        let mut merges: Vec<RawMerge> = Vec::with_capacity(m - 1);

        // NN-chain stack.
        let mut chain: Vec<usize> = Vec::with_capacity(m);

        for _ in 0..m - 1 {
            if chain.is_empty() {
                let start = active
                    .iter()
                    .position(|&a| a)
                    .expect("at least two active clusters remain");
                chain.push(start);
            }
            // Grow the chain until it ends in a pair of reciprocal nearest
            // neighbours.
            loop {
                let top = *chain.last().expect("chain is non-empty");
                let mut nearest = usize::MAX;
                let mut nearest_d = f64::INFINITY;
                // Prefer the previous chain element on ties so reciprocity is
                // detected deterministically.
                let prev = if chain.len() >= 2 {
                    Some(chain[chain.len() - 2])
                } else {
                    None
                };
                if let Some(p) = prev {
                    nearest = p;
                    nearest_d = dist.get(top, p);
                }
                #[allow(clippy::needless_range_loop)] // index used across multiple slices
                for k in 0..m {
                    if k == top || !active[k] || Some(k) == prev {
                        continue;
                    }
                    let d = dist.get(top, k);
                    if d < nearest_d {
                        nearest_d = d;
                        nearest = k;
                    }
                }
                debug_assert_ne!(nearest, usize::MAX);
                if Some(nearest) == prev {
                    // Reciprocal nearest neighbours found: merge `top` and
                    // `nearest`.
                    chain.pop();
                    chain.pop();
                    let (a, b) = (top, nearest);
                    merges.push(RawMerge {
                        a,
                        b,
                        height: nearest_d,
                    });
                    // Merge b into a's slot.
                    let (na, nb) = (size[a] as f64, size[b] as f64);
                    let dab = dist.get(a, b);
                    for k in 0..m {
                        if k == a || k == b || !active[k] {
                            continue;
                        }
                        let updated = linkage.update(
                            dist.get(a, k),
                            dist.get(b, k),
                            dab,
                            na,
                            nb,
                            size[k] as f64,
                        );
                        dist.set(a, k, updated);
                    }
                    size[a] += size[b];
                    active[b] = false;
                    break;
                }
                chain.push(nearest);
            }
        }

        Dendrogram::from_raw_merges(m, merges)
    }

    const LINKAGES: [Linkage; 4] = [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
    ];

    fn merge_bits(dendrogram: &Dendrogram) -> Vec<(usize, usize, u64)> {
        dendrogram
            .merges()
            .iter()
            .map(|mg| (mg.left, mg.right, mg.height.to_bits()))
            .collect()
    }

    fn assert_same_as_reference(matrix: &DistanceMatrix) {
        for linkage in LINKAGES {
            assert_eq!(
                merge_bits(&cluster(matrix, linkage)),
                merge_bits(&cluster_reference(matrix, linkage)),
                "{linkage:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_and_tied_matrices_merge_as_the_reference(
            m in 1usize..70,
            levels in 1u64..6,
            raw in prop::collection::vec(0u64..u64::MAX, 2415..2416),
            kind in 0usize..3,
        ) {
            // 0: random reals; 1: a few quantized integer levels; 2: all
            // equal.
            let mut draws = raw.iter().cycle();
            let matrix = DistanceMatrix::from_fn(m, |_, _| {
                let r = draws.next().copied().unwrap_or(0);
                match kind {
                    0 => (r % 1_000_003) as f64 / 1000.0,
                    1 => (r % levels) as f64,
                    _ => 2.5,
                }
            });
            assert_same_as_reference(&matrix);
        }

        #[test]
        fn rotation_matrices_merge_as_the_reference(
            kind in 0usize..4,
            raw in prop::collection::vec(0u64..u64::MAX, 1..48),
            repeat in 1usize..10,
            max_shift in 0usize..12,
        ) {
            let series = awkward_series(kind, &raw, repeat);
            for rows in matrix_kinds(&series, max_shift) {
                assert_same_as_reference(&rotation_distance_matrix(&rows));
            }
        }
    }

    #[test]
    fn a_full_size_mirror_matrix_merges_as_the_reference() {
        let series: Vec<f64> = (0..251)
            .map(|j| (j as f64 * 0.11).sin() + 0.3 * (j as f64 * 0.37).cos())
            .collect();
        let rows = RotationMatrix::with_mirror(&series).unwrap();
        assert_same_as_reference(&rotation_distance_matrix(&rows));
    }

    #[test]
    fn a_row_without_a_finite_distance_still_merges() {
        let matrix = DistanceMatrix::from_fn(5, |_, _| f64::INFINITY);
        for linkage in LINKAGES {
            let dend = cluster(&matrix, linkage);
            assert_eq!(dend.merges().len(), 4, "{linkage:?}");
        }
    }

    /// Two tight groups far apart: every linkage must split them at K=2.
    fn two_blobs() -> DistanceMatrix {
        let points: &[f64] = &[0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        DistanceMatrix::from_fn(points.len(), |i, j| (points[i] - points[j]).abs())
    }

    #[test]
    fn separates_obvious_blobs_under_every_linkage() {
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let dend = cluster(&two_blobs(), linkage);
            let mut cut = dend.cut(2);
            for c in &mut cut {
                c.sort_unstable();
            }
            cut.sort();
            assert_eq!(cut, vec![vec![0, 1, 2], vec![3, 4, 5]], "{linkage:?}");
        }
    }

    #[test]
    fn merge_count_and_root() {
        let dend = cluster(&two_blobs(), Linkage::Average);
        assert_eq!(dend.num_leaves(), 6);
        assert_eq!(dend.merges().len(), 5);
        let mut root_members = dend.members(dend.root().expect("root exists"));
        root_members.sort_unstable();
        assert_eq!(root_members, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_linkage_matches_naive_on_line() {
        // On collinear points single linkage merges nearest gaps first.
        let points: &[f64] = &[0.0, 1.0, 3.0, 6.0];
        let m = DistanceMatrix::from_fn(4, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Single);
        let heights: Vec<f64> = dend.merges().iter().map(|mg| mg.height).collect();
        assert_eq!(heights, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn complete_linkage_heights_are_diameters() {
        let points: &[f64] = &[0.0, 1.0, 10.0];
        let m = DistanceMatrix::from_fn(3, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Complete);
        assert_eq!(dend.merges()[0].height, 1.0);
        assert_eq!(dend.merges()[1].height, 10.0);
    }

    #[test]
    fn average_linkage_height() {
        let points: &[f64] = &[0.0, 2.0, 9.0];
        let m = DistanceMatrix::from_fn(3, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Average);
        assert_eq!(dend.merges()[0].height, 2.0);
        // d({0,1}, {2}) = (9 + 7) / 2 = 8.
        assert_eq!(dend.merges()[1].height, 8.0);
    }

    #[test]
    fn ward_prefers_balanced_merges() {
        // Ward should merge the two singletons at distance 1 before
        // attaching anything to the big far cluster.
        let points: &[f64] = &[0.0, 1.0, 50.0, 50.5, 51.0];
        let m = DistanceMatrix::from_fn(5, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Ward);
        let mut cut = dend.cut(2);
        for c in &mut cut {
            c.sort_unstable();
        }
        cut.sort();
        assert_eq!(cut, vec![vec![0, 1], vec![2, 3, 4]]);
    }

    #[test]
    fn singleton_input() {
        let dend = cluster(&DistanceMatrix::zeros(1), Linkage::Average);
        assert_eq!(dend.num_leaves(), 1);
        assert!(dend.merges().is_empty());
        assert_eq!(dend.cut(1), vec![vec![0]]);
    }

    #[test]
    fn cluster_series_euclidean() {
        let series = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ];
        let dend = cluster_series(&series, Linkage::Average);
        let mut cut = dend.cut(2);
        for c in &mut cut {
            c.sort_unstable();
        }
        cut.sort();
        assert_eq!(cut, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn ties_do_not_break_the_chain() {
        // All points equidistant: any dendrogram is valid, but the
        // algorithm must terminate with m−1 merges.
        let m = DistanceMatrix::from_fn(8, |_, _| 1.0);
        let dend = cluster(&m, Linkage::Average);
        assert_eq!(dend.merges().len(), 7);
        for k in 1..=8 {
            let cut = dend.cut(k);
            assert_eq!(cut.len(), k);
            let total: usize = cut.iter().map(Vec::len).sum();
            assert_eq!(total, 8);
        }
    }
}
