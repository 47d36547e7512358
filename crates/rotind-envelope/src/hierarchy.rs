//! Hierarchically nested wedges (Section 4.1, Figures 7, 9 and 10).
//!
//! The `n` admitted rotations of a query are clustered by group-average
//! linkage (using the `O(n²)` shift-profile distance matrix), and every
//! dendrogram node is materialised as a wedge: leaves are single
//! rotations, internal nodes merge their children's envelopes. Cutting
//! the dendrogram at `K` yields the paper's wedge set
//! `W = {W_set(1), …, W_set(K)}`, a partition of the rotations; the
//! H-Merge search descends from the cut towards the leaves only where the
//! lower bound fails to prune.

use crate::wedge::Wedge;
use rotind_cluster::linkage::{cluster, Linkage};
use rotind_cluster::rotation_shift::rotation_distance_matrix;
use rotind_cluster::Dendrogram;
use rotind_ts::rotate::{Rotation, RotationMatrix};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A rotation matrix, its dendrogram, and a wedge for every node.
///
/// The construction cost is the paper's `O(n²)` wedge-build startup:
/// `O(n²)` for the shift-profile distance matrix (profiles four shifts
/// per pass, rows filled by slice copies), `O(n²)` for NN-chain
/// clustering (contiguous row scans over a dense working copy of the
/// matrix), and `O(n²)` to materialise all `2·rows − 1` wedge
/// envelopes. For a mirror-invariant query (n = 251, 502 rows) the
/// clustering is a little over half of the build and the envelopes
/// about a third. Abandon orders are not part of it: a node's order is
/// computed on the first reordered `LB_Keogh` test that reads it, so a
/// search pays only for the nodes it actually tests. The rows are
/// circular shifts of one series, so most nodes of a band-0 tree cover
/// a translate of an earlier node's rotations, and their envelopes are
/// that node's rotated. Such a node re-indexes the earlier node's order
/// in `O(n)` instead of sorting its own in `O(n log n)`; only the first
/// node of each translation class sorts.
#[derive(Debug, Clone)]
pub struct WedgeTree {
    matrix: RotationMatrix,
    dendrogram: Dendrogram,
    /// Plain wedge per node (node ids follow the dendrogram convention).
    wedges: Vec<Wedge>,
    /// Envelopes used for lower bounding: widened copies when `band > 0`.
    lb_wedges: Option<Vec<Wedge>>,
    band: usize,
    /// Per node, when `band == 0`: the representative of its translation
    /// class and the shift that maps the representative's rotations onto
    /// its own (a representative maps to itself with shift 0). Empty when
    /// `band > 0`: widened envelopes are clipped at the series ends, so
    /// they are not rotations of each other.
    classes: Vec<(usize, usize)>,
    /// Abandon order per node, filled by [`WedgeTree::abandon_order`].
    orders: Vec<OnceLock<Vec<u32>>>,
}

/// Translation class of every node, from the merge records with one
/// map lookup per merge (an ordered map over the few classes a tree has
/// costs less than hashing the keys). A leaf's class is its mirror flag, offset by its shift. A
/// merge of children in classes `(c_l, t_l)` and `(c_r, t_r)` covers
/// `c_l`'s rotations shifted by `t_l` together with `c_r`'s shifted by
/// `t_r`, so its rotations up to translation are named by `(c_l, c_r,
/// t_r − t_l mod n)`, taken in whichever child order gives the smaller
/// key. The first node with a key represents the class; each node gets
/// its representative and its shift from it.
fn translation_classes(matrix: &RotationMatrix, dendrogram: &Dendrogram) -> Vec<(usize, usize)> {
    let n = matrix.series_len();
    // `a − b mod n` for `a, b < n`, without a division.
    let sub = |a: usize, b: usize| if a >= b { a - b } else { a + n - b };
    // Class key → (representative, the representative's own offset).
    let mut first: BTreeMap<(usize, usize, usize), (usize, usize)> = BTreeMap::new();
    let mut classes = Vec::with_capacity(dendrogram.num_nodes());
    for (node, rotation) in matrix.rotations().iter().enumerate() {
        // No node id is usize::MAX, so leaf keys never meet merge keys.
        let key = (usize::MAX, usize::from(rotation.mirrored), 0);
        let (rep, base) = *first.entry(key).or_insert((node, rotation.shift));
        classes.push((rep, sub(rotation.shift, base)));
    }
    for (node, merge) in (matrix.num_rotations()..).zip(dendrogram.merges()) {
        let class = match (classes.get(merge.left), classes.get(merge.right)) {
            (Some(&(l, tl)), Some(&(r, tr))) => {
                let (key, offset) =
                    std::cmp::min(((l, r, sub(tr, tl)), tl), ((r, l, sub(tl, tr)), tr));
                let (rep, base) = *first.entry(key).or_insert((node, offset));
                (rep, sub(offset, base))
            }
            _ => (node, 0),
        };
        classes.push(class);
    }
    classes
}

impl WedgeTree {
    /// Build the tree over all rows of `matrix`, clustering with
    /// `linkage` (the paper uses group-average) and widening lower-bound
    /// envelopes by the DTW band `band` (0 for Euclidean/LCSS).
    pub fn build(matrix: RotationMatrix, linkage: Linkage, band: usize) -> Self {
        // The distance matrix is dropped before the wedges are built, so
        // the two never occupy the heap at once.
        let dendrogram = cluster(&rotation_distance_matrix(&matrix), linkage);
        Self::from_dendrogram(matrix, dendrogram, band)
    }

    /// Build with the paper's defaults: group-average linkage.
    pub fn new(matrix: RotationMatrix, band: usize) -> Self {
        Self::build(matrix, Linkage::Average, band)
    }

    /// Assemble wedges for a pre-computed dendrogram (exposed for ablation
    /// benches that compare linkages and for tests with handcrafted
    /// trees).
    ///
    /// # Panics
    ///
    /// Panics when the dendrogram's leaf count differs from the number of
    /// rotations in `matrix`.
    // lint: panic-exempt(documented precondition: the builder derives the dendrogram from the same matrix)
    pub fn from_dendrogram(matrix: RotationMatrix, dendrogram: Dendrogram, band: usize) -> Self {
        let rows = matrix.num_rotations();
        assert_eq!(
            dendrogram.num_leaves(),
            rows,
            "dendrogram must have one leaf per rotation"
        );
        let mut wedges: Vec<Wedge> = Vec::with_capacity(dendrogram.num_nodes());
        for leaf in 0..rows {
            wedges.push(Wedge::from_rows(&matrix, &[leaf]));
        }
        for merge in dendrogram.merges() {
            let w = Wedge::merge(&wedges[merge.left], &wedges[merge.right]);
            wedges.push(w);
        }
        let lb_wedges = (band > 0).then(|| {
            // One deque workspace serves all 2·rows − 1 widenings.
            let mut scratch = crate::envelope::SlidingScratch::new();
            wedges
                .iter()
                .map(|w| w.widened_with(band, &mut scratch))
                .collect()
        });
        let classes = if band == 0 {
            translation_classes(&matrix, &dendrogram)
        } else {
            Vec::new()
        };
        let orders = std::iter::repeat_with(OnceLock::new)
            .take(wedges.len())
            .collect();
        WedgeTree {
            matrix,
            dendrogram,
            wedges,
            lb_wedges,
            band,
            classes,
            orders,
        }
    }

    /// The underlying rotation matrix.
    pub fn matrix(&self) -> &RotationMatrix {
        &self.matrix
    }

    /// The dendrogram over the rotations.
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendrogram
    }

    /// The DTW band the lower-bound envelopes were widened by.
    pub fn band(&self) -> usize {
        self.band
    }

    /// Number of rotations (= leaves = the maximum wedge-set size `K`).
    pub fn max_k(&self) -> usize {
        self.dendrogram.num_leaves()
    }

    /// Root node id.
    pub fn root(&self) -> usize {
        // Invariant: construction rejects empty input, so the dendrogram
        // always has at least one leaf and therefore a root.
        // rotind-lint: allow(no-panic)
        self.dendrogram.root().expect("non-empty tree")
    }

    /// `true` when `node` is a single-rotation leaf.
    pub fn is_leaf(&self, node: usize) -> bool {
        self.dendrogram.is_leaf(node)
    }

    /// Children of an internal node.
    pub fn children(&self, node: usize) -> Option<(usize, usize)> {
        self.dendrogram.children(node)
    }

    /// The plain (unwidened) wedge at `node`.
    // lint: panic-exempt(node ids come from this hierarchy's own dendrogram, one wedge per node)
    pub fn wedge(&self, node: usize) -> &Wedge {
        &self.wedges[node]
    }

    /// The lower-bounding envelope at `node`: widened by the band for DTW,
    /// the plain wedge otherwise.
    // lint: witness-exempt(accessor: returns a precomputed envelope, computes no bound — admissibility is witnessed where the envelope is consumed, in lb_keogh_early_abandon_at)
    pub fn lb_wedge(&self, node: usize) -> &Wedge {
        match &self.lb_wedges {
            // lint: panic-exempt(lb_wedges, when present, holds one wedge per node — the same id space as wedges)
            Some(w) => &w[node],
            None => &self.wedges[node],
        }
    }

    /// Positions of the lower-bounding wedge at `node` in decreasing
    /// expected-contribution order, for reordered early abandoning of
    /// `LB_Keogh`: the permutation [`Wedge::sort_abandon_order`] gives,
    /// computed on the first read and cached. A node whose envelopes are,
    /// bit for bit, its class representative's rotated re-indexes the
    /// representative's order instead of sorting; otherwise it sorts its
    /// own. Empty for a node id outside the tree.
    pub fn abandon_order(&self, node: usize) -> &[u32] {
        let Some(order) = self.orders.get(node) else {
            return &[];
        };
        let init = || {
            let wedge = self.lb_wedge(node);
            match self.classes.get(node) {
                Some(&(rep, shift))
                    if rep != node && wedge.is_rotation_of(self.lb_wedge(rep), shift) =>
                {
                    wedge.rotated_abandon_order(self.abandon_order(rep), shift)
                }
                _ => wedge.sort_abandon_order(),
            }
        };
        // lint: blocking-allowed(a concurrent first reader waits for at most one O(n log n) sort of the class representative plus one O(n) re-index; a representative never waits on another node, and no IO or lock runs under it)
        order.get_or_init(init)
    }

    /// The rotation at a leaf node.
    ///
    /// # Panics
    ///
    /// Panics when `node` is internal.
    // lint: panic-exempt(documented precondition: the engine only asks for rotations at leaves of this hierarchy)
    pub fn leaf_rotation(&self, node: usize) -> Rotation {
        assert!(self.is_leaf(node), "leaf_rotation on internal node {node}");
        self.matrix.rotations()[node]
    }

    /// Materialise the rotated series at a leaf node.
    // lint: panic-exempt(documented precondition: the engine only materialises leaves of this hierarchy)
    pub fn leaf_series(&self, node: usize) -> Vec<f64> {
        assert!(self.is_leaf(node), "leaf_series on internal node {node}");
        self.matrix.row(node).to_vec()
    }

    /// Node ids forming the wedge set of size `k` (clamped to
    /// `[1, max_k]`) — the dendrogram cut of Figure 10.
    pub fn cut_nodes(&self, k: usize) -> Vec<usize> {
        self.dendrogram.cut_nodes(k)
    }

    /// Total envelope area of the size-`k` wedge set (ablation metric).
    pub fn cut_area(&self, k: usize) -> f64 {
        self.cut_nodes(k)
            .iter()
            .map(|&n| self.wedges[n].area())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.29).sin() + 0.5 * (i as f64 * 0.07).cos())
            .collect()
    }

    fn tree(n: usize, band: usize) -> WedgeTree {
        let m = RotationMatrix::full(&signal(n)).unwrap();
        WedgeTree::new(m, band)
    }

    #[test]
    fn structure_counts() {
        let t = tree(16, 0);
        assert_eq!(t.max_k(), 16);
        assert_eq!(t.dendrogram().num_nodes(), 31);
        assert!(!t.is_leaf(t.root()));
        assert_eq!(t.band(), 0);
    }

    #[test]
    fn every_internal_wedge_contains_its_leaves() {
        let t = tree(20, 0);
        for node in 0..t.dendrogram().num_nodes() {
            for leaf in t.dendrogram().members(node) {
                let series = t.leaf_series(leaf);
                assert!(
                    t.wedge(node).contains(&series),
                    "node {node} misses leaf {leaf}"
                );
            }
        }
    }

    /// The shifts of the rotations under `node`.
    fn shifts(t: &WedgeTree, node: usize) -> Vec<usize> {
        t.dendrogram()
            .members(node)
            .iter()
            .map(|&l| t.leaf_rotation(l).shift)
            .collect()
    }

    #[test]
    fn wedge_cardinality_matches_dendrogram_members() {
        for band in [0usize, 2] {
            let t = tree(12, band);
            for node in 0..t.dendrogram().num_nodes() {
                let size = t.dendrogram().members(node).len();
                assert_eq!(t.wedge(node).cardinality(), size, "node {node}");
                assert_eq!(t.lb_wedge(node).cardinality(), size, "node {node}");
            }
        }
    }

    #[test]
    fn cut_nodes_partition_rotations() {
        let t = tree(24, 0);
        for k in [1usize, 2, 5, 12, 24] {
            let cut = t.cut_nodes(k);
            assert_eq!(cut.len(), k);
            let mut covered: Vec<usize> = cut.iter().flat_map(|&n| shifts(&t, n)).collect();
            covered.sort_unstable();
            assert_eq!(covered, (0..24).collect::<Vec<_>>(), "k = {k}");
        }
    }

    #[test]
    fn clustering_groups_adjacent_rotations_of_smooth_series() {
        // For a single smooth bump, a small-K cut should place rotation 0
        // with its circular neighbours rather than with the antipode.
        let n = 32;
        let c: Vec<f64> = (0..n)
            .map(|i| (i as f64 / n as f64 * std::f64::consts::TAU).sin())
            .collect();
        let m = RotationMatrix::full(&c).unwrap();
        let t = WedgeTree::new(m, 0);
        let cut = t.cut_nodes(4);
        // Find the wedge holding rotation 0; it must also hold rotation 1
        // or rotation n−1 (a circular neighbour).
        let holder = cut
            .iter()
            .find(|&&node| shifts(&t, node).contains(&0))
            .copied()
            .expect("some wedge holds rotation 0");
        let has_neighbor = shifts(&t, holder).iter().any(|&s| s == 1 || s == n - 1);
        assert!(
            has_neighbor || t.wedge(holder).cardinality() == 1,
            "rotation 0 grouped without circular neighbours"
        );
    }

    #[test]
    fn lb_wedges_widened_only_for_dtw() {
        let t0 = tree(16, 0);
        assert_eq!(t0.lb_wedge(3).upper(), t0.wedge(3).upper());
        let t2 = tree(16, 2);
        let root = t2.root();
        assert!(t2.lb_wedge(root).area() >= t2.wedge(root).area());
        // Widened leaf envelopes still contain the leaf series.
        for leaf in 0..t2.max_k() {
            assert!(t2.lb_wedge(leaf).contains(&t2.leaf_series(leaf)));
        }
    }

    #[test]
    fn cut_area_extremes() {
        // Note per-wedge areas are NOT additive across a split (heavily
        // overlapping children can sum to more than their parent), so
        // only the extremes are certain: the K = 1 cut is the root wedge
        // and the K = max cut is all singletons with zero area.
        let t = tree(24, 0);
        assert_eq!(t.cut_area(24), 0.0, "singleton wedges have zero area");
        let root_area = t.wedge(t.root()).area();
        assert!(root_area > 0.0);
        assert_eq!(t.cut_area(1), root_area);
        // Each child's area is bounded by its parent's.
        for node in 0..t.dendrogram().num_nodes() {
            if let Some((l, r)) = t.children(node) {
                assert!(t.wedge(l).area() <= t.wedge(node).area() + 1e-12);
                assert!(t.wedge(r).area() <= t.wedge(node).area() + 1e-12);
            }
        }
    }

    /// Every node's cached order against a fresh sort of its wedge;
    /// returns how many nodes re-indexed a representative's order and
    /// how many had a representative but failed the bitwise check.
    fn check_orders(t: &WedgeTree) -> (usize, usize) {
        let (mut shared, mut fallback) = (0, 0);
        for node in 0..t.dendrogram().num_nodes() {
            let wedge = t.lb_wedge(node);
            assert_eq!(
                t.abandon_order(node),
                wedge.sort_abandon_order(),
                "node {node}"
            );
            if let Some(&(rep, shift)) = t.classes.get(node).filter(|c| c.0 != node) {
                if wedge.is_rotation_of(t.lb_wedge(rep), shift) {
                    shared += 1;
                } else {
                    fallback += 1;
                }
            }
        }
        (shared, fallback)
    }

    /// The four matrix kinds a query can build over `series`.
    fn matrices(series: &[f64], max_shift: usize) -> Vec<RotationMatrix> {
        let max_shift = max_shift.min(series.len() - 1);
        vec![
            RotationMatrix::full(series).unwrap(),
            RotationMatrix::with_mirror(series).unwrap(),
            RotationMatrix::limited(series, max_shift).unwrap(),
            RotationMatrix::limited_with_mirror(series, max_shift).unwrap(),
        ]
    }

    /// Series of one of three kinds, drawn from `raw`: random values; a
    /// motif repeated `repeat` times (a series that is its own
    /// translate); or small multiples of 0.5 whose zeros carry either
    /// sign (exact key ties, and merges that may keep either zero).
    fn awkward_series(kind: usize, raw: &[u64], repeat: usize) -> Vec<f64> {
        let quantized = |r: u64| (r % 5) as f64 * 0.5 - 1.0;
        match kind {
            0 => raw
                .iter()
                .map(|&r| (r % 6001) as f64 / 1000.0 - 3.0)
                .collect(),
            1 => raw
                .iter()
                .take(5)
                .map(|&r| quantized(r))
                .collect::<Vec<_>>()
                .repeat(repeat),
            _ => raw
                .iter()
                .map(|&r| {
                    let x = quantized(r);
                    if r & 1 << 40 == 0 {
                        x
                    } else {
                        -x
                    }
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn a_shared_order_equals_a_fresh_sort(
            kind in 0usize..3,
            raw in prop::collection::vec(0u64..u64::MAX, 2..40),
            repeat in 2usize..8,
            max_shift in 1usize..12,
        ) {
            let series = awkward_series(kind, &raw, repeat);
            for m in matrices(&series, max_shift) {
                check_orders(&WedgeTree::new(m.clone(), 0));
                let widened = WedgeTree::new(m, 2);
                prop_assert!(widened.classes.is_empty(), "band > 0 trees share no order");
                prop_assert_eq!(check_orders(&widened), (0, 0));
            }
        }
    }

    #[test]
    fn translates_share_and_signed_zeros_fall_back() {
        let smooth = tree(64, 0);
        let (shared, fallback) = check_orders(&smooth);
        assert!(
            shared > smooth.max_k(),
            "most internal nodes are translates"
        );
        assert_eq!(fallback, 0);
    }

    #[test]
    fn a_translate_merged_in_the_other_order_sorts_itself() {
        // Node 12 merges rotations 0 and 1; node 13 merges their
        // translates by 3 in the other child order. Where a `+0.0` and a
        // `-0.0` tie, merge may keep either, so node 13's envelopes can
        // differ in a sign bit from node 12's rotated, and it must then
        // sort its own order.
        let mut series = vec![0.0, -0.0];
        series.extend((2..12).map(|i| f64::from(i % 4) - 1.5));
        let m = RotationMatrix::full(&series).unwrap();
        let pairs = [
            (0, 1),
            (4, 3),
            (2, 5),
            (6, 7),
            (8, 9),
            (10, 11),
            (0, 4),
            (2, 6),
            (8, 10),
            (0, 2),
            (0, 8),
        ];
        let raw = (1..)
            .zip(pairs)
            .map(|(h, (a, b))| rotind_cluster::dendrogram::RawMerge {
                a,
                b,
                height: f64::from(h),
            })
            .collect();
        let t = WedgeTree::from_dendrogram(m, Dendrogram::from_raw_merges(12, raw), 0);
        assert_eq!(t.classes[13], (12, 3));
        let (plus, minus) = (
            Wedge::from_single(&[0.0; 16]),
            Wedge::from_single(&[-0.0; 16]),
        );
        let order_sensitive =
            !Wedge::merge(&plus, &minus).is_rotation_of(&Wedge::merge(&minus, &plus), 0);
        let (_, fallback) = check_orders(&t);
        assert!(
            fallback > 0 || !order_sensitive,
            "merge keeps one operand's zero, yet no node fell back"
        );
    }

    #[test]
    fn concurrent_first_reads_see_the_fresh_permutation() {
        let t = tree(251, 0);
        let (member, (rep, _)) = (0..t.dendrogram().num_nodes())
            .map(|node| (node, t.classes[node]))
            .rfind(|&(node, (rep, _))| rep != node && !t.is_leaf(node))
            .expect("a 251-rotation tree has a translated internal node");
        let fresh = t.lb_wedge(member).sort_abandon_order();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let readers: Vec<_> = [member, rep, member, rep]
                .into_iter()
                .map(|node| {
                    let start = &start;
                    let t = &t;
                    s.spawn(move || {
                        start.wait();
                        (node, t.abandon_order(node).to_vec())
                    })
                })
                .collect();
            for reader in readers {
                let (node, order) = reader.join().unwrap();
                assert_eq!(order, t.lb_wedge(node).sort_abandon_order(), "node {node}");
            }
        });
        assert_eq!(t.abandon_order(member), &fresh[..]);
    }

    #[test]
    fn works_with_mirror_and_limited_matrices() {
        let c = signal(14);
        let mm = RotationMatrix::with_mirror(&c).unwrap();
        let tm = WedgeTree::new(mm, 1);
        assert_eq!(tm.max_k(), 28);
        let lm = RotationMatrix::limited(&c, 3).unwrap();
        let tl = WedgeTree::new(lm, 0);
        assert_eq!(tl.max_k(), 7);
    }
}
