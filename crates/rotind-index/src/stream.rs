//! Streaming query filtering with wedges ("Atomic Wedgie").
//!
//! Section 1 of the paper lists *"query by humming and monitoring
//! streams"* among the adopted applications of LB_Keogh wedges, citing
//! Wei et al.'s Atomic Wedgie \[40\]: a set of *pattern* series is merged
//! into hierarchical wedges, and each incoming sliding window of a live
//! stream is tested against the wedge set — one early-abandoning
//! `LB_Keogh` pass can dismiss *every* pattern at once, which is what
//! makes monitoring hundreds of patterns at stream rate feasible.
//!
//! The wedge machinery is exactly the one the shape engine uses; only
//! the candidate set differs (arbitrary patterns instead of the
//! rotations of one query). Patterns may carry individual thresholds.

use crate::error::SearchError;
use rotind_cluster::linkage::{cluster_series, Linkage};
use rotind_cluster::Dendrogram;
use rotind_distance::measure::Measure;
use rotind_envelope::lb_keogh::lb_keogh_early_abandon;
use rotind_envelope::Wedge;
use rotind_ts::StepCounter;

/// A match reported by the filter: which pattern fired, at which stream
/// offset its window *ended*, and the distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternMatch {
    /// Index of the matched pattern (order of construction).
    pub pattern: usize,
    /// Stream position (0-based sample count) of the window's last
    /// sample.
    pub end_position: usize,
    /// Distance between the window and the pattern.
    pub distance: f64,
}

/// A monitoring filter over a fixed set of equal-length patterns.
///
/// Patterns are clustered (group-average) into a hierarchical wedge
/// tree once; [`StreamFilter::push`] then slides a ring buffer over the
/// stream and reports every pattern within its threshold of the current
/// window.
///
/// ```
/// use rotind_index::stream::StreamFilter;
/// use rotind_distance::Measure;
/// use rotind_ts::StepCounter;
/// let pattern = vec![0.0, 1.0, 2.0, 1.0];
/// let mut filter =
///     StreamFilter::new(vec![pattern.clone()], vec![0.1], Measure::Euclidean).unwrap();
/// let mut steps = StepCounter::new();
/// let mut stream = vec![9.0; 10];
/// stream.extend(pattern);         // the pattern appears at offset 10
/// let matches = filter.scan(&stream, &mut steps);
/// assert_eq!(matches.len(), 1);
/// assert_eq!(matches[0].end_position, 13);
/// ```
#[derive(Debug, Clone)]
pub struct StreamFilter {
    patterns: Vec<Vec<f64>>,
    thresholds: Vec<f64>,
    /// Wedges per dendrogram node (leaves first, then merges).
    wedges: Vec<Wedge>,
    dendrogram: Dendrogram,
    /// For pruning, the largest threshold below a node (a wedge may be
    /// dismissed only when the bound exceeds every member's threshold).
    node_max_threshold: Vec<f64>,
    measure: Measure,
    /// Ring buffer holding the most recent `n` samples.
    window: Vec<f64>,
    head: usize,
    seen: usize,
}

impl StreamFilter {
    /// Build a filter: `patterns[i]` fires when a window is within
    /// `thresholds[i]` of it under `measure` (Euclidean or DTW; the
    /// paper's framework supports LCSS too but monitoring thresholds are
    /// distance-based here).
    ///
    /// # Errors
    ///
    /// [`SearchError`] on empty input, length mismatches, non-positive
    /// thresholds, or an LCSS measure.
    // lint: panic-exempt(patterns is checked non-empty a few lines above the first index)
    pub fn new(
        patterns: Vec<Vec<f64>>,
        thresholds: Vec<f64>,
        measure: Measure,
    ) -> Result<Self, SearchError> {
        if patterns.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        if patterns.len() != thresholds.len() {
            return Err(SearchError::invalid_param(
                "thresholds",
                format!(
                    "{} thresholds for {} patterns",
                    thresholds.len(),
                    patterns.len()
                ),
            ));
        }
        if matches!(measure, Measure::Lcss(_)) {
            return Err(SearchError::invalid_param(
                "measure",
                "the stream filter supports Euclidean and DTW",
            ));
        }
        let n = patterns[0].len();
        if n == 0 {
            return Err(SearchError::invalid_param("patterns", "must be non-empty"));
        }
        for (index, p) in patterns.iter().enumerate() {
            if p.len() != n {
                return Err(SearchError::LengthMismatch {
                    index,
                    expected: n,
                    actual: p.len(),
                });
            }
        }
        if thresholds.iter().any(|&t| !t.is_finite() || t <= 0.0) {
            return Err(SearchError::invalid_param(
                "thresholds",
                "must be finite and positive",
            ));
        }

        let dendrogram = cluster_series(&patterns, Linkage::Average);
        let band = measure.warping_band();
        // Leaf wedges (widened for DTW), then internal merges; node ids
        // follow the dendrogram, so leaf `i` is pattern `i`.
        let mut wedges: Vec<Wedge> = (0..patterns.len())
            .map(|i| Wedge::from_single(&patterns[i]).widened(band))
            .collect();
        let mut node_max_threshold: Vec<f64> = thresholds.clone();
        for merge in dendrogram.merges() {
            wedges.push(Wedge::merge(&wedges[merge.left], &wedges[merge.right]));
            node_max_threshold
                .push(node_max_threshold[merge.left].max(node_max_threshold[merge.right]));
        }
        Ok(StreamFilter {
            patterns,
            thresholds,
            wedges,
            dendrogram,
            node_max_threshold,
            measure,
            window: vec![0.0; n],
            head: 0,
            seen: 0,
        })
    }

    /// Pattern length `n` (= window size).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Number of monitored patterns.
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Samples consumed so far.
    pub fn position(&self) -> usize {
        self.seen
    }

    /// The current window, oldest sample first (empty until `n` samples
    /// have been consumed).
    // lint: panic-exempt(ring indices are reduced mod the window length)
    pub fn current_window(&self) -> Option<Vec<f64>> {
        (self.seen >= self.window.len()).then(|| {
            let n = self.window.len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(self.window[(self.head + i) % n]);
            }
            out
        })
    }

    /// Consume one stream sample; report every pattern whose threshold
    /// the window ending at this sample satisfies. Steps are charged to
    /// `counter` (one LB pass can dismiss a whole wedge of patterns).
    // lint: panic-exempt(head stays below the window length, and the window expect only fires once seen >= n)
    pub fn push(&mut self, sample: f64, counter: &mut StepCounter) -> Vec<PatternMatch> {
        let n = self.window.len();
        self.window[self.head] = sample;
        self.head = (self.head + 1) % n;
        self.seen += 1;
        if self.seen < n {
            return Vec::new();
        }
        let window = self.current_window().expect("window is full");
        let mut matches = Vec::new();
        let mut stack = vec![self.dendrogram.root().expect("non-empty pattern set")];
        while let Some(node) = stack.pop() {
            let cap = self.node_max_threshold[node];
            // Dismiss the whole wedge when even the loosest member
            // threshold is provably exceeded.
            if lb_keogh_early_abandon(&window, &self.wedges[node], cap, counter).is_none() {
                continue;
            }
            match self.dendrogram.children(node) {
                Some((l, r)) => {
                    stack.push(l);
                    stack.push(r);
                }
                None => {
                    let threshold = self.thresholds[node];
                    if let Some(d) = self.measure.distance_early_abandon(
                        &window,
                        &self.patterns[node],
                        threshold,
                        counter,
                    ) {
                        if d <= threshold {
                            matches.push(PatternMatch {
                                pattern: node,
                                end_position: self.seen - 1,
                                distance: d,
                            });
                        }
                    }
                }
            }
        }
        matches.sort_by_key(|m| m.pattern);
        matches
    }

    /// Convenience: run the filter over a whole batch of samples.
    pub fn scan(&mut self, samples: &[f64], counter: &mut StepCounter) -> Vec<PatternMatch> {
        samples
            .iter()
            .flat_map(|&s| self.push(s, counter))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::DtwParams;

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    fn pattern(n: usize, freq: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * freq).sin()).collect()
    }

    fn filter(measure: Measure) -> StreamFilter {
        StreamFilter::new(
            vec![pattern(16, 0.5), pattern(16, 1.1), pattern(16, 2.3)],
            vec![0.5, 0.5, 0.5],
            measure,
        )
        .unwrap()
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            StreamFilter::new(vec![], vec![], Measure::Euclidean),
            Err(SearchError::EmptyDatabase)
        ));
        assert!(
            StreamFilter::new(vec![vec![1.0, 2.0]], vec![1.0, 2.0], Measure::Euclidean).is_err()
        );
        assert!(StreamFilter::new(
            vec![vec![1.0, 2.0], vec![1.0]],
            vec![1.0, 1.0],
            Measure::Euclidean
        )
        .is_err());
        assert!(StreamFilter::new(vec![vec![1.0]], vec![-1.0], Measure::Euclidean).is_err());
        assert!(StreamFilter::new(
            vec![vec![1.0]],
            vec![1.0],
            Measure::Lcss(rotind_distance::LcssParams::new(0.5, 1))
        )
        .is_err());
    }

    #[test]
    fn no_matches_before_window_fills() {
        let mut f = filter(Measure::Euclidean);
        let mut c = steps();
        for i in 0..15 {
            assert!(f.push(0.0, &mut c).is_empty(), "sample {i}");
            assert!(f.current_window().is_none());
        }
        assert_eq!(f.position(), 15);
    }

    #[test]
    fn detects_embedded_pattern() {
        let mut f = filter(Measure::Euclidean);
        let mut c = steps();
        // Stream: noise-ish preamble, then pattern 1 verbatim, then junk.
        let mut stream: Vec<f64> = (0..40).map(|i| 3.0 + (i as f64 * 0.17).cos()).collect();
        stream.extend(pattern(16, 1.1));
        stream.extend((0..20).map(|i| -2.0 + (i as f64 * 0.4).sin()));
        let matches = f.scan(&stream, &mut c);
        let hit = matches
            .iter()
            .find(|m| m.pattern == 1 && m.distance < 1e-9)
            .expect("embedded pattern must fire");
        assert_eq!(hit.end_position, 40 + 16 - 1);
        // The other patterns never fire exactly.
        assert!(matches.iter().all(|m| m.pattern == 1 || m.distance > 1e-9));
    }

    #[test]
    fn matches_agree_with_naive_scan() {
        let patterns = vec![pattern(12, 0.4), pattern(12, 0.9), pattern(12, 1.7)];
        let thresholds = vec![1.2, 0.8, 2.0];
        let stream: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.4).sin() + 0.3 * (i as f64 * 0.05).cos())
            .collect();
        let mut f =
            StreamFilter::new(patterns.clone(), thresholds.clone(), Measure::Euclidean).unwrap();
        let mut c = steps();
        let fast = f.scan(&stream, &mut c);
        // Naive: every window against every pattern.
        let mut naive = Vec::new();
        for end in 11..120 {
            let window = &stream[end - 11..=end];
            for (p, pat) in patterns.iter().enumerate() {
                let d: f64 = window
                    .iter()
                    .zip(pat)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if d <= thresholds[p] {
                    naive.push((p, end, d));
                }
            }
        }
        assert_eq!(fast.len(), naive.len());
        for (m, (p, end, d)) in fast.iter().zip(&naive) {
            assert_eq!(m.pattern, *p);
            assert_eq!(m.end_position, *end);
            assert!((m.distance - d).abs() < 1e-9);
        }
    }

    #[test]
    fn wedge_dismissal_saves_steps_on_hopeless_streams() {
        // A stream far from every pattern: the root wedge dismisses all
        // patterns in a few steps per window.
        let mut f = filter(Measure::Euclidean);
        let mut c = steps();
        let stream = vec![50.0; 200];
        assert!(f.scan(&stream, &mut c).is_empty());
        // Naive cost would be >= 3 patterns × 16 steps × 185 windows.
        let naive_floor = 3 * 16 * (200 - 15) as u64;
        assert!(
            c.steps() < naive_floor / 4,
            "wedge filter used {} steps vs naive floor {naive_floor}",
            c.steps()
        );
    }

    #[test]
    fn dtw_filter_tolerates_local_warping() {
        let n = 24;
        let base = pattern(n, 0.7);
        // A locally warped copy: the middle third lags by one sample
        // (endpoints untouched, so DTW's anchored corners are unaffected).
        let mut warped = base.clone();
        warped[8..16].copy_from_slice(&base[7..15]);
        let threshold = 0.8;
        let mut ed_filter =
            StreamFilter::new(vec![base.clone()], vec![threshold], Measure::Euclidean).unwrap();
        let mut dtw_filter = StreamFilter::new(
            vec![base.clone()],
            vec![threshold],
            Measure::Dtw(DtwParams::new(3)),
        )
        .unwrap();
        let mut c = steps();
        let ed_hits = ed_filter.scan(&warped, &mut c).len();
        let dtw_hits = dtw_filter.scan(&warped, &mut c).len();
        assert!(dtw_hits >= ed_hits, "DTW must be at least as tolerant");
        assert!(dtw_hits >= 1, "warped copy should fire under DTW");
    }

    #[test]
    fn per_pattern_thresholds_respected() {
        let p0 = pattern(10, 0.8);
        let mut near = p0.clone();
        near[4] += 0.4; // distance 0.4 from p0
        let f = StreamFilter::new(
            vec![p0.clone(), p0.clone()],
            vec![0.1, 1.0],
            Measure::Euclidean,
        )
        .unwrap();
        let mut f = f;
        let mut c = steps();
        let matches = f.scan(&near, &mut c);
        assert_eq!(matches.len(), 1, "only the loose-threshold copy fires");
        assert_eq!(matches[0].pattern, 1);
    }

    #[test]
    fn window_accessors() {
        let mut f = filter(Measure::Euclidean);
        let mut c = steps();
        assert_eq!(f.window_len(), 16);
        assert_eq!(f.num_patterns(), 3);
        for i in 0..20 {
            f.push(i as f64, &mut c);
        }
        let w = f.current_window().unwrap();
        assert_eq!(w, (4..20).map(|i| i as f64).collect::<Vec<_>>());
    }
}
