//! Histogram split-finding substrate: pre-binned features and
//! per-node bin histograms (LightGBM-style).
//!
//! Exact split search re-sorts a node's rows for every candidate
//! feature — `O(n log n · k)` per node. Binning replaces the sort with
//! an `O(n · d)` histogram accumulation over precomputed bin codes:
//!
//! * a [`BinnedDataset`] is built **once per fit** (once per *forest*,
//!   shared read-only across all trees): per-feature quantile bin
//!   edges plus `u8` bin codes stored column-major so the
//!   per-feature accumulation loop scans contiguous memory (bins are
//!   capped at 256 per feature, so every code fits a byte);
//! * a [`NodeHistogram`] accumulates a `(bin × {a, b})` pair table for
//!   one node — `(weight, positive_weight)` for classification trees,
//!   `(gradient, hessian)` for GBDT — and split search walks bins
//!   instead of rows;
//! * the parent-minus-sibling subtraction trick derives the larger
//!   child's histogram as `parent − smaller`, so only the smaller
//!   child ever scans its rows.
//!
//! When every feature has fewer distinct values than `max_bins` each
//! distinct value gets its own bin and the histogram search considers
//! exactly the candidate cuts exact search does, with the same Gini
//! arithmetic — the basis of the exact-vs-histogram parity guarantees
//! (see DESIGN.md §9).

use crate::dataset::Dataset;

/// How a tree searches for split points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitStrategy {
    /// Sort the node's rows per candidate feature (the original CART
    /// formulation; reference semantics).
    Exact,
    /// Pre-bin features once per fit and accumulate per-node
    /// histograms; `max_bins` caps the bins per feature.
    Histogram {
        /// Upper bound on bins per feature, clamped to `2..=256`.
        max_bins: u16,
    },
}

impl SplitStrategy {
    /// The default histogram resolution.
    pub const DEFAULT_MAX_BINS: u16 = 255;

    /// The default strategy: histograms at 255 bins.
    pub fn histogram() -> Self {
        SplitStrategy::Histogram { max_bins: Self::DEFAULT_MAX_BINS }
    }
}

impl Default for SplitStrategy {
    fn default() -> Self {
        Self::histogram()
    }
}

/// Nodes smaller than this fall back to exact search: sorting a
/// handful of rows is cheaper than touching a `d × max_bins` table,
/// and the fallback also bounds how many histograms a deep recursion
/// can hold alive.
pub const HIST_MIN_NODE_ROWS: usize = 32;

/// The most bins a feature can get: every bin code fits in a `u8`.
const MAX_BINS_CAP: u16 = 256;

/// Quantile-binned view of a [`Dataset`]'s features, built once per
/// fit and shared read-only across all trees of a forest.
///
/// Labels and weights stay on the `Dataset`; the binned view carries
/// only feature structure, so one instance serves every bootstrap
/// resample (resamples are row-index multisets into the same rows).
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    n_features: usize,
    /// `offsets[f]..offsets[f + 1]` is feature `f`'s bin range in any
    /// histogram laid out against this dataset.
    offsets: Vec<usize>,
    /// Per feature: the raw-value cut between bin `j` and `j + 1`
    /// (length `n_bins(f) - 1`). Cuts are midpoints between adjacent
    /// represented values, so `value <= cut[j]` ⇔ `code <= j`.
    cuts: Vec<Vec<f64>>,
    /// Column-major bin codes: feature `f`, row `i` at `f * n_rows + i`.
    codes: Vec<u8>,
}

impl BinnedDataset {
    /// Bin every feature of `data` into at most `max_bins` quantile
    /// bins (`max_bins` is clamped to `2..=256`). Cost: one sort per
    /// feature, `O(d · n log n)` — paid once per fit.
    pub fn build(data: &Dataset, max_bins: u16) -> Self {
        let n = data.n_samples();
        let d = data.n_features();
        let max_bins = usize::from(max_bins.clamp(2, MAX_BINS_CAP));
        let mut offsets = Vec::with_capacity(d + 1);
        let mut cuts: Vec<Vec<f64>> = Vec::with_capacity(d);
        offsets.push(0usize);
        let mut column: Vec<f64> = Vec::with_capacity(n);
        for f in 0..d {
            column.clear();
            column.extend((0..n).map(|i| data.feature(i, f)));
            column.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
            cuts.push(feature_cuts(&column, max_bins));
            let n_bins = cuts[f].len() + 1;
            offsets.push(offsets[f] + n_bins);
        }
        let mut codes = vec![0u8; n * d];
        for f in 0..d {
            for i in 0..n {
                codes[f * n + i] = cuts[f].partition_point(|&c| c < data.feature(i, f)) as u8;
            }
        }
        BinnedDataset { n_rows: n, n_features: d, offsets, cuts, codes }
    }

    /// Number of rows the codes cover.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of binned features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Bins allocated to feature `f`.
    pub fn n_bins(&self, f: usize) -> usize {
        self.offsets[f + 1] - self.offsets[f]
    }

    /// Total bins across all features — the histogram table length.
    pub fn total_bins(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// The raw-value cut separating feature `f`'s bin `j` from `j + 1`.
    pub fn cut(&self, f: usize, j: usize) -> f64 {
        self.cuts[f][j]
    }

    /// Bin code of `(row, feature)`.
    #[inline]
    pub fn code(&self, row: usize, f: usize) -> usize {
        usize::from(self.codes[f * self.n_rows + row])
    }

    /// The index `j` such that `cut(f, j) == threshold`, for a
    /// threshold produced by a histogram split on this view.
    pub fn cut_index(&self, f: usize, threshold: f64) -> usize {
        self.cuts[f].partition_point(|&c| c < threshold)
    }

    /// Partition a node's rows on `code(·, f) <= bin` — equivalent to
    /// `value <= cut(f, bin)` by construction, but reading one byte
    /// per row instead of a strided `f64` from the feature matrix.
    pub fn partition_leq(
        &self,
        f: usize,
        bin: usize,
        indices: Vec<usize>,
    ) -> (Vec<usize>, Vec<usize>) {
        let col = self.column(f);
        indices.into_iter().partition(|&i| usize::from(col[i]) <= bin)
    }

    /// Accumulate one feature's bins over a node's rows into `bins`
    /// (length `n_bins(f)`): the narrow-sampling counterpart of
    /// [`NodeHistogram::accumulate`] — when a node evaluates only
    /// `k ≪ d` features, filling a per-feature scratch is far cheaper
    /// than building (and later subtracting) the full `d`-feature
    /// table.
    ///
    /// `a` and `b` are *node-aligned*: `a[j]` pairs with `indices[j]`
    /// (the caller gathers them once per node, so the `k` per-feature
    /// passes read weights sequentially instead of re-scattering).
    pub fn accumulate_feature(
        &self,
        f: usize,
        indices: &[usize],
        a: &[f64],
        b: &[f64],
        bins: &mut [(f64, f64)],
    ) {
        debug_assert_eq!(indices.len(), a.len());
        debug_assert_eq!(indices.len(), b.len());
        let col = self.column(f);
        for (j, &i) in indices.iter().enumerate() {
            let cell = &mut bins[usize::from(col[i])];
            cell.0 += a[j];
            cell.1 += b[j];
        }
    }

    /// Feature `f`'s codes for every row.
    #[inline]
    fn column(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Cut points for one sorted feature column: one bin per distinct
/// value when they fit in `max_bins`, greedy equal-count quantile
/// grouping otherwise. Cuts are midpoints between adjacent
/// *represented* values, so assigning rows by `partition_point` over
/// the cuts reproduces exact search's `value <= threshold` routing.
fn feature_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    // Distinct values with multiplicities.
    let mut distinct: Vec<(f64, usize)> = Vec::new();
    for &v in sorted {
        match distinct.last_mut() {
            Some((last, count)) if *last == v => *count += 1,
            _ => distinct.push((v, 1)),
        }
    }
    let m = distinct.len();
    if m <= 1 {
        return Vec::new();
    }
    if m <= max_bins {
        return distinct.windows(2).map(|w| 0.5 * (w[0].0 + w[1].0)).collect();
    }
    // Greedy quantile grouping: close a bin whenever the cumulative
    // count reaches the next equal-count boundary. At most one cut per
    // distinct value keeps every bin non-empty.
    let per_bin = sorted.len() as f64 / max_bins as f64;
    let mut cuts = Vec::with_capacity(max_bins - 1);
    let mut cum = 0usize;
    for w in distinct.windows(2) {
        cum += w[0].1;
        if cuts.len() + 1 >= max_bins {
            break;
        }
        if cum as f64 >= per_bin * (cuts.len() + 1) as f64 {
            cuts.push(0.5 * (w[0].0 + w[1].0));
        }
    }
    cuts
}

/// A `(bin × pair)` accumulation table for one node, laid out against
/// a [`BinnedDataset`]'s offsets. The pair is `(weight,
/// positive_weight)` for classification and `(gradient, hessian)` for
/// GBDT — the container is agnostic.
#[derive(Debug, Clone)]
pub struct NodeHistogram {
    bins: Vec<(f64, f64)>,
}

impl NodeHistogram {
    /// A zeroed table sized for `binned`.
    pub fn zeroed(binned: &BinnedDataset) -> Self {
        NodeHistogram { bins: vec![(0.0, 0.0); binned.total_bins()] }
    }

    /// Reset to zero (for pooled reuse).
    pub fn reset(&mut self, binned: &BinnedDataset) {
        self.bins.clear();
        self.bins.resize(binned.total_bins(), (0.0, 0.0));
    }

    /// Accumulate the node's rows: for every feature, add `(a[i],
    /// b[i])` into the row's bin. `O(indices.len() · d)`, no sorting.
    pub fn accumulate(&mut self, binned: &BinnedDataset, indices: &[usize], a: &[f64], b: &[f64]) {
        for f in 0..binned.n_features {
            let bins = &mut self.bins[binned.offsets[f]..binned.offsets[f + 1]];
            let col = binned.column(f);
            for &i in indices {
                let cell = &mut bins[usize::from(col[i])];
                cell.0 += a[i];
                cell.1 += b[i];
            }
        }
    }

    /// Parent-minus-sibling subtraction: after this call `self`, which
    /// held the parent's table, holds the *other* child's.
    pub fn subtract(&mut self, sibling: &NodeHistogram) {
        debug_assert_eq!(self.bins.len(), sibling.bins.len());
        for (p, s) in self.bins.iter_mut().zip(&sibling.bins) {
            p.0 -= s.0;
            p.1 -= s.1;
        }
    }

    /// Feature `f`'s bin slice.
    #[inline]
    pub fn feature(&self, binned: &BinnedDataset, f: usize) -> &[(f64, f64)] {
        &self.bins[binned.offsets[f]..binned.offsets[f + 1]]
    }
}

/// A free-list of histogram tables so deep fits reuse buffers instead
/// of allocating one per node.
#[derive(Debug, Default)]
pub struct HistPool {
    free: Vec<NodeHistogram>,
}

impl HistPool {
    /// Fresh, empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed histogram, recycled when possible.
    pub fn acquire(&mut self, binned: &BinnedDataset) -> NodeHistogram {
        match self.free.pop() {
            Some(mut h) => {
                h.reset(binned);
                h
            }
            None => NodeHistogram::zeroed(binned),
        }
    }

    /// Return a histogram to the free-list.
    pub fn release(&mut self, hist: NodeHistogram) {
        self.free.push(hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(features: Vec<f64>, d: usize) -> Dataset {
        let n = features.len() / d;
        Dataset::new(features, d, vec![true; n]).unwrap()
    }

    #[test]
    fn default_strategy_is_histogram_255() {
        assert_eq!(SplitStrategy::default(), SplitStrategy::Histogram { max_bins: 255 });
    }

    #[test]
    fn distinct_values_get_one_bin_each() {
        let d = data(vec![3.0, 1.0, 2.0, 1.0, 3.0, 2.0], 1);
        let b = BinnedDataset::build(&d, 255);
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(b.total_bins(), 3);
        // Cuts are midpoints between adjacent distinct values.
        assert_eq!(b.cut(0, 0), 1.5);
        assert_eq!(b.cut(0, 1), 2.5);
        // Codes follow sorted order of the values.
        let codes: Vec<usize> = (0..6).map(|i| b.code(i, 0)).collect();
        assert_eq!(codes, vec![2, 0, 1, 0, 2, 1]);
    }

    #[test]
    fn constant_feature_has_single_bin() {
        let d = data(vec![5.0; 4], 1);
        let b = BinnedDataset::build(&d, 255);
        assert_eq!(b.n_bins(0), 1);
        assert_eq!(b.code(3, 0), 0);
    }

    #[test]
    fn quantile_binning_caps_bin_count_and_keeps_order() {
        // 1000 distinct values into at most 16 bins.
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let d = data(values, 1);
        let b = BinnedDataset::build(&d, 16);
        assert!(b.n_bins(0) <= 16, "bins {}", b.n_bins(0));
        assert!(b.n_bins(0) >= 14, "bins {}", b.n_bins(0));
        // Codes are monotone in the raw value.
        for i in 1..1000 {
            assert!(b.code(i, 0) >= b.code(i - 1, 0));
        }
        // Roughly equal-count bins.
        let mut counts = vec![0usize; b.n_bins(0)];
        for i in 0..1000 {
            counts[b.code(i, 0)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(*counts.iter().max().unwrap() <= 3 * 1000 / b.n_bins(0), "{counts:?}");
    }

    #[test]
    fn skewed_duplicates_never_make_empty_bins() {
        // One value dominating: the greedy cut may overshoot several
        // boundaries at once but must not emit empty bins.
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let d = data(values, 1);
        let b = BinnedDataset::build(&d, 8);
        let mut counts = vec![0usize; b.n_bins(0)];
        for i in 0..d.n_samples() {
            counts[b.code(i, 0)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn max_bins_above_the_cap_clamps_to_256() {
        let values: Vec<f64> = (0..600).map(|i| i as f64).collect();
        let d = data(values, 1);
        let b = BinnedDataset::build(&d, 600);
        assert!(b.n_bins(0) <= 256, "bins {}", b.n_bins(0));
        for i in 1..600 {
            assert!(b.code(i, 0) >= b.code(i - 1, 0));
        }
    }

    #[test]
    fn accumulate_and_subtract_round_trip() {
        let d = data(vec![1.0, 2.0, 1.0, 3.0, 2.0, 1.0], 2);
        let b = BinnedDataset::build(&d, 255);
        let a = vec![1.0, 2.0, 4.0];
        let pos = vec![1.0, 0.0, 4.0];
        let mut pool = HistPool::new();
        let mut parent = pool.acquire(&b);
        parent.accumulate(&b, &[0, 1, 2], &a, &pos);
        // Feature 0 values: rows 0,1,2 -> 1.0, 1.0, 2.0 (bins 0,0,1).
        assert_eq!(parent.feature(&b, 0), &[(3.0, 1.0), (4.0, 4.0)]);
        let mut small = pool.acquire(&b);
        small.accumulate(&b, &[1], &a, &pos);
        parent.subtract(&small);
        let mut direct = pool.acquire(&b);
        direct.accumulate(&b, &[0, 2], &a, &pos);
        assert_eq!(parent.feature(&b, 0), direct.feature(&b, 0));
        assert_eq!(parent.feature(&b, 1), direct.feature(&b, 1));
    }

    #[test]
    fn pool_recycles_buffers() {
        let d = data(vec![1.0, 2.0], 1);
        let b = BinnedDataset::build(&d, 255);
        let mut pool = HistPool::new();
        let mut h = pool.acquire(&b);
        h.accumulate(&b, &[0], &[5.0], &[5.0]);
        pool.release(h);
        let h2 = pool.acquire(&b);
        assert_eq!(h2.feature(&b, 0), &[(0.0, 0.0), (0.0, 0.0)], "reset on reuse");
    }
}
