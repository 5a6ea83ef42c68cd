//! Minimal dense-matrix kernels for the MLP: just what backprop needs
//! (matmul in three transposition variants, elementwise helpers).
//!
//! All three products run through one register-tiled kernel;
//! `t_matmul` and `matmul_t` hand it a transposed operand, which only
//! changes how that operand is packed. Each MR × NR tile of the output
//! is held in registers while `k` runs over the whole inner dimension,
//! and bands of whole output rows are split across
//! `std::thread::scope` threads once a product has at least
//! `PARALLEL_MIN_MACS` multiply-adds.
//!
//! The results are bit-identical to a naive triple loop, for any tile
//! size and thread count: every output element is `0.0 + a₀b₀ + a₁b₁ +
//! …` summed in ascending `k` with plain `*` and `+` (no FMA, no
//! reassociation, no split-`k` partial sums), and threads split output
//! rows only. Zero operands are not skipped: the accumulator starts at
//! `+0.0` and never becomes `-0.0`, so adding `±0 · b` leaves it
//! unchanged whenever `b` is finite.

use std::sync::OnceLock;
use std::thread;

/// Output rows per register tile.
const MR: usize = 4;
/// Output columns per register tile.
const NR: usize = 4;
/// Products with fewer multiply-adds stay on the calling thread: below
/// this, spawning costs more than it saves.
const PARALLEL_MIN_MACS: usize = 1 << 18;

/// The machine's parallelism, read once.
fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wrap a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer/shape mismatch");
        Mat { rows, cols, data }
    }

    /// Build from a closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row, mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `self · other` → `(self.rows × other.cols)`. Large products
    /// run on several threads; the result is the same bit for bit on
    /// any number.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        product(View::of(self), View::of(other))
    }

    /// `selfᵀ · other` → `(self.cols × other.cols)` — used for weight
    /// gradients without materialising the transpose.
    ///
    /// # Panics
    /// Panics on outer-dimension mismatch.
    pub fn t_matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "t_matmul outer dims");
        product(View::of(self).t(), View::of(other))
    }

    /// `self · otherᵀ` → `(self.rows × other.rows)` — used to push
    /// deltas back through a layer.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_t(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_t inner dims");
        product(View::of(self), View::of(other).t())
    }

    /// Elementwise `self - other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "sub shapes");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// Frobenius-style sum of squares.
    pub fn sum_squares(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }
}

/// A matrix operand as the kernel reads it: `mat` or its transpose.
/// Transposition only changes how operands are packed, never the
/// multiply loop.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    mat: &'a Mat,
    transposed: bool,
}

impl<'a> View<'a> {
    pub(crate) fn of(mat: &'a Mat) -> Self {
        View { mat, transposed: false }
    }

    /// The transposed view.
    pub(crate) fn t(self) -> Self {
        View { transposed: !self.transposed, ..self }
    }

    fn rows(self) -> usize {
        if self.transposed { self.mat.cols } else { self.mat.rows }
    }

    fn cols(self) -> usize {
        if self.transposed { self.mat.rows } else { self.mat.cols }
    }

    fn at(self, r: usize, c: usize) -> f64 {
        if self.transposed { self.mat.get(c, r) } else { self.mat.get(r, c) }
    }

    /// Copy columns `c0..c0 + W` of every row into `out` (one row per
    /// element, as many rows as `out` holds), zero-padded past the
    /// last column.
    fn pack<const W: usize>(self, c0: usize, out: &mut [[f64; W]]) {
        let width = W.min(self.cols() - c0);
        for (r, dst) in out.iter_mut().enumerate() {
            for (c, d) in dst.iter_mut().enumerate() {
                *d = if c < width { self.at(r, c0 + c) } else { 0.0 };
            }
        }
    }
}

/// `a · b`, split over threads once the product is large enough to
/// pay for spawning them.
fn product(a: View, b: View) -> Mat {
    let macs = a.rows() * a.cols() * b.cols();
    let threads = if macs < PARALLEL_MIN_MACS { 1 } else { max_threads() };
    product_on(a, b, threads)
}

/// `a · b` on `threads` threads (clamped to the number of row tiles):
/// the one multiply kernel. `b` is packed once into NR-wide column
/// panels; each thread owns a band of whole output rows and fills it
/// tile by tile, holding an MR × NR block of accumulators while `k`
/// runs over the whole inner dimension in ascending order.
pub(crate) fn product_on(a: View, b: View, threads: usize) -> Mat {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Mat::zeros(m, n);
    if out.data.is_empty() || k == 0 {
        return out;
    }
    let mut panels = vec![[0.0; NR]; n.div_ceil(NR) * k];
    for (p, panel) in panels.chunks_exact_mut(k).enumerate() {
        b.pack(p * NR, panel);
    }
    let tiles = m.div_ceil(MR);
    let band = tiles.div_ceil(threads.clamp(1, tiles)) * MR;
    let fill_band = |row0: usize, out: &mut [f64]| {
        let mut strip = vec![[0.0; MR]; k];
        for (t, out_tile) in out.chunks_mut(MR * n).enumerate() {
            // The tile's MR rows of `a`, k-major (MR columns of `aᵀ`).
            a.t().pack(row0 + t * MR, &mut strip);
            for (p, panel) in panels.chunks_exact(k).enumerate() {
                let mut acc = [[0.0; NR]; MR];
                for (av, bv) in strip.iter().zip(panel) {
                    for (acc_row, &x) in acc.iter_mut().zip(av) {
                        for (o, &y) in acc_row.iter_mut().zip(bv) {
                            *o += x * y;
                        }
                    }
                }
                let c0 = p * NR;
                let width = NR.min(n - c0);
                for (out_row, acc_row) in out_tile.chunks_mut(n).zip(&acc) {
                    out_row[c0..c0 + width].copy_from_slice(&acc_row[..width]);
                }
            }
        }
    };
    thread::scope(|scope| {
        let mut bands = out.data.chunks_mut(band * n).enumerate();
        let first = bands.next();
        for (i, rows) in bands {
            scope.spawn(move || fill_band(i * band, rows));
        }
        if let Some((_, rows)) = first {
            fill_band(0, rows);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn a() -> Mat {
        Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    fn b() -> Mat {
        Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    }

    #[test]
    fn matmul_known_product() {
        let c = a().matmul(&b());
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        // aᵀ (3×2) · b-like (2×2).
        let x = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let direct = a().t_matmul(&x); // (3×2)
        let transposed = Mat::from_fn(3, 2, |r, c| a().get(c, r)).matmul(&x);
        assert_eq!(direct, transposed);
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let x = Mat::from_vec(4, 3, vec![1.0; 12]);
        let direct = a().matmul_t(&x); // (2×4)
        let transposed = a().matmul(&Mat::from_fn(3, 4, |r, c| x.get(c, r)));
        assert_eq!(direct, transposed);
    }

    /// The reference every product must match bit for bit: each
    /// element sums its products in ascending `k`, starting from `0.0`.
    /// With `skip_zero_a`, terms whose left factor is `±0` are left out
    /// instead (the original kernels' shortcut).
    fn naive(a: &Mat, b: &Mat, skip_zero_a: bool) -> Mat {
        Mat::from_fn(a.rows(), b.cols(), |i, j| {
            let mut s = 0.0;
            for k in 0..a.cols() {
                if skip_zero_a && a.get(i, k) == 0.0 {
                    continue;
                }
                s += a.get(i, k) * b.get(k, j);
            }
            s
        })
    }

    fn transposed(m: &Mat) -> Mat {
        Mat::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Finite values with plenty of `0.0` and `-0.0`.
    fn random_mat(rng: &mut StdRng, rows: usize, cols: usize) -> Mat {
        Mat::from_fn(rows, cols, |_, _| match rng.random_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.random::<f64>() * 2.0 - 1.0,
        })
    }

    #[test]
    fn kernel_matches_naive_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        // Every remainder of rows mod MR and columns mod NR (1-row and
        // 1-column operands included), then empty, thin and multi-band
        // shapes.
        let mut shapes = Vec::new();
        for m in 1..=2 * MR + 1 {
            for n in 1..=2 * NR + 1 {
                shapes.push((m, rng.random_range(1..12), n));
            }
        }
        shapes.extend([(1, 1, 1), (1, 37, 1), (0, 3, 4), (5, 0, 3), (37, 64, 29), (64, 130, 23)]);
        for (m, k, n) in shapes {
            let a = random_mat(&mut rng, m, k);
            let b = random_mat(&mut rng, k, n);
            let want = bits(&naive(&a, &b, false));
            assert_eq!(bits(&naive(&a, &b, true)), want, "±0 skip changed bits at {m}×{k}×{n}");
            let (at, bt) = (transposed(&a), transposed(&b));
            for threads in 1..=4 {
                let shape = format!("{m}×{k}×{n} on {threads} threads");
                let ab = product_on(View::of(&a), View::of(&b), threads);
                assert_eq!((ab.rows(), ab.cols()), (m, n), "{shape}");
                assert_eq!(bits(&ab), want, "matmul {shape}");
                let t_ab = product_on(View::of(&at).t(), View::of(&b), threads);
                assert_eq!(bits(&t_ab), want, "t_matmul {shape}");
                let ab_t = product_on(View::of(&a), View::of(&bt).t(), threads);
                assert_eq!(bits(&ab_t), want, "matmul_t {shape}");
            }
            assert_eq!(bits(&a.matmul(&b)), want);
            assert_eq!(bits(&at.t_matmul(&b)), want);
            assert_eq!(bits(&a.matmul_t(&bt)), want);
        }
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_rejects_mismatch() {
        a().matmul(&a());
    }

    #[test]
    fn elementwise_helpers() {
        let m = Mat::from_fn(2, 3, |r, c| a().get(r, c) * 2.0);
        let d = m.sub(&a());
        assert_eq!(d.get(1, 2), 6.0);
        assert_eq!(Mat::from_vec(1, 2, vec![3.0, 4.0]).sum_squares(), 25.0);
    }

    #[test]
    fn row_accessors() {
        let m = a();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        let mut m = a();
        m.row_mut(0)[0] = 9.0;
        assert_eq!(m.get(0, 0), 9.0);
    }
}
