//! MLP layers: dense (affine) and parametric ReLU.
//!
//! `forward` caches what the backward pass needs; `forward` then
//! `backward` must be called in matching order (the autoencoder
//! enforces this). `infer` is the same map without the cache.

use crate::linalg::Mat;
use rand::rngs::StdRng;
use rand::RngExt;

/// A fully connected layer `y = x·W + b` with `W: (in × out)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix (input-dim × output-dim).
    pub w: Mat,
    /// Bias vector (len = output-dim).
    pub b: Vec<f64>,
    /// Weight gradient after `backward`.
    pub grad_w: Mat,
    /// Bias gradient after `backward`.
    pub grad_b: Vec<f64>,
    input_cache: Option<Mat>,
}

impl Dense {
    /// He-style uniform initialisation scaled by fan-in.
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / input as f64).sqrt();
        let w = Mat::from_fn(input, output, |_, _| (rng.random::<f64>() * 2.0 - 1.0) * scale);
        Dense {
            w,
            b: vec![0.0; output],
            grad_w: Mat::zeros(input, output),
            grad_b: vec![0.0; output],
            input_cache: None,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Inference over a batch `(batch × in)` → `(batch × out)`; caches
    /// nothing.
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut y = x.matmul(&self.w);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        y
    }

    /// Forward over a batch, caching the input for `backward`.
    pub fn forward(&mut self, x: &Mat) -> Mat {
        let y = self.infer(x);
        self.input_cache = Some(x.clone());
        y
    }

    /// Backward: consumes `dL/dy`, accumulates `grad_w`/`grad_b`,
    /// returns `dL/dx`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Mat) -> Mat {
        self.backward_params(dy);
        dy.matmul_t(&self.w)
    }

    /// The parameter half of [`Dense::backward`]: sets `grad_w` and
    /// `grad_b` without computing `dL/dx`, for a first layer whose
    /// input gradient nothing consumes.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward_params(&mut self, dy: &Mat) {
        let x = self.input_cache.as_ref().expect("forward before backward");
        self.grad_w = x.t_matmul(dy);
        for g in &mut self.grad_b {
            *g = 0.0;
        }
        for r in 0..dy.rows() {
            for (g, &d) in self.grad_b.iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
    }
}

/// Parametric ReLU: `y = x` for `x > 0`, `y = αx` otherwise, with a
/// learnable per-unit slope `α` (He et al. 2015), as the paper uses.
#[derive(Debug, Clone)]
pub struct PRelu {
    /// Per-unit negative slope.
    pub alpha: Vec<f64>,
    /// Slope gradient after `backward`.
    pub grad_alpha: Vec<f64>,
    input_cache: Option<Mat>,
}

impl PRelu {
    /// PReLU over `units` channels with the customary `α = 0.25` init.
    pub fn new(units: usize) -> Self {
        PRelu { alpha: vec![0.25; units], grad_alpha: vec![0.0; units], input_cache: None }
    }

    /// Forward over a batch `(batch × units)`, caching the input for
    /// `backward`.
    ///
    /// # Panics
    /// Panics if the column count differs from the unit count.
    pub fn forward(&mut self, x: &Mat) -> Mat {
        let y = self.infer(x);
        self.input_cache = Some(x.clone());
        y
    }

    /// Inference over a batch; caches nothing.
    ///
    /// # Panics
    /// Panics if the column count differs from the unit count.
    pub fn infer(&self, x: &Mat) -> Mat {
        assert_eq!(x.cols(), self.alpha.len(), "PReLU width mismatch");
        let mut y = x.clone();
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, &a) in row.iter_mut().zip(&self.alpha) {
                if *v < 0.0 {
                    *v *= a;
                }
            }
        }
        y
    }

    /// Backward: returns `dL/dx`, accumulates `grad_alpha`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Mat) -> Mat {
        let x = self.input_cache.as_ref().expect("forward before backward");
        for g in &mut self.grad_alpha {
            *g = 0.0;
        }
        let mut dx = dy.clone();
        for r in 0..dx.rows() {
            for c in 0..dx.cols() {
                let xv = x.get(r, c);
                if xv < 0.0 {
                    self.grad_alpha[c] += dy.get(r, c) * xv;
                    dx.set(r, c, dy.get(r, c) * self.alpha[c]);
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(2, 1, &mut rng);
        // Overwrite params with known values.
        d.w = Mat::from_vec(2, 1, vec![2.0, 3.0]);
        d.b = vec![0.5];
        let y = d.forward(&Mat::from_vec(1, 2, vec![1.0, 1.0]));
        assert_eq!(y.get(0, 0), 5.5);
        assert_eq!(d.input_dim(), 2);
        assert_eq!(d.output_dim(), 1);
    }

    #[test]
    fn dense_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Mat::from_vec(2, 3, vec![0.5, -0.2, 0.1, 0.3, 0.9, -0.7]);
        let target = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        // Loss = 0.5 Σ (y - t)²  →  dL/dy = y - t.
        let loss = |d: &mut Dense| {
            let y = d.forward(&x);
            0.5 * y.sub(&target).sum_squares()
        };
        let y = d.forward(&x);
        let dy = y.sub(&target);
        d.backward(&dy);
        let analytic = d.grad_w.get(1, 1);
        let eps = 1e-6;
        let orig = d.w.get(1, 1);
        d.w.set(1, 1, orig + eps);
        let lp = loss(&mut d);
        d.w.set(1, 1, orig - eps);
        let lm = loss(&mut d);
        d.w.set(1, 1, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-5, "{analytic} vs {numeric}");
    }

    #[test]
    fn dense_bias_gradient_sums_batch() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(1, 1, &mut rng);
        let x = Mat::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        d.forward(&x);
        let dy = Mat::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        d.backward(&dy);
        assert_eq!(d.grad_b[0], 3.0);
    }

    #[test]
    fn prelu_forward_and_backward() {
        let mut p = PRelu::new(2);
        p.alpha = vec![0.1, 0.5];
        let x = Mat::from_vec(2, 2, vec![1.0, -2.0, -4.0, 3.0]);
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[1.0, -1.0, -0.4, 3.0]);
        let dy = Mat::from_vec(2, 2, vec![1.0; 4]);
        let dx = p.backward(&dy);
        // Positive inputs pass gradient through; negative scale by α.
        assert_eq!(dx.as_slice(), &[1.0, 0.5, 0.1, 1.0]);
        // grad_alpha accumulates dy·x over negative inputs per column.
        assert_eq!(p.grad_alpha, vec![-4.0, -2.0]);
    }

    #[test]
    fn prelu_gradcheck_alpha() {
        let mut p = PRelu::new(1);
        let x = Mat::from_vec(2, 1, vec![-1.5, 2.0]);
        let target = Mat::from_vec(2, 1, vec![0.0, 0.0]);
        let loss = |p: &mut PRelu| {
            let y = p.forward(&x);
            0.5 * y.sub(&target).sum_squares()
        };
        let y = p.forward(&x);
        p.backward(&y.sub(&target));
        let analytic = p.grad_alpha[0];
        let eps = 1e-6;
        p.alpha[0] += eps;
        let lp = loss(&mut p);
        p.alpha[0] -= 2.0 * eps;
        let lm = loss(&mut p);
        p.alpha[0] += eps;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-5, "{analytic} vs {numeric}");
    }
}
