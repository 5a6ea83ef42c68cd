//! The stacked denoising autoencoder (Sec. II-C).
//!
//! Architecture, per the paper: a four-layer encoder whose dense
//! layers each halve their input width, a symmetric decoder, and
//! parametric ReLU activations on every hidden layer (the output
//! layer is linear). Trained with masked MSE — only the originally
//! non-missing cells contribute to the loss — under RMSprop.

use crate::layers::{Dense, PRelu};
use crate::linalg::Mat;
use crate::optim::RmsProp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Autoencoder hyper-parameters.
#[derive(Debug, Clone)]
pub struct AutoencoderConfig {
    /// Flattened input width (slice hours × indicators).
    pub input_dim: usize,
    /// Encoder depth (the paper uses 4 halving layers).
    pub depth: usize,
    /// RMSprop learning rate.
    pub learning_rate: f64,
    /// RMSprop smoothing ρ.
    pub rho: f64,
    /// Weight-init seed.
    pub seed: u64,
}

impl AutoencoderConfig {
    /// The paper's setting for a given input width.
    pub fn paper(input_dim: usize) -> Self {
        AutoencoderConfig { input_dim, depth: 4, learning_rate: 1e-4, rho: 0.99, seed: 0 }
    }
}

/// One hidden or output stage: a dense layer plus an optional PReLU.
struct Stage {
    dense: Dense,
    act: Option<PRelu>,
    opt_w: RmsProp,
    opt_b: RmsProp,
    opt_a: Option<RmsProp>,
}

/// A fitted / fittable stacked denoising autoencoder.
pub struct Autoencoder {
    stages: Vec<Stage>,
    config: AutoencoderConfig,
}

impl Autoencoder {
    /// Build the encoder/decoder stack.
    ///
    /// # Panics
    /// Panics if `input_dim` halved `depth` times reaches zero, or if
    /// `depth == 0`.
    pub fn new(config: &AutoencoderConfig) -> Self {
        assert!(config.depth > 0, "need at least one encoder layer");
        assert!(
            config.input_dim >> config.depth > 0,
            "input dim {} too small for depth {}",
            config.input_dim,
            config.depth
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Halving encoder widths, then the symmetric decoder.
        let mut widths = vec![config.input_dim];
        for _ in 0..config.depth {
            widths.push(widths.last().unwrap() / 2);
        }
        let mut dims: Vec<(usize, usize)> = widths.windows(2).map(|w| (w[0], w[1])).collect();
        let decoder: Vec<(usize, usize)> =
            dims.iter().rev().map(|&(a, b)| (b, a)).collect();
        dims.extend(decoder);

        let n_stages = dims.len();
        let stages = dims
            .into_iter()
            .enumerate()
            .map(|(idx, (input, output))| {
                let dense = Dense::new(input, output, &mut rng);
                let last = idx == n_stages - 1;
                let act = if last { None } else { Some(PRelu::new(output)) };
                Stage {
                    opt_w: RmsProp::new(input * output, config.learning_rate, config.rho),
                    opt_b: RmsProp::new(output, config.learning_rate, config.rho),
                    opt_a: act
                        .as_ref()
                        .map(|a| RmsProp::new(a.alpha.len(), config.learning_rate, config.rho)),
                    dense,
                    act,
                }
            })
            .collect();
        Autoencoder { stages, config: config.clone() }
    }

    /// Layer widths, input → bottleneck → output.
    pub fn widths(&self) -> Vec<usize> {
        let mut w = vec![self.config.input_dim];
        for s in &self.stages {
            w.push(s.dense.output_dim());
        }
        w
    }

    /// Forward pass over a batch `(batch × input_dim)`.
    pub fn forward(&mut self, x: &Mat) -> Mat {
        let mut h = x.clone();
        for s in &mut self.stages {
            h = s.dense.forward(&h);
            if let Some(a) = &mut s.act {
                h = a.forward(&h);
            }
        }
        h
    }

    /// One training step on a corrupted batch.
    ///
    /// `mask` holds 1.0 where the *target* is trusted (originally
    /// non-missing) and 0.0 elsewhere; only trusted cells contribute
    /// to the MSE and its gradient. Returns the masked mean-squared
    /// error *before* the update.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn train_step(&mut self, corrupted: &Mat, target: &Mat, mask: &Mat) -> f64 {
        assert_eq!((corrupted.rows(), corrupted.cols()), (target.rows(), target.cols()));
        assert_eq!((mask.rows(), mask.cols()), (target.rows(), target.cols()));
        let y = self.forward(corrupted);
        // Masked MSE and its gradient.
        let mut count = 0.0;
        for &m in mask.as_slice() {
            if m > 0.0 {
                count += 1.0;
            }
        }
        if count == 0.0 {
            return 0.0;
        }
        let mut dy = y.sub(target);
        let mut loss = 0.0;
        {
            let d = dy.as_mut_slice();
            for (v, &m) in d.iter_mut().zip(mask.as_slice()) {
                if m > 0.0 {
                    loss += *v * *v;
                    *v *= 2.0 / count;
                } else {
                    *v = 0.0;
                }
            }
        }
        loss /= count;

        // Backprop through the stack. Nothing consumes the gradient
        // with respect to the network's input, so the first stage
        // stops at its parameter gradients.
        let mut delta = dy;
        for (idx, s) in self.stages.iter_mut().enumerate().rev() {
            if let Some(a) = &mut s.act {
                delta = a.backward(&delta);
            }
            if idx == 0 {
                s.dense.backward_params(&delta);
            } else {
                delta = s.dense.backward(&delta);
            }
        }
        // Parameter updates.
        for s in &mut self.stages {
            s.opt_w.step(s.dense.w.as_mut_slice(), s.dense.grad_w.as_slice());
            s.opt_b.step(&mut s.dense.b, &s.dense.grad_b);
            if let (Some(a), Some(opt)) = (&mut s.act, &mut s.opt_a) {
                opt.step(&mut a.alpha, &a.grad_alpha);
            }
        }
        loss
    }

    /// Inference over a batch `(batch × input_dim)`: the forward pass
    /// without the caches training needs. Each output row depends on
    /// its input row only, bit for bit.
    pub fn reconstruct(&self, x: &Mat) -> Mat {
        let mut h = x.clone();
        for s in &self.stages {
            h = s.dense.infer(&h);
            if let Some(a) = &s.act {
                h = a.infer(&h);
            }
        }
        h
    }

    /// The configuration used to build this network.
    pub fn config(&self) -> &AutoencoderConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn widths_are_symmetric() {
        let ae = Autoencoder::new(&AutoencoderConfig { depth: 3, ..AutoencoderConfig::paper(64) });
        assert_eq!(ae.widths(), vec![64, 32, 16, 8, 16, 32, 64]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_overdeep_stack() {
        Autoencoder::new(&AutoencoderConfig::paper(8)); // 8 >> 4 == 0
    }

    #[test]
    fn output_shape_matches_input() {
        let mut ae =
            Autoencoder::new(&AutoencoderConfig { depth: 2, ..AutoencoderConfig::paper(16) });
        let x = Mat::zeros(5, 16);
        let y = ae.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 16));
    }

    #[test]
    fn training_reduces_masked_loss() {
        // Learn to reconstruct a simple low-rank pattern.
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = AutoencoderConfig {
            depth: 2,
            learning_rate: 1e-2,
            ..AutoencoderConfig::paper(16)
        };
        let mut ae = Autoencoder::new(&cfg);
        let make_batch = |rng: &mut StdRng| {
            Mat::from_fn(32, 16, |r, c| {
                let phase = (r % 4) as f64;
                ((c as f64 * 0.4 + phase) * 0.7).sin() + (rng.random::<f64>() - 0.5) * 0.01
            })
        };
        let mask = Mat::from_fn(32, 16, |_, _| 1.0);
        let first = {
            let b = make_batch(&mut rng);
            ae.train_step(&b, &b, &mask)
        };
        let mut last = first;
        for _ in 0..300 {
            let b = make_batch(&mut rng);
            last = ae.train_step(&b, &b, &mask);
        }
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn fully_masked_batch_is_a_no_op() {
        let cfg = AutoencoderConfig { depth: 2, ..AutoencoderConfig::paper(16) };
        let mut ae = Autoencoder::new(&cfg);
        let x = Mat::zeros(2, 16);
        let mask = Mat::zeros(2, 16);
        assert_eq!(ae.train_step(&x, &x, &mask), 0.0);
    }

    #[test]
    fn masked_cells_do_not_affect_loss() {
        let cfg = AutoencoderConfig { depth: 2, seed: 4, ..AutoencoderConfig::paper(16) };
        let mut ae1 = Autoencoder::new(&cfg);
        let mut ae2 = Autoencoder::new(&cfg);
        let x = Mat::from_fn(3, 16, |r, c| (r + c) as f64 * 0.1);
        // Target B differs from A only in a masked-out cell.
        let mut tb = x.clone();
        tb.set(0, 0, 99.0);
        let mask = Mat::from_fn(3, 16, |r, c| if r == 0 && c == 0 { 0.0 } else { 1.0 });
        let la = ae1.train_step(&x, &x, &mask);
        let lb = ae2.train_step(&x, &tb, &mask);
        assert!((la - lb).abs() < 1e-12);
    }
}
