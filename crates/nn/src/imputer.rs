//! Missing-value imputers over the KPI tensor.
//!
//! * [`ForwardFillImputer`] — each gap takes the most recent
//!   observation of the same indicator (leading gaps are back-filled).
//! * [`MeanImputer`] — each gap takes the indicator's global mean.
//! * [`AutoencoderImputer`] — the paper's method: z-normalise per KPI,
//!   train a stacked denoising autoencoder on randomly drawn
//!   week-slices with forward-fill corruption, then replace *only the
//!   originally missing cells* with the reconstruction (Fig. 5).

use crate::autoencoder::{Autoencoder, AutoencoderConfig};
use crate::linalg::Mat;
use hotspot_core::tensor::Tensor3;
use hotspot_obs as obs;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Common interface: fill `NaN` cells in place, returning how many
/// cells were filled.
pub trait Imputer {
    /// Impute all gaps in the tensor.
    fn impute(&mut self, kpis: &mut Tensor3) -> usize;
}

/// Forward-fill (a.k.a. last-observation-carried-forward) imputer.
#[derive(Debug, Clone, Default)]
pub struct ForwardFillImputer;

impl Imputer for ForwardFillImputer {
    fn impute(&mut self, kpis: &mut Tensor3) -> usize {
        let (n, m, l) = kpis.shape();
        let mut filled = 0usize;
        for i in 0..n {
            for k in 0..l {
                let mut last: Option<f64> = None;
                // Forward pass.
                for j in 0..m {
                    let v = kpis.get(i, j, k);
                    if v.is_nan() {
                        if let Some(fill) = last {
                            kpis.set(i, j, k, fill);
                            filled += 1;
                        }
                    } else {
                        last = Some(v);
                    }
                }
                // Leading gaps: back-fill from the first observation.
                let first = (0..m).map(|j| kpis.get(i, j, k)).find(|v| !v.is_nan());
                if let Some(fill) = first {
                    for j in 0..m {
                        if kpis.get(i, j, k).is_nan() {
                            kpis.set(i, j, k, fill);
                            filled += 1;
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        obs::counter("imputer.cells_imputed").add(filled as u64);
        filled
    }
}

/// Per-indicator global-mean imputer.
#[derive(Debug, Clone, Default)]
pub struct MeanImputer;

impl Imputer for MeanImputer {
    fn impute(&mut self, kpis: &mut Tensor3) -> usize {
        let (n, m, l) = kpis.shape();
        // Per-KPI means over observed cells.
        let mut sums = vec![0.0; l];
        let mut counts = vec![0usize; l];
        for i in 0..n {
            for j in 0..m {
                for (k, &v) in kpis.frame(i, j).iter().enumerate() {
                    if !v.is_nan() {
                        sums[k] += v;
                        counts[k] += 1;
                    }
                }
            }
        }
        let means: Vec<f64> =
            sums.iter().zip(&counts).map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 }).collect();
        let mut filled = 0usize;
        for i in 0..n {
            for j in 0..m {
                for (k, v) in kpis.frame_mut(i, j).iter_mut().enumerate() {
                    if v.is_nan() {
                        *v = means[k];
                        filled += 1;
                    }
                }
            }
        }
        obs::counter("imputer.cells_imputed").add(filled as u64);
        filled
    }
}

/// Configuration of the autoencoder imputer.
#[derive(Debug, Clone)]
pub struct ImputerConfig {
    /// Hours per training/imputation slice (the paper uses a week).
    pub slice_hours: usize,
    /// Encoder depth.
    pub depth: usize,
    /// Training epochs; each epoch draws `n·(m/slice)/batch` batches.
    pub epochs: usize,
    /// Batch size (the paper uses 128).
    pub batch_size: usize,
    /// RMSprop learning rate.
    pub learning_rate: f64,
    /// RMSprop smoothing.
    pub rho: f64,
    /// Extra-corruption cap: up to this fraction of each slice is
    /// additionally forward-fill-corrupted during training (the paper
    /// corrupts "up to half of the slice size").
    pub corruption_cap: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ImputerConfig {
    /// The paper's configuration: week slices, depth 4, lr 1e-4,
    /// ρ 0.99, batch 128, corruption up to 50%. 1000 epochs in the
    /// paper; the default here is laptop-scale — raise it for the
    /// full-fidelity run.
    pub fn paper() -> Self {
        ImputerConfig {
            slice_hours: 168,
            depth: 4,
            epochs: 20,
            batch_size: 128,
            learning_rate: 1e-4,
            rho: 0.99,
            corruption_cap: 0.5,
            seed: 0,
        }
    }

    /// A fast configuration (day slices, shallower stack, higher lr)
    /// for experiments and ablations.
    pub fn fast() -> Self {
        ImputerConfig {
            slice_hours: 24,
            depth: 3,
            epochs: 8,
            batch_size: 64,
            learning_rate: 1e-3,
            ..Self::paper()
        }
    }
}

/// Gapped slices reconstructed per network pass: large enough to keep
/// the matmul kernel busy, small enough to keep memory flat.
const RECONSTRUCT_ROWS: usize = 256;

/// The denoising-autoencoder imputer.
pub struct AutoencoderImputer {
    config: ImputerConfig,
    network: Option<Autoencoder>,
    kpi_mean: Vec<f64>,
    kpi_std: Vec<f64>,
    /// Training-loss trace (masked MSE per logged batch).
    pub loss_trace: Vec<f64>,
}

impl AutoencoderImputer {
    /// Create an (untrained) imputer.
    pub fn new(config: ImputerConfig) -> Self {
        AutoencoderImputer {
            config,
            network: None,
            kpi_mean: Vec::new(),
            kpi_std: Vec::new(),
            loss_trace: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ImputerConfig {
        &self.config
    }

    fn compute_norms(&mut self, kpis: &Tensor3) {
        let (n, m, l) = kpis.shape();
        let mut sums = vec![0.0; l];
        let mut counts = vec![0usize; l];
        for i in 0..n {
            for j in 0..m {
                for (k, &v) in kpis.frame(i, j).iter().enumerate() {
                    if !v.is_nan() {
                        sums[k] += v;
                        counts[k] += 1;
                    }
                }
            }
        }
        self.kpi_mean =
            sums.iter().zip(&counts).map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 }).collect();
        let mut ss = vec![0.0; l];
        for i in 0..n {
            for j in 0..m {
                for (k, &v) in kpis.frame(i, j).iter().enumerate() {
                    if !v.is_nan() {
                        let d = v - self.kpi_mean[k];
                        ss[k] += d * d;
                    }
                }
            }
        }
        self.kpi_std = ss
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 1 { (s / (c - 1) as f64).sqrt().max(1e-9) } else { 1.0 })
            .collect();
    }

    /// Extract one z-normalised slice as `(values, mask)` flattened
    /// hour-major; missing cells are 0 in `values` and 0 in `mask`.
    fn slice_norm(&self, kpis: &Tensor3, i: usize, j0: usize) -> (Vec<f64>, Vec<f64>) {
        let l = kpis.n_features();
        let h = self.config.slice_hours;
        let mut values = Vec::with_capacity(h * l);
        let mut mask = Vec::with_capacity(h * l);
        for j in j0..j0 + h {
            for (k, &v) in kpis.frame(i, j).iter().enumerate() {
                if v.is_nan() {
                    values.push(0.0);
                    mask.push(0.0);
                } else {
                    values.push((v - self.kpi_mean[k]) / self.kpi_std[k]);
                    mask.push(1.0);
                }
            }
        }
        (values, mask)
    }

    /// Forward-fill a flattened slice in place (per indicator), using
    /// 0 (= the KPI mean after z-norm) when no previous sample exists.
    fn forward_fill_flat(values: &mut [f64], mask: &[f64], hours: usize, l: usize) {
        for k in 0..l {
            let mut last = 0.0;
            for j in 0..hours {
                let idx = j * l + k;
                if mask[idx] > 0.0 {
                    last = values[idx];
                } else {
                    values[idx] = last;
                }
            }
        }
    }

    /// Train the autoencoder on the tensor's slices.
    pub fn fit(&mut self, kpis: &Tensor3) {
        let _span = obs::span!("imputer.fit");
        let (n, m, l) = kpis.shape();
        let h = self.config.slice_hours;
        assert!(m >= h, "series shorter than one slice");
        self.compute_norms(kpis);
        let input_dim = h * l;
        let mut net = Autoencoder::new(&AutoencoderConfig {
            input_dim,
            depth: self.config.depth,
            learning_rate: self.config.learning_rate,
            rho: self.config.rho,
            seed: self.config.seed,
        });
        let n_slices = m / h;
        let batches_per_epoch = ((n * n_slices).div_ceil(self.config.batch_size)).max(1);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xAE_1234);
        self.loss_trace.clear();

        for _epoch in 0..self.config.epochs {
            let _epoch_span = obs::span!("epoch");
            for _batch in 0..batches_per_epoch {
                let b = self.config.batch_size;
                let mut corrupt = Vec::with_capacity(b * input_dim);
                let mut target = Vec::with_capacity(b * input_dim);
                let mut mask_all = Vec::with_capacity(b * input_dim);
                for _ in 0..b {
                    let i = rng.random_range(0..n);
                    let s = rng.random_range(0..n_slices);
                    let (values, mask) = self.slice_norm(kpis, i, s * h);
                    // Corrupt additional observed cells, up to the cap.
                    let frac = rng.random::<f64>() * self.config.corruption_cap;
                    let mut train_mask = mask.clone();
                    for tm in train_mask.iter_mut() {
                        if *tm > 0.0 && rng.random::<f64>() < frac {
                            *tm = 0.0;
                        }
                    }
                    let mut corrupted = values.clone();
                    // Zero out newly corrupted cells so forward fill
                    // treats them as gaps.
                    for (c, &tm) in corrupted.iter_mut().zip(&train_mask) {
                        if tm == 0.0 {
                            *c = 0.0;
                        }
                    }
                    Self::forward_fill_flat(&mut corrupted, &train_mask, h, l);
                    corrupt.extend_from_slice(&corrupted);
                    target.extend_from_slice(&values);
                    // Loss mask = originally observed cells (the paper
                    // scores reconstruction on real data only).
                    mask_all.extend_from_slice(&mask);
                }
                let loss = net.train_step(
                    &Mat::from_vec(b, input_dim, corrupt),
                    &Mat::from_vec(b, input_dim, target),
                    &Mat::from_vec(b, input_dim, mask_all),
                );
                self.loss_trace.push(loss);
            }
        }
        if let Some(&last) = self.loss_trace.last() {
            obs::gauge("imputer.reconstruction_error").set(last);
        }
        self.network = Some(net);
    }

    /// The network's input for one slice: z-normalised, with its gaps
    /// forward-filled.
    fn slice_input(&self, kpis: &Tensor3, i: usize, j0: usize) -> Vec<f64> {
        let (mut values, mask) = self.slice_norm(kpis, i, j0);
        Self::forward_fill_flat(&mut values, &mask, self.config.slice_hours, kpis.n_features());
        values
    }

    fn network(&self) -> &Autoencoder {
        self.network.as_ref().expect("fit before reconstruct")
    }

    /// Reconstruct one slice and return the denormalised values for
    /// its missing cells (used by the Fig. 5 experiment for plotting).
    pub fn reconstruct_slice(&self, kpis: &Tensor3, i: usize, j0: usize) -> Vec<f64> {
        let l = kpis.n_features();
        let values = self.slice_input(kpis, i, j0);
        let y = self.network().reconstruct(&Mat::from_vec(1, values.len(), values));
        y.as_slice()
            .iter()
            .enumerate()
            .map(|(idx, &v)| {
                let k = idx % l;
                v * self.kpi_std[k] + self.kpi_mean[k]
            })
            .collect()
    }

    /// Fill the gaps of every sector's slices starting at `starts`
    /// (which must not overlap), reconstructing up to
    /// [`RECONSTRUCT_ROWS`] gapped slices per network pass. Returns
    /// the number of cells filled.
    fn fill_slices(&self, kpis: &mut Tensor3, starts: &[usize]) -> usize {
        let (n, _, l) = kpis.shape();
        let h = self.config.slice_hours;
        let gapped: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| starts.iter().map(move |&j0| (i, j0)))
            .filter(|&(i, j0)| (j0..j0 + h).any(|j| kpis.frame(i, j).iter().any(|v| v.is_nan())))
            .collect();
        let mut filled = 0usize;
        for batch in gapped.chunks(RECONSTRUCT_ROWS) {
            let input: Vec<f64> =
                batch.iter().flat_map(|&(i, j0)| self.slice_input(kpis, i, j0)).collect();
            let recon = self.network().reconstruct(&Mat::from_vec(batch.len(), h * l, input));
            for (&(i, j0), row) in batch.iter().zip(recon.as_slice().chunks_exact(h * l)) {
                for (j, hour) in (j0..j0 + h).zip(row.chunks_exact(l)) {
                    for (k, (v, &r)) in kpis.frame_mut(i, j).iter_mut().zip(hour).enumerate() {
                        if v.is_nan() {
                            *v = r * self.kpi_std[k] + self.kpi_mean[k];
                            filled += 1;
                        }
                    }
                }
            }
        }
        filled
    }
}

impl Imputer for AutoencoderImputer {
    /// Fit (if not already fitted) and fill every gap with the
    /// network's reconstruction. Slices tile the series; a trailing
    /// partial window is covered by an end-aligned slice that
    /// overlaps the last tiled one, so it is reconstructed second,
    /// from input that already holds the tiled slices' fills.
    fn impute(&mut self, kpis: &mut Tensor3) -> usize {
        if self.network.is_none() {
            self.fit(kpis);
        }
        let _span = obs::span!("imputer.reconstruct");
        let m = kpis.n_time();
        let h = self.config.slice_hours;
        let tiled: Vec<usize> = (0..m / h).map(|s| s * h).collect();
        let mut filled = self.fill_slices(kpis, &tiled);
        if !m.is_multiple_of(h) && m >= h {
            filled += self.fill_slices(kpis, &[m - h]);
        }
        obs::counter("imputer.cells_imputed").add(filled as u64);
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gapped_tensor() -> Tensor3 {
        // 2 sectors, 48 hours, 2 KPIs with a sinusoidal pattern.
        let mut t = Tensor3::from_fn(2, 48, 2, |i, j, k| {
            ((j as f64) * 0.3 + i as f64 + k as f64).sin() * 2.0 + 5.0
        });
        t.set(0, 5, 0, f64::NAN);
        t.set(0, 6, 0, f64::NAN);
        t.set(1, 0, 1, f64::NAN); // leading gap
        t.set(1, 47, 0, f64::NAN); // trailing gap
        t
    }

    #[test]
    fn forward_fill_fills_everything() {
        let mut t = gapped_tensor();
        let filled = ForwardFillImputer.impute(&mut t);
        assert_eq!(filled, 4);
        assert_eq!(t.count_nan(), 0);
        // Gap takes the previous value.
        assert_eq!(t.get(0, 5, 0), t.get(0, 4, 0));
        assert_eq!(t.get(0, 6, 0), t.get(0, 4, 0));
        // Leading gap back-fills.
        assert_eq!(t.get(1, 0, 1), t.get(1, 1, 1));
    }

    #[test]
    fn mean_imputer_uses_kpi_mean() {
        let mut t = Tensor3::from_vec(1, 4, 1, vec![1.0, f64::NAN, 3.0, 5.0]).unwrap();
        let filled = MeanImputer.impute(&mut t);
        assert_eq!(filled, 1);
        assert!((t.get(0, 1, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn imputers_do_not_touch_observed_cells() {
        let orig = gapped_tensor();
        for imp in [&mut ForwardFillImputer as &mut dyn Imputer, &mut MeanImputer] {
            let mut t = orig.clone();
            imp.impute(&mut t);
            for (a, b) in orig.as_slice().iter().zip(t.as_slice()) {
                if !a.is_nan() {
                    assert_eq!(a, b);
                }
            }
        }
    }

    fn tiny_ae_config() -> ImputerConfig {
        ImputerConfig {
            slice_hours: 8,
            depth: 2,
            epochs: 30,
            batch_size: 16,
            learning_rate: 5e-3,
            rho: 0.9,
            corruption_cap: 0.5,
            seed: 3,
        }
    }

    /// A strongly patterned tensor the autoencoder can learn: each
    /// sector/KPI is a scaled copy of one 8-hour template.
    fn patterned_tensor() -> Tensor3 {
        let template = [1.0, 2.0, 4.0, 7.0, 7.0, 4.0, 2.0, 1.0];
        Tensor3::from_fn(6, 64, 2, |i, j, k| {
            template[j % 8] * (1.0 + 0.1 * i as f64) + k as f64
        })
    }

    #[test]
    fn autoencoder_fills_all_gaps_and_leaves_observed() {
        let mut t = patterned_tensor();
        let orig = t.clone();
        t.set(0, 10, 0, f64::NAN);
        t.set(3, 20, 1, f64::NAN);
        t.set(5, 63, 0, f64::NAN);
        let mut imp = AutoencoderImputer::new(tiny_ae_config());
        let filled = imp.impute(&mut t);
        assert_eq!(filled, 3);
        assert_eq!(t.count_nan(), 0);
        for i in 0..6 {
            for j in 0..64 {
                for k in 0..2 {
                    let corrupted = (i == 0 && j == 10 && k == 0)
                        || (i == 3 && j == 20 && k == 1)
                        || (i == 5 && j == 63 && k == 0);
                    if !corrupted {
                        assert_eq!(t.get(i, j, k), orig.get(i, j, k));
                    }
                }
            }
        }
    }

    #[test]
    fn autoencoder_beats_nothing_on_patterned_data() {
        // Reconstruction should be in a plausible range of the truth.
        let mut t = patterned_tensor();
        let truth = t.get(2, 11, 0);
        t.set(2, 11, 0, f64::NAN);
        let mut imp = AutoencoderImputer::new(tiny_ae_config());
        imp.impute(&mut t);
        let got = t.get(2, 11, 0);
        assert!(got.is_finite());
        // Within the template's global range at least.
        assert!(got > -2.0 && got < 12.0, "reconstruction {got} for truth {truth}");
    }

    #[test]
    fn loss_trace_trends_downward() {
        let t = patterned_tensor();
        let mut imp = AutoencoderImputer::new(tiny_ae_config());
        imp.fit(&t);
        let trace = &imp.loss_trace;
        assert!(trace.len() > 10);
        let head: f64 = trace[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = trace[trace.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(tail < head, "loss head {head} tail {tail}");
    }

    #[test]
    fn batched_fill_matches_one_slice_reconstruction() {
        // More gapped slices than one reconstruction pass takes; one
        // gap per sector, alternating between its two slices.
        let n = RECONSTRUCT_ROWS + 9;
        let gap = |i: usize| ((i % 2) * 4 + 1, i % 2);
        let mut t = Tensor3::from_fn(n, 8, 2, |i, j, k| ((i * 5 + j * 3 + k) % 7) as f64);
        for i in 0..n {
            let (j, k) = gap(i);
            t.set(i, j, k, f64::NAN);
        }
        let mut imp = AutoencoderImputer::new(ImputerConfig {
            slice_hours: 4,
            depth: 1,
            epochs: 1,
            batch_size: 32,
            ..tiny_ae_config()
        });
        imp.fit(&t);
        let expected: Vec<f64> = (0..n)
            .map(|i| {
                let (j, k) = gap(i);
                let j0 = j / 4 * 4;
                imp.reconstruct_slice(&t, i, j0)[(j - j0) * 2 + k]
            })
            .collect();
        assert_eq!(imp.impute(&mut t), n);
        for (i, want) in expected.iter().enumerate() {
            let (j, k) = gap(i);
            assert_eq!(t.get(i, j, k).to_bits(), want.to_bits(), "sector {i}");
        }
    }

    #[test]
    fn fit_and_fill_record_separate_spans() {
        obs::set_spans_enabled(true);
        let mut t = patterned_tensor();
        t.set(1, 9, 0, f64::NAN);
        AutoencoderImputer::new(tiny_ae_config()).impute(&mut t);
        let spans = obs::global().snapshot().spans;
        obs::set_spans_enabled(false);
        assert!(spans.contains_key("imputer.fit"), "{:?}", spans.keys());
        assert!(spans.contains_key("imputer.reconstruct"), "{:?}", spans.keys());
    }

    /// FNV-1a over the IEEE-754 bit patterns, so any single-bit change
    /// in any value changes the digest.
    fn fnv1a_bits(values: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// A tensor whose shape hits every edge of the imputer: 34 hours
    /// in 6-hour slices (a trailing end-aligned slice over hours
    /// 28..34 overlapping the last tiled slice 24..30), 18-wide input
    /// and 7-row batches (neither a multiple of a kernel tile), gaps
    /// inside that overlap, and fully observed slices. Values use only
    /// basic arithmetic so the digest does not depend on a libm.
    fn golden_tensor() -> Tensor3 {
        let mut t = Tensor3::from_fn(5, 34, 3, |i, j, k| {
            5.0 + ((j * 7 + i * 3 + k * 5) % 11) as f64 * 0.25
                + (j % 6) as f64 * 0.5 * (k + 1) as f64
        });
        for (i, j, k) in [
            (0, 2, 0),
            (0, 3, 0),
            (1, 28, 1), // overlap of the last tiled and the trailing slice
            (1, 29, 2),
            (1, 32, 0), // trailing slice only: its input sees the fills above
            (2, 33, 2),
            (4, 29, 0), // overlap only: filled by the tiled slice
        ] {
            t.set(i, j, k, f64::NAN);
        }
        for j in 10..14 {
            for k in 0..3 {
                t.set(4, j, k, f64::NAN);
            }
        }
        t
    }

    fn golden_config() -> ImputerConfig {
        ImputerConfig {
            slice_hours: 6,
            depth: 2,
            epochs: 3,
            batch_size: 7,
            learning_rate: 5e-3,
            rho: 0.9,
            corruption_cap: 0.5,
            seed: 11,
        }
    }

    /// Bit-identity gate for the whole fit + fill path. The constants
    /// were recorded before the matmul kernels were rewritten; a
    /// kernel that reorders, fuses or splits any sum changes them.
    #[test]
    fn autoencoder_golden_digests() {
        let mut t = golden_tensor();
        let mut imp = AutoencoderImputer::new(golden_config());
        let filled = imp.impute(&mut t);
        assert_eq!(filled, 7 + 12);
        assert_eq!(t.count_nan(), 0);
        assert_eq!(imp.loss_trace.len(), 12);
        assert_eq!(
            format!("{:016x}", fnv1a_bits(&imp.loss_trace)),
            "d15669fc5948f716",
            "loss trace digest"
        );
        assert_eq!(
            format!("{:016x}", fnv1a_bits(t.as_slice())),
            "75da68ba32cf61e7",
            "imputed tensor digest"
        );
    }
}
