//! The four workloads, each an experiment-shaped run of the library:
//! simulate → filter → impute → score → `ForecastContext::build`, then
//! a Table III sweep through `SweepPlan` + `InProcessExecutor`.
//! README.md says why each was chosen.

use crate::spans::Recorder;
use hotspot_core::missing::sector_filter_mask;
use hotspot_core::pipeline::ScorePipeline;
use hotspot_forecast::context::{ForecastContext, Target};
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{FeatureCacheConfig, ResiliencePolicy, SweepConfig, TableIIIGrid};
use hotspot_nn::imputer::{
    AutoencoderImputer, ForwardFillImputer, Imputer, ImputerConfig, MeanImputer,
};
use hotspot_simnet::network::{NetworkConfig, SyntheticNetwork};
use hotspot_trees::SplitStrategy;

/// Gap filler run before scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImputerKind {
    /// Forward fill (the experiments' default).
    ForwardFill,
    /// The denoising autoencoder at `ImputerConfig::fast()`.
    Autoencoder,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Sectors simulated.
    pub sectors: usize,
    /// Weeks simulated.
    pub weeks: usize,
    /// Tower failures per week, when not the simulator's default.
    pub failure_rate: Option<f64>,
    /// Imputer.
    pub imputer: ImputerKind,
    /// Forecast target.
    pub target: Target,
    /// Models swept.
    pub models: Vec<ModelSpec>,
    /// Evaluation days.
    pub ts: Vec<usize>,
    /// Horizons.
    pub hs: Vec<usize>,
    /// Windows.
    pub ws: Vec<usize>,
    /// Forest size.
    pub n_trees: usize,
    /// Label days stacked per fit.
    pub train_days: usize,
}

/// Experiment defaults shared by every workload (`RunOptions` defaults
/// of the experiment binaries).
const N_TREES: usize = 25;
const TRAIN_DAYS: usize = 10;
const RANDOM_REPEATS: usize = 15;

/// Every workload, in the order `--workload all` runs them.
pub fn all() -> Vec<Workload> {
    let base = Workload {
        name: "",
        sectors: 200,
        weeks: 18,
        failure_rate: None,
        imputer: ImputerKind::ForwardFill,
        target: Target::BeHotSpot,
        models: Vec::new(),
        ts: Vec::new(),
        hs: Vec::new(),
        ws: Vec::new(),
        n_trees: N_TREES,
        train_days: TRAIN_DAYS,
    };
    vec![
        // Fig. 9 shape: every paper model at w = 7, one t; three of the
        // Table III horizons keep one sweep near 5 s.
        Workload {
            name: "horizon_be",
            models: ModelSpec::PAPER.to_vec(),
            ts: vec![52],
            hs: vec![1, 10, 29],
            ws: vec![7],
            ..base.clone()
        },
        // Fig. 14 shape: RF-F1 on the become target over every Table
        // III window, at one of the figure's three t values.
        Workload {
            name: "window_become",
            failure_rate: Some(0.08),
            target: Target::BecomeHotSpot,
            models: vec![ModelSpec::RfF1],
            ts: vec![52],
            hs: vec![1, 2, 4, 8, 16, 26],
            ws: TableIIIGrid::ws(),
            ..base.clone()
        },
        // The full Table III grid, baselines only.
        Workload {
            name: "baselines_grid",
            models: vec![
                ModelSpec::Random,
                ModelSpec::Persist,
                ModelSpec::Average,
                ModelSpec::Trend,
            ],
            ts: TableIIIGrid::ts(),
            hs: TableIIIGrid::hs(),
            ws: TableIIIGrid::ws(),
            ..base.clone()
        },
        // The autoencoder leg of the imputation ablation.
        Workload {
            name: "impute_ae",
            sectors: 40,
            weeks: 10,
            imputer: ImputerKind::Autoencoder,
            models: vec![ModelSpec::RfF1],
            ts: (24..=64).collect(),
            hs: vec![5],
            ws: vec![7],
            ..base
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Seed of network `k` of a run at `seed`: `seed` itself for network
/// 0, a SplitMix64 hash of `(seed, k)` for the others.
pub fn network_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = (seed ^ (k as u64).rotate_left(32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f`, inside a span named `name` when a recorder is given.
fn timed<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec.as_deref_mut() {
        Some(r) => r.time(name, f),
        None => f(),
    }
}

/// What set-up produced besides the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupInfo {
    /// Sectors the Sec. II-C filter kept.
    pub kept: usize,
    /// Gap cells the imputers filled.
    pub cells_imputed: usize,
}

impl Workload {
    /// Simulate, filter, impute and score the network for `seed`, then
    /// build the forecast context — the experiments' `prepare` and
    /// `context` pieces. With a recorder, each layer call is a span.
    pub fn setup(&self, seed: u64, mut rec: Option<&mut Recorder>) -> (ForecastContext, SetupInfo) {
        let mut config = NetworkConfig::paper_shaped()
            .with_sectors(self.sectors)
            .with_weeks(self.weeks);
        if let Some(rate) = self.failure_rate {
            config.events.failures_per_tower_week = rate;
        }
        let network = timed(&mut rec, "simnet.generate", || {
            SyntheticNetwork::generate(&config, seed)
        });
        let mut kpis = timed(&mut rec, "core.filter", || {
            let mask = sector_filter_mask(network.kpis(), 0.5).expect("valid threshold");
            network.kpis().retain_sectors(&mask).expect("mask matches")
        });
        assert!(kpis.n_sectors() > 0, "sector filter discarded everything");
        // Whatever the chosen imputer leaves falls back to the mean
        // imputer, as in the experiments.
        let cells_imputed = timed(&mut rec, "nn.impute", || {
            let filled = match self.imputer {
                ImputerKind::ForwardFill => ForwardFillImputer.impute(&mut kpis),
                ImputerKind::Autoencoder => {
                    AutoencoderImputer::new(ImputerConfig::fast()).impute(&mut kpis)
                }
            };
            filled + MeanImputer.impute(&mut kpis)
        });
        let scored = timed(&mut rec, "core.score", || {
            ScorePipeline::standard()
                .run(&kpis)
                .expect("score pipeline")
        });
        let ctx = timed(&mut rec, "context.build", || {
            ForecastContext::build(&kpis, &scored, self.target).expect("consistent set-up")
        });
        (
            ctx,
            SetupInfo {
                kept: kpis.n_sectors(),
                cells_imputed,
            },
        )
    }

    /// The sweep configuration at `seed` on `threads` worker threads,
    /// with the program's defaults for splits and the plane cache.
    pub fn sweep_config(&self, seed: u64, threads: usize) -> SweepConfig {
        SweepConfig {
            models: self.models.clone(),
            ts: self.ts.clone(),
            hs: self.hs.clone(),
            ws: self.ws.clone(),
            n_trees: self.n_trees,
            train_days: self.train_days,
            random_repeats: RANDOM_REPEATS,
            seed,
            n_threads: Some(threads),
            resilience: ResiliencePolicy::default(),
            split: SplitStrategy::default(),
            feature_cache: FeatureCacheConfig::default(),
        }
    }
}
