//! Deterministic work counters pinned to exact values.
//!
//! Split-evaluation counts and plane-cache builds are properties of
//! the algorithms, not of the machine: any drift is a behaviour
//! change, not noise. They are read as deltas of the process-global
//! `obs` counters, so this file holds a single `#[test]` — a second
//! test in the same process could run concurrently and add to them.
//!
//! Re-pin a constant only together with a deliberate change to split
//! finding, forest sampling, or the sweep's featurisation.

use hotspot::core::kpi::KpiCatalog;
use hotspot::core::pipeline::ScorePipeline;
use hotspot::core::tensor::Tensor3;
use hotspot::core::HOURS_PER_WEEK;
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::sweep::{run_sweep, FeatureCacheConfig, ResiliencePolicy, SweepConfig};
use hotspot::obs;
use hotspot::trees::{Dataset, RandomForest, RandomForestParams, SplitStrategy};

const N_ROWS: usize = 5000;
const N_FEATURES: usize = 63;
const N_TREES: usize = 10;

/// `trees.split_evaluations` of one 10-tree forest fit on [`dataset`].
const EXACT_SPLIT_EVALUATIONS: u64 = 37544;
const HIST_SPLIT_EVALUATIONS: u64 = 37816;
/// Counters of one [`sweep_config`] run at the default cache budget.
const SWEEP_SPLIT_EVALUATIONS: u64 = 792;
const SWEEP_PLANE_BUILDS: u64 = 20;

/// Deterministic continuous-valued 5000 × 63 dataset (xorshift) whose
/// label depends on every ninth feature.
fn dataset() -> Dataset {
    let mut features = Vec::with_capacity(N_ROWS * N_FEATURES);
    let mut labels = Vec::new();
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..N_ROWS {
        let mut hot = 0.0;
        for k in 0..N_FEATURES {
            let v = next();
            if k % 9 == 0 {
                hot += v;
            }
            features.push(v);
        }
        labels.push(hot > (N_FEATURES / 9) as f64 * 0.55);
    }
    let mut data = Dataset::new(features, N_FEATURES, labels).unwrap();
    data.balance_weights();
    data
}

/// A 10-sector, 6-week context with a weekday-business-hours hot
/// cluster in sectors 0–2.
fn sweep_context() -> ForecastContext {
    let catalog = KpiCatalog::standard();
    let kpis = Tensor3::from_fn(10, HOURS_PER_WEEK * 6, 21, |i, j, k| {
        let def = &catalog.defs()[k];
        let dow = (j / 24) % 7;
        if i < 3 && (6..22).contains(&(j % 24)) && dow < 5 {
            def.degraded
        } else {
            def.nominal
        }
    });
    let scored = ScorePipeline::standard().run(&kpis).unwrap();
    ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
}

/// A reduced RF-F1 sweep: overlapping horizons at one window, so cells
/// share planes.
fn sweep_config() -> SweepConfig {
    SweepConfig {
        models: vec![ModelSpec::RfF1],
        ts: vec![24, 26, 28, 30],
        hs: vec![1, 2, 3],
        ws: vec![7],
        n_trees: 2,
        train_days: 6,
        random_repeats: 10,
        seed: 3,
        n_threads: Some(2),
        resilience: ResiliencePolicy::default(),
        split: SplitStrategy::default(),
        feature_cache: FeatureCacheConfig::default(),
    }
}

fn forest_split_evaluations(data: &Dataset, split: SplitStrategy, n_threads: usize) -> u64 {
    let params = RandomForestParams {
        n_trees: N_TREES,
        n_threads: Some(n_threads),
        ..RandomForestParams::paper()
    }
    .with_split(split);
    let counter = obs::counter("trees.split_evaluations");
    let before = counter.get();
    RandomForest::fit(data, &params);
    counter.get() - before
}

#[test]
fn pinned_work_counters() {
    let data = dataset();
    assert_eq!(
        forest_split_evaluations(&data, SplitStrategy::Exact, 1),
        EXACT_SPLIT_EVALUATIONS,
        "exact forest fit"
    );
    for threads in [1, 4] {
        assert_eq!(
            forest_split_evaluations(&data, SplitStrategy::default(), threads),
            HIST_SPLIT_EVALUATIONS,
            "histogram forest fit on {threads} thread(s)"
        );
    }

    let ctx = sweep_context();
    let names = [
        "trees.split_evaluations",
        "features.cache.build",
        "features.cache.evict",
    ];
    let before = names.map(|name| obs::counter(name).get());
    let result = run_sweep(&ctx, &sweep_config());
    let after = names.map(|name| obs::counter(name).get());
    assert!(result.health.is_clean(), "{}", result.health.summary());
    let [split_evaluations, builds, evictions] = [0, 1, 2].map(|k| after[k] - before[k]);
    assert_eq!(
        split_evaluations, SWEEP_SPLIT_EVALUATIONS,
        "sweep split evaluations"
    );
    assert_eq!(builds, SWEEP_PLANE_BUILDS, "sweep plane builds");
    assert_eq!(evictions, 0, "the default budget holds this grid");
}
