//! The traced run: one set-up and three sweeps of the same plan.
//!
//! 1. An untraced sweep: the reference records, digest and wall time.
//! 2. The same sweep with the program's `obs` spans on and a plane
//!    cache injected through `InProcessExecutor::plane_cache`: busy and
//!    idle time of the worker threads, cache statistics and the
//!    program's `trees.*` counters.
//! 3. A replay of every cell, one by one on this thread, through the
//!    public calls the executor makes (`fit_and_forecast` with one
//!    forest thread and a shared cache, or `ModelSpec::forecast`, then
//!    `evaluate_day`), each inside a span of this benchmark. After each
//!    classifier cell, outside the cell's span, a *shadow* rebuilds the
//!    cell's training set and times `BinnedDataset::build`, the
//!    estimator's fit and its predictions at the cell's shape, which is
//!    how bin, grow and predict time are split out of the cell without
//!    spans inside the program.
//!
//! The replayed records must equal the sweeps' bit for bit, and both
//! sweeps must render the same canonical TSV.

use crate::spans::Recorder;
use crate::stats::{idle_frac, percentile, tail_percentile};
use crate::sweep::{self, same_record};
use crate::workloads::Workload;
use crate::{Metric, Outcome};
use hotspot_features::plane::{FeaturePlane, PlaneCache};
use hotspot_features::windows::{train_window_days, WindowSpec};
use hotspot_forecast::classifier::{fit_and_forecast, ClassifierConfig, ClassifierKind};
use hotspot_forecast::context::ForecastContext;
use hotspot_forecast::evaluate::{evaluate_day, EvalRecord};
use hotspot_forecast::sweep::{CellKey, SweepConfig, SweepPlan};
use hotspot_obs as obs;
use hotspot_trees::binned::HIST_MIN_NODE_ROWS;
use hotspot_trees::{
    BinnedDataset, Dataset, DecisionTree, RandomForest, RandomForestParams, SplitStrategy,
    TreeParams,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// A fitted estimator's scoring function.
type PredictFn = Box<dyn Fn(&[f64]) -> f64>;

/// Summed nanoseconds of every `obs` span whose last path segment is
/// `name`, in the global registry.
fn obs_span_ns(name: &str) -> u64 {
    let suffix = format!("/{name}");
    obs::global()
        .snapshot()
        .spans
        .iter()
        .filter(|(path, _)| *path == name || path.ends_with(&suffix))
        .map(|(_, s)| s.total_ns)
        .sum()
}

fn obs_counter(name: &str) -> u64 {
    obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Run the traced run of `workload` at `seed`; spans are written to
/// `spans_out` as JSON lines when it ends.
pub fn run(workload: &Workload, seed: u64, threads: usize, spans_out: &Path) -> Outcome {
    let mut rec = Recorder::default();
    let mut problems = Vec::new();

    let setup = rec.enter("setup");
    let (ctx, info) = workload.setup(seed, Some(&mut rec));
    rec.exit(setup);
    let config = workload.sweep_config(seed, threads);

    // 1. Untraced reference.
    let t = Instant::now();
    let (plan, reference) = sweep::run(&ctx, &config, None);
    let untraced_s = t.elapsed().as_secs_f64();
    let checked = sweep::check(&plan, &reference);
    problems.extend(checked.problems.iter().cloned());

    // 2. The same sweep with program spans and an injected cache.
    obs::set_spans_enabled(true);
    let busy0 = obs_span_ns("sweep.cell");
    let splits0 = obs_counter("trees.split_evaluations");
    let trees0 = obs_counter("trees.trees_fit");
    let cache = Arc::new(PlaneCache::new(
        config.feature_cache.budget_mb * 1024 * 1024,
    ));
    let t = Instant::now();
    let (_, traced) = sweep::run(&ctx, &config, Some(Arc::clone(&cache)));
    let sweep_s = t.elapsed().as_secs_f64();
    let busy_s = (obs_span_ns("sweep.cell") - busy0) as f64 / 1e9;
    let traced_checked = sweep::check(&plan, &traced);
    problems.extend(traced_checked.problems.iter().cloned());
    if traced_checked.digest != checked.digest {
        problems.push("traced and untraced sweeps render different canonical TSVs".to_string());
    }
    let splits = obs_counter("trees.split_evaluations") - splits0;
    let trees_fit = obs_counter("trees.trees_fit") - trees0;
    let stats = cache.stats();

    // 3. Cell-by-cell replay with shadow decomposition.
    let t = Instant::now();
    let replay = replay(&ctx, &config, &plan, &mut rec);
    let replay_s = t.elapsed().as_secs_f64();
    obs::set_spans_enabled(false);
    problems.extend(replay.problems.iter().cloned());
    for cell in &traced.cells {
        let same = match (cell.record(), replay.records.get(&cell.key())) {
            (Some(a), Some(Some(b))) => same_record(a, b),
            (None, Some(None)) => true,
            _ => false,
        };
        if !same {
            problems.push(format!(
                "replayed cell {} differs from the sweep's",
                cell.key()
            ));
        }
    }

    if let Err(e) = rec.write_jsonl(spans_out) {
        problems.push(format!("writing spans to {}: {e}", spans_out.display()));
    }
    let totals = rec.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ms);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
    let per = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    let cell_ms = ms("classifier.fit_and_forecast");
    let (bin, fit, predict) = (ms("trees.bin"), ms("trees.fit"), ms("trees.predict"));
    let fits = replay.train_shapes.len() as f64;
    let rows: usize = replay.train_shapes.iter().map(|s| s.0).sum();
    let cols: usize = replay.train_shapes.iter().map(|s| s.1).sum();
    let cell_times: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "sweep.cell")
        .map(|s| s.nanos() as f64 / 1e6)
        .collect();
    let tail = tail_percentile(cell_times.len());
    let replay_busy = ms("sweep.cell");
    let unattributed = totals.get("sweep.cell").map_or(0.0, |t| t.self_ms);
    let hits = stats.hits as f64;
    let metrics = [
        ("simnet.generate_ms", ms("simnet.generate"), "ms"),
        ("core.filter_ms", ms("core.filter"), "ms"),
        ("core.score_ms", ms("core.score"), "ms"),
        ("nn.impute_ms", ms("nn.impute"), "ms"),
        ("nn.cells_imputed", info.cells_imputed as f64, "count"),
        ("context.build_ms", ms("context.build"), "ms"),
        ("features.plane_build_ms", replay.plane_build_ms, "ms"),
        ("features.plane_builds", stats.builds as f64, "count"),
        (
            "features.cache_hit_ratio",
            per(hits, (stats.hits + stats.misses) as f64),
            "ratio",
        ),
        ("features.cache_evictions", stats.evictions as f64, "count"),
        (
            "features.resident_mb",
            cache.resident_bytes() as f64 / MIB,
            "MiB",
        ),
        (
            "classifier.cells",
            count("classifier.fit_and_forecast"),
            "count",
        ),
        ("classifier.cell_ms", cell_ms, "ms"),
        ("classifier.train_rows", per(rows as f64, fits), "rows"),
        ("classifier.train_cols", per(cols as f64, fits), "cols"),
        (
            "classifier.other_ms",
            cell_ms - replay.plane_build_ms - fit - predict,
            "ms",
        ),
        ("trees.bin_ms", bin, "ms"),
        ("trees.grow_ms", fit - bin, "ms"),
        ("trees.predict_ms", predict, "ms"),
        ("trees.split_evaluations", splits as f64, "count"),
        ("trees.trees_fit", trees_fit as f64, "count"),
        ("baselines.forecast_ms", ms("baselines.forecast"), "ms"),
        ("eval.evaluate_ms", ms("eval.evaluate_day"), "ms"),
        ("eval.calls", count("eval.evaluate_day"), "count"),
        ("eval.mean_ap", checked.mean_ap, "ratio"),
        ("eval.mean_lift", checked.mean_lift, "ratio"),
        ("sweep.wall_ms", sweep_s * 1e3, "ms"),
        ("sweep.busy_ms", busy_s * 1e3, "ms"),
        (
            "sweep.idle_frac",
            idle_frac(busy_s, threads, sweep_s),
            "ratio",
        ),
        (
            "sweep.evaluated_frac",
            per(traced_checked.evaluated as f64, plan.n_cells() as f64),
            "ratio",
        ),
        ("sweep.cell_samples", cell_times.len() as f64, "count"),
        ("sweep.cell_ms_p50", percentile(&cell_times, 50.0), "ms"),
        ("sweep.cell_ms_p90", percentile(&cell_times, 90.0), "ms"),
        ("sweep.cell_ms_tail_pct", tail.unwrap_or(0.0), "pct"),
        (
            "sweep.cell_ms_tail",
            tail.map_or(0.0, |p| percentile(&cell_times, p)),
            "ms",
        ),
        ("sweep.replay_busy_ms", replay_busy, "ms"),
        ("trace.overhead_frac", replay_s / untraced_s - 1.0, "ratio"),
        (
            "trace.unattributed_frac",
            per(unattributed, replay_busy),
            "ratio",
        ),
    ];

    let notes = vec![
        format!(
            "kept {} sectors · untraced sweep {untraced_s:.3} s · traced sweep {sweep_s:.3} s \
             · replay {replay_s:.3} s",
            info.kept
        ),
        format!(
            "tsv digest {:016x} · spans {}",
            checked.digest,
            spans_out.display()
        ),
    ];
    Outcome {
        attempted: 3 * plan.n_cells(),
        failed: [&checked, &traced_checked]
            .iter()
            .map(|c| c.errored + c.timed_out)
            .sum(),
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| Metric::new(n, v, u))
            .collect(),
        problems,
        notes,
    }
}

struct Replay {
    records: HashMap<CellKey, Option<EvalRecord>>,
    plane_build_ms: f64,
    /// `(rows, columns)` of every classifier fit.
    train_shapes: Vec<(usize, usize)>,
    problems: Vec<String>,
}

/// Replay every plan cell in order, as the executor's cell runner
/// does, recording spans; classifier cells are followed by a shadow.
fn replay(
    ctx: &ForecastContext,
    config: &SweepConfig,
    plan: &SweepPlan,
    rec: &mut Recorder,
) -> Replay {
    let cache = Arc::new(PlaneCache::new(
        config.feature_cache.budget_mb * 1024 * 1024,
    ));
    let mut out = Replay {
        records: HashMap::new(),
        plane_build_ms: 0.0,
        train_shapes: Vec::new(),
        problems: Vec::new(),
    };
    let evaluate = |rec: &mut Recorder, spec: &WindowSpec, p: &[f64]| {
        rec.time("eval.evaluate_day", || {
            evaluate_day(ctx, spec, p, config.random_repeats, config.seed)
        })
    };
    for &key in plan.cells() {
        let spec = WindowSpec::new(key.t, key.h, key.w);
        let mut shadow_of = None;
        let cell = rec.enter("sweep.cell");
        let record = if !spec.fits(ctx.n_days()) {
            None
        } else if key.model.is_classifier() {
            let mut cc = key
                .model
                .classifier_config(config.n_trees, config.train_days, config.seed, config.split)
                .expect("classifier model");
            cc.forest_threads = Some(1);
            cc.plane_cache = Some(Arc::clone(&cache));
            let plane0 = obs_span_ns("features.plane_build");
            let fitted = rec.time("classifier.fit_and_forecast", || {
                fit_and_forecast(ctx, &spec, &cc)
            });
            out.plane_build_ms += (obs_span_ns("features.plane_build") - plane0) as f64 / 1e6;
            fitted.and_then(|f| {
                shadow_of = Some((cc, f.n_train));
                evaluate(rec, &spec, &f.predictions)
            })
        } else {
            let p = rec.time("baselines.forecast", || {
                key.model.forecast(
                    ctx,
                    &spec,
                    config.n_trees,
                    config.train_days,
                    config.seed,
                    config.split,
                )
            });
            p.and_then(|p| evaluate(rec, &spec, &p))
        };
        rec.exit(cell);
        out.records.insert(key, record);

        if let Some((cc, n_train)) = shadow_of {
            let shadow = rec.enter("trace.shadow");
            let shape = shadow_fit(ctx, &spec, &cc, rec);
            rec.exit(shadow);
            if shape.0 != n_train {
                out.problems.push(format!(
                    "shadow of cell {key} trained on {} rows, the cell on {n_train}",
                    shape.0
                ));
            }
            out.train_shapes.push(shape);
        }
    }
    out
}

/// The label days a fit at `(t, h, w)` trains on — the same selection
/// `fit_and_forecast` makes: up to half the budget from the target's
/// weekday phase, the rest from the freshest trailing days.
fn training_label_days(t: usize, h: usize, w: usize, train_days: usize) -> Vec<usize> {
    let want = train_days.max(1);
    let mut days = Vec::with_capacity(want);
    let mut k = h.div_ceil(7);
    while days.len() < want.div_ceil(2) {
        let offset = 7 * k;
        if offset > t + h {
            break;
        }
        let day = t + h - offset;
        k += 1;
        if day > t {
            continue;
        }
        if day < h + w {
            break;
        }
        days.push(day);
    }
    let mut d = 0usize;
    while days.len() < want && d <= t {
        let day = t - d;
        if day >= h + w && !days.contains(&day) {
            days.push(day);
        }
        if day == 0 {
            break;
        }
        d += 1;
    }
    days
}

/// Rebuild a classifier cell's training set from uncached planes and
/// time, at its shape, binning (`trees.bin`), the estimator's fit
/// (`trees.fit`, binning included) and its forecast-side predictions
/// (`trees.predict`). Returns the training set's `(rows, columns)`.
fn shadow_fit(
    ctx: &ForecastContext,
    spec: &WindowSpec,
    cc: &ClassifierConfig,
    rec: &mut Recorder,
) -> (usize, usize) {
    let builder = cc.representation.builder();
    let dim = builder.dim(ctx.x.n_features(), spec.w);
    let (data, forecast_plane) = rec.time("trace.shadow_assemble", || {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for day in training_label_days(spec.t, spec.h, spec.w, cc.train_days) {
            let sub = WindowSpec {
                t: day,
                h: spec.h,
                w: spec.w,
            };
            let Some((_, end)) = train_window_days(&sub) else {
                continue;
            };
            let plane = FeaturePlane::build(builder, &ctx.x, end, spec.w);
            for i in 0..ctx.n_sectors() {
                let y = ctx.target.get(i, day);
                if !y.is_nan() {
                    rows.extend_from_slice(plane.row(i));
                    labels.push(y >= 0.5);
                }
            }
        }
        let mut data = Dataset::new(rows, dim, labels).expect("finite features");
        data.balance_weights();
        (data, FeaturePlane::build(builder, &ctx.x, spec.t, spec.w))
    });
    let n = data.n_samples();
    if let SplitStrategy::Histogram { max_bins } = cc.split {
        if n >= HIST_MIN_NODE_ROWS {
            rec.time("trees.bin", || {
                black_box(BinnedDataset::build(&data, max_bins))
            });
        }
    }
    let predict: PredictFn = match cc.kind {
        ClassifierKind::Tree => {
            let params = TreeParams {
                seed: cc.seed,
                split: cc.split,
                ..TreeParams::paper_tree()
            };
            let tree = rec.time("trees.fit", || DecisionTree::fit(&data, &params));
            Box::new(move |row| tree.predict_proba(row))
        }
        ClassifierKind::Forest => {
            let mut params = RandomForestParams::paper()
                .with_seed(cc.seed)
                .with_trees(cc.n_trees.max(1));
            params.n_threads = cc.forest_threads;
            params.tree.min_weight_fraction = (10.0 / n as f64).max(0.0002);
            params.tree.split = cc.split;
            let forest = rec.time("trees.fit", || RandomForest::fit(&data, &params));
            Box::new(move |row| forest.predict_proba(row))
        }
        ClassifierKind::Gbdt => unreachable!("no workload sweeps GBDT"),
    };
    rec.time("trees.predict", || {
        black_box(
            (0..ctx.n_sectors())
                .map(|i| predict(forecast_plane.row(i)))
                .collect::<Vec<_>>(),
        )
    });
    (n, dim)
}
