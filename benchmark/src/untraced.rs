//! The untraced run: repeated passes of set-up plus sweep, each ending
//! in a checked canonical TSV.
//!
//! Networks differ a lot in how much tree growth they cause, so one run
//! measures [`NETWORKS`] networks derived from its seed: pass `p` uses
//! network `p mod NETWORKS`. Times are medians over all passes;
//! throughput is cells over the summed sweep time of all passes.

use crate::procfs::{cpu_seconds, RssSampler};
use crate::stats::{failed_frac, median};
use crate::sweep;
use crate::workloads::{network_seed, Workload};
use crate::{Metric, Outcome};
use std::time::{Duration, Instant};

/// Networks one run measures; also the fewest passes it makes.
pub const NETWORKS: usize = 3;
/// Passes no run exceeds, however short they are.
const MAX_PASSES: usize = 200;

struct Pass {
    setup_s: f64,
    sweep_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    splits: u64,
    checked: sweep::Checked,
}

/// Run `workload` at `seed` for about `seconds`: at least one pass per
/// network, and another only while it is expected to end in time.
pub fn run(workload: &Workload, seed: u64, threads: usize, seconds: f64) -> Outcome {
    let configs: Vec<_> = (0..NETWORKS)
        .map(|k| workload.sweep_config(network_seed(seed, k), threads))
        .collect();
    let rss = RssSampler::start();
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let config = &configs[passes.len() % NETWORKS];
        rss.take_peak_mb();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let (ctx, _) = workload.setup(config.seed, None);
        let t1 = Instant::now();
        let splits0 = hotspot_obs::counter("trees.split_evaluations").get();
        let (plan, result) = sweep::run(&ctx, config, None);
        let splits = hotspot_obs::counter("trees.split_evaluations").get() - splits0;
        let t2 = Instant::now();
        let checked = sweep::check(&plan, &result);
        let t3 = Instant::now();
        passes.push(Pass {
            setup_s: (t1 - t0).as_secs_f64(),
            sweep_s: (t2 - t1).as_secs_f64(),
            wall_s: (t3 - t0).as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
            peak_rss_mb: rss.take_peak_mb(),
            splits,
            checked,
        });
        let last = Duration::from_secs_f64(passes[passes.len() - 1].wall_s);
        let more_fit = started.elapsed() + last <= Duration::from_secs_f64(seconds);
        if passes.len() >= MAX_PASSES || (passes.len() >= NETWORKS && !more_fit) {
            break;
        }
    }

    let mut problems: Vec<String> = passes
        .iter()
        .flat_map(|p| p.checked.problems.clone())
        .collect();
    for (p, pass) in passes.iter().enumerate().skip(NETWORKS) {
        if pass.checked.digest != passes[p % NETWORKS].checked.digest {
            problems.push(format!(
                "pass {p} renders another canonical TSV than pass {}",
                p % NETWORKS
            ));
        }
    }
    let attempted: usize = passes.iter().map(|p| p.checked.cells).sum();
    let errored: usize = passes.iter().map(|p| p.checked.errored).sum();
    let timed_out: usize = passes.iter().map(|p| p.checked.timed_out).sum();
    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Throughput over every pass's sweep, so each network weighs in.
    let sweep_s: f64 = passes.iter().map(|p| p.sweep_s).sum();
    let metrics = vec![
        Metric::new("wall_s", of(|p| p.wall_s), "s"),
        Metric::new("setup_s", of(|p| p.setup_s), "s"),
        Metric::new("cells_per_s", attempted as f64 / sweep_s, "1/s"),
        Metric::new("cpu_s", of(|p| p.cpu_s), "s"),
        Metric::new("peak_rss_mb", of(|p| p.peak_rss_mb), "MiB"),
        Metric::new(
            "completed_frac",
            1.0 - failed_frac(errored, timed_out, attempted),
            "ratio",
        ),
    ];
    let mut notes = vec![format!(
        "passes {} · sweep s {}",
        passes.len(),
        passes
            .iter()
            .map(|p| format!("{:.3}", p.sweep_s))
            .collect::<Vec<_>>()
            .join(" ")
    )];
    for (k, config) in configs.iter().enumerate() {
        let (pass, c) = (&passes[k], &passes[k].checked);
        notes.push(format!(
            "network {k} seed {} · cells {} · evaluated {} · mean AP {:.6} · mean lift {:.6} \
             · split evaluations {} · tsv digest {:016x}",
            config.seed, c.cells, c.evaluated, c.mean_ap, c.mean_lift, pass.splits, c.digest
        ));
    }
    Outcome {
        attempted,
        failed: errored + timed_out,
        metrics,
        problems,
        notes,
    }
}
