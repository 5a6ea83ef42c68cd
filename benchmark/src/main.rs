//! Benchmark of the hotspot pipeline at the experiments' shapes.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload horizon_be --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs repeated untraced passes and reports end-to-end
//! metrics; `--trace 1` runs the traced run and reports per-layer
//! metrics. `--workload all` runs both for every workload and prints
//! every table. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod procfs;
mod spans;
mod stats;
mod sweep;
mod traced;
mod untraced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 7;
/// Worker threads of every sweep, capped by the machine's cores.
const THREADS: usize = 2;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run measured and found.
#[derive(Debug, Clone)]
pub struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.jsonl"))
}

fn print_table(title: &str, outcome: &Outcome) {
    println!("== {title}");
    for m in &outcome.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    for problem in &outcome.problems {
        println!("  ! {problem}");
    }
}

fn json_line(outcomes: &[(String, Outcome)]) -> String {
    let correct = outcomes.iter().all(|(_, o)| o.problems.is_empty());
    let attempted: usize = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|(_, o)| o.failed).sum();
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|(prefix, o)| {
            o.metrics.iter().map(move |m| {
                // Non-finite values are not JSON; they fail `correct`.
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    r#""{prefix}{}":{{"value":{value},"unit":"{}"}}"#,
                    m.name, m.unit
                )
            })
        })
        .collect();
    let finite = outcomes
        .iter()
        .all(|(_, o)| o.metrics.iter().all(|m| m.value.is_finite()));
    format!(
        r#"{{"correct":{},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        correct && finite,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = THREADS.min(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let selected = if args.workload == "all" {
        workloads::all()
    } else {
        match workloads::by_name(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("benchmark: unknown workload {}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    println!(
        "seed {} · {threads} sweep threads · {} s per run",
        args.seed, args.seconds
    );

    let mut outcomes = Vec::new();
    for w in &selected {
        let prefix = if selected.len() > 1 {
            format!("{}/", w.name)
        } else {
            String::new()
        };
        if args.workload == "all" || !args.trace {
            let o = untraced::run(w, args.seed, threads, args.seconds);
            print_table(&format!("{} end to end (untraced)", w.name), &o);
            outcomes.push((prefix.clone(), o));
        }
        if args.workload == "all" || args.trace {
            let o = traced::run(w, args.seed, threads, &spans_path(w.name, args.seed));
            print_table(&format!("{} per layer (traced)", w.name), &o);
            outcomes.push((prefix, o));
        }
    }
    println!("{}", json_line(&outcomes));
    ExitCode::SUCCESS
}
