//! The qens benchmark: live serving and fleet selection, end to end and
//! per layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path qbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the same
//! workload with spans around the calls into each layer and prints the
//! per-layer metrics plus a self-time table. Every run checks the
//! program's outputs. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod fleet;
mod load;
mod serving;
mod stats;
mod trace;

use std::path::Path;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("p99_ms", "ms"),
    ("answer_mse", "mse"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not use reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("serve.http.parse_us", "us"),
    ("serve.http.encode_us", "us"),
    ("serve.gap_ms", "ms"),
    ("serve.ingest.wait_us", "us"),
    ("serve.ingest.batch_size", "count"),
    ("serve.ingest.refused", "count"),
    ("selection.select_us", "us"),
    ("selection.nodes_scored", "count"),
    ("selection.cache.hit_ratio", "ratio"),
    ("selection.cache.hit_us", "us"),
    ("selection.cache.miss_us", "us"),
    ("selection.cache.rss_mb", "MB"),
    ("geom.index.build_ms", "ms"),
    ("geom.index.probe_us", "us"),
    ("geom.index.candidate_frac", "ratio"),
    ("fedlearn.round_ms", "ms"),
    ("fedlearn.overhead_ms", "ms"),
    ("fedlearn.aggregate_us", "us"),
    ("fedlearn.query_loss_ms", "ms"),
    ("fedlearn.retries", "count"),
    ("fedlearn.promotions", "count"),
    ("fedlearn.quorum_lost", "count"),
    ("fedlearn.samples_used", "count"),
    ("mlkit.train_ms", "ms"),
    ("mlkit.sample_visits_per_s", "1/s"),
    ("edgesim.quantize_all_s", "s"),
    ("telemetry.export_us", "us"),
    ("telemetry.scrape_ms", "ms"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("why.share", "ratio"),
];

const WORKLOADS: [&str; 3] = ["serve_hot", "serve_paper", "fleet_churn"];

/// Named metric values; units are declared once, in [`END_TO_END`] and
/// [`PER_LAYER`].
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "qbench: {e}\nusage: qbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(".bench_out");
    let outcome = match args.workload.as_str() {
        "serve_hot" => serving::run(
            serving::Kind::Hot,
            args.seed,
            args.seconds,
            args.trace,
            out_dir,
        ),
        "serve_paper" => serving::run(
            serving::Kind::Paper,
            args.seed,
            args.seconds,
            args.trace,
            out_dir,
        ),
        _ => fleet::run(args.seed, args.seconds, args.trace, out_dir),
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = outcome.correct;
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            // A layer the workload never calls reads 0; an end-to-end
            // metric must always be measured.
            _ if args.trace => 0.0,
            other => {
                eprintln!("metric {name} not measured: {other:?}");
                correct = false;
                0.0
            }
        };
        println!(
            "{:<12} {:<28} {:>16} {}",
            args.workload,
            name,
            format!("{value:.6}"),
            unit
        );
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
}
