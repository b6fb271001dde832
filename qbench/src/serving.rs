//! The serving workloads: a live loopback server (`bench::serve::spawn`)
//! driven over HTTP by [`crate::load`].
//!
//! * `serve_hot` — the demo-size federation with the selection cache on,
//!   hotspot traffic: a closed-loop phase over two keep-alive
//!   connections, then an open-loop seeded-Poisson phase at a fixed rate
//!   with one `GET /metrics` scrape per second.
//! * `serve_paper` — the paper's federation (ten air-quality stations,
//!   K = 5, the Table III NN) under 0.1 dropout with full-strength fault
//!   tolerance, uniform queries of the paper's widths in a closed loop.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bench::serve::{self, http, SERVE_SELECT_L};
use qens::edgesim::{EdgeNetwork, SpaceScaler};
use qens::faults::FaultPlan;
use qens::fedlearn::{self, GlobalModel};
use qens::geom::Query;
use qens::linalg::rng::{self as lrng, Rng};
use qens::mlkit::{self, DenseDataset, TrainConfig};
use qens::prelude::*;
use qens::selection::SelectionContext;
use qens::telemetry;
use qens::workload::{WorkloadConfig, WorkloadKind};

use crate::load::{self, Client, Job, Sample};
use crate::stats::{mean, median, peak_rss_mb, quantile, rss_mb};
use crate::trace::Tracer;
use crate::{Metrics, Outcome};

/// Latency charged to a failed or refused request: the server's own
/// reply deadline, so a failure misses every latency limit.
const FAILED_LATENCY_MS: f64 = 60_000.0;

/// Seed of the fixed (seed-independent) query list `answer_mse` is
/// taken over.
const FIXED_SEED: u64 = 0xF1C5;

/// Ids of the fixed list start here, clear of the seeded stream's.
const FIXED_ID_BASE: u64 = 1 << 40;

/// Which serving workload, with its shape.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Paper,
}

/// Stations' hourly history in `serve_paper`. The paper's default is
/// 120 days; 15 days keep a round of 100 NN epochs near 10 ms on two
/// cores, so a run answers about a thousand queries, while training is
/// still nearly all of the server's work for a query.
const PAPER_HOURS: u64 = 24 * 15;

/// Open-loop arrival rate of `serve_hot`, queries per second.
const HOT_RATE: f64 = 30.0;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Paper => "serve_paper",
        }
    }

    /// The federation the server answers from. Built twice per set-up:
    /// once for the server and once in-process as the reference the
    /// replies are checked against.
    fn builder(self) -> FederationBuilder {
        match self {
            // The same federation `repro serve` answers from.
            Kind::Hot => FederationBuilder::new()
                .heterogeneous_nodes(6, 120)
                .clusters_per_node(self.k())
                .seed(13)
                .epochs(2)
                .telemetry(true)
                .fleet(true)
                .selection_cache(true)
                .selection_cache_bucket(30.0),
            Kind::Paper => FederationBuilder::new()
                .air_quality_nodes(10, PAPER_HOURS)
                .clusters_per_node(self.k())
                .seed(42)
                .model(ModelKind::PAPER_NN)
                .faults(FaultSpec::dropout(42, 0.1))
                .fault_tolerance(FaultTolerance::full_strength())
                .telemetry(true),
        }
    }

    /// Clusters per node `K`.
    fn k(self) -> usize {
        match self {
            Kind::Hot => 4,
            Kind::Paper => 5,
        }
    }

    /// The seeded query stream.
    fn stream(self, fed: &Federation, seed: u64, n: usize) -> Vec<Query> {
        let config = match self {
            // A few recurring regions: over a 30 s run about half the
            // queries land in a cache bucket seen before, and queries
            // that share a bucket can be coalesced by the batcher.
            Kind::Hot => WorkloadConfig {
                n_queries: n,
                halfwidth_frac: (0.10, 0.12),
                kind: WorkloadKind::Hotspot {
                    hotspots: 6,
                    spread_frac: 0.14,
                },
                seed,
            },
            // The paper's uniform queries and widths.
            Kind::Paper => WorkloadConfig {
                n_queries: n,
                ..WorkloadConfig::paper_default(seed)
            },
        };
        let workload = fed.workload(&config);
        let queries =
            workload.queries.iter().enumerate().map(|(i, q)| {
                Query::from_boundary_vec(i as u64 + 1, &q.region().to_boundary_vec())
            });
        match &fed.config().faults {
            Some(spec) => queries.filter(|q| reaches_quorum(fed, spec, q)).collect(),
            None => queries.collect(),
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Kind::Hot => 25,
            Kind::Paper => 9,
        }
    }

    /// Replies checked against in-process `Federation::run_query`, and
    /// queries replayed layer by layer in a traced run.
    fn samples(self) -> (usize, usize) {
        match self {
            Kind::Hot => (32, 48),
            Kind::Paper => (3, 4),
        }
    }
}

/// The fixed query list `answer_mse` is taken over: data-anchored, so
/// every query has samples to be scored on.
fn fixed_list(fed: &Federation) -> Vec<Query> {
    fed.anchored_workload(8, 4, FIXED_SEED)
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            Query::from_boundary_vec(FIXED_ID_BASE + i as u64, &q.region().to_boundary_vec())
        })
        .collect()
}

/// Whether a query can be answered under its own fault plan: it has
/// supporting nodes, and enough of its ranked nodes (participants plus
/// standby) survive round 0 to make up the participant quorum. A query
/// that fails this is refused by design (no participants, or quorum
/// lost once the standby list is exhausted); the stream leaves such
/// queries out so the workload measures answered queries only.
fn reaches_quorum(fed: &Federation, spec: &FaultSpec, q: &Query) -> bool {
    let sel = PolicyKind::query_driven(SERVE_SELECT_L)
        .build()
        .select(&SelectionContext::new(fed.network(), q));
    let plan = FaultPlan::for_query(spec.clone(), fed.network().len(), q.id());
    let alive = sel
        .participants
        .iter()
        .chain(&sel.standby)
        .filter(|p| !plan.drops_out(p.node.0, 0))
        .count();
    !sel.participants.is_empty() && alive >= sel.participants.len()
}

fn query_body(q: &Query) -> String {
    let bounds: Vec<String> = q
        .region()
        .to_boundary_vec()
        .iter()
        .map(|b| b.to_string())
        .collect();
    format!("{{\"id\":{},\"bounds\":[{}]}}", q.id(), bounds.join(","))
}

fn query_jobs(queries: &[Query]) -> Vec<Job> {
    queries
        .iter()
        .map(|q| Job {
            method: "POST",
            path: "/query",
            body: query_body(q),
            due: Duration::ZERO,
        })
        .collect()
}

/// The answer fields of a `200` reply that must match in-process.
#[derive(Debug, PartialEq)]
struct Answer {
    /// Raw bits of the loss, `None` for `null`.
    loss: Option<u64>,
    /// `(node, ranking bits)` per participant.
    participants: Vec<(usize, u64)>,
    samples_used: usize,
}

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn parse_answer(body: &str) -> Option<Answer> {
    let loss = match field(body, "loss")? {
        "null" => None,
        v => Some(v.parse::<f64>().ok()?.to_bits()),
    };
    let list_start = body.find("\"participants\":[")? + "\"participants\":[".len();
    let list = &body[list_start..list_start + body[list_start..].find(']')?];
    let mut participants = Vec::new();
    for entry in list.split('}').filter(|e| e.contains("\"node\"")) {
        let node = field(entry, "node")?.parse().ok()?;
        let ranking = field(entry, "ranking")?.parse::<f64>().ok()?.to_bits();
        participants.push((node, ranking));
    }
    let samples_used = field(body, "samples_used")?.parse().ok()?;
    Some(Answer {
        loss,
        participants,
        samples_used,
    })
}

fn expected_answer(fed: &Federation, q: &Query) -> Option<Answer> {
    let out = fed
        .run_query(q, &PolicyKind::query_driven(SERVE_SELECT_L))
        .ok()?;
    Some(Answer {
        loss: out.query_loss(fed.network(), q).map(f64::to_bits),
        participants: out
            .selection
            .participants
            .iter()
            .map(|p| (p.node.0, p.ranking.to_bits()))
            .collect(),
        samples_used: out.accounting.samples_used,
    })
}

/// Unlabelled series of a Prometheus scrape.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

fn scrape(addr: &str) -> BTreeMap<String, f64> {
    let mut client = Client::new(addr);
    match client.request("GET", "/metrics", "") {
        Ok(r) if r.status == 200 => parse_metrics(&r.body),
        _ => BTreeMap::new(),
    }
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Seeded Poisson arrivals at `rate` per second over `span`, with one
/// `GET /metrics` due at every whole second.
fn open_loop_jobs(queries: &[Query], seed: u64, rate: f64, span: Duration) -> Vec<Job> {
    let mut rng = lrng::rng_for(seed, 0x0BE2);
    let mut jobs = Vec::new();
    let mut t = 0.0f64;
    let mut next_scrape = 1.0f64;
    for mut job in query_jobs(queries) {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t > span.as_secs_f64() {
            break;
        }
        while next_scrape <= t {
            jobs.push(Job {
                method: "GET",
                path: "/metrics",
                body: String::new(),
                due: Duration::from_secs_f64(next_scrape),
            });
            next_scrape += 1.0;
        }
        job.due = Duration::from_secs_f64(t);
        jobs.push(job);
    }
    jobs
}

fn latency_or_fail(s: &Sample) -> f64 {
    if s.status == 200 {
        s.latency_ms()
    } else {
        FAILED_LATENCY_MS
    }
}

/// Build, spawn and answer one query: one set-up, timed.
fn set_up(kind: Kind, probe: &Query) -> (serve::ServerHandle, f64) {
    let start = Instant::now();
    let fed = kind.builder().build();
    let handle = serve::spawn("127.0.0.1:0", fed).expect("bind a loopback port");
    let mut client = Client::new(handle.addr());
    let reply = client
        .request("POST", "/query", &query_body(probe))
        .expect("set-up query over loopback");
    assert_eq!(reply.status, 200, "set-up query failed: {}", reply.body);
    (handle, start.elapsed().as_secs_f64())
}

fn shut_down(handle: serve::ServerHandle) {
    handle.request_shutdown();
    handle.wait().expect("server drains and exits");
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &std::path::Path,
) -> Outcome {
    let reference = kind.builder().build();
    let fixed = fixed_list(&reference);

    // Set-up: federation construction to the first answered query.
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..kind.setups() {
        if let Some(h) = server.take() {
            shut_down(h);
        }
        let (h, s) = set_up(kind, &fixed[0]);
        setup_s.push(s);
        server = Some(h);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr().to_string();

    let budget = Duration::from_secs(seconds);
    let (closed_budget, open_budget) = match kind {
        Kind::Hot => (budget.mul_f64(0.75), budget.mul_f64(0.25)),
        Kind::Paper => (budget, Duration::ZERO),
    };
    // Far more queries than a run can send: neither half runs out.
    let stream = kind.stream(&reference, seed, 200 * seconds as usize);
    let (closed_queries, open_queries) = stream.split_at(stream.len() / 2);

    let rss_before = rss_mb();
    let before = scrape(&addr);
    let mut tracer = Tracer::new();
    let closed_jobs = query_jobs(closed_queries);
    let closed = load::run(&addr, 2, &closed_jobs, false, closed_budget);
    let open_jobs = open_loop_jobs(open_queries, seed, HOT_RATE, open_budget);
    let open = (kind == Kind::Hot).then(|| load::run(&addr, 2, &open_jobs, true, open_budget));
    let after = scrape(&addr);
    let rss_growth = rss_mb() - rss_before;

    // answer_mse: the fixed list, answered after the measured phases.
    let fixed_phase = load::run(
        &addr,
        1,
        &query_jobs(&fixed),
        false,
        Duration::from_secs(120),
    );

    // Ledger: every admitted query the server counted got a 200 or 422.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut answered_or_refused = 0u64;
    let mut count = |samples: &[Sample], jobs: &[Job], ledger: bool| {
        for s in samples {
            attempted += 1;
            failed += u64::from(s.status != 200);
            if ledger && jobs[s.job].path == "/query" && matches!(s.status, 200 | 422) {
                answered_or_refused += 1;
            }
        }
    };
    count(&closed.samples, &closed_jobs, true);
    if let Some(p) = &open {
        count(&p.samples, &open_jobs, true);
    }
    count(&fixed_phase.samples, &query_jobs(&fixed), false);
    let served = delta(&before, &after, "qens_serve_queries_total");
    let mut correct = true;
    if served as u64 != answered_or_refused {
        eprintln!(
            "ledger mismatch: qens_serve_queries_total grew by {served}, the generator got {answered_or_refused} 200/422 replies"
        );
        correct = false;
    }

    // Output check: sampled replies equal in-process run_query.
    let (n_check, n_replay) = kind.samples();
    let mut checks: Vec<(Query, &Sample)> = fixed_phase
        .samples
        .iter()
        .map(|s| (fixed[s.job].clone(), s))
        .collect();
    let stride = (closed.samples.len() / n_check).max(1);
    checks.extend(
        closed
            .samples
            .iter()
            .step_by(stride)
            .take(n_check)
            .map(|s| (closed_queries[s.job].clone(), s)),
    );
    for (q, s) in &checks {
        let want = expected_answer(&reference, q);
        let got = (s.status == 200).then(|| parse_answer(&s.body)).flatten();
        if got != want {
            eprintln!(
                "reply mismatch for query {}: status {} body {}",
                q.id(),
                s.status,
                s.body.trim()
            );
            correct = false;
        }
    }
    let losses: Vec<f64> = fixed_phase
        .samples
        .iter()
        .filter(|s| s.status == 200)
        .filter_map(|s| parse_answer(&s.body)?.loss.map(f64::from_bits))
        .collect();
    if losses.len() != fixed.len() {
        eprintln!(
            "only {} of {} fixed-list queries have a loss",
            losses.len(),
            fixed.len()
        );
        correct = false;
    }

    let mut metrics = Metrics::new();
    let closed_elapsed = closed.elapsed.as_secs_f64();
    let answered = closed.samples.iter().filter(|s| s.status == 200).count();
    // Latency percentiles come from the closed loop, where every request
    // meets the same keep-alive path back to back. The open loop's
    // percentiles depend on how bursty each seed's arrivals are, so they
    // are reported per layer (`loadgen.open_*`) instead.
    let latency_samples: Vec<f64> = closed.samples.iter().map(latency_or_fail).collect();
    let open_latency: Vec<f64> = open
        .as_ref()
        .map(|p| {
            p.samples
                .iter()
                .filter(|s| open_jobs[s.job].path == "/query")
                .map(latency_or_fail)
                .collect()
        })
        .unwrap_or_default();
    let open_summary = if open.is_some() {
        format!(
            "; open loop {} queries at {HOT_RATE} q/s, p50 {:.3} ms, p99 {:.3} ms from due",
            open_latency.len(),
            quantile(&open_latency, 0.50),
            quantile(&open_latency, 0.99)
        )
    } else {
        String::new()
    };
    println!(
        "# {}: closed loop {} requests in {:.2} s over 2 connections ({} reconnects after Connection: close), latency sample n = {}{open_summary}",
        kind.name(),
        closed.samples.len(),
        closed_elapsed,
        closed.reconnects + open.as_ref().map_or(0, |p| p.reconnects),
        latency_samples.len(),
    );
    if !traced {
        metrics.push("qps", answered as f64 / closed_elapsed);
        metrics.push("p50_ms", quantile(&latency_samples, 0.50));
        metrics.push("p95_ms", quantile(&latency_samples, 0.95));
        metrics.push("p99_ms", quantile(&latency_samples, 0.99));
        metrics.push("answer_mse", mean(&losses));
        metrics.push("setup_s", median(&setup_s));
        metrics.push("peak_rss_mb", peak_rss_mb());
        shut_down(server);
        return Outcome {
            correct,
            attempted,
            failed,
            metrics,
        };
    }

    // ---- Traced run: per-layer metrics. ----
    // Odd requests of the closed loop carry a span, even ones do not:
    // the ratio of their median round trips is the tracing overhead.
    let mut rtt = [Vec::new(), Vec::new()];
    for s in closed.samples.iter().filter(|s| s.status == 200) {
        if s.job % 2 == 1 {
            tracer.record(
                "loadgen.request",
                closed_queries[s.job].id(),
                s.sent,
                s.done,
            );
        }
        rtt[s.job % 2].push(s.latency_ms());
    }
    let untraced: Vec<&Sample> = closed.samples.iter().filter(|s| s.job % 2 == 0).collect();
    let mut layers = replay(
        kind,
        &reference,
        &untraced,
        closed_queries,
        n_replay,
        &mut tracer,
    );
    // Ingestion, cache and fault counters across the load phases.
    let batches = delta(&before, &after, "qens_serve_batches_total");
    let waits = delta(&before, &after, "qens_serve_wait_micros_count");
    let hits = delta(&before, &after, "qens_cache_hits_total");
    let misses = delta(&before, &after, "qens_cache_misses_total");
    layers.push(
        "serve.ingest.wait_us",
        delta(&before, &after, "qens_serve_wait_micros_sum") / waits.max(1.0),
    );
    layers.push(
        "serve.ingest.batch_size",
        delta(&before, &after, "qens_serve_batched_queries_total") / batches.max(1.0),
    );
    layers.push(
        "serve.ingest.refused",
        delta(&before, &after, "qens_serve_rejected_total")
            + delta(&before, &after, "qens_serve_shed_total"),
    );
    layers.push("selection.cache.hit_ratio", hits / (hits + misses).max(1.0));
    layers.push("selection.cache.rss_mb", rss_growth);
    layers.push(
        "fedlearn.retries",
        delta(&before, &after, "qens_fault_retries_total"),
    );
    layers.push(
        "fedlearn.promotions",
        delta(&before, &after, "qens_fault_replacements_total"),
    );
    let quorum_lost = closed
        .samples
        .iter()
        .filter(|s| s.status == 422 && s.body.contains("quorum"))
        .count();
    layers.push("fedlearn.quorum_lost", quorum_lost as f64);
    let samples_used: Vec<f64> = closed
        .samples
        .iter()
        .filter(|s| s.status == 200)
        .filter_map(|s| parse_answer(&s.body).map(|a| a.samples_used as f64))
        .collect();
    layers.push("fedlearn.samples_used", mean(&samples_used));
    let scrape_ms: Vec<f64> = open
        .as_ref()
        .map(|p| {
            p.samples
                .iter()
                .filter(|s| open_jobs[s.job].path == "/metrics")
                .map(Sample::latency_ms)
                .collect()
        })
        .unwrap_or_default();
    let scrape_ms = if scrape_ms.is_empty() {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                scrape(&addr);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    } else {
        scrape_ms
    };
    layers.push("telemetry.scrape_ms", median(&scrape_ms));
    let late: Vec<f64> = open
        .as_ref()
        .map(|p| p.samples.iter().map(Sample::late_ms).collect())
        .unwrap_or_default();
    // Empty samples (no open loop on `serve_paper`) give NaN, which the
    // report prints as 0 for a layer the workload does not use.
    layers.push("loadgen.open_p50_ms", quantile(&open_latency, 0.50));
    layers.push("loadgen.open_p99_ms", quantile(&open_latency, 0.99));
    layers.push("loadgen.late_p99_ms", quantile(&late, 0.99));
    layers.push(
        "trace.overhead_frac",
        median(&rtt[1]) / median(&rtt[0]) - 1.0,
    );

    // quantize_all on its own, over the federation's node datasets.
    let quantize_s: Vec<f64> = (0..3)
        .map(|_| {
            let data = reference
                .network()
                .nodes()
                .iter()
                .map(|n| (n.name().to_string(), n.data().clone()))
                .collect();
            let mut net = EdgeNetwork::from_datasets(data);
            let (k, seed) = (kind.k(), reference.seed());
            tracer.span("edgesim.quantize_all", 0, |_| {
                let t = Instant::now();
                net.quantize_all(k, seed);
                t.elapsed().as_secs_f64()
            })
        })
        .collect();
    layers.push("edgesim.quantize_all_s", median(&quantize_s));
    shut_down(server);
    let _ = tracer.write_json(&out_dir.join(format!("spans-{}-{seed}.json", kind.name())));
    tracer.print_table(kind.name());
    Outcome {
        correct,
        attempted,
        failed,
        metrics: layers,
    }
}

/// A connected loopback socket pair for timing the HTTP layer's own
/// functions on real sockets.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let client =
        TcpStream::connect(listener.local_addr().expect("bound address")).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    (client, server)
}

/// Replays the first `n` answered queries of `samples` through each
/// layer's public functions, each call wrapped in a span:
///
/// * under `query` (one tree per query, the server's path):
///   `serve.http.parse` (`http::read_request`), `fedlearn.run_query`,
///   `fedlearn.query_loss` (`RoundOutcome::query_loss`),
///   `serve.http.encode` (`http::write_response`);
/// * beside it, the round split into its parts: `selection.select`,
///   `mlkit.train` per participant (`mlkit::train_incremental` on its
///   supporting-cluster stages), `fedlearn.aggregate`
///   (`GlobalModel::aggregate`), and `telemetry.export`.
fn replay(
    kind: Kind,
    fed: &Federation,
    samples: &[&Sample],
    queries: &[Query],
    n: usize,
    tracer: &mut Tracer,
) -> Metrics {
    let net = fed.network();
    let cfg = fed.config();
    let policy = fed.build_policy(&PolicyKind::query_driven(SERVE_SELECT_L));
    let split_policy = fed.build_policy(&PolicyKind::query_driven(SERVE_SELECT_L));
    let (mut client, server) = socket_pair();
    let mut reader = BufReader::new(server.try_clone().expect("clone socket"));
    let mut server = server;
    let scaler = SpaceScaler::from_space(&net.global_space());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;

    let mut rows: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut gap = Vec::new();
    let mut visits = 0.0;
    let mut train_s = 0.0;
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    let mut scored = 0.0f64;
    let mut lookups = 0.0f64;
    for s in samples.iter().filter(|s| s.status == 200).take(n) {
        let q = &queries[s.job];
        let request = format!(
            "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
            query_body(q).len(),
            query_body(q)
        );
        client
            .write_all(request.as_bytes())
            .expect("loopback write");
        let first_span = tracer.spans().len();
        let outcome = tracer.span("query", q.id(), |t| {
            t.span("serve.http.parse", q.id(), |_| {
                http::read_request(&mut reader, 1 << 20, true).expect("parse the replayed request")
            });
            let out = t.span("fedlearn.run_query", q.id(), |_| {
                fedlearn::run_query(net, q, policy.as_ref(), cfg)
            });
            if let Ok(o) = &out {
                t.span("fedlearn.query_loss", q.id(), |_| o.query_loss(net, q));
            }
            // Encode the reply the server actually sent for this query.
            t.span("serve.http.encode", q.id(), |_| {
                http::write_response(&mut server, "200 OK", "application/json", "", &s.body, true)
                    .expect("loopback response")
            });
            out
        });
        // Drain the encoded reply so the socket never fills.
        let mut sink = [0u8; 4096];
        client.set_nonblocking(true).expect("nonblocking");
        while client.read(&mut sink).is_ok_and(|n| n > 0) {}
        client.set_nonblocking(false).expect("blocking");
        let self_ns = tracer.self_ns();
        let in_tree: f64 = tracer.spans()[first_span..]
            .iter()
            .zip(&self_ns[first_span..])
            .filter(|(sp, _)| sp.name != "query")
            .map(|(_, ns)| *ns as f64)
            .sum();
        gap.push(s.latency_ms() - in_tree / 1e6);
        let span_ms = |name: &str| -> f64 {
            tracer.spans()[first_span..]
                .iter()
                .filter(|sp| sp.name == name)
                .map(|sp| sp.duration_ns() as f64 / 1e6)
                .sum()
        };
        let round_ms = span_ms("fedlearn.run_query");
        rows.entry("fedlearn.round_ms").or_default().push(round_ms);
        rows.entry("fedlearn.query_loss_ms")
            .or_default()
            .push(span_ms("fedlearn.query_loss"));
        rows.entry("serve.http.parse_us")
            .or_default()
            .push(span_ms("serve.http.parse") * 1e3);
        rows.entry("serve.http.encode_us")
            .or_default()
            .push(span_ms("serve.http.encode") * 1e3);

        // The round's parts, on the same query.
        let ctx = SelectionContext::new(net, q);
        let before = split_policy.cache_stats().unwrap_or_default();
        let t0 = Instant::now();
        tracer.span("selection.select", q.id(), |_| split_policy.select(&ctx));
        let select_us = t0.elapsed().as_secs_f64() * 1e6;
        let after = split_policy.cache_stats().unwrap_or_default();
        lookups += 1.0;
        if after.hits > before.hits {
            hit_us.push(select_us);
        } else {
            miss_us.push(select_us);
            scored += net.len() as f64;
        }
        rows.entry("selection.select_us")
            .or_default()
            .push(select_us);
        let Ok(out) = outcome else { continue };
        let mut models = Vec::new();
        let mut lambdas = Vec::new();
        let mut used = Vec::new();
        let mut train_ms = Vec::new();
        for p in &out.final_cohort {
            let node = net.node(p.node);
            let stages: Vec<DenseDataset> = if p.supporting_clusters.is_empty() {
                vec![scaler.transform_dataset(&node.full_dataset())]
            } else {
                p.supporting_clusters
                    .iter()
                    .map(|c| scaler.transform_dataset(&node.cluster_dataset(c.cluster_id)))
                    .collect()
            };
            let mut model = cfg.model.build(node.data().dim(), cfg.model_seed);
            let train_cfg = TrainConfig {
                seed: lrng::derive_seed(cfg.train.seed, q.id() ^ ((p.node.0 as u64) << 32)),
                ..cfg.train.clone()
            };
            let t0 = Instant::now();
            let report = tracer.span("mlkit.train", q.id(), |_| {
                mlkit::train_incremental(&mut model, &stages, &train_cfg)
            });
            let secs = t0.elapsed().as_secs_f64();
            train_ms.push(secs * 1e3);
            train_s += secs;
            visits += report.samples_seen as f64;
            used.push(stages.iter().map(DenseDataset::len).sum::<usize>());
            lambdas.push(p.ranking);
            models.push(model);
        }
        let sum_train: f64 = train_ms.iter().sum();
        let makespan = (sum_train / workers).max(train_ms.iter().copied().fold(0.0, f64::max));
        let t0 = Instant::now();
        if !models.is_empty() {
            tracer.span("fedlearn.aggregate", q.id(), |_| {
                GlobalModel::aggregate(cfg.aggregation, models, &lambdas, &used)
            });
        }
        let aggregate_ms = t0.elapsed().as_secs_f64() * 1e3;
        rows.entry("mlkit.train_ms").or_default().push(sum_train);
        rows.entry("fedlearn.aggregate_us")
            .or_default()
            .push(aggregate_ms * 1e3);
        rows.entry("fedlearn.overhead_ms")
            .or_default()
            .push(round_ms - select_us / 1e3 - makespan - aggregate_ms);
    }
    let export_us: Vec<f64> = (0..16)
        .map(|_| {
            tracer.span("telemetry.export", 0, |_| {
                let t0 = Instant::now();
                let text = telemetry::export::to_prometheus(&telemetry::global().snapshot());
                std::hint::black_box(text);
                t0.elapsed().as_secs_f64() * 1e6
            })
        })
        .collect();

    let mut m = Metrics::new();
    let med = |name: &str| rows.get(name).map_or(0.0, |v| median(v));
    for name in [
        "serve.http.parse_us",
        "serve.http.encode_us",
        "selection.select_us",
        "fedlearn.round_ms",
        "fedlearn.overhead_ms",
        "fedlearn.aggregate_us",
        "fedlearn.query_loss_ms",
        "mlkit.train_ms",
    ] {
        m.push(name, med(name));
    }
    m.push("serve.gap_ms", median(&gap));
    m.push("selection.nodes_scored", scored / lookups.max(1.0));
    m.push("selection.cache.hit_us", median(&hit_us));
    m.push("selection.cache.miss_us", median(&miss_us));
    m.push("mlkit.sample_visits_per_s", visits / train_s);
    m.push("telemetry.export_us", median(&export_us));
    // The share of a query's round trip the workload's "why" names.
    let rtt: Vec<f64> = samples
        .iter()
        .filter(|s| s.status == 200)
        .take(n)
        .map(|s| s.latency_ms())
        .collect();
    let share = match kind {
        Kind::Hot => {
            (median(&gap) + med("serve.http.parse_us") / 1e3 + med("serve.http.encode_us") / 1e3)
                / median(&rtt)
        }
        Kind::Paper => {
            (med("fedlearn.round_ms") - med("selection.select_us") / 1e3
                + med("fedlearn.query_loss_ms"))
                / median(&rtt)
        }
    };
    m.push("why.share", share);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_to_exact_bits() {
        let body = "{\"query_id\":7,\"loss\":0.1234567890123,\"participants\":[{\"node\":3,\"ranking\":0.5},{\"node\":1,\"ranking\":0.25}],\"standby\":2,\"samples_used\":90,\"sim_seconds\":1.5,\"batch\":1}\n";
        let a = parse_answer(body).expect("well-formed reply");
        assert_eq!(a.loss, Some(0.1234567890123f64.to_bits()));
        assert_eq!(
            a.participants,
            vec![(3, 0.5f64.to_bits()), (1, 0.25f64.to_bits())]
        );
        assert_eq!(a.samples_used, 90);
        let none = parse_answer(&body.replace("0.1234567890123", "null")).expect("null loss");
        assert_eq!(none.loss, None);
    }

    #[test]
    fn scrapes_keep_unlabelled_series() {
        let text = "# HELP x y\nqens_serve_queries_total 12\nqens_build_info{version=\"1\"} 1\nqens_serve_wait_micros_sum 3.5\n";
        let m = parse_metrics(text);
        assert_eq!(m["qens_serve_queries_total"], 12.0);
        assert_eq!(m["qens_serve_wait_micros_sum"], 3.5);
        assert_eq!(m.len(), 2);
    }
}
