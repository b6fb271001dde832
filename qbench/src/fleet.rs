//! `fleet_churn`: in-process selection over a summary-only synthetic
//! fleet while nodes join.
//!
//! The engine is the one `FederationBuilder::index(true)
//! .selection_cache(true)` builds — `PolicyKind::build_cached_indexed`
//! with default configs. Narrow drifting queries run in a closed loop,
//! and every 32 selections a node joins (`EdgeNetwork::add_node` plus
//! k-means quantisation of its data), so the index is rebuilt beside
//! the reads and every cache entry goes stale.
//!
//! A miss on a full cache also evicts the oldest entry's per-node
//! tables, and those misses get slower as the cache ages, with no steady
//! state within a run: on 20k nodes and the default pool, about 13 ms
//! while the evicted entries are the ones that filled the cache, then a
//! step up with each further generation of entries (20 ms at 2,000
//! selections, 28 ms at 6,000). A run therefore serves the stream in rounds, each on a fresh
//! engine, and times the first generation of evicting misses of every
//! round: each run times caches of the same ages, however fast it goes.
//!
//! Selection runs on a one-worker pool (`QENS_THREADS=1`). On the two
//! cores this workload is sized for, a selection fanned out over two
//! pool workers plus the caller waits for whichever core the host takes
//! away, which put 30–70 ms spikes into a ~13 ms tail; inline, the same
//! selections are bit-identical and the tail is the program's own.

use std::time::{Duration, Instant};

use bench::scale::{scale_space, synthetic_fleet};
use qens::edgesim::EdgeNetwork;
use qens::geom::index::{GridConfig, SpatialIndexBuilder};
use qens::geom::Query;
use qens::linalg::rng::{self as lrng, Rng};
use qens::linalg::Matrix;
use qens::mlkit::DenseDataset;
use qens::prelude::*;
use qens::selection::{Participant, SelectionContext};
use qens::telemetry;
use qens::workload::{self, WorkloadConfig, WorkloadKind};

use crate::stats::{mean, median, peak_rss_mb, quantile, rss_mb};
use crate::trace::Tracer;
use crate::{Metrics, Outcome};

/// Fleet size. The cache keeps up to 256 entries, each with a table
/// for every node, so memory grows with this; 20k nodes peak at a few
/// GB on the cache's own tables.
const NODES: usize = 20_000;
const CLUSTERS: usize = 3;
/// The fleet is the same for every seed; the seed drives the queries
/// and the joining nodes.
const FLEET_SEED: u64 = 77;
const JOIN_EVERY: usize = 32;
/// A full-scan check every this many selections (and on the first
/// selection after each join).
const CHECK_EVERY: usize = 16;
const SETUPS: usize = 31;
const SELECT_L: usize = 3;
const FIXED_SEED: u64 = 0xF1C5;

fn engine() -> Box<dyn SelectionPolicy> {
    PolicyKind::query_driven(SELECT_L)
        .build_cached_indexed(CacheConfig::default(), GridConfig::default())
}

/// Narrow drifting queries, generated in chunks so the stream never
/// repeats within a run.
struct Stream {
    seed: u64,
    chunk: u64,
    buf: std::vec::IntoIter<Query>,
    next_id: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            chunk: 0,
            buf: Vec::new().into_iter(),
            next_id: 1,
        }
    }

    fn next(&mut self) -> Query {
        loop {
            if let Some(q) = self.buf.next() {
                let id = self.next_id;
                self.next_id += 1;
                return Query::from_boundary_vec(id, &q.region().to_boundary_vec());
            }
            self.chunk += 1;
            let config = WorkloadConfig {
                n_queries: 1024,
                halfwidth_frac: (0.01, 0.03),
                kind: WorkloadKind::Drifting {
                    step_frac: 0.02,
                    spread_frac: 0.01,
                },
                seed: lrng::derive_seed(self.seed, self.chunk),
            };
            self.buf = workload::generate(&scale_space(), &config)
                .queries
                .into_iter();
        }
    }
}

/// A joining node: 48 samples around a random centre of the space,
/// quantised like any other node.
fn join(net: &mut EdgeNetwork, rng: &mut impl Rng, tracer: Option<&mut Tracer>) {
    let cx: f64 = rng.gen_range(20.0..980.0);
    let cy: f64 = rng.gen_range(20.0..980.0);
    let mut rows = Vec::with_capacity(48);
    let mut labels = Vec::with_capacity(48);
    for _ in 0..48 {
        rows.push(vec![cx + rng.gen_range(-6.0..6.0)]);
        labels.push(cy + rng.gen_range(-6.0..6.0));
    }
    let data = DenseDataset::new(Matrix::from_rows(&rows), labels);
    let seed: u64 = rng.gen();
    let name = format!("joined-{}", net.len());
    match tracer {
        Some(t) => {
            let id = t.span("edgesim.add_node", 0, |_| net.add_node(name, data, 1.0));
            t.span("edgesim.quantize", 0, |_| {
                net.node_mut(id).quantize(CLUSTERS, seed)
            });
        }
        None => {
            let id = net.add_node(name, data, 1.0);
            net.node_mut(id).quantize(CLUSTERS, seed);
        }
    }
}

fn same_participants(a: &[Participant], b: &[Participant]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node
                && x.ranking.to_bits() == y.ranking.to_bits()
                && x.supporting_clusters.len() == y.supporting_clusters.len()
                && x.supporting_clusters
                    .iter()
                    .zip(&y.supporting_clusters)
                    .all(|(c, d)| {
                        c.cluster_id == d.cluster_id
                            && c.size == d.size
                            && c.overlap.to_bits() == d.overlap.to_bits()
                    })
        })
}

fn same_selection(a: &Selection, b: &Selection) -> bool {
    same_participants(&a.participants, &b.participants) && same_participants(&a.standby, &b.standby)
}

fn counter(name: &str) -> f64 {
    telemetry::global().snapshot().counter(name).unwrap_or(0) as f64
}

pub fn run(seed: u64, seconds: u64, traced: bool, out_dir: &std::path::Path) -> Outcome {
    // One pool worker (see the module docs); `par` reads this once, when
    // the global pool is first used, which is below.
    std::env::set_var("QENS_THREADS", "1");
    telemetry::set_enabled(traced);
    let mut stream = Stream::new(seed);

    // Set-up: fleet construction, engine, first selection (which builds
    // the index).
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        let net = synthetic_fleet(NODES, CLUSTERS, FLEET_SEED);
        let policy = engine();
        let q = stream.next();
        std::hint::black_box(policy.select(&SelectionContext::new(&net, &q)));
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((net, policy));
    }
    let (mut net, policy) = built.expect("at least one set-up");
    let scan = PolicyKind::query_driven(SELECT_L).build();

    // answer_mse: Eq. 4 ranking shortfall (1 - r)^2 of the participants
    // the engine picks for a fixed query list on the fixed fleet.
    let fixed = workload::generate(
        &scale_space(),
        &WorkloadConfig {
            n_queries: 16,
            halfwidth_frac: (0.01, 0.03),
            kind: WorkloadKind::Uniform,
            seed: FIXED_SEED,
        },
    );
    let mut shortfall = Vec::new();
    let mut correct = true;
    for q in &fixed.queries {
        let ctx = SelectionContext::new(&net, q);
        let sel = policy.select(&ctx);
        if !same_selection(&sel, &scan.select(&ctx)) {
            eprintln!(
                "fixed query {}: engine selection differs from the full scan",
                q.id()
            );
            correct = false;
        }
        shortfall.extend(sel.participants.iter().map(|p| (1.0 - p.ranking).powi(2)));
    }

    let mut rng = lrng::rng_for(seed, 0x701E);
    let mut tracer = Tracer::new();
    let mut lat_ms = Vec::new();
    let mut traced_lat_ms = Vec::new();
    let mut select_s = 0.0;
    let mut join_s = 0.0;
    let mut checks = 0u64;
    let mut joined = false;
    let (mut hits, mut lookups) = (0u64, 0u64);
    let candidates_before = counter("qens_index_candidates_total");
    // A round is two cache capacities of selections on one engine: the
    // first capacity fills the cache and is not timed, each selection of
    // the second evicts an entry the fill made. The run stops at the
    // first round boundary from which another round would overrun
    // `--seconds`, and always completes one round.
    let capacity = CacheConfig::default().capacity;
    drop(policy);
    let mut policy = engine();
    let rss_before = rss_mb();
    let mut rss_growth = 0.0f64;
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut round_start = start;
    let mut rounds = 0usize;
    // Selections over the run (joins and checks count these) and of
    // the current engine.
    let mut i = 0usize;
    let mut age = 0usize;
    let mut selections = 0usize;
    loop {
        if age == 2 * capacity {
            rounds += 1;
            let stats = policy.cache_stats().unwrap_or_default();
            hits += stats.hits;
            lookups += stats.hits + stats.misses;
            rss_growth = rss_growth.max(rss_mb() - rss_before);
            if start.elapsed() + round_start.elapsed() > budget {
                break;
            }
            // Untimed: dropping a full cache frees its tables.
            round_start = Instant::now();
            policy = engine();
            age = 0;
        }
        let timed = age >= capacity;
        let q = stream.next();
        // A traced run records spans around odd selections only, so the
        // even ones measure the same loop untraced.
        let spans = traced && timed && i % 2 == 1;
        let ctx = SelectionContext::new(&net, &q);
        let t0 = Instant::now();
        let sel = if spans {
            tracer.span("fleet.query", q.id(), |t| {
                t.span("selection.select", q.id(), |_| policy.select(&ctx))
            })
        } else {
            policy.select(&ctx)
        };
        let dt = t0.elapsed().as_secs_f64();
        if spans {
            traced_lat_ms.push(dt * 1e3);
        } else if timed {
            lat_ms.push(dt * 1e3);
        }
        if timed {
            select_s += dt;
            selections += 1;
        }
        if joined || i.is_multiple_of(CHECK_EVERY) {
            checks += 1;
            if !same_selection(&sel, &scan.select(&ctx)) {
                eprintln!(
                    "query {}: engine selection differs from the full scan",
                    q.id()
                );
                correct = false;
            }
        }
        joined = false;
        i += 1;
        age += 1;
        if i.is_multiple_of(JOIN_EVERY) {
            let t0 = Instant::now();
            if spans {
                tracer.span("fleet.join", 0, |t| join(&mut net, &mut rng, Some(t)));
            } else {
                join(&mut net, &mut rng, None);
            }
            if timed {
                join_s += t0.elapsed().as_secs_f64();
            }
            joined = true;
        }
    }
    println!(
        "# fleet_churn: {i} selections in {rounds} rounds ({selections} timed) over {} nodes at the end, {} joins, {checks} full-scan checks, cache hits {hits} misses {}",
        net.len(),
        i / JOIN_EVERY,
        lookups - hits
    );

    let mut metrics = Metrics::new();
    if !traced {
        metrics.push("qps", selections as f64 / (select_s + join_s));
        metrics.push("p50_ms", quantile(&lat_ms, 0.50));
        metrics.push("p95_ms", quantile(&lat_ms, 0.95));
        metrics.push("p99_ms", quantile(&lat_ms, 0.99));
        metrics.push("answer_mse", mean(&shortfall));
        metrics.push("setup_s", median(&setup_s));
        metrics.push("peak_rss_mb", peak_rss_mb());
        return Outcome {
            correct,
            attempted: i as u64 + fixed.queries.len() as u64,
            failed: 0,
            metrics,
        };
    }

    // ---- Traced run: per-layer metrics. ----
    let lookups = lookups as f64;
    metrics.push(
        "selection.select_us",
        median(&tracer.self_times_of("selection.select")) / 1e3,
    );
    metrics.push(
        "selection.nodes_scored",
        (counter("qens_index_candidates_total") - candidates_before) / lookups.max(1.0),
    );
    metrics.push("selection.cache.hit_ratio", hits as f64 / lookups.max(1.0));
    metrics.push("selection.cache.rss_mb", rss_growth);
    metrics.push("selection.cache.miss_us", median(&traced_lat_ms) * 1e3);
    // Exact hits: one fresh query, then the same query again.
    let q = stream.next();
    let ctx = SelectionContext::new(&net, &q);
    policy.select(&ctx);
    let hit_us: Vec<f64> = (0..16)
        .map(|_| {
            let t0 = Instant::now();
            tracer.span("selection.select", q.id(), |_| {
                std::hint::black_box(policy.select(&ctx))
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.push("selection.cache.hit_us", median(&hit_us));

    // The index on its own: bulk build over every node's summary hull,
    // then candidate generation for a slice of the query stream.
    let mut index = None;
    let build_ms: Vec<f64> = (0..3)
        .map(|_| {
            let mut b = SpatialIndexBuilder::with_capacity(2, net.len());
            for node in net.nodes() {
                b.push(&node.summary_bounds());
            }
            let t0 = Instant::now();
            index = Some(tracer.span("geom.index.build", 0, |_| b.build(GridConfig::default())));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let index = index.expect("built above");
    let mut probe_us = Vec::new();
    let mut frac = Vec::new();
    for _ in 0..256 {
        let q = stream.next();
        let t0 = Instant::now();
        let (cands, _) = tracer.span("geom.index.candidates", q.id(), |_| {
            index.candidates(q.region())
        });
        probe_us.push(t0.elapsed().as_secs_f64() * 1e6);
        frac.push(cands.len() as f64 / net.len() as f64);
    }
    metrics.push("geom.index.build_ms", median(&build_ms));
    metrics.push("geom.index.probe_us", median(&probe_us));
    metrics.push("geom.index.candidate_frac", mean(&frac));
    metrics.push(
        "trace.overhead_frac",
        median(&traced_lat_ms) / median(&lat_ms) - 1.0,
    );
    let rows = tracer.table();
    let self_of = |name: &str| rows.get(name).map_or(0.0, |r| r.self_ns as f64);
    let select = self_of("selection.select");
    let loop_ns =
        select + self_of("fleet.query") + rows.get("fleet.join").map_or(0.0, |r| r.total_ns as f64);
    metrics.push("why.share", select / loop_ns.max(1.0));
    let _ = tracer.write_json(&out_dir.join(format!("spans-fleet_churn-{seed}.json")));
    tracer.print_table("fleet_churn");
    Outcome {
        correct,
        attempted: i as u64 + fixed.queries.len() as u64,
        failed: 0,
        metrics,
    }
}
