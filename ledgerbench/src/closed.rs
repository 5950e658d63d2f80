//! The closed-loop workload, `paged-tight`: one client issues the paper's
//! five proposed estimators in turn, each query an
//! `Engine::estimate_replicated` call over a paged-CSR copy of the graph,
//! the next sent only when the last returns. Also the traced pass and the
//! layer ledger that run on it.

use std::time::Instant;

use labelcount_core::{algorithms, Algorithm, Engine, EstimateError, RunConfig};
use labelcount_graph::churn::ChurnConfig;
use labelcount_graph::{EvictionPolicy, LabeledGraph, PoolConfig, TargetLabel};
use labelcount_osn::{
    AdversarialOsn, CacheConfig, CallStats, ChurnOsn, FaultConfig, GraphOsn, OsnBackend,
    PagedGraphOsn, RetryPolicy, SimulatedOsn,
};
use labelcount_stats::replication_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{median, nrmse_per_algorithm, ratio, Latency, Scored};
use crate::report::Report;
use crate::setup::{self, Generated, ScratchDir, SetupLog, Stages};
use crate::trace::{ApiTally, QuerySpans, Trace, TracedApi, TracedBackend};
use crate::Args;

/// Nodes of the BA graph the closed loop queries. Below ~50k the 5%
/// budget is too short for NE-RW, whose NRMSE then swings several-fold
/// from seed to seed on rare huge estimates.
pub const NODES: usize = 50_000;
/// Per-replicate call budget as a share of `|V|` (the paper's 5%).
pub const BUDGET_FRAC: f64 = 0.05;
/// Replicates per query.
pub const REPLICATES: usize = 2;
/// Queries in the `paged-tight` set.
pub const PAGED_QUERIES: usize = 250;
/// Timed repetitions of the `paged-tight` set in one run.
pub const PAGED_REPETITIONS: usize = 3;
/// Queries of the untimed cold warm-up pass before the `paged-tight`
/// repetitions (it fills the OS page cache and the allocator).
pub const PAGED_WARMUP_QUERIES: usize = 20;
/// Buffer-pool frames of the tight pool (4 KiB pages): about 4% of the
/// paged file's ~850 pages.
pub const TIGHT_FRAMES: usize = 32;
/// Shared-L2 entries per endpoint kind on the paged path (8% of the
/// nodes).
pub const PAGED_L2_ENTRIES: usize = 4_096;
/// Queries of the `paged-tight` prefix each ledger rung runs.
pub const LEDGER_QUERIES: usize = 100;
/// Interleaved rounds over the ledger rungs; each rung reports its median.
pub const LEDGER_ROUNDS: usize = 3;

/// Stream salt separating query seeds from graph seeds.
const QUERY_STREAM: u64 = 0x6c65_6467_0001;

/// Abbreviations of the five proposed estimators, in roster order.
pub const ALG_KEYS: [&str; 5] = ["ns_hh", "ns_ht", "ne_hh", "ne_ht", "ne_rw"];

/// One query of the fixed set.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Query id (its position in the stream).
    pub id: u64,
    /// Index into the proposed-estimator roster.
    pub alg: usize,
    /// Base seed; replicate `i` runs on `replication_seed(seed, i)`.
    pub seed: u64,
}

/// The first `n` queries of the stream of `seed`: the roster in turn, each
/// with its own derived seed.
pub fn query_stream(seed: u64, n: usize) -> Vec<Query> {
    let base = replication_seed(seed, QUERY_STREAM);
    (0..n as u64)
        .map(|id| Query {
            id,
            alg: id as usize % ALG_KEYS.len(),
            seed: replication_seed(base, id),
        })
        .collect()
}

/// What a query is run with.
pub struct Ctx {
    algs: Vec<Box<dyn Algorithm>>,
    target: TargetLabel,
    budget: usize,
    cfg: RunConfig,
}

impl Ctx {
    fn new(n: usize) -> Ctx {
        Ctx {
            algs: algorithms::proposed(),
            target: setup::target(),
            budget: ((BUDGET_FRAC * n as f64).round() as usize).max(1),
            cfg: setup::run_config(n),
        }
    }
}

/// One executed query.
#[derive(Clone, Debug)]
pub struct QueryRun {
    /// Query wall time.
    pub wall_ns: u64,
    /// Replicate results, in replication order.
    pub estimates: Vec<Result<f64, EstimateError>>,
    /// Call accounting of the query's sessions.
    pub stats: CallStats,
}

impl QueryRun {
    /// The bits of every replicate estimate (`None` for an error).
    fn bits(&self) -> Vec<Option<u64>> {
        self.estimates
            .iter()
            .map(|e| e.as_ref().ok().map(|v| v.to_bits()))
            .collect()
    }

    /// The query's estimate: the mean of its replicates, if all finished
    /// with a finite value.
    fn estimate(&self) -> Option<f64> {
        let mut sum = 0.0;
        for e in &self.estimates {
            match e {
                Ok(v) if v.is_finite() => sum += v,
                _ => return None,
            }
        }
        Some(sum / self.estimates.len() as f64)
    }
}

/// One pass over a query set.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Per-query results, in query order.
    pub runs: Vec<QueryRun>,
}

impl Pass {
    fn stats(&self) -> CallStats {
        let mut total = CallStats::default();
        for r in &self.runs {
            add(&mut total, &r.stats);
        }
        total
    }
}

fn add(total: &mut CallStats, s: &CallStats) {
    total.logical_neighbor_calls += s.logical_neighbor_calls;
    total.logical_label_calls += s.logical_label_calls;
    total.neighbor_misses += s.neighbor_misses;
    total.label_misses += s.label_misses;
    total.l1_neighbor_hits += s.l1_neighbor_hits;
    total.l1_label_hits += s.l1_label_hits;
    total.l1_stale_evictions += s.l1_stale_evictions;
    total.l2_stale_evictions += s.l2_stale_evictions;
    total.stale_served += s.stale_served;
}

fn delta(after: &CallStats, before: &CallStats) -> CallStats {
    CallStats {
        logical_neighbor_calls: after.logical_neighbor_calls - before.logical_neighbor_calls,
        logical_label_calls: after.logical_label_calls - before.logical_label_calls,
        neighbor_misses: after.neighbor_misses - before.neighbor_misses,
        label_misses: after.label_misses - before.label_misses,
        l1_neighbor_hits: after.l1_neighbor_hits - before.l1_neighbor_hits,
        l1_label_hits: after.l1_label_hits - before.l1_label_hits,
        l1_stale_evictions: after.l1_stale_evictions - before.l1_stale_evictions,
        l2_stale_evictions: after.l2_stale_evictions - before.l2_stale_evictions,
        stale_served: after.stale_served - before.stale_served,
    }
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs every query through `Engine::estimate_replicated` on one thread.
fn run_pass<B: OsnBackend + Sync>(engine: &Engine<'_, B>, queries: &[Query], ctx: &Ctx) -> Pass {
    let mut runs = Vec::with_capacity(queries.len());
    let start = Instant::now();
    for q in queries {
        let before = engine.stats();
        let t = Instant::now();
        let estimates = engine.estimate_replicated(
            ctx.algs[q.alg].as_ref(),
            ctx.target,
            ctx.budget,
            &ctx.cfg,
            q.seed,
            REPLICATES,
            1,
        );
        let wall_ns = nanos(t);
        let stats = delta(&engine.stats(), &before);
        runs.push(QueryRun {
            wall_ns,
            estimates,
            stats,
        });
    }
    Pass {
        wall_s: setup::secs(start),
        runs,
    }
}

/// The traced twin of [`run_pass`]: the documented serial loop of
/// `estimate_replicated` (one `engine.session()` per replicate, seeded
/// `replication_seed(base, i)`), with the session behind a [`TracedApi`]
/// and the engine's backend behind a [`TracedBackend`].
fn run_traced<B: OsnBackend + Sync>(
    engine: &Engine<'_, TracedBackend<B>>,
    queries: &[Query],
    ctx: &Ctx,
    trace: &mut Trace,
) -> Pass {
    let tally = ApiTally::default();
    engine.backend().take();
    let mut runs = Vec::with_capacity(queries.len());
    let start = Instant::now();
    for q in queries {
        let before = engine.stats();
        let t = Instant::now();
        let estimates: Vec<_> = (0..REPLICATES as u64)
            .map(|i| {
                let session = engine.session();
                let api = TracedApi::new(&session, &tally);
                let mut rng = StdRng::seed_from_u64(replication_seed(q.seed, i));
                ctx.algs[q.alg].estimate(&api, ctx.target, ctx.budget, &ctx.cfg, &mut rng)
            })
            .collect();
        let wall_ns = nanos(t);
        trace.push(QuerySpans {
            query: q.id,
            query_ns: wall_ns,
            api: tally.take(),
            backend: engine.backend().take(),
        });
        let stats = delta(&engine.stats(), &before);
        runs.push(QueryRun {
            wall_ns,
            estimates,
            stats,
        });
    }
    Pass {
        wall_s: setup::secs(start),
        runs,
    }
}

/// Fails `report` unless two passes answered every query with the same
/// estimate bits and the same call accounting.
fn check_same(report: &mut Report, what: &str, a: &Pass, b: &Pass, compare_misses: bool) {
    report.check(a.runs.len() == b.runs.len(), || {
        format!("{what}: query counts differ")
    });
    for (i, (x, y)) in a.runs.iter().zip(&b.runs).enumerate() {
        let same_stats = if compare_misses {
            x.stats == y.stats
        } else {
            x.stats.logical_calls() == y.stats.logical_calls()
        };
        if x.bits() != y.bits() || !same_stats {
            report.check(false, || format!("{what}: query {i} diverged"));
            return;
        }
    }
}

/// End-to-end metrics of the timed repetitions of a closed loop.
fn end_to_end(report: &mut Report, passes: &[Pass], queries: &[Query], truth: f64) {
    let first = &passes[0];
    for (r, p) in passes.iter().enumerate().skip(1) {
        check_same(report, &format!("repetition {r}"), first, p, true);
    }
    let n = first.runs.len() as f64;
    let answered = first
        .runs
        .iter()
        .filter(|r| r.estimates.iter().any(|e| e.is_ok()))
        .count() as f64;
    let completed: Vec<(usize, f64, &QueryRun)> = first
        .runs
        .iter()
        .zip(queries)
        .filter_map(|(r, q)| r.estimate().map(|e| (q.alg, e, r)))
        .collect();
    report.check(completed.len() == first.runs.len(), || {
        "a closed-loop query failed to complete".into()
    });
    let charged: u64 = completed.iter().map(|c| c.2.stats.logical_calls()).sum();
    let scored: Vec<Scored> = completed
        .iter()
        .map(|&(algorithm, estimate, _)| Scored {
            algorithm,
            estimate,
            truth,
        })
        .collect();

    let walls: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.runs.iter().map(|r| r.wall_ns as f64 / 1e6))
        .collect();
    let lat = Latency::of(&walls);
    report.check(lat.p95_is_supported(), || {
        format!(
            "p95 over {} samples has fewer than 10 beyond it",
            lat.samples
        )
    });
    let qps: Vec<f64> = passes.iter().map(|p| n / p.wall_s).collect();

    report.note(format!("queries/s per repetition: {qps:.1?}"));
    report.metric("queries_per_s", median(&qps), "1/s");
    report.metric("query_p50_ms", lat.p50, "ms");
    report.metric("query_p95_ms", lat.p95, "ms");
    report.note(format!(
        "latency samples: {} ({} queries x {} repetitions); highest percentile with >=10 beyond: {:?}",
        lat.samples,
        first.runs.len(),
        passes.len(),
        lat.tail
    ));
    report.metric("answered_frac", ratio(answered, n), "ratio");
    report.metric("completed_frac", ratio(completed.len() as f64, n), "ratio");
    // No closed-loop query carries a deadline, so none can miss one: the
    // base is the admitted (= submitted) queries.
    report.metric(
        "deadline_hit_frac",
        ratio(completed.len() as f64, n),
        "ratio",
    );
    report.metric(
        "charged_calls_per_query",
        ratio(charged as f64, completed.len() as f64),
        "calls",
    );
    report.metric(
        "estimate_nrmse",
        nrmse_per_algorithm(&scored).unwrap_or(f64::NAN),
        "ratio",
    );
    report.attempted = (first.runs.len() * passes.len()) as u64;
    report.failed = ((n - answered) as u64) * passes.len() as u64;
}

/// Cache-layer counts of one untraced pass.
fn cache_layer(report: &mut Report, pass: &Pass) {
    let s = pass.stats();
    let n = pass.runs.len() as f64;
    let logical = s.logical_calls() as f64;
    let l1 = s.l1_hits() as f64;
    let l2 = (s.hits() - s.l1_hits()) as f64;
    report.metric("osn.logical_calls_per_query", logical / n, "calls");
    report.metric(
        "osn.backend_fetches_per_query",
        s.misses() as f64 / n,
        "fetches",
    );
    // Base: every logical call.
    report.metric("osn.l1_hit_rate", ratio(l1, logical), "ratio");
    // Base: the logical calls the L1 passed down to the L2.
    report.metric("osn.l2_hit_rate", ratio(l2, logical - l1), "ratio");
    report.metric(
        "osn.stale_evictions_per_query",
        s.stale_evictions() as f64 / n,
        "count",
    );
}

/// Per-algorithm median query time and trace-derived layer costs.
fn traced_layers(
    report: &mut Report,
    queries: &[Query],
    untraced: &[&Pass],
    traced: &[&Pass],
    trace: &Trace,
) {
    for (a, key) in ALG_KEYS.iter().enumerate() {
        let ms: Vec<f64> = untraced
            .iter()
            .flat_map(|p| {
                p.runs
                    .iter()
                    .zip(queries)
                    .filter(move |(_, q)| q.alg == a)
                    .map(|(r, _)| r.wall_ns as f64 / 1e6)
            })
            .collect();
        report.metric(format!("core.{key}.query_ms"), median(&ms), "ms");
    }
    let t = trace.totals();
    let logical: u64 = traced.iter().map(|p| p.stats().logical_calls()).sum();
    report.metric(
        "core.self_ns_per_call",
        ratio(t.core_self_ns() as f64, logical as f64),
        "ns",
    );
    report.metric(
        "osn.api_self_ns_per_call",
        ratio(t.api_self_ns() as f64, logical as f64),
        "ns",
    );
    report.metric(
        "osn.backend_ns_per_fetch",
        ratio(t.backend.ns as f64, t.backend.count as f64),
        "ns",
    );
    let u: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let w: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    // Base: the untraced wall time of the same query set.
    report.metric(
        "trace.overhead_frac",
        median(&w) / median(&u) - 1.0,
        "ratio",
    );
}

/// Fails `report` unless the trace's boundary counts match the cache's own
/// accounting, query by query.
fn check_boundaries(report: &mut Report, traced: &Pass, spans: &[QuerySpans]) {
    for (r, s) in traced.runs.iter().zip(spans) {
        if s.api.count != r.stats.logical_calls() || s.backend.count != r.stats.misses() {
            report.check(false, || {
                format!(
                    "query {}: {} osn.api spans vs {} logical calls, {} osn.backend spans vs {} misses",
                    s.query,
                    s.api.count,
                    r.stats.logical_calls(),
                    s.backend.count,
                    r.stats.misses()
                )
            });
            return;
        }
    }
}

/// A paged engine as the `paged-tight` workload runs it: a bounded L2 over
/// a freshly opened (cold) pool.
fn paged_engine(
    path: &std::path::Path,
    pool: PoolConfig,
) -> std::io::Result<Engine<'static, PagedGraphOsn>> {
    let backend = PagedGraphOsn::open(path, pool).map_err(std::io::Error::other)?;
    Ok(Engine::on_backend_with_config(backend, paged_cache()))
}

fn paged_cache() -> CacheConfig {
    CacheConfig::builder().capacity(PAGED_L2_ENTRIES).build()
}

fn tight_pool() -> PoolConfig {
    PoolConfig::bounded(TIGHT_FRAMES, EvictionPolicy::Lru)
}

/// The `paged-tight` workload.
pub fn paged_tight(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let scratch = ScratchDir::create()?;
    let path = scratch.file("graph.lcpg");
    // Setup passes in the gaps between timed repetitions write a copy of
    // their own, so the file the repetitions read is never rewritten.
    let gap_path = scratch.file("gap.lcpg");
    let setup_pass = |path: &std::path::Path, stages: &mut Stages| -> Generated {
        let gen = setup::generate(args.seed, NODES, stages);
        setup::write_paged(&gen.graph, path, stages).expect("writing the paged copy");
        gen
    };
    let mut setup_log = SetupLog::default();
    let gen = setup_log.repeat(setup::SETUP_REPEATS, |stages| setup_pass(&path, stages));
    let g = &gen.graph;
    let ctx = Ctx::new(g.num_nodes());
    let queries = query_stream(args.seed, PAGED_QUERIES);

    // The same queries over the in-RAM graph (warm unbounded L2 and the
    // default L1), run untimed as the reference.
    let reference = {
        let engine = Engine::new(g);
        setup::warm(&engine);
        run_pass(&engine, &queries, &ctx)
    };

    // Every pass starts from a cold pool and a cold L2, so each repeats
    // the same page traffic.
    let cold_pass = || -> std::io::Result<(Pass, labelcount_graph::PagingStats)> {
        let engine = paged_engine(&path, tight_pool())?;
        let pass = run_pass(&engine, &queries, &ctx);
        Ok((pass, engine.backend().paging_stats()))
    };

    if !args.trace {
        // Untimed warm-up: a cold pass over a prefix reads the file into
        // the OS page cache and warms the allocator.
        let engine = paged_engine(&path, tight_pool())?;
        drop(run_pass(&engine, &queries[..PAGED_WARMUP_QUERIES], &ctx));
        drop(engine);
        let mut passes = Vec::new();
        let mut paging = Vec::new();
        for _ in 0..PAGED_REPETITIONS {
            drop(setup_log.repeat(setup::SETUP_REPEATS_PER_GAP, |stages| {
                setup_pass(&gap_path, stages)
            }));
            let (p, s) = cold_pass()?;
            passes.push(p);
            paging.push(s);
        }
        check_same(report, "paged vs in-RAM", &reference, &passes[0], false);
        report.check(paging.windows(2).all(|w| w[0] == w[1]), || {
            "page traffic differed between repetitions".into()
        });
        end_to_end(report, &passes, &queries, gen.truth);
        setup_log.report(report);
        return Ok(());
    }
    setup_log.report(report);

    let traced_pass = |trace: &mut Trace| -> std::io::Result<Pass> {
        let backend = PagedGraphOsn::open(&path, tight_pool()).map_err(std::io::Error::other)?;
        let engine = Engine::on_backend_with_config(TracedBackend::new(backend), paged_cache());
        Ok(run_traced(&engine, &queries, &ctx, trace))
    };
    let mut trace = Trace::default();
    let (u1, paging) = cold_pass()?;
    let t1 = traced_pass(&mut trace)?;
    let spans_first = trace.queries().to_vec();
    let (u2, _) = cold_pass()?;
    let t2 = traced_pass(&mut trace)?;
    check_same(report, "paged vs in-RAM", &reference, &u1, false);
    check_same(report, "traced pass", &u1, &t1, true);
    check_same(report, "second traced pass", &u2, &t2, true);
    check_boundaries(report, &t1, &spans_first);
    cache_layer(report, &u1);
    traced_layers(report, &queries, &[&u1, &u2], &[&t1, &t2], &trace);
    let n = queries.len() as f64;
    report.metric(
        "graph.pool.page_reads_per_query",
        paging.page_reads as f64 / n,
        "reads",
    );
    // Base: every pin request (reads + pool hits).
    report.metric("graph.pool.hit_rate", paging.hit_rate(), "ratio");
    report.metric(
        "graph.pool.evictions_per_query",
        paging.evictions as f64 / n,
        "count",
    );
    report.metric(
        "graph.pool.pinned_peak",
        paging.pinned_peak as f64,
        "frames",
    );
    crate::write_trace(args, &trace)?;
    ledger(report, args, g, &path, &ctx, &queries[..LEDGER_QUERIES])
}

/// One rung's timing over the ledger prefix.
struct Rung {
    name: &'static str,
    wall_s: Vec<f64>,
    bits: Vec<Vec<Option<u64>>>,
}

/// The layer ledger: the same `paged-tight` prefix at each rung of the
/// stack, ns per logical call each, in interleaved rounds.
fn ledger(
    report: &mut Report,
    args: &Args,
    g: &LabeledGraph,
    path: &std::path::Path,
    ctx: &Ctx,
    queries: &[Query],
) -> std::io::Result<()> {
    let n = g.num_nodes();
    let clean = FaultConfig::clean(args.seed);
    let l2_only = Engine::with_cache_config(g, CacheConfig::builder().l1_slots(0).build());
    let l1 = Engine::new(g);
    let adversarial0 = Engine::on_backend(AdversarialOsn::new(
        GraphOsn::new(g),
        clean,
        RetryPolicy::default(),
    ));
    let churn0 = Engine::on_backend(AdversarialOsn::new(
        ChurnOsn::new(g, ChurnConfig::from_rate(args.seed, 0.0, n, 1)),
        clean,
        RetryPolicy::default(),
    ));
    setup::warm(&l2_only);
    setup::warm(&l1);
    setup::warm(&adversarial0);
    setup::warm(&churn0);

    let names = [
        "raw",
        "l2",
        "l1",
        "adversarial0",
        "churn0",
        "paged_unbounded",
        "paged_tight",
    ];
    let mut rungs: Vec<Rung> = names
        .iter()
        .map(|&name| Rung {
            name,
            wall_s: Vec::new(),
            bits: Vec::new(),
        })
        .collect();
    let mut logical = 0u64;
    let mut raw_calls = 0u64;
    for round in 0..LEDGER_ROUNDS {
        for k in 0..rungs.len() {
            let i = (k + round) % rungs.len();
            let (wall_s, bits) = match rungs[i].name {
                "raw" => {
                    let osn = SimulatedOsn::new(g);
                    let start = Instant::now();
                    let bits: Vec<Vec<Option<u64>>> = queries
                        .iter()
                        .map(|q| {
                            (0..REPLICATES as u64)
                                .map(|r| {
                                    let mut rng =
                                        StdRng::seed_from_u64(replication_seed(q.seed, r));
                                    ctx.algs[q.alg]
                                        .estimate(&osn, ctx.target, ctx.budget, &ctx.cfg, &mut rng)
                                        .ok()
                                        .map(f64::to_bits)
                                })
                                .collect()
                        })
                        .collect();
                    raw_calls = osn.api_calls();
                    (setup::secs(start), bits)
                }
                name => {
                    let pass = match name {
                        "l2" => run_pass(&l2_only, queries, ctx),
                        "l1" => run_pass(&l1, queries, ctx),
                        "adversarial0" => run_pass(&adversarial0, queries, ctx),
                        "churn0" => run_pass(&churn0, queries, ctx),
                        "paged_unbounded" => {
                            run_pass(&paged_engine(path, PoolConfig::unbounded())?, queries, ctx)
                        }
                        _ => run_pass(&paged_engine(path, tight_pool())?, queries, ctx),
                    };
                    logical = pass.stats().logical_calls();
                    (pass.wall_s, pass.runs.iter().map(QueryRun::bits).collect())
                }
            };
            rungs[i].wall_s.push(wall_s);
            rungs[i].bits = bits;
        }
    }
    report.check(raw_calls == logical, || {
        format!("raw SimulatedOsn issued {raw_calls} calls, the engine {logical}")
    });
    let mut ns = Vec::new();
    for r in &rungs {
        report.check(r.bits == rungs[0].bits, || {
            format!("ledger rung {} diverged from raw SimulatedOsn", r.name)
        });
        let per_call = ratio(median(&r.wall_s) * 1e9, logical as f64);
        report.metric(format!("osn.ladder.{}_ns_per_call", r.name), per_call, "ns");
        ns.push(per_call);
    }
    // Base: the raw SimulatedOsn rung; the numerator is the default
    // Engine path (L2 + default L1).
    report.metric("osn.ladder.engine_over_raw", ratio(ns[2], ns[0]), "x");
    report.note(format!(
        "ledger: {} queries x {REPLICATES} replicates per rung, {logical} logical calls, median of {LEDGER_ROUNDS} interleaved rounds",
        queries.len()
    ));
    Ok(())
}
