//! The `serve-mixed` workload: an open loop on the virtual clock through
//! `ShardedService::run_scheduled`, with every admission, scheduling and
//! resilience mechanism the service has switched on. The three static
//! graphs are served out of core, each through its own tight LRU buffer
//! pool over a paged-CSR copy; the fourth graph churns in RAM.
//!
//! The service builds each request's cache and fault stack itself, so the
//! only seam the benchmark has is the request's `Box<dyn Algorithm>`:
//! [`TimedAlgorithm`] forwards to the real estimator and adds each replicate
//! slice's wall time to its request's clock. A request's wall latency is
//! the sum of its slices — execution time on the one worker, without the
//! (virtual) queue wait.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use labelcount_core::{Algorithm, EstimateError, NsHansenHurwitz, RunConfig};
use labelcount_graph::churn::ChurnConfig;
use labelcount_graph::{EvictionPolicy, PoolConfig, TargetLabel};
use labelcount_osn::{
    BreakerConfig, BurstConfig, CacheConfig, ChurnOsn, FaultConfig, OsnApi, PagedGraphOsn,
    ResilienceConfig, RetryPolicy,
};
use labelcount_serve::admission::AdmissionState;
use labelcount_serve::{
    AdmissionConfig, AdmissionDecision, GraphKey, QuotaPolicy, RateLimit, RateLimitPolicy,
    SchedulePolicy, ServiceReport, ServiceStatus, ServiceWorkload, ShardedService, TenantId,
};
use labelcount_stats::replication_seed;
use rand::RngCore;

use crate::closed::ALG_KEYS;
use crate::measure::{median, nrmse_per_algorithm, percentile, ratio, Latency, Scored};
use crate::report::Report;
use crate::setup::{self, Generated, ScratchDir, SetupLog, Stages};
use crate::Args;

/// Nodes of each served graph (a paged copy is ~86 4-KiB pages).
pub const NODES: usize = 5_000;
/// Static graphs, served out of core; one more graph is registered as a
/// churning graph (in RAM: churn has no paged backend).
pub const STATIC_GRAPHS: usize = 3;
/// Buffer-pool frames of each static graph's LRU pool (4 KiB pages).
pub const POOL_FRAMES: usize = 8;
/// Shared-L2 entries per endpoint kind of each paged engine, bounded as
/// `register_paged` asks. Scheduled slices build their own cold caches.
pub const PAGED_L2_ENTRIES: usize = 400;
/// Tenants; tenant 0 is the heavy hitter.
pub const TENANTS: usize = 6;
/// Share of requests that belong to tenant 0.
pub const TENANT_SKEW: f64 = 0.5;
/// Requests in the fixed stream.
pub const REQUESTS: usize = 4_000;
/// Timed repetitions of the stream over the paged copies in one run, after
/// one untimed in-RAM reference run.
pub const REPETITIONS: usize = 1;
/// Per-replicate call budget as a share of `|V|` (200 calls).
pub const BUDGET_FRAC: f64 = 0.04;
/// Replicate slices per admitted request.
pub const REPLICATES: usize = 4;
/// Hostile fault rate (half transient, half rate-limit).
pub const FAULT_RATE: f64 = 0.1;
/// Churn events per batch as a share of `|V|` (2 events).
pub const CHURN_RATE: f64 = 0.0004;
/// Virtual ticks between churn batches.
pub const CHURN_INTERVAL_TICKS: u64 = 2_000;
/// Mean virtual ticks between arrivals. Arrivals round-robin over the
/// graphs, so each graph's loop sees one about every `4 ×` this — close to
/// the ~10k ticks a completed request bills at the median.
pub const INTERARRIVAL_TICKS: u64 = 3_500;
/// Ticks per request the admission model drains at.
pub const MODELLED_SERVICE_TICKS: u64 = 16_000;
/// Relative deadline of every request.
pub const DEADLINE_TICKS: u64 = 20_000;
/// Shares of high- and low-priority requests.
pub const PRIORITY_MIX: (f64, f64) = (0.2, 0.3);
/// Admission replay rounds (`serve.admission.ns_per_decision` is their
/// median).
pub const REPLAY_ROUNDS: usize = 51;

const GRAPH_STREAM: u64 = 0x6c65_6467_0002;
const WORKLOAD_STREAM: u64 = 0x6c65_6467_0003;
const CHURN_STREAM: u64 = 0x6c65_6467_0004;

fn churn_key() -> GraphKey {
    GraphKey(STATIC_GRAPHS as u64)
}

fn keys() -> Vec<GraphKey> {
    (0..=STATIC_GRAPHS as u64).map(GraphKey).collect()
}

/// Wall time and slice count of one request's replicate slices.
#[derive(Default)]
struct RequestClock {
    ns: AtomicU64,
    slices: AtomicU64,
}

/// An [`Algorithm`] decorator that times every `estimate` call (one
/// replicate slice) into its request's clock, and forwards everything else.
struct TimedAlgorithm {
    inner: Box<dyn Algorithm>,
    clock: Arc<RequestClock>,
}

impl Algorithm for TimedAlgorithm {
    fn abbrev(&self) -> &'static str {
        self.inner.abbrev()
    }

    fn estimate(
        &self,
        osn: &dyn OsnApi,
        target: TargetLabel,
        budget: usize,
        cfg: &RunConfig,
        rng: &mut dyn RngCore,
    ) -> Result<f64, EstimateError> {
        let start = Instant::now();
        let r = self.inner.estimate(osn, target, budget, cfg, rng);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: the clocks are statistics, read after the run joins.
        self.clock.ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.slices.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// The fixed request stream of `seed` with every service knob set.
fn workload(seed: u64) -> ServiceWorkload {
    let wl_seed = replication_seed(seed, WORKLOAD_STREAM);
    let budget = (BUDGET_FRAC * NODES as f64).round() as usize;
    let cfg = setup::run_config(NODES);
    // `mixed_multi_tenant` hard-budgets each request at this many charged
    // calls; quotas and buckets are sized in units of it.
    let request_cost = 6 * (budget as u64 + cfg.burn_in as u64);
    ServiceWorkload::mixed_multi_tenant(
        REQUESTS,
        &keys(),
        TENANTS,
        TENANT_SKEW,
        setup::target(),
        budget,
        wl_seed,
        cfg,
    )
    .builder()
    .faults(
        FaultConfig::hostile(wl_seed, FAULT_RATE).with_burst(BurstConfig::short()),
        RetryPolicy::default(),
    )
    // Each graph's modelled queue drains slightly slower than its share of
    // the arrivals, so backlog builds and wait-based shedding holds it.
    .admission(AdmissionConfig {
        queue_capacity: 8,
        drain_every: 1,
        shed_start: 0.5,
        service_ticks_per_item: MODELLED_SERVICE_TICKS,
        max_wait_ticks: Some(2 * MODELLED_SERVICE_TICKS),
    })
    // Covers about four fifths of the heavy tenant's reservations.
    .quotas(QuotaPolicy::uniform(
        request_cost * (0.8 * REQUESTS as f64 * TENANT_SKEW) as u64,
    ))
    // Every tenant's bucket holds four requests' worth and refills one
    // token per tick; the last tenant is a free tier whose bucket never
    // refills, so it is throttled once three requests drained it.
    .rate_limits(
        RateLimitPolicy::uniform(RateLimit {
            capacity: 4 * request_cost,
            refill_interval_ticks: 1,
        })
        .with_override(
            TenantId(TENANTS as u64 - 1),
            RateLimit {
                capacity: 3 * request_cost,
                refill_interval_ticks: 0,
            },
        ),
    )
    .resilience(ResilienceConfig {
        breaker: Some(BreakerConfig::default()),
        retry_budget: Some(256),
        serve_stale: true,
    })
    .schedule(
        SchedulePolicy::default()
            .with_interarrival(INTERARRIVAL_TICKS)
            .with_deadline(DEADLINE_TICKS)
            .with_priorities(PRIORITY_MIX.0, PRIORITY_MIX.1)
            .with_replicates(REPLICATES),
    )
    .build()
}

fn churn_config(seed: u64) -> ChurnConfig {
    ChurnConfig::from_rate(
        replication_seed(seed, CHURN_STREAM),
        CHURN_RATE,
        NODES,
        CHURN_INTERVAL_TICKS,
    )
}

/// One shard serving the static graphs out of core, each on a freshly
/// opened (cold) pool over its paged copy in `paths` — or in RAM when
/// `paths` is `None` — and the last graph churning in RAM.
fn service<'g>(
    graphs: &'g [Generated],
    paths: Option<&[PathBuf]>,
    seed: u64,
) -> ShardedService<'g> {
    let mut svc = ShardedService::new(1, seed);
    for (k, g) in keys().into_iter().zip(graphs) {
        if k == churn_key() {
            svc.register_churn(
                k,
                ChurnOsn::new(&g.graph, churn_config(seed)),
                CacheConfig::default(),
            );
        } else if let Some(paths) = paths {
            let pool = PoolConfig::bounded(POOL_FRAMES, EvictionPolicy::Lru);
            let backend = PagedGraphOsn::open(&paths[k.0 as usize], pool)
                .expect("opening a paged copy written in setup");
            svc.register_paged(
                k,
                backend,
                CacheConfig::builder().capacity(PAGED_L2_ENTRIES).build(),
            );
        } else {
            svc.register(k, &g.graph);
        }
    }
    svc
}

/// Wraps every request's estimator in a [`TimedAlgorithm`], returning the
/// clocks in request order.
fn instrument(wl: &mut ServiceWorkload) -> Vec<Arc<RequestClock>> {
    wl.requests
        .iter_mut()
        .map(|req| {
            let clock = Arc::new(RequestClock::default());
            let inner = std::mem::replace(&mut req.query.algorithm, Box::new(NsHansenHurwitz));
            req.query.algorithm = Box::new(TimedAlgorithm {
                inner,
                clock: Arc::clone(&clock),
            });
            clock
        })
        .collect()
}

/// One timed repetition.
struct Rep {
    wall_s: f64,
    report: ServiceReport,
    clocks: Vec<Arc<RequestClock>>,
    churn_batches: u64,
    avoided_invalidations: u64,
}

fn run_once(graphs: &[Generated], paths: Option<&[PathBuf]>, seed: u64) -> Rep {
    let mut wl = workload(seed);
    let clocks = instrument(&mut wl);
    let svc = service(graphs, paths, seed);
    let start = Instant::now();
    let report = svc.run_scheduled(wl, 1);
    let wall_s = setup::secs(start);
    let churn = svc
        .churn_engine(churn_key())
        .expect("the churn graph is registered")
        .backend();
    Rep {
        wall_s,
        report,
        churn_batches: churn.churn_stats().batches,
        avoided_invalidations: churn.avoided_neighbor_invalidations(),
        clocks,
    }
}

/// Everything deterministic about a repetition, as text.
fn signature(rep: &Rep) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}",
        rep.report.outcomes,
        rep.report.serving,
        rep.report.scheduling,
        rep.churn_batches,
        rep.avoided_invalidations
    )
}

fn estimate_of(status: &ServiceStatus) -> Option<f64> {
    match status {
        ServiceStatus::Completed(q) => q.estimate.as_ref().ok().copied(),
        ServiceStatus::Shed { anytime, .. }
        | ServiceStatus::QuotaExhausted { anytime }
        | ServiceStatus::Throttled { anytime }
        | ServiceStatus::DeadlineAnytime { anytime, .. } => *anytime,
        ServiceStatus::UnknownGraph => None,
    }
}

/// The `serve-mixed` workload.
pub fn serve_mixed(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let scratch = ScratchDir::create()?;
    let files = |name: &str| -> Vec<PathBuf> {
        (0..STATIC_GRAPHS)
            .map(|i| scratch.file(&format!("{name}{i}.lcpg")))
            .collect()
    };
    let paths = files("graph");
    // Setup passes in the gaps between timed sections write copies of
    // their own, so the files the service reads are never rewritten.
    let gap_paths = files("gap");
    let setup_pass = |paths: &[PathBuf], stages: &mut Stages| -> Vec<Generated> {
        let graphs: Vec<Generated> = (0..=STATIC_GRAPHS as u64)
            .map(|i| setup::generate(replication_seed(args.seed ^ GRAPH_STREAM, i), NODES, stages))
            .collect();
        for (g, path) in graphs.iter().zip(paths) {
            setup::write_paged(&g.graph, path, stages).expect("writing a paged copy");
        }
        let start = Instant::now();
        drop(std::hint::black_box(service(
            &graphs,
            Some(paths),
            args.seed,
        )));
        stages.register_s = setup::secs(start);
        graphs
    };
    let mut setup_log = SetupLog::default();
    let graphs = setup_log.repeat(setup::SETUP_REPEATS, |stages| setup_pass(&paths, stages));
    let gap = |setup_log: &mut SetupLog| {
        drop(setup_log.repeat(setup::SETUP_REPEATS_PER_GAP, |stages| {
            setup_pass(&gap_paths, stages)
        }));
    };

    // The same stream served from RAM, untimed, as the reference: the
    // virtual clock bills calls, not storage, so every repetition over
    // the paged copies must report exactly what it reports.
    let reference = signature(&run_once(&graphs, None, args.seed));
    let reps: Vec<Rep> = (0..REPETITIONS)
        .map(|_| {
            gap(&mut setup_log);
            run_once(&graphs, Some(&paths), args.seed)
        })
        .collect();
    gap(&mut setup_log);
    setup_log.report(report);
    for (i, r) in reps.iter().enumerate() {
        report.check(signature(r) == reference, || {
            format!("paged service repetition {i} differed from the in-RAM reference")
        });
    }
    let rep = &reps[0];
    let r = &rep.report;
    let wl = workload(args.seed);

    // Status accounting.
    let n = r.outcomes.len() as u64;
    let (mut completed_n, mut shed, mut quota, mut throttled, mut anytime, mut unknown) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut answered = 0u64;
    let mut scored = Vec::new();
    let mut charged = 0u64;
    let mut ticks = Vec::new();
    let truths: Vec<f64> = graphs.iter().map(|g| g.truth).collect();
    let roster: Vec<&str> = labelcount_core::algorithms::all_paper(0.2, 0.5)
        .iter()
        .map(|a| a.abbrev())
        .collect();
    for o in &r.outcomes {
        match &o.status {
            ServiceStatus::Completed(_) => completed_n += 1,
            ServiceStatus::Shed { .. } => shed += 1,
            ServiceStatus::QuotaExhausted { .. } => quota += 1,
            ServiceStatus::Throttled { .. } => throttled += 1,
            ServiceStatus::DeadlineAnytime { .. } => anytime += 1,
            ServiceStatus::UnknownGraph => unknown += 1,
        }
        if estimate_of(&o.status).is_some() {
            answered += 1;
        }
    }
    let mut finished = 0u64;
    for (o, q) in r.completed() {
        let Ok(e) = q.estimate else { continue };
        if !e.is_finite() {
            continue;
        }
        finished += 1;
        charged += q.charged_calls();
        ticks.push(q.latency_ticks as f64);
        if o.graph != churn_key() {
            scored.push(Scored {
                algorithm: roster.iter().position(|a| *a == q.abbrev).expect("roster"),
                estimate: e,
                truth: truths[o.graph.0 as usize],
            });
        }
    }
    report.check(n == REQUESTS as u64, || "lost requests".into());
    report.check(
        n == completed_n + shed + quota + throttled + anytime + unknown,
        || "submitted != completed + shed + quota + throttled + deadline-anytime + unknown".into(),
    );
    let s = &r.serving;
    report.check(
        s.submitted == n
            && s.admitted == completed_n + anytime
            && s.shed == shed
            && s.quota_exhausted == quota
            && s.quota_throttled == throttled,
        || format!("serving counters disagree with the outcomes: {s:?}"),
    );
    let sched = r
        .scheduling
        .expect("a scheduled run reports scheduling counters");
    report.check(sched.cancellations == anytime, || {
        "cancellations != deadline-anytime outcomes".into()
    });
    for (what, count) in [
        ("completed", completed_n),
        ("shed", shed),
        ("quota", quota),
        ("throttled", throttled),
        ("deadline-anytime", anytime),
    ] {
        report.check(count > 0, || format!("no request ended {what}"));
    }

    // Request wall latency: the summed slices of every request that ran.
    let lat_samples: Vec<f64> = reps
        .iter()
        .flat_map(|rep| {
            rep.clocks
                .iter()
                .filter(|c| c.slices.load(Ordering::Relaxed) > 0)
                .map(|c| c.ns.load(Ordering::Relaxed) as f64 / 1e6)
        })
        .collect();
    let lat = Latency::of(&lat_samples);
    report.check(lat.p95_is_supported(), || {
        format!(
            "p95 over {} samples has fewer than 10 beyond it",
            lat.samples
        )
    });
    let qps: Vec<f64> = reps.iter().map(|rep| n as f64 / rep.wall_s).collect();

    report.note(format!("queries/s per repetition: {qps:.1?}"));
    report.metric("queries_per_s", median(&qps), "1/s");
    report.metric("query_p50_ms", lat.p50, "ms");
    report.metric("query_p95_ms", lat.p95, "ms");
    report.note(format!(
        "request latency samples: {} (requests that ran a slice, x {} repetitions); highest percentile with >=10 beyond: {:?}",
        lat.samples,
        reps.len(),
        lat.tail
    ));
    report.note(format!(
        "statuses of {n} requests: completed {completed_n}, shed {shed}, quota {quota}, throttled {throttled}, deadline-anytime {anytime}, unknown {unknown}"
    ));
    // Base of every fraction: submitted requests, except deadline hits,
    // whose base is the admitted requests (all of which carry a deadline).
    report.metric("answered_frac", ratio(answered as f64, n as f64), "ratio");
    report.metric("completed_frac", ratio(finished as f64, n as f64), "ratio");
    report.metric(
        "deadline_hit_frac",
        ratio(sched.deadline_hits as f64, s.admitted as f64),
        "ratio",
    );
    report.metric(
        "charged_calls_per_query",
        ratio(charged as f64, finished as f64),
        "calls",
    );
    report.metric(
        "estimate_nrmse",
        nrmse_per_algorithm(&scored).unwrap_or(f64::NAN),
        "ratio",
    );
    report.attempted = n * reps.len() as u64;
    report.failed = (n - answered) * reps.len() as u64;

    if !args.trace {
        return Ok(());
    }

    // --- Per-layer counts (traced runs).
    ticks.sort_by(f64::total_cmp);
    if !ticks.is_empty() {
        report.note(format!(
            "billed virtual ticks of completed requests: mean {:.0}, p50 {}",
            ticks.iter().sum::<f64>() / ticks.len() as f64,
            percentile(&ticks, 50.0)
        ));
    }
    report.metric(
        "virtual_latency_p95_ticks",
        if ticks.is_empty() {
            0.0
        } else {
            percentile(&ticks, 95.0)
        },
        "ticks",
    );
    for (a, key) in ALG_KEYS.iter().enumerate() {
        let ms: Vec<f64> = rep
            .clocks
            .iter()
            .zip(&wl.requests)
            .filter(|(c, req)| {
                c.slices.load(Ordering::Relaxed) > 0 && req.query.algorithm.abbrev() == roster[a]
            })
            .map(|(c, _)| c.ns.load(Ordering::Relaxed) as f64 / 1e6)
            .collect();
        report.metric(format!("core.{key}.query_ms"), median(&ms), "ms");
    }
    let mut logical = 0u64;
    let mut attempts = 0u64;
    let mut retry = 0u64;
    let mut rate_limited = 0u64;
    let mut transient = 0u64;
    let mut bursts = 0u64;
    let mut breaker_opens = 0u64;
    let mut stale_served = 0u64;
    for (_, q) in r.completed() {
        logical += q.logical_calls;
        attempts += q.backend_attempts;
        retry += q.retry_charges;
        rate_limited += q.rate_limited;
        transient += q.transient_errors;
        bursts += q.bursts;
        breaker_opens += q.breaker_opens;
        stale_served += q.stale_served;
    }
    let c = completed_n as f64;
    report.metric(
        "osn.logical_calls_per_query",
        ratio(logical as f64, c),
        "calls",
    );
    report.metric(
        "osn.faults.retry_charges_per_query",
        ratio(retry as f64, c),
        "calls",
    );
    // Base: backend attempts of completed requests. The service exposes no
    // per-request miss count, so the useful attempts are those that neither
    // hit a rate limit nor a transient error.
    report.metric(
        "osn.faults.useful_attempt_frac",
        ratio(
            attempts.saturating_sub(rate_limited + transient) as f64,
            attempts as f64,
        ),
        "ratio",
    );
    report.metric(
        "osn.faults.rate_limited_per_query",
        ratio(rate_limited as f64, c),
        "count",
    );
    report.metric(
        "osn.faults.transient_per_query",
        ratio(transient as f64, c),
        "count",
    );
    report.metric("osn.faults.bursts", bursts as f64, "count");
    report.metric("osn.faults.breaker_opens", breaker_opens as f64, "count");
    report.metric("osn.faults.stale_served", stale_served as f64, "count");
    report.metric(
        "graph.churn.batches_applied",
        rep.churn_batches as f64,
        "count",
    );
    report.metric(
        "graph.churn.avoided_invalidations",
        rep.avoided_invalidations as f64,
        "count",
    );
    let nf = n as f64;
    report.metric(
        "serve.admission.admitted_frac",
        s.admitted as f64 / nf,
        "ratio",
    );
    report.metric("serve.admission.shed_frac", s.shed as f64 / nf, "ratio");
    report.metric(
        "serve.admission.quota_frac",
        s.quota_exhausted as f64 / nf,
        "ratio",
    );
    report.metric(
        "serve.admission.throttled_frac",
        s.quota_throttled as f64 / nf,
        "ratio",
    );
    report.metric("serve.admission.tenant_fairness", s.tenant_fairness, "x");
    report.metric(
        "serve.scheduler.cancellations",
        sched.cancellations as f64,
        "count",
    );
    report.metric(
        "serve.scheduler.priority_inversions",
        sched.priority_inversions as f64,
        "count",
    );
    report.metric(
        "serve.scheduler.mean_slack_ticks",
        sched.mean_slack_ticks,
        "ticks",
    );
    let (mut wasted, mut run_slices) = (0u64, 0u64);
    for o in &r.outcomes {
        match &o.status {
            ServiceStatus::Completed(_) => run_slices += REPLICATES as u64,
            ServiceStatus::DeadlineAnytime {
                completed_replicates,
                ..
            } => {
                wasted += completed_replicates;
                run_slices += completed_replicates;
            }
            _ => {}
        }
    }
    // Base: every replicate that ran to an outcome.
    report.metric(
        "serve.scheduler.wasted_replicate_frac",
        ratio(wasted as f64, run_slices as f64),
        "ratio",
    );
    admission_replay(report, &wl, r);
    Ok(())
}

/// Replays the recorded arrival stream through a fresh
/// `AdmissionState::decide_scheduled`, checks it decides exactly as the
/// service did, and times it.
fn admission_replay(report: &mut Report, wl: &ServiceWorkload, r: &ServiceReport) {
    let order = wl.scheduled_arrival_order();
    let replay = || {
        let mut state = AdmissionState::with_rate_limits(
            STATIC_GRAPHS + 1,
            wl.admission,
            wl.quotas.clone(),
            wl.rate_limits.clone(),
            wl.seed,
        );
        let start = Instant::now();
        let decisions: Vec<(usize, AdmissionDecision)> = order
            .iter()
            .map(|&i| {
                let req = &wl.requests[i];
                (
                    i,
                    state.decide_scheduled(
                        req.id(),
                        req.tenant,
                        req.graph.0 as usize,
                        req.query.hard_budget,
                        req.query.schedule.arrival_tick,
                    ),
                )
            })
            .collect();
        (setup::secs(start), std::hint::black_box(decisions))
    };
    let (_, decisions) = replay();
    for (i, d) in &decisions {
        let agrees = matches!(
            (d, &r.outcomes[*i].status),
            (
                AdmissionDecision::Admitted { .. },
                ServiceStatus::Completed(_) | ServiceStatus::DeadlineAnytime { .. }
            ) | (AdmissionDecision::Shed { .. }, ServiceStatus::Shed { .. })
                | (
                    AdmissionDecision::QuotaExhausted,
                    ServiceStatus::QuotaExhausted { .. }
                )
                | (
                    AdmissionDecision::Throttled,
                    ServiceStatus::Throttled { .. }
                )
        );
        if !agrees {
            report.check(false, || {
                format!("admission replay disagrees on request {i}")
            });
            break;
        }
    }
    let per_round: Vec<f64> = (0..REPLAY_ROUNDS)
        .map(|_| replay().0 * 1e9 / order.len() as f64)
        .collect();
    report.metric("serve.admission.ns_per_decision", median(&per_round), "ns");
}
