//! Span recording at the two OSN layer boundaries, owned by the benchmark.
//!
//! * [`TracedApi`] wraps the [`OsnApi`] handle a replicate's estimator
//!   holds (an [`labelcount_osn::OsnSession`]) and records `osn.api` spans:
//!   the calls core and walk make into osn.
//! * [`TracedBackend`] wraps the [`OsnBackend`] under the shared cache
//!   (slotted in through `Engine::on_backend*`) and records `osn.backend`
//!   spans: the fetches that missed every cache level.
//!
//! Both forward **every** trait method, defaulted ones included, to the
//! wrapped value's own implementation: a wrapper that fell back to a
//! trait default would silently change what an `AdversarialOsn` bills or
//! which epochs a cache compares. Per-call durations are folded into one
//! count + total per (query, layer), so a trace stays bounded; the
//! [`Trace`] is kept in memory and written once, at exit.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use labelcount_graph::{Epoch, LabelId, NodeId};
use labelcount_osn::{EndpointKind, FetchCost, OsnApi, OsnBackend, SliceRef};

/// Count and summed duration of one layer's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations, in nanoseconds.
    pub ns: u64,
}

impl SpanTotals {
    fn add(&mut self, other: SpanTotals) {
        self.count += other.count;
        self.ns += other.ns;
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Single-threaded accumulator for the `osn.api` spans of one query.
#[derive(Default)]
pub struct ApiTally {
    count: Cell<u64>,
    ns: Cell<u64>,
}

impl ApiTally {
    fn record(&self, start: Instant) {
        self.ns.set(self.ns.get() + nanos_since(start));
        self.count.set(self.count.get() + 1);
    }

    /// Returns the totals so far and resets them.
    pub fn take(&self) -> SpanTotals {
        SpanTotals {
            count: self.count.replace(0),
            ns: self.ns.replace(0),
        }
    }
}

/// An [`OsnApi`] decorator that records an `osn.api` span around every
/// API call (`neighbors`, `labels`, `degree`, `has_label`) — each is one
/// logical call of the wrapped session.
pub struct TracedApi<'a> {
    inner: &'a dyn OsnApi,
    tally: &'a ApiTally,
}

impl<'a> TracedApi<'a> {
    /// Wraps `inner`, recording into `tally`.
    pub fn new(inner: &'a dyn OsnApi, tally: &'a ApiTally) -> TracedApi<'a> {
        TracedApi { inner, tally }
    }
}

impl OsnApi for TracedApi<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        let start = Instant::now();
        let r = self.inner.neighbors(u);
        self.tally.record(start);
        r
    }

    fn labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        let start = Instant::now();
        let r = self.inner.labels(u);
        self.tally.record(start);
        r
    }

    fn degree(&self, u: NodeId) -> usize {
        let start = Instant::now();
        let r = self.inner.degree(u);
        self.tally.record(start);
        r
    }

    fn has_label(&self, u: NodeId, t: LabelId) -> bool {
        let start = Instant::now();
        let r = self.inner.has_label(u, t);
        self.tally.record(start);
        r
    }

    fn max_degree_bound(&self) -> usize {
        self.inner.max_degree_bound()
    }

    fn api_calls(&self) -> u64 {
        self.inner.api_calls()
    }

    fn budget_exhausted(&self) -> bool {
        self.inner.budget_exhausted()
    }
}

/// An [`OsnBackend`] decorator that records an `osn.backend` span around
/// every fetch, in any of its three flavours. `Sync`, so it can sit under
/// an `Engine`'s shared cache.
pub struct TracedBackend<B> {
    inner: B,
    count: AtomicU64,
    ns: AtomicU64,
}

impl<B> TracedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> TracedBackend<B> {
        TracedBackend {
            inner,
            count: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    #[cfg(test)]
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Returns the totals so far and resets them.
    pub fn take(&self) -> SpanTotals {
        // Relaxed: the totals are statistics and publish no other data.
        SpanTotals {
            count: self.count.swap(0, Ordering::Relaxed),
            ns: self.ns.swap(0, Ordering::Relaxed),
        }
    }

    fn record(&self, start: Instant) {
        self.ns.fetch_add(nanos_since(start), Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

impl<B: OsnBackend> OsnBackend for TracedBackend<B> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        self.inner.max_degree_bound()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        let start = Instant::now();
        let r = self.inner.fetch_neighbors(u);
        self.record(start);
        r
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        let start = Instant::now();
        let r = self.inner.fetch_labels(u);
        self.record(start);
        r
    }

    fn fetch_neighbors_attempts(&self, u: NodeId) -> (SliceRef<'_, NodeId>, u64) {
        let start = Instant::now();
        let r = self.inner.fetch_neighbors_attempts(u);
        self.record(start);
        r
    }

    fn fetch_labels_attempts(&self, u: NodeId) -> (SliceRef<'_, LabelId>, u64) {
        let start = Instant::now();
        let r = self.inner.fetch_labels_attempts(u);
        self.record(start);
        r
    }

    fn fetch_neighbors_cost(&self, u: NodeId) -> (SliceRef<'_, NodeId>, FetchCost) {
        let start = Instant::now();
        let r = self.inner.fetch_neighbors_cost(u);
        self.record(start);
        r
    }

    fn fetch_labels_cost(&self, u: NodeId) -> (SliceRef<'_, LabelId>, FetchCost) {
        let start = Instant::now();
        let r = self.inner.fetch_labels_cost(u);
        self.record(start);
        r
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        self.inner.epoch_of(u)
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        self.inner.label_epoch_of(u)
    }

    fn endpoint_degraded(&self, kind: EndpointKind) -> bool {
        self.inner.endpoint_degraded(kind)
    }
}

/// The spans of one traced query: its own span and the totals of its two
/// child layers. `osn.api` is the child of `core.query`, `osn.backend` of
/// `osn.api`; all three share the query id as their request id.
#[derive(Clone, Copy, Debug)]
pub struct QuerySpans {
    /// The query (request) id.
    pub query: u64,
    /// Wall time of the whole query.
    pub query_ns: u64,
    /// `osn.api` spans inside the query.
    pub api: SpanTotals,
    /// `osn.backend` spans inside those API calls.
    pub backend: SpanTotals,
}

/// The in-memory trace of one traced pass.
#[derive(Default)]
pub struct Trace {
    queries: Vec<QuerySpans>,
}

/// Layer totals over a whole [`Trace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceTotals {
    /// Summed query wall time.
    pub query_ns: u64,
    /// All `osn.api` spans.
    pub api: SpanTotals,
    /// All `osn.backend` spans.
    pub backend: SpanTotals,
}

impl TraceTotals {
    /// Core (estimator + walk) self time: query time not covered by
    /// `osn.api` children.
    pub fn core_self_ns(&self) -> u64 {
        self.query_ns.saturating_sub(self.api.ns)
    }

    /// osn session + cache self time: `osn.api` time not covered by
    /// `osn.backend` children.
    pub fn api_self_ns(&self) -> u64 {
        self.api.ns.saturating_sub(self.backend.ns)
    }
}

impl Trace {
    /// Appends one query's spans.
    pub fn push(&mut self, spans: QuerySpans) {
        self.queries.push(spans);
    }

    /// Per-query spans, in the order they ran.
    pub fn queries(&self) -> &[QuerySpans] {
        &self.queries
    }

    /// Totals over every query.
    pub fn totals(&self) -> TraceTotals {
        let mut t = TraceTotals::default();
        for q in &self.queries {
            t.query_ns += q.query_ns;
            t.api.add(q.api);
            t.backend.add(q.backend);
        }
        t
    }

    /// Writes one JSON object per (query, layer) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for q in &self.queries {
            let rows = [
                ("core.query", "null", 1, q.query_ns),
                ("osn.api", "\"core.query\"", q.api.count, q.api.ns),
                ("osn.backend", "\"osn.api\"", q.backend.count, q.backend.ns),
            ];
            for (layer, parent, count, ns) in rows {
                writeln!(
                    out,
                    "{{\"request\":{},\"layer\":\"{layer}\",\"parent\":{parent},\"count\":{count},\"ns\":{ns}}}",
                    q.query
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labelcount_core::{algorithms, RunConfig};
    use labelcount_graph::churn::ChurnConfig;
    use labelcount_graph::gen::barabasi_albert;
    use labelcount_graph::labels::{assign_binary_labels, with_labels};
    use labelcount_graph::{LabeledGraph, TargetLabel};
    use labelcount_osn::{
        AdversarialOsn, BreakerConfig, BurstConfig, CacheConfig, CachedOsn, CallStats, ChurnOsn,
        FaultConfig, FaultStats, GraphOsn, OsnSession, ResilienceConfig, RetryPolicy,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(11);
        let g = barabasi_albert(400, 3, &mut rng);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, 0.4, &mut rng);
        with_labels(&g, &labels)
    }

    fn resilience() -> ResilienceConfig {
        ResilienceConfig {
            breaker: Some(BreakerConfig::default()),
            retry_budget: Some(64),
            serve_stale: true,
        }
    }

    fn faults() -> FaultConfig {
        FaultConfig::hostile(5, 0.3).with_burst(BurstConfig::short())
    }

    fn cache_config() -> CacheConfig {
        CacheConfig::builder().serve_stale(true).build()
    }

    /// Everything one session observed: the estimate and the session's
    /// own counters.
    #[derive(Debug, PartialEq)]
    struct SessionRecord {
        estimate: String,
        api_calls: u64,
        retry_charges: u64,
        latency_ticks: u64,
        stale_served: u64,
        l1_hits: u64,
        l1_stale_evictions: u64,
    }

    /// Runs all ten Table-2 algorithms, two sessions each (the second with
    /// an exhausting budget), through `cache` — optionally behind a
    /// [`TracedApi`] — advancing the churn clock between sessions so epochs
    /// move.
    fn drive<B: OsnBackend>(
        cache: &CachedOsn<B>,
        traced: bool,
        churn: Option<&ChurnOsn>,
    ) -> (Vec<SessionRecord>, CallStats, SpanTotals) {
        let target = TargetLabel::new(1.into(), 2.into());
        let cfg = RunConfig {
            burn_in: 40,
            thinning_frac: 0.0,
        };
        let tally = ApiTally::default();
        let mut records = Vec::new();
        let mut tick = 0;
        for (ai, alg) in algorithms::all_paper(0.2, 0.5).iter().enumerate() {
            for rep in 0..2u64 {
                let session: OsnSession<'_, B> = cache.session();
                if rep == 1 {
                    // Too small for the query: the estimator must stop at
                    // the budget poll.
                    session.set_budget(120);
                }
                let mut rng = StdRng::seed_from_u64(100 * ai as u64 + rep);
                let estimate = if traced {
                    let api = TracedApi::new(&session, &tally);
                    alg.estimate(&api, target, 150, &cfg, &mut rng)
                } else {
                    alg.estimate(&session, target, 150, &cfg, &mut rng)
                };
                records.push(SessionRecord {
                    estimate: format!("{:?}", estimate.map(f64::to_bits)),
                    api_calls: session.api_calls(),
                    retry_charges: session.retry_charges(),
                    latency_ticks: session.latency_ticks(),
                    stale_served: session.stale_served(),
                    l1_hits: session.l1_hits(),
                    l1_stale_evictions: session.l1_stale_evictions(),
                });
                if let Some(c) = churn {
                    tick += 3;
                    c.advance_to(tick);
                }
            }
        }
        (records, cache.stats(), tally.take())
    }

    fn assert_wrapped_matches(
        plain: (Vec<SessionRecord>, CallStats, SpanTotals),
        wrapped: (Vec<SessionRecord>, CallStats, SpanTotals),
        plain_faults: FaultStats,
        wrapped_faults: FaultStats,
        backend_spans: SpanTotals,
    ) {
        assert_eq!(plain.0, wrapped.0, "per-session records diverged");
        assert_eq!(plain.1, wrapped.1, "cache CallStats diverged");
        assert_eq!(plain_faults, wrapped_faults, "fault billing diverged");
        // The boundary counts the benchmark's gate relies on.
        assert_eq!(wrapped.2.count, wrapped.1.logical_calls());
        assert_eq!(backend_spans.count, wrapped.1.misses());
        assert!(plain_faults.latency_ticks > 0 && plain_faults.retries > 0);
        assert!(plain
            .0
            .iter()
            .any(|r| r.estimate.contains("BudgetExhausted")));
    }

    #[test]
    fn wrapped_adversarial_stack_is_identical_to_the_plain_one() {
        let g = graph();
        let adversarial = || {
            AdversarialOsn::with_resilience(
                GraphOsn::new(&g),
                faults(),
                RetryPolicy::default(),
                resilience(),
            )
        };
        let plain = CachedOsn::with_config(adversarial(), cache_config());
        let wrapped = CachedOsn::with_config(TracedBackend::new(adversarial()), cache_config());
        let p = drive(&plain, false, None);
        let w = drive(&wrapped, true, None);
        assert_wrapped_matches(
            p,
            w,
            plain.backend().fault_stats(),
            wrapped.backend().inner().fault_stats(),
            wrapped.backend().take(),
        );
        assert!(plain.backend().fault_stats().breaker_opens > 0);
    }

    #[test]
    fn wrapped_churn_stack_is_identical_to_the_plain_one() {
        let g = graph();
        let churn_cfg = ChurnConfig::from_rate(9, 0.05, g.num_nodes(), 1);
        let churn_plain = ChurnOsn::new(&g, churn_cfg);
        let churn_wrapped = ChurnOsn::new(&g, churn_cfg);
        let adversarial =
            |c| AdversarialOsn::with_resilience(c, faults(), RetryPolicy::default(), resilience());
        let plain = CachedOsn::with_config(adversarial(&churn_plain), cache_config());
        let wrapped = CachedOsn::with_config(
            TracedBackend::new(adversarial(&churn_wrapped)),
            cache_config(),
        );
        let p = drive(&plain, false, Some(&churn_plain));
        let w = drive(&wrapped, true, Some(&churn_wrapped));
        assert!(p.1.stale_evictions() > 0, "churn must invalidate entries");
        assert_wrapped_matches(
            p,
            w,
            plain.backend().fault_stats(),
            wrapped.backend().inner().fault_stats(),
            wrapped.backend().take(),
        );
    }

    #[test]
    fn trace_totals_split_self_time_by_layer() {
        let mut trace = Trace::default();
        for q in 0..2 {
            trace.push(QuerySpans {
                query: q,
                query_ns: 1_000,
                api: SpanTotals { count: 10, ns: 600 },
                backend: SpanTotals { count: 2, ns: 200 },
            });
        }
        let t = trace.totals();
        assert_eq!(t.core_self_ns(), 800);
        assert_eq!(t.api_self_ns(), 800);
        assert_eq!(t.api.count, 20);
    }
}
