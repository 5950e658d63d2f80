//! The schema-versioned BENCH_*.json report: the metric catalog,
//! serialization, and parsing.
//!
//! A report splits cleanly into two halves:
//!
//! * `counters` — **deterministic** given (scenario, seed): walk step
//!   counts and end states, per-replication API calls, the estimates
//!   themselves, NRMSE, exact ground truth. Two runs at the same seed must
//!   produce identical `counters`; the harness's determinism test and CI
//!   enforce this.
//! * `measured` — machine-dependent: wall times, steps/sec, allocator
//!   traffic. The regression gate compares only these, with a generous
//!   ratio threshold.
//!
//! Every field of both halves is one row of [`METRICS`]: its place in the
//! document, its JSON shape, what it means, and how [`crate::compare`]
//! gates it. Parsing, the gate and the CLI summary all walk that table, so
//! adding a metric takes one row (plus the code that measures it).

use crate::alloc_track::AllocDelta;
use crate::json::{Json, JsonError};

/// Version of the BENCH_*.json schema. Bump on any breaking change and
/// regenerate the committed baselines in the same PR. Version 9 is the
/// layout [`METRICS`] describes.
pub const SCHEMA_VERSION: u64 = 9;

/// Scenario identity and workload parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioMeta {
    /// `<family>_<tier>`, e.g. `ba_smoke` — also the file-name stem.
    pub name: String,
    /// Graph family (`ba`, `er`, `loaded`).
    pub family: String,
    /// Scale tier (`smoke`, `standard`, `stress`).
    pub tier: String,
    /// Base RNG seed for the whole scenario.
    pub seed: u64,
    /// Nodes of the built graph.
    pub nodes: u64,
    /// Edges of the built graph.
    pub edges: u64,
    /// API-call budget per estimator replication.
    pub budget: u64,
    /// Burn-in steps per replication.
    pub burn_in: u64,
    /// Estimator replications per algorithm.
    pub reps: u64,
    /// Detected available parallelism of the machine that produced the
    /// report. Machine-dependent (like `measured`) but recorded under
    /// `scenario` so the compare gate can decide whether parallel-speedup
    /// regressions are gateable (both sides multi-core) or informational
    /// (a laptop or CI runner with one core cannot regress a speedup).
    pub threads: u64,
}

/// The JSON shape a catalogued field must have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A non-negative integer.
    U64,
    /// Any number.
    F64,
    /// A number, or `null` when not computed.
    OptF64,
    /// An array of numbers.
    F64s,
    /// An array of exactly two non-negative integers.
    U64Pair,
    /// A string.
    Str,
    /// `true` or `false`.
    Bool,
}

impl Kind {
    fn matches(self, v: &Json) -> bool {
        let all = |ok: fn(&Json) -> bool| v.as_arr().is_some_and(|a| a.iter().all(ok));
        match self {
            Kind::U64 => v.as_u64().is_some(),
            Kind::F64 => v.as_f64().is_some(),
            Kind::OptF64 => v.as_f64().is_some() || *v == Json::Null,
            Kind::F64s => all(|x| x.as_f64().is_some()),
            Kind::U64Pair => {
                v.as_arr().is_some_and(|a| a.len() == 2) && all(|x| x.as_u64().is_some())
            }
            Kind::Str => v.as_str().is_some(),
            Kind::Bool => matches!(v, Json::Bool(_)),
        }
    }
}

/// How the regression gate ([`crate::compare::compare_reports`]) treats a
/// `measured` metric. Timings are first normalized by the calibration
/// score, and ratios are taken over values floored by
/// [`crate::compare`]'s per-unit floor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Not compared: every counter, and diagnostics.
    NotGated,
    /// Higher is better; fatal when it drops below `baseline / threshold`.
    Throughput,
    /// A serial wall time or per-call cost; lower is better; fatal when it
    /// exceeds `baseline * threshold`.
    SerialTime,
    /// A parallel wall time. It tracks the runner's core count, which a
    /// serial calibration cannot correct, so it warns only.
    CoreDependent,
    /// The engine's parallel speedup: fatal only when the baseline is
    /// multi-core and the current runner has at least as many cores.
    Speedup,
    /// The machine-speed score the timings are normalized by.
    Calibration,
    /// The allocator peak, already machine-independent: ratio-gated
    /// without normalization, and only when both runs measured it.
    AllocPeak,
}

/// One catalogued field of a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Dotted path of the enclosing object from the document root; a
    /// component ending in `[]` stands for every element of that array.
    pub section: &'static str,
    /// Field name within the section.
    pub name: &'static str,
    /// Required JSON shape.
    pub kind: Kind,
    /// Regression-gate rule.
    pub gate: Gate,
    /// What the field records.
    pub doc: &'static str,
}

impl Metric {
    /// `section.name`, e.g. `measured.total_ms` — the path [`Report::num`]
    /// takes and findings report.
    pub fn path(&self) -> String {
        format!("{}.{}", self.section, self.name)
    }

    /// Whether this is a `measured` metric.
    pub fn is_measured(&self) -> bool {
        self.section.starts_with("measured")
    }
}

const fn c(section: &'static str, name: &'static str, kind: Kind, doc: &'static str) -> Metric {
    Metric {
        section,
        name,
        kind,
        gate: Gate::NotGated,
        doc,
    }
}

const fn m(name: &'static str, gate: Gate, doc: &'static str) -> Metric {
    Metric {
        section: "measured",
        name,
        kind: Kind::F64,
        gate,
        doc,
    }
}

use Gate::*;
use Kind::*;

/// The catalog: every field of `counters` and `measured`, in document
/// order.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    // Walk substrate: one seeded walk stepped per call, batched, and on the line graph.
    c("counters.walk", "steps", U64, "Steps taken on each stepping path (per-step, batched, line graph)."),
    c("counters.walk", "per_step_end", U64, "Final node index after the per-step OSN walk."),
    c("counters.walk", "batched_end", U64,
      "Final node index after the batched walk; equals `per_step_end` (same RNG stream)."),
    c("counters.walk", "line_end", U64Pair, "Final line-node endpoints after the line-graph walk."),
    c("counters.walk", "line_api_calls", U64,
      "Raw API calls of the line-graph walk: 2 neighbor-list calls per O(1) `sample_neighbor` step."),
    // One entry per algorithm: the paper's Table 2, then the extensions.
    c("counters.algorithms[]", "abbrev", Str, "Table 2 abbreviation, or the extension name."),
    c("counters.algorithms[]", "estimates", F64s, "Per-replication estimates, replication order."),
    c("counters.algorithms[]", "api_calls", U64, "Raw API calls across all replications."),
    c("counters.algorithms[]", "nrmse", OptF64,
      "NRMSE against exact ground truth; null when the tier skips the exact count."),
    // Query engine: one algorithm replicated through the shared cache, serial pass
    // (the parallel pass is asserted bit-identical).
    c("counters.engine", "replicates", U64, "Replicates fanned through the engine."),
    c("counters.engine", "estimates", F64s, "Per-replicate estimates, identical at every thread count."),
    c("counters.engine", "logical_api_calls", U64,
      "Logical API calls of all replicates: what the uncached baseline pays."),
    c("counters.engine", "miss_api_calls", U64,
      "Cache misses that reached the backend; <= 0.7 x logical on every smoke baseline."),
    c("counters.engine", "l1_hits", U64, "Logical calls served by the sessions' private L1 caches."),
    c("counters.engine", "hit_rate", F64, "`1 - miss/logical`."),
    // Workload: a mixed Table-2 workload over the fault-injecting backend, serial pass.
    c("counters.workload", "queries", U64, "Queries in the workload."),
    c("counters.workload", "fault_rate", F64, "Per-attempt fault probability of the adversarial backend."),
    c("counters.workload", "estimates", F64s,
      "Per-query estimates in query-id order; a failed query stores the -1 sentinel."),
    c("counters.workload", "logical_api_calls", U64, "Logical API calls across all queries."),
    c("counters.workload", "backend_attempts", U64,
      "Realized backend attempts (first tries + pages + retries)."),
    c("counters.workload", "retry_charges", U64, "Retry charges billed against query budgets."),
    c("counters.workload", "rate_limited", U64, "Rate-limit rejections absorbed."),
    c("counters.workload", "transient_errors", U64, "Transient errors absorbed."),
    c("counters.workload", "budget_exhausted_queries", U64, "Queries whose hard budget ran out."),
    c("counters.workload", "latency_ticks_p50", F64, "Median per-query simulated latency, ticks."),
    c("counters.workload", "latency_ticks_p95", F64, "95th-percentile per-query simulated latency, ticks."),
    // Serving: a multi-tenant stream through the sharded service with admission
    // control and quotas, single-shard pass (the fleet pass is asserted bit-identical).
    c("counters.serving", "shards", U64, "Shards of the fleet pass."),
    c("counters.serving", "tenants", U64, "Tenants issuing requests."),
    c("counters.serving", "requests", U64, "Requests submitted."),
    c("counters.serving", "admitted", U64, "Requests admitted and executed."),
    c("counters.serving", "shed", U64, "Requests shed by the modelled admission queues."),
    c("counters.serving", "quota_exhausted", U64, "Requests rejected on tenant quota."),
    c("counters.serving", "tenant_fairness", F64,
      "Max over min admitted per tenant (floored at 1), over tenants that submitted."),
    // Scheduling: the same stream through the virtual-time loop under the
    // scenario's deadline tightness.
    c("counters.scheduling", "deadline_hits", U64, "Deadline-carrying requests done by their deadline."),
    c("counters.scheduling", "cancellations", U64, "Requests cancelled into anytime answers."),
    c("counters.scheduling", "mean_slack_ticks", F64, "Mean slack over the deadline hits, ticks."),
    c("counters.scheduling", "priority_inversions", U64,
      "Higher-priority arrivals while a lower-priority slice ran."),
    // Paging: the buffer pool over the serial paged passes; all zero for in-RAM families.
    c("counters.paging", "page_reads", U64, "Pages read from disk (pool misses)."),
    c("counters.paging", "pool_hits", U64, "Pin requests served from resident frames."),
    c("counters.paging", "evictions", U64, "Frames replaced to make room."),
    c("counters.paging", "pinned_peak", U64, "High-water mark of simultaneously pinned frames."),
    // Invalidation: replicated runs over a churning backend; all zero at churn rate 0.
    c("counters.invalidation", "churn_batches", U64, "Churn batches the schedule applied."),
    c("counters.invalidation", "churn_events", U64, "Edge inserts/deletes and label flips applied."),
    c("counters.invalidation", "l1_stale_evictions", U64, "Session L1 slots discarded as stale."),
    c("counters.invalidation", "l2_stale_evictions", U64, "Shared L2 entries discarded as stale."),
    c("counters.invalidation", "avoided_invalidations", U64,
      "Label flips that left cached neighbor lists warm (split edge/label epochs)."),
    // Faults: outage bursts through the resilience layer; all zero with the burst knob off.
    c("counters.faults", "bursts", U64, "Distinct outage bursts the fetches ran into."),
    c("counters.faults", "breaker_opens", U64, "Circuit-breaker trips, re-opens included."),
    c("counters.faults", "stale_served", U64, "Stale cache entries served during degraded windows."),
    c("counters.faults", "storage_retries", U64,
      "Storage reads retried by the paged buffer pool (zero for in-RAM families)."),
    c("counters.faults", "quota_throttled", U64, "Requests throttled on the shared tenant rate limit."),
    c("counters", "ground_truth_f", U64, "Exact target-edge count F."),

    m("total_ms", SerialTime, "Whole-scenario wall time, ms."),
    m("per_step_steps_per_sec", Throughput, "Per-step walk throughput, steps/s."),
    m("batched_steps_per_sec", Throughput, "Batched (`steps_into`) walk throughput, steps/s."),
    m("line_steps_per_sec", Throughput, "Line-graph walk throughput, steps/s."),
    m("gt_serial_ms", NotGated, "Serial ground-truth count, ms (sub-ms at smoke scale)."),
    m("gt_parallel_ms", NotGated, "Parallel ground-truth count, ms."),
    m("engine_serial_ms", SerialTime, "Engine replication on one thread, ms."),
    m("engine_parallel_ms", CoreDependent, "The same replication across all threads, cold cache, ms."),
    m("engine_parallel_speedup", Speedup, "`engine_serial_ms / engine_parallel_ms`."),
    m("hit_path_ns", SerialTime, "One logical call on a fully warm L1 + L2, ns: the hot path."),
    m("workload_serial_ms", SerialTime, "Workload phase on one worker, ms."),
    m("workload_parallel_ms", CoreDependent, "The same workload across all workers, ms."),
    m("workload_queries_per_sec", NotGated,
      "Parallel workload throughput; the reciprocal of `workload_parallel_ms`, so not compared."),
    m("serving_serial_ms", SerialTime, "Serving phase on one shard and one worker, ms."),
    m("serving_parallel_ms", CoreDependent, "The same serving phase on the shard fleet, ms."),
    m("scheduler_ms", SerialTime, "Deadline-constrained scheduled run on one shard, ms."),
    m("page_fault_ns", SerialTime,
      "One cold buffer-pool page fault, ns; 0 for in-RAM families (below the floor, never gates)."),
    m("calibration_ops_per_sec", Calibration,
      "Machine-speed proxy (`scenario::calibration_ops_per_sec`) the timings are normalized by."),
    Metric { section: "measured.alloc", name: "peak_bytes", kind: U64, gate: AllocPeak,
             doc: "Peak live heap bytes over the scenario's own window." },
    Metric { section: "measured.alloc", name: "allocs", kind: U64, gate: NotGated,
             doc: "Allocations performed over the scenario." },
    Metric { section: "measured.alloc", name: "measured", kind: Bool, gate: NotGated,
             doc: "Whether the counting allocator was installed (false in test binaries)." },
];

/// A complete scenario report.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Schema version (always [`SCHEMA_VERSION`] for freshly produced
    /// reports).
    pub schema_version: u64,
    /// Scenario identity.
    pub meta: ScenarioMeta,
    /// The deterministic `counters` section in document order; its fields
    /// are the `counters` rows of [`METRICS`].
    pub counters: Json,
    /// The machine-dependent `measured` section (see
    /// [`Report::measured_section`]).
    pub measured: Json,
}

impl Report {
    /// The file name this report is stored under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.meta.name)
    }

    /// Builds the `measured` section in [`METRICS`] order from the run's
    /// named values plus the allocator window.
    ///
    /// # Panics
    ///
    /// If `values` does not name every flat `measured` metric exactly once.
    pub fn measured_section(values: &[(&str, f64)], alloc: AllocDelta) -> Json {
        let mut pairs: Vec<(&str, Json)> = METRICS
            .iter()
            .filter(|m| m.section == "measured")
            .map(|m| match values.iter().find(|(k, _)| *k == m.name) {
                Some(&(_, x)) => (m.name, Json::Num(x)),
                None => panic!("no value for measured metric `{}`", m.name),
            })
            .collect();
        assert_eq!(pairs.len(), values.len(), "uncatalogued measured value");
        let alloc = Json::obj(vec![
            ("peak_bytes", alloc.peak_bytes.into()),
            ("allocs", alloc.allocs.into()),
            ("measured", Json::Bool(alloc.measured)),
        ]);
        pairs.push(("alloc", alloc));
        Json::obj(pairs)
    }

    /// The value at `path` (`counters.engine.l1_hits`,
    /// `measured.total_ms`); `None` outside `counters` and `measured`.
    pub fn get(&self, path: &str) -> Option<&Json> {
        match path.split_once('.')? {
            ("counters", rest) => self.counters.at(rest),
            ("measured", rest) => self.measured.at(rest),
            _ => None,
        }
    }

    /// The number at `path`.
    ///
    /// # Panics
    ///
    /// If `path` is not a number. Reports from [`crate::run_scenario`] and
    /// [`Report::from_json_text`] carry every numeric field of [`METRICS`].
    pub fn num(&self, path: &str) -> f64 {
        self.get(path)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("report has no number at `{path}`"))
    }

    /// Serializes to the schema's JSON document.
    pub fn to_json(&self) -> Json {
        let m = &self.meta;
        Json::obj(vec![
            ("schema_version", self.schema_version.into()),
            (
                "scenario",
                Json::obj(vec![
                    ("name", Json::Str(m.name.clone())),
                    ("family", Json::Str(m.family.clone())),
                    ("tier", Json::Str(m.tier.clone())),
                    ("seed", m.seed.into()),
                    ("nodes", m.nodes.into()),
                    ("edges", m.edges.into()),
                    ("budget", m.budget.into()),
                    ("burn_in", m.burn_in.into()),
                    ("reps", m.reps.into()),
                    ("threads", m.threads.into()),
                ]),
            ),
            ("counters", self.counters.clone()),
            ("measured", self.measured.clone()),
        ])
    }

    /// Parses a report from JSON text, validating the schema version and
    /// the shape of every catalogued field.
    pub fn from_json_text(text: &str) -> Result<Report, ReportError> {
        let v = Json::parse(text)?;
        let schema_version = field_u64(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(ReportError::Schema(format!(
                "schema_version {schema_version} != supported {SCHEMA_VERSION}"
            )));
        }
        let sc = v.get("scenario").ok_or_else(|| miss("scenario"))?;
        let meta = ScenarioMeta {
            name: field_str(sc, "name")?,
            family: field_str(sc, "family")?,
            tier: field_str(sc, "tier")?,
            seed: field_u64(sc, "seed")?,
            nodes: field_u64(sc, "nodes")?,
            edges: field_u64(sc, "edges")?,
            budget: field_u64(sc, "budget")?,
            burn_in: field_u64(sc, "burn_in")?,
            reps: field_u64(sc, "reps")?,
            threads: field_u64(sc, "threads")?,
        };
        for metric in METRICS {
            let section: Vec<&str> = metric.section.split('.').collect();
            check(&v, &section, metric, "")?;
        }
        let section = |key: &str| v.get(key).cloned().ok_or_else(|| miss(key));
        Ok(Report {
            schema_version,
            meta,
            counters: section("counters")?,
            measured: section("measured")?,
        })
    }
}

/// Checks `metric` below `v`, descending along the remaining `section`
/// components; `at` is the path walked so far, for the error message.
fn check(v: &Json, section: &[&str], metric: &Metric, at: &str) -> Result<(), ReportError> {
    let Some((head, rest)) = section.split_first() else {
        return match v.get(metric.name) {
            Some(x) if metric.kind.matches(x) => Ok(()),
            _ => Err(miss(&format!("{at}{}", metric.name))),
        };
    };
    match head.strip_suffix("[]") {
        Some(key) => {
            let items = v.get(key).and_then(Json::as_arr);
            let items = items.ok_or_else(|| miss(&format!("{at}{key}")))?;
            items
                .iter()
                .enumerate()
                .try_for_each(|(i, item)| check(item, rest, metric, &format!("{at}{key}[{i}].")))
        }
        None => {
            let inner = v.get(head).ok_or_else(|| miss(&format!("{at}{head}")))?;
            check(inner, rest, metric, &format!("{at}{head}."))
        }
    }
}

/// Errors loading a report.
#[derive(Debug)]
pub enum ReportError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is valid JSON but violates the schema.
    Schema(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::Schema(s) => write!(f, "schema error: {s}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Json(e)
    }
}

fn miss(path: &str) -> ReportError {
    ReportError::Schema(format!("missing or mistyped field `{path}`"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, ReportError> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| miss(key))
}

fn field_str(v: &Json, key: &str) -> Result<String, ReportError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| miss(key))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_report() -> Report {
        let num = |pairs: &[(&str, f64)]| {
            Json::obj(pairs.iter().map(|&(k, x)| (k, Json::Num(x))).collect())
        };
        let algo = |abbrev: &str, estimates: &[f64], api_calls: u64, nrmse: Option<f64>| {
            Json::obj(vec![
                ("abbrev", Json::Str(abbrev.into())),
                ("estimates", estimates.into()),
                ("api_calls", api_calls.into()),
                ("nrmse", nrmse.map_or(Json::Null, Json::Num)),
            ])
        };
        let counters = Json::obj(vec![
            (
                "walk",
                Json::obj(vec![
                    ("steps", 100_000u64.into()),
                    ("per_step_end", 17u64.into()),
                    ("batched_end", 17u64.into()),
                    ("line_end", Json::Arr(vec![3u64.into(), 88u64.into()])),
                    ("line_api_calls", 200_000u64.into()),
                ]),
            ),
            (
                "algorithms",
                Json::Arr(vec![
                    algo(
                        "NeighborSample-HH",
                        &[6800.5, 7011.25, 6500.0],
                        1530,
                        Some(0.041),
                    ),
                    algo("ext-triangles", &[123.0], 400, None),
                ]),
            ),
            (
                "engine",
                Json::obj(vec![
                    ("replicates", 64u64.into()),
                    ("estimates", [6700.0, 6801.5][..].into()),
                    ("logical_api_calls", 131_072u64.into()),
                    ("miss_api_calls", 4_100u64.into()),
                    ("l1_hits", 96_000u64.into()),
                    ("hit_rate", 0.96872.into()),
                ]),
            ),
            (
                "workload",
                Json::obj(vec![
                    ("queries", 16u64.into()),
                    ("fault_rate", 0.15.into()),
                    ("estimates", [6650.0, -1.0, 6900.25][..].into()),
                    ("logical_api_calls", 40_000u64.into()),
                    ("backend_attempts", 9_500u64.into()),
                    ("retry_charges", 1_200u64.into()),
                    ("rate_limited", 420u64.into()),
                    ("transient_errors", 390u64.into()),
                    ("budget_exhausted_queries", 1u64.into()),
                    ("latency_ticks_p50", 310.0.into()),
                    ("latency_ticks_p95", 2_950.5.into()),
                ]),
            ),
            (
                "serving",
                num(&[
                    ("shards", 4.0),
                    ("tenants", 4.0),
                    ("requests", 32.0),
                    ("admitted", 24.0),
                    ("shed", 5.0),
                    ("quota_exhausted", 3.0),
                    ("tenant_fairness", 2.5),
                ]),
            ),
            (
                "scheduling",
                num(&[
                    ("deadline_hits", 18.0),
                    ("cancellations", 6.0),
                    ("mean_slack_ticks", 42.5),
                    ("priority_inversions", 3.0),
                ]),
            ),
            (
                "paging",
                num(&[
                    ("page_reads", 512.0),
                    ("pool_hits", 14_200.0),
                    ("evictions", 496.0),
                    ("pinned_peak", 3.0),
                ]),
            ),
            (
                "invalidation",
                num(&[
                    ("churn_batches", 12.0),
                    ("churn_events", 96.0),
                    ("l1_stale_evictions", 40.0),
                    ("l2_stale_evictions", 310.0),
                    ("avoided_invalidations", 22.0),
                ]),
            ),
            (
                "faults",
                num(&[
                    ("bursts", 14.0),
                    ("breaker_opens", 3.0),
                    ("stale_served", 9.0),
                    ("storage_retries", 2.0),
                    ("quota_throttled", 5.0),
                ]),
            ),
            ("ground_truth_f", 6750u64.into()),
        ]);
        let measured = Report::measured_section(
            &[
                ("total_ms", 1234.5),
                ("per_step_steps_per_sec", 1.0e7),
                ("batched_steps_per_sec", 1.3e7),
                ("line_steps_per_sec", 4.0e6),
                ("gt_serial_ms", 12.0),
                ("gt_parallel_ms", 3.5),
                ("engine_serial_ms", 9.0),
                ("engine_parallel_ms", 2.4),
                ("engine_parallel_speedup", 3.75),
                ("hit_path_ns", 11.5),
                ("workload_serial_ms", 42.0),
                ("workload_parallel_ms", 12.5),
                ("workload_queries_per_sec", 1_280.0),
                ("serving_serial_ms", 55.0),
                ("serving_parallel_ms", 16.0),
                ("scheduler_ms", 38.0),
                ("page_fault_ns", 2_150.0),
                ("calibration_ops_per_sec", 1.5e8),
            ],
            AllocDelta {
                peak_bytes: 1 << 20,
                allocs: 4242,
                measured: true,
            },
        );
        Report {
            schema_version: SCHEMA_VERSION,
            meta: ScenarioMeta {
                name: "ba_smoke".into(),
                family: "ba".into(),
                tier: "smoke".into(),
                seed: 2018,
                nodes: 2000,
                edges: 15936,
                budget: 100,
                burn_in: 60,
                reps: 5,
                threads: 4,
            },
            counters,
            measured,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let text = r.to_json().to_pretty();
        let parsed = Report::from_json_text(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(r.file_name(), "BENCH_ba_smoke.json");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let r = sample_report();
        let text = r
            .to_json()
            .to_pretty()
            .replace("\"schema_version\": 9", "\"schema_version\": 999");
        match Report::from_json_text(&text) {
            Err(ReportError::Schema(msg)) => assert!(msg.contains("999"), "{msg}"),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_schema_errors() {
        let text = "{\"schema_version\": 9}";
        assert!(matches!(
            Report::from_json_text(text),
            Err(ReportError::Schema(_))
        ));
    }

    /// Every catalogued field is required: deleting or retyping any one of
    /// them is a schema error naming its path.
    #[test]
    fn every_catalogued_field_is_checked() {
        let doc = sample_report().to_json();
        for metric in METRICS {
            let (parent, elem) = match metric.section.split_once("[]") {
                Some((array, _)) => (array, Some(0)),
                None => (metric.section, None),
            };
            for wrong in [None, Some(Json::Str("x".into()))] {
                let mut bad = doc.clone();
                let mut obj = bad.at_mut(parent).unwrap();
                if let Some(i) = elem {
                    let Json::Arr(items) = obj else {
                        unreachable!()
                    };
                    obj = &mut items[i];
                }
                let Json::Obj(pairs) = obj else {
                    unreachable!()
                };
                let slot = pairs.iter().position(|(k, _)| k == metric.name).unwrap();
                match &wrong {
                    None => drop(pairs.remove(slot)),
                    Some(v) if metric.kind != Kind::Str => pairs[slot].1 = v.clone(),
                    Some(_) => pairs[slot].1 = Json::Num(1.0),
                }
                match Report::from_json_text(&bad.to_pretty()) {
                    Err(ReportError::Schema(msg)) => {
                        assert!(msg.contains(metric.name), "{}: {msg}", metric.path())
                    }
                    other => panic!(
                        "{} {wrong:?}: expected schema error, got {other:?}",
                        metric.path()
                    ),
                }
            }
        }
    }

    #[test]
    fn accessors_reach_both_sections() {
        let mut r = sample_report();
        assert_eq!(r.num("counters.engine.l1_hits"), 96_000.0);
        assert_eq!(r.num("measured.alloc.peak_bytes"), (1 << 20) as f64);
        assert_eq!(r.get("scenario.name"), None);
        *r.measured.at_mut("total_ms").unwrap() = Json::Num(1.0);
        assert_eq!(r.num("measured.total_ms"), 1.0);
        let measured: Vec<String> = match &r.measured {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| format!("measured.{k}")).collect(),
            _ => unreachable!(),
        };
        let catalogued: Vec<String> = METRICS
            .iter()
            .filter(|m| m.section == "measured")
            .map(Metric::path)
            .chain(["measured.alloc".to_string()])
            .collect();
        assert_eq!(measured, catalogued, "measured keys follow the table");
    }
}
