//! The harness's core guarantee: same scenario + same seed ⇒ identical
//! deterministic counters (steps, API calls, estimates), end to end
//! through JSON serialization.

use labelcount_perf::json::Json;
use labelcount_perf::report::Report;
use labelcount_perf::scenario::{run_scenario, Family, PoolFrames, ScenarioSpec, Tier};

fn smoke_spec(family: Family, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(family, Tier::Smoke, seed)
}

/// The integer counter at `path` (`engine.l1_hits`).
fn u(r: &Report, path: &str) -> u64 {
    r.counters.at(path).and_then(Json::as_u64).expect(path)
}

/// The number at `path` under `counters`.
fn f(r: &Report, path: &str) -> f64 {
    r.counters.at(path).and_then(Json::as_f64).expect(path)
}

/// A counters subtree (`walk`, `serving`), for whole-section equality.
fn section<'a>(r: &'a Report, path: &str) -> &'a Json {
    r.counters.at(path).expect(path)
}

/// The bit patterns of a number array.
fn bits(v: &Json) -> Vec<u64> {
    let items = v.as_arr().expect("number array");
    items
        .iter()
        .map(|e| e.as_f64().unwrap().to_bits())
        .collect()
}

/// `counters.algorithms` as a slice of per-algorithm objects.
fn algorithms(r: &Report) -> &[Json] {
    r.counters.at("algorithms").and_then(Json::as_arr).unwrap()
}

/// Two same-seed runs must agree on every counter. Wall-clock metrics are
/// deliberately not compared.
#[test]
fn smoke_counters_are_identical_across_runs_at_the_same_seed() {
    let spec = smoke_spec(Family::Ba, 7);
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);

    assert_eq!(a.meta, b.meta);
    assert_eq!(section(&a, "walk"), section(&b, "walk"));
    assert_eq!(u(&a, "ground_truth_f"), u(&b, "ground_truth_f"));
    // The engine counters are deterministic too: same logical/miss split,
    // bit-identical replicated estimates.
    for key in ["replicates", "logical_api_calls", "miss_api_calls"] {
        let path = format!("engine.{key}");
        assert_eq!(u(&a, &path), u(&b, &path), "{path}");
    }
    // L1 hits are per-session functions of per-session call sequences, so
    // they are as deterministic as the miss counts.
    assert_eq!(u(&a, "engine.l1_hits"), u(&b, "engine.l1_hits"));
    assert_eq!(
        f(&a, "engine.hit_rate").to_bits(),
        f(&b, "engine.hit_rate").to_bits()
    );
    assert_eq!(
        bits(section(&a, "engine.estimates")),
        bits(section(&b, "engine.estimates"))
    );
    // The workload phase — faults, retries, latency ticks and all — is
    // deterministic too.
    for key in [
        "queries",
        "logical_api_calls",
        "backend_attempts",
        "retry_charges",
        "rate_limited",
        "transient_errors",
        "budget_exhausted_queries",
    ] {
        let path = format!("workload.{key}");
        assert_eq!(u(&a, &path), u(&b, &path), "{path}");
    }
    assert_eq!(
        f(&a, "workload.latency_ticks_p50").to_bits(),
        f(&b, "workload.latency_ticks_p50").to_bits()
    );
    assert_eq!(
        bits(section(&a, "workload.estimates")),
        bits(section(&b, "workload.estimates"))
    );
    // The serving phase — sharded admission, quotas, and shedding — is a
    // deterministic counter set too (fairness compared bit for bit).
    assert_eq!(section(&a, "serving"), section(&b, "serving"));
    // And the scheduler phase: the virtual clock, the calibrated deadline,
    // and every cancellation decision are pure functions of the seed.
    assert_eq!(section(&a, "scheduling"), section(&b, "scheduling"));
    assert_eq!(algorithms(&a).len(), algorithms(&b).len());
    for (x, y) in algorithms(&a).iter().zip(algorithms(&b)) {
        let abbrev = x.get("abbrev").and_then(Json::as_str).unwrap();
        assert_eq!(x.get("abbrev"), y.get("abbrev"));
        assert_eq!(x.get("api_calls"), y.get("api_calls"), "{abbrev}");
        // Bit-identical, not approximately equal.
        let estimates = |v: &Json| bits(v.get("estimates").unwrap());
        assert_eq!(estimates(x), estimates(y), "{abbrev}");
        let nrmse = |v: &Json| v.get("nrmse").and_then(Json::as_f64).map(f64::to_bits);
        assert_eq!(nrmse(x), nrmse(y), "{abbrev}");
    }
}

/// Counters must survive the BENCH_*.json round trip unchanged, and the
/// batched walk must land on the same node as the per-step walk.
#[test]
fn smoke_report_round_trips_and_batched_walk_agrees() {
    let spec = smoke_spec(Family::Er, 13);
    let report = run_scenario(&spec);

    assert_eq!(
        u(&report, "walk.per_step_end"),
        u(&report, "walk.batched_end")
    );
    // The line walk pays exactly 2 neighbor-list calls per step through the
    // O(1) sampler (plus the calls spent finding a start edge).
    assert!(u(&report, "walk.line_api_calls") >= 2 * (u(&report, "walk.steps") / 4));

    let text = report.to_json().to_pretty();
    let parsed = Report::from_json_text(&text).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.file_name(), "BENCH_er_smoke.json");

    // The v2 engine fields survive the round trip and satisfy the
    // cached-access-layer contract: a caching crawler pays at least 30%
    // fewer backend (miss) API calls than the uncached baseline's logical
    // total, and the replicate count matches the estimate vector.
    let (replicates, logical, miss) = (
        u(&parsed, "engine.replicates"),
        u(&parsed, "engine.logical_api_calls"),
        u(&parsed, "engine.miss_api_calls"),
    );
    assert_eq!(
        replicates as usize,
        section(&parsed, "engine.estimates").as_arr().unwrap().len()
    );
    assert!(miss <= logical);
    assert!(
        (miss as f64) <= 0.7 * logical as f64,
        "engine cache saved too little: {miss} misses / {logical} logical"
    );
    let expect_rate = (logical - miss) as f64 / logical as f64;
    assert_eq!(
        f(&parsed, "engine.hit_rate").to_bits(),
        expect_rate.to_bits()
    );
    // The v4 cache-hierarchy fields: replicated estimation over a shared
    // graph is repeat-heavy, so the session L1s must absorb a nonzero
    // share of the hits, bounded by the total hit count.
    let l1_hits = u(&parsed, "engine.l1_hits");
    assert!(l1_hits > 0, "engine sessions produced zero L1 hits");
    assert!(l1_hits <= logical - miss);
    assert!(parsed.num("measured.engine_serial_ms") > 0.0);
    assert!(parsed.num("measured.engine_parallel_ms") > 0.0);
    assert!(parsed.num("measured.engine_parallel_speedup") > 0.0);
    assert!(
        parsed.num("measured.hit_path_ns") > 0.0,
        "warm-cache probe must measure a positive per-call cost"
    );

    // The v3 workload section survives the round trip and satisfies the
    // adversarial-service contract: at the default 0.15 fault rate every
    // committed baseline has live fault counters, the realized API cost
    // strictly exceeds the cache's backend misses it wraps, and the
    // latency percentiles are ordered.
    let w = |key: &str| u(&parsed, &format!("workload.{key}"));
    assert_eq!(
        w("queries") as usize,
        section(&parsed, "workload.estimates")
            .as_arr()
            .unwrap()
            .len()
    );
    assert!(f(&parsed, "workload.fault_rate") > 0.0);
    assert!(w("retry_charges") > 0, "a hostile API must charge retries");
    assert!(w("rate_limited") + w("transient_errors") > 0);
    assert!(w("backend_attempts") > 0);
    // attempts = misses + retries + extra pages; misses are not stored,
    // but attempts − charges (= misses) must stay within the logical
    // total the caches absorbed them from.
    assert!(w("backend_attempts") - w("retry_charges") <= w("logical_api_calls"));
    let (p50, p95) = (
        f(&parsed, "workload.latency_ticks_p50"),
        f(&parsed, "workload.latency_ticks_p95"),
    );
    assert!(p50 > 0.0);
    assert!(p50 <= p95);
    assert!(parsed.meta.threads >= 1);
    assert!(parsed.num("measured.workload_serial_ms") > 0.0);
    assert!(parsed.num("measured.workload_parallel_ms") > 0.0);
    assert!(parsed.num("measured.workload_queries_per_sec") > 0.0);

    // The v5 serving section survives the round trip and satisfies the
    // multi-tenant contract: under the default skew and the phase's tight
    // admission model, every committed baseline admits, sheds, AND
    // quota-rejects — all three paths live in every report the compare
    // gate sees.
    let s = |key: &str| u(&parsed, &format!("serving.{key}"));
    assert_eq!(
        s("requests"),
        s("admitted") + s("shed") + s("quota_exhausted")
    );
    assert!(s("admitted") > 0, "serving phase admitted nothing");
    assert!(s("shed") > 0, "serving phase never shed");
    assert!(s("quota_exhausted") > 0, "serving phase never hit a quota");
    assert!(s("shards") >= 1 && s("tenants") >= 2);
    // The heavy hitter is quota-capped while light tenants keep flowing,
    // so admitted counts per tenant can never be perfectly even.
    assert!(f(&parsed, "serving.tenant_fairness") >= 1.0);
    assert!(parsed.num("measured.serving_serial_ms") > 0.0);
    assert!(parsed.num("measured.serving_parallel_ms") > 0.0);

    // The v6 scheduling section survives the round trip and satisfies the
    // deadline contract: at the default p95 tightness most requests hit
    // their deadline while the tail cancels into anytime answers — both
    // paths live in every report the compare gate sees.
    assert!(
        u(&parsed, "scheduling.deadline_hits") > 0,
        "scheduler phase hit no deadlines"
    );
    assert!(
        u(&parsed, "scheduling.cancellations") > 0,
        "a p95 deadline must cancel the tail of the stream"
    );
    assert!(f(&parsed, "scheduling.mean_slack_ticks") >= 0.0);
    assert!(parsed.num("measured.scheduler_ms") > 0.0);

    // The v7 paging section: in-RAM families never touch the pool, so
    // their counters are all-zero and the fault probe reports 0.0.
    for key in ["page_reads", "pool_hits", "evictions", "pinned_peak"] {
        assert_eq!(u(&parsed, &format!("paging.{key}")), 0, "{key}");
    }
    assert_eq!(parsed.num("measured.page_fault_ns"), 0.0);
}

/// The v7 out-of-core scenario. Bit-identity of every paged serial pass
/// against its in-RAM twin is asserted *inside* `run_scenario` (the run
/// panics on any divergence), so this test focuses on the paging section:
/// the counters are live at the default tight budget, deterministic
/// across runs, and a roomier budget moves *only* them.
#[test]
fn loaded_paged_scenario_reports_live_deterministic_paging_counters() {
    let spec = smoke_spec(Family::LoadedPaged, 3);
    let a = run_scenario(&spec);
    let b = run_scenario(&spec);
    assert!(u(&a, "paging.page_reads") > 0, "paged phases read no pages");
    assert!(
        u(&a, "paging.pool_hits") > 0,
        "paged phases never hit the pool"
    );
    assert!(u(&a, "paging.evictions") > 0, "a tight budget must evict");
    assert!(u(&a, "paging.pinned_peak") >= 1);
    assert_eq!(
        section(&a, "paging"),
        section(&b, "paging"),
        "paging counters must be deterministic"
    );
    assert!(
        a.num("measured.page_fault_ns") > 0.0,
        "cold-pool probe must measure a positive per-fault cost"
    );

    // An unbounded pool never evicts and re-reads nothing, yet every
    // other deterministic counter — estimates, faults, admission,
    // scheduling — is untouched by the budget.
    let mut roomy_spec = spec;
    roomy_spec.pool_frames = PoolFrames::Unbounded;
    let roomy = run_scenario(&roomy_spec);
    assert_eq!(u(&roomy, "paging.evictions"), 0);
    assert!(u(&roomy, "paging.page_reads") <= u(&a, "paging.page_reads"));
    assert!(u(&roomy, "paging.pool_hits") >= u(&a, "paging.pool_hits"));
    for key in [
        "walk",
        "engine",
        "workload",
        "serving",
        "scheduling",
        "ground_truth_f",
    ] {
        assert_eq!(section(&a, key), section(&roomy, key), "{key}");
    }
}

/// The fault rate is part of the deterministic counters: a different rate
/// must change the workload's realized cost (and only the workload — the
/// clean-room phases never see the fault model).
#[test]
fn fault_rate_changes_workload_counters_only() {
    let mut spec = smoke_spec(Family::Ba, 5);
    spec.fault_rate = 0.05;
    let mild = run_scenario(&spec);
    spec.fault_rate = 0.45;
    let rough = run_scenario(&spec);

    assert!(u(&rough, "workload.retry_charges") > u(&mild, "workload.retry_charges"));
    assert!(u(&rough, "workload.backend_attempts") > u(&mild, "workload.backend_attempts"));
    // Faults never alter a query's call *sequence*, but retry charges
    // count against hard budgets, so a rough API can only cut queries
    // short — logical demand never grows with the fault rate.
    assert!(u(&rough, "workload.logical_api_calls") <= u(&mild, "workload.logical_api_calls"));
    assert!(
        u(&rough, "workload.budget_exhausted_queries")
            >= u(&mild, "workload.budget_exhausted_queries"),
        "a rougher API cannot exhaust fewer budgets"
    );
    // The clean-room phases never see the fault model.
    for key in ["walk", "engine", "ground_truth_f"] {
        assert_eq!(section(&mild, key), section(&rough, key), "{key}");
    }
}

/// Different seeds must actually change the estimates (guards against a
/// harness that ignores its seed, which would make the determinism test
/// vacuous).
#[test]
fn different_seeds_change_estimates() {
    let a = run_scenario(&smoke_spec(Family::Ba, 1));
    let b = run_scenario(&smoke_spec(Family::Ba, 2));
    let differs = algorithms(&a)
        .iter()
        .zip(algorithms(&b))
        .any(|(x, y)| x.get("estimates") != y.get("estimates"));
    assert!(differs, "estimates identical across different seeds");
}
