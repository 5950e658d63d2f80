//! The repository's benchmark: fixed, seeded query sets over three
//! workloads, timed through the library's public API, with a correctness
//! gate. See `README.md` beside this package for the workloads, the
//! metrics and the layer each metric belongs to.
//!
//! ```text
//! ledgerbench --workload <paged-tight|serve-mixed> --seed <n>
//!             --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload and prints the end-to-end metrics;
//! `--trace 1` runs the traced pass (and, on `paged-tight`, the layer ledger)
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object, and the process exits non-zero if any
//! correctness check failed.

mod closed;
mod measure;
mod report;
mod serve_mixed;
mod setup;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::Report;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 2] = ["paged-tight", "serve-mixed"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("answered_frac", "ratio"),
    ("completed_frac", "ratio"),
    ("deadline_hit_frac", "ratio"),
    ("charged_calls_per_query", "calls"),
    ("estimate_nrmse", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// exercise a layer reports `0` for it (see `README.md`).
const PER_LAYER: [(&str, &str); 50] = [
    ("core.self_ns_per_call", "ns"),
    ("core.ns_hh.query_ms", "ms"),
    ("core.ns_ht.query_ms", "ms"),
    ("core.ne_hh.query_ms", "ms"),
    ("core.ne_ht.query_ms", "ms"),
    ("core.ne_rw.query_ms", "ms"),
    ("osn.logical_calls_per_query", "calls"),
    ("osn.backend_fetches_per_query", "fetches"),
    ("osn.l1_hit_rate", "ratio"),
    ("osn.l2_hit_rate", "ratio"),
    ("osn.stale_evictions_per_query", "count"),
    ("osn.api_self_ns_per_call", "ns"),
    ("osn.backend_ns_per_fetch", "ns"),
    ("osn.ladder.raw_ns_per_call", "ns"),
    ("osn.ladder.l2_ns_per_call", "ns"),
    ("osn.ladder.l1_ns_per_call", "ns"),
    ("osn.ladder.adversarial0_ns_per_call", "ns"),
    ("osn.ladder.churn0_ns_per_call", "ns"),
    ("osn.ladder.paged_unbounded_ns_per_call", "ns"),
    ("osn.ladder.paged_tight_ns_per_call", "ns"),
    ("osn.ladder.engine_over_raw", "x"),
    ("osn.faults.retry_charges_per_query", "calls"),
    ("osn.faults.useful_attempt_frac", "ratio"),
    ("osn.faults.rate_limited_per_query", "count"),
    ("osn.faults.transient_per_query", "count"),
    ("osn.faults.bursts", "count"),
    ("osn.faults.breaker_opens", "count"),
    ("osn.faults.stale_served", "count"),
    ("graph.pool.page_reads_per_query", "reads"),
    ("graph.pool.hit_rate", "ratio"),
    ("graph.pool.evictions_per_query", "count"),
    ("graph.pool.pinned_peak", "frames"),
    ("graph.churn.batches_applied", "count"),
    ("graph.churn.avoided_invalidations", "count"),
    ("serve.admission.admitted_frac", "ratio"),
    ("serve.admission.shed_frac", "ratio"),
    ("serve.admission.quota_frac", "ratio"),
    ("serve.admission.throttled_frac", "ratio"),
    ("serve.admission.tenant_fairness", "x"),
    ("serve.admission.ns_per_decision", "ns"),
    ("serve.scheduler.cancellations", "count"),
    ("serve.scheduler.priority_inversions", "count"),
    ("serve.scheduler.mean_slack_ticks", "ticks"),
    ("serve.scheduler.wasted_replicate_frac", "ratio"),
    ("virtual_latency_p95_ticks", "ticks"),
    ("graph.setup.generate_s", "s"),
    ("graph.setup.ground_truth_s", "s"),
    ("graph.setup.paged_write_s", "s"),
    ("serve.setup.register_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Traced run (per-layer metrics) instead of a timing run.
    pub trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut trace) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            // The caller's run length. Query sets are fixed, never time
            // boxed (sized to take about 30 s on a 2-core machine), so the
            // value is only checked.
            "--seconds" => {
                if value.parse::<u64>().map_err(bad)? == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("{flag}: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        trace,
    })
}

/// Writes a traced run's spans to `ledgerbench/traces/`.
pub fn write_trace(args: &Args, trace: &trace::Trace) -> std::io::Result<()> {
    let dir = Path::new("ledgerbench").join("traces");
    std::fs::create_dir_all(&dir)?;
    trace.write_jsonl(&dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed)))
}

/// Keeps exactly the metrics of the run's mode, in catalog order. Missing
/// end-to-end metrics fail the run; missing per-layer metrics are layers
/// the workload does not exercise and read `0`.
fn finalize(args: &Args, mut report: Report) -> Report {
    if !args.trace {
        if let Some(mib) = measure::peak_rss_mib() {
            report.metric("peak_rss_mb", mib, "MiB");
        }
    }
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Report::default();
    out.attempted = report.attempted.max(1);
    out.failed = report.failed;
    for f in report.failures() {
        out.check(false, || f.clone());
    }
    for &(name, unit) in catalog {
        match report.metrics().iter().find(|m| m.name == name) {
            Some(m) => {
                out.check(m.unit == unit, || format!("{name} reported in {}", m.unit));
                out.metric(name, m.value, unit);
            }
            None if args.trace => out.metric(name, 0.0, unit),
            None => {
                out.check(false, || format!("{name} was not measured"));
                out.metric(name, 0.0, unit);
            }
        }
    }
    out.note(format!(
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    ));
    for n in report.notes() {
        out.note(n.clone());
    }
    out
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "paged-tight" => closed::paged_tight(&args, &mut report),
        _ => serve_mixed::serve_mixed(&args, &mut report),
    };
    if let Err(e) = run {
        eprintln!("ledgerbench: {e}");
        return ExitCode::from(2);
    }
    let report = finalize(&args, report);
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for f in report.failures() {
            eprintln!("ledgerbench: check failed: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload paged-tight --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, "paged-tight");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload ram-paper --seed 1").is_err());
        assert!(args("--workload paged-tight").is_err());
        assert!(args("--workload paged-tight --seed 1 --trace 2").is_err());
        assert!(args("--workload paged-tight --seed 1 --seconds 0").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly the catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        let mut expected: Vec<&str> = WORKLOADS.to_vec();
        expected.extend(END_TO_END.iter().map(|m| m.0));
        expected.extend(PER_LAYER.iter().map(|m| m.0));
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = json.split(&format!("\"name\": \"{name}\"")).nth(1).unwrap();
            let entry = entry.split('}').next().unwrap();
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} has a different unit in BENCHMARK.json"
            );
        }
    }
}
